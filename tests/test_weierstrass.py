import numpy as np
import pytest

from bitension import geometry, jets, weierstrass
from bitension.charts import ChartDomain, RiemannianMetric, SmoothMap
from bitension.geometry import GeometryInputError
from bitension.weierstrass import wirtinger_dz, wirtinger_dzbar

import support


def coordinate_jets(pts, order=4):
    u = jets.Jet.variable(0, pts[:, 0], 2, order)
    v = jets.Jet.variable(1, pts[:, 1], 2, order)
    return u, v


def complex_coordinates(pts):
    u, v = coordinate_jets(pts)
    return u + 1j * v, u - 1j * v


def square(lo=-0.5, hi=0.5):
    return ChartDomain(("u", "v"), ((lo, hi), (lo, hi)))


def flat_target(n, half_width=4.0):
    names = ("p", "q", "r", "s", "t", "w")[:n]
    tgt = ChartDomain(names, ((-half_width, half_width),) * n)
    return tgt, RiemannianMetric.euclidean(tgt)


def wrap_case(radius=1.0):
    dom = ChartDomain(("x", "y"), ((-2.0, 2.0), (-1.0, 1.0)))
    tgt, h = flat_target(3)
    phi = SmoothMap.from_components(
        dom, tgt, ("R*cos(x/R)", "R*sin(x/R)", "y"), {"R": radius})
    g = RiemannianMetric.conformally_flat(dom, "exp(y/R)", {"R": radius})
    return dom, phi, g, h


# -- complex jets and Wirtinger operators ------------------------------------------


def test_complex_jet_arithmetic():
    pts = square().sample(30, 1)
    z, zbar = complex_coordinates(pts)
    zc = pts[:, 0] + 1j * pts[:, 1]
    assert np.max(np.abs((z * z).value - zc ** 2)) < 1e-14
    assert np.max(np.abs((z * zbar).value - np.abs(zc) ** 2)) < 1e-14
    assert np.max(np.abs((1j * z + 2.0).value - (1j * zc + 2.0))) < 1e-14
    assert np.max(np.abs((2.0 - 1j * z).value - (2.0 - 1j * zc))) < 1e-14
    real_part = (z + zbar) * 0.5
    assert np.max(np.abs(real_part.value - pts[:, 0])) < 1e-14
    # d/du (z zbar) = 2u, carried exactly by the complex coefficients
    assert np.max(np.abs((z * zbar).derivative(0).value
                         - 2.0 * pts[:, 0])) < 1e-14


def test_real_jet_arithmetic_stays_real():
    u, v = coordinate_jets(square().sample(10, 1))
    results = [u + 2.0, 2.0 - u, u - v, 3 * u, u * v, u / 2.0, 1.0 / (2.0 + u),
               jets.sin(u) * v + 1, (u * v).derivative(1)]
    assert all(r.coeffs.dtype == np.float64 for r in results)


def test_wirtinger_on_powers_of_z():
    pts = square().sample(20, 2)
    z, zbar = complex_coordinates(pts)
    zc = pts[:, 0] + 1j * pts[:, 1]
    assert np.max(np.abs(wirtinger_dz(z).value - 1.0)) < 1e-14
    assert np.max(np.abs(wirtinger_dzbar(z).value)) < 1e-14
    assert np.max(np.abs(wirtinger_dz(zbar).value)) < 1e-14
    assert np.max(np.abs(wirtinger_dzbar(zbar).value - 1.0)) < 1e-14
    assert np.max(np.abs(wirtinger_dz(z * z).value - 2.0 * zc)) < 1e-14
    # product rule: d/dzbar (z zbar) = z
    assert np.max(np.abs(wirtinger_dzbar(z * zbar).value - zc)) < 1e-14


def test_wirtinger_factorizes_the_laplacian():
    pts = square().sample(25, 3)
    u, v = coordinate_jets(pts)
    f = jets.sin(u) * jets.exp(v) + u * u * u * v
    flat_lap = (f.derivative(0).derivative(0)
                + f.derivative(1).derivative(1)).value
    mixed = wirtinger_dzbar(wirtinger_dz(f))
    assert np.max(np.abs(4.0 * mixed.value.real - flat_lap)) < 1e-12
    assert np.max(np.abs(mixed.value.imag)) < 1e-12


# -- sections of concrete maps ------------------------------------------------------


def test_wrapped_plane_section_components():
    dom, phi, g, h = wrap_case(radius=1.3)
    pts = dom.sample(24, 4)
    ws = weierstrass.section(phi, g, h, pts)
    x = pts[:, 0]
    want = np.stack([-0.5 * np.sin(x / 1.3), 0.5 * np.cos(x / 1.3),
                     np.zeros_like(x)], axis=-1)
    got = np.stack([c.value for c in ws.components], axis=-1)
    assert np.max(np.abs(got.real - want)) < 1e-13
    third = np.array([0.0, 0.0, -0.5])
    assert np.max(np.abs(got.imag - third)) < 1e-13
    w1, w2 = weierstrass.conformality_sums(ws)
    assert np.max(np.abs(w1)) < 1e-13
    assert np.max(np.abs(w2 - 0.5)) < 1e-13  # unit pullback factor


def test_conformality_sum_matches_pullback():
    dom, phi, g, h = wrap_case()
    pts = dom.sample(16, 5)
    pb = geometry.pullback_metric(phi, h, pts)
    lam_tilde_sq = 0.5 * (pb[:, 0, 0] + pb[:, 1, 1])
    _, w2 = weierstrass.conformality_sums(weierstrass.section(phi, g, h, pts))
    assert support.relative_error(2.0 * w2, lam_tilde_sq) < 1e-13


def test_stretched_plane_is_not_conformal():
    dom = square(-1.0, 1.0)
    tgt, h = flat_target(3)
    phi = SmoothMap.from_components(dom, tgt, ("u", "2*v", "0"))
    g = RiemannianMetric.euclidean(dom)
    w1, w2 = weierstrass.conformality_sums(
        weierstrass.section(phi, g, h, dom.sample(10, 6)))
    assert np.max(np.abs(w1 + 0.75)) < 1e-14
    assert np.max(np.abs(w2 - 1.25)) < 1e-14


def test_holomorphic_graph_is_conformal_and_harmonic():
    dom = square()
    tgt, h = flat_target(2)
    phi = SmoothMap.from_components(dom, tgt, ("u^2-v^2", "2*u*v"))
    g = RiemannianMetric.conformally_flat(dom, "1+u^2+v^2")
    pts = dom.sample(12, 7)
    ws = weierstrass.section(phi, g, h, pts)
    w1, w2 = weierstrass.conformality_sums(ws)
    assert np.max(np.abs(w1)) < 1e-14
    assert np.min(w2) > 0.0
    assert np.max(np.abs(weierstrass.tension_complex(ws))) < 1e-13
    assert np.max(np.abs(weierstrass.w3_residual(ws))) < 1e-13


# -- the biharmonicity residual ------------------------------------------------------


def test_wrapped_plane_is_proper_biharmonic():
    dom, phi, g, h = wrap_case(radius=1.3)
    pts = dom.sample(40, 8)
    ws = weierstrass.section(phi, g, h, pts)
    assert np.max(np.abs(weierstrass.w3_residual(ws))) < 1e-12
    # ...but not harmonic: |tau| = exp(-y/R)/R stays well away from zero
    tau = weierstrass.tension_complex(ws)
    norms = np.linalg.norm(tau.real, axis=-1)
    assert np.min(norms) > 0.3
    assert np.max(np.abs(tau.imag)) < 1e-12


def test_duplicated_wrap_into_six_space():
    radius = 1.0
    dom = ChartDomain(("x", "y"), ((-2.0, 2.0), (-1.0, 1.0)))
    tgt, h = flat_target(6, half_width=4.0)
    phi = SmoothMap.from_components(
        dom, tgt, ("R*cos(x/R)", "R*sin(x/R)", "y") * 2, {"R": radius})
    g = RiemannianMetric.conformally_flat(dom, "exp(y/R)", {"R": radius})
    pts = dom.sample(24, 9)
    ws = weierstrass.section(phi, g, h, pts)
    w1, w2 = weierstrass.conformality_sums(ws)
    assert np.max(np.abs(w1)) < 1e-13
    assert np.max(np.abs(w2 - 1.0)) < 1e-13  # pullback factor doubles
    assert np.max(np.abs(weierstrass.w3_residual(ws))) < 1e-12
    assert np.min(np.linalg.norm(
        weierstrass.tension_complex(ws).real, axis=-1)) > 0.3


def test_complex_bitension_matches_engine():
    # the residual times 16 mu^-2 must be the bitension field itself;
    # run on maps that are NOT biharmonic so the factor actually matters
    dom = ChartDomain(("x", "y"), ((-2.0, 2.0), (-1.0, 1.0)))
    tgt, h = flat_target(3)
    phi = SmoothMap.from_components(
        dom, tgt, ("R*cos(x/R)", "R*sin(x/R)", "y"), {"R": 1.0})
    g = RiemannianMetric.conformally_flat(dom, "exp(1.7*y)")
    pts = dom.sample(20, 10)
    ws = weierstrass.section(phi, g, h, pts)
    direct = geometry.bitension_field(phi, g, h, pts)
    complexform = weierstrass.bitension_complex(ws)
    assert support.relative_error(complexform.real, direct) < 1e-9
    assert np.max(np.abs(complexform.imag)) < 1e-10
    assert np.max(np.abs(direct)) > 1e-2


def test_complex_bitension_matches_engine_on_wrapped_pool():
    for case in weierstrass.random_wrapped_pool(3, seed=11):
        pts = case.phi.domain.sample(12, 12)
        ws = weierstrass.section(case.phi, case.g, case.h, pts)
        direct = geometry.bitension_field(case.phi, case.g, case.h, pts)
        complexform = weierstrass.bitension_complex(ws)
        assert support.relative_error(complexform.real, direct) < 1e-9
        assert np.max(np.abs(complexform.imag)) < 1e-10


def test_wrapped_pool_verdicts():
    cases = weierstrass.random_wrapped_pool(9, seed=13)
    assert any(c.biharmonic for c in cases)
    assert any(not c.biharmonic for c in cases)
    for case in cases:
        pts = case.phi.domain.sample(16, 14)
        ws = weierstrass.section(case.phi, case.g, case.h, pts)
        w1, w2 = weierstrass.conformality_sums(ws)
        assert np.max(np.abs(w1)) < 1e-10
        assert np.min(w2) > 0.0
        residual = np.max(np.abs(weierstrass.w3_residual(ws)))
        if case.biharmonic:
            assert residual < 1e-10
        else:
            assert residual > 1e-3


# -- input screening ----------------------------------------------------------------


def test_section_rejects_unsuitable_input():
    dom = square()
    tgt, h = flat_target(3)
    phi = SmoothMap.from_components(dom, tgt, ("u", "v", "0"))
    pts = dom.sample(6, 15)
    skew = RiemannianMetric.from_components(dom, [["1", "0"], ["0", "2"]])
    with pytest.raises(GeometryInputError, match="isothermal"):
        weierstrass.section(phi, skew, h, pts)
    curved = RiemannianMetric.conformally_flat(tgt, "1/(1+p^2)")
    with pytest.raises(GeometryInputError, match="flat"):
        weierstrass.section(phi, RiemannianMetric.euclidean(dom), curved, pts)
    dom3 = ChartDomain(("a", "b", "c"), ((-1.0, 1.0),) * 3)
    solid = SmoothMap.from_components(dom3, tgt, ("a", "b", "c"))
    with pytest.raises(GeometryInputError, match="2d"):
        weierstrass.section(solid, RiemannianMetric.euclidean(dom3), h,
                            dom3.sample(4, 16))


def test_flat_target_check_reads_each_entry_without_a_copy(monkeypatch):
    dom = square()
    tgt, h = flat_target(3)
    phi = SmoothMap.from_components(dom, tgt, ("u", "v", "u*v"))
    pts = dom.sample(6, 17)
    state = geometry.MapState(phi, RiemannianMetric.euclidean(dom), h, pts, 4)
    shifted, sub = [], jets.Jet.__sub__

    def recording(self, other):
        if not isinstance(other, jets.Jet):
            shifted.append(other)
        return sub(self, other)

    monkeypatch.setattr(jets.Jet, "__sub__", recording)
    weierstrass.section_of(state)
    # only the diagonal is shifted; the known-zero off-diagonal entries
    # answer max_abs() at once
    assert shifted == [1.0, 1.0, 1.0]
    sheared = RiemannianMetric.from_components(
        tgt, [["1", "0.01*p", "0"], ["0.01*p", "1", "0"], ["0", "0", "1"]])
    with pytest.raises(GeometryInputError, match="flat"):
        weierstrass.section(phi, RiemannianMetric.euclidean(dom), sheared,
                            pts)


def test_section_builds_no_christoffel_symbols_or_curvature(monkeypatch):
    def refuse(*args):
        raise AssertionError("a stage the complex lane does not read")

    monkeypatch.setattr(geometry, "_christoffel_jets", refuse)
    monkeypatch.setattr(geometry, "_curvature_values", refuse)
    dom, phi, g, h = wrap_case(radius=1.3)
    ws = weierstrass.section(phi, g, h, dom.sample(12, 8))
    assert np.max(np.abs(weierstrass.w3_residual(ws))) < 1e-12
    assert np.max(np.abs(weierstrass.conformality_sums(ws)[0])) < 1e-13
    assert np.min(weierstrass.nonholomorphicity(ws)) > 0.1
    weierstrass.tension_complex(ws)
