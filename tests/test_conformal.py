import numpy as np
import pytest

from bitension import catalog, conformal, expr, geometry, jets
from bitension.charts import (ChartDomain, DomainError, RiemannianMetric,
                              SmoothMap, VectorFieldAlongMap)
from bitension.geometry import GeometryInputError, MapState

import support


def curved_setup():
    dom = ChartDomain(("x1", "x2"), ((-0.8, 0.8),) * 2)
    g = RiemannianMetric.from_components(
        dom, [["1+0.2*sin(x1)", "0.1*x1*x2"], ["0.1*x1*x2", "1+0.1*x2^2"]])
    tgt = ChartDomain(("y1", "y2", "y3"), ((-4.0, 4.0),) * 3)
    h = RiemannianMetric.conformally_flat(tgt, "exp(0.4*sin(y1)+0.2*y2)")
    phi = SmoothMap.from_components(
        dom, tgt, ("x1+0.3*sin(x2)", "x2", "0.2*x1*x2"))
    fld = VectorFieldAlongMap.from_components(
        ("0.3*cos(x2)", "0.2*x1", "0.1+0.1*x1*x2"))
    return dom, g, tgt, h, phi, fld


def hyperbolic_inclusion():
    dom = ChartDomain(("x1", "x2", "x3", "x4"),
                      ((-1.5, 1.5),) * 3 + ((0.5, 2.0),))
    g = RiemannianMetric.conformally_flat(dom, "1/x4^2")
    tgt = ChartDomain(("y1", "y2", "y3", "y4", "y5"),
                      ((-3.0, 3.0),) * 4 + ((0.1, 3.0),))
    h = RiemannianMetric.conformally_flat(tgt, "1/y5^2")
    phi = SmoothMap.from_components(dom, tgt, ("1", "x1", "x2", "x3", "x4"))
    return dom, g, tgt, h, phi


def broadcast_points(dom, count, samples, seed):
    pts = dom.sample(samples, seed)
    return np.broadcast_to(pts, (count,) + pts.shape)


def test_conformal_metric_components():
    dom, g, tgt, h, phi = hyperbolic_inclusion()
    flat = RiemannianMetric.euclidean(dom)
    gbar = conformal.conformal_metric(flat, "1/x4")
    pts = dom.sample(10, 31)
    rows = geometry.metric_jets(gbar, pts, order=2)
    values = np.stack([np.stack([e.value for e in r], axis=-1) for r in rows],
                      axis=-2)
    expected = pts[:, 3, None, None] ** 2 * np.eye(4)
    assert support.relative_error(values, expected) < 1e-13
    same = conformal.conformal_metric(flat, "1")
    rows1 = geometry.metric_jets(same, pts, order=2)
    values1 = np.stack([np.stack([e.value for e in r], axis=-1) for r in rows1],
                       axis=-2)
    assert support.relative_error(values1, np.broadcast_to(np.eye(4),
                                                           values1.shape)) < 1e-14


def test_a_twice_rescaled_metric_matches_the_composed_quotients():
    dom, g, _, _, _, f1 = conformal.random_transform_family(
        3, 2, np.random.default_rng(41))
    f2 = conformal.ConformalFactor(
        expr.parse("1 + a*x2^2 - 0.2*x3"), {"a": np.array([[0.3], [-0.2]])})
    gbar = conformal.conformal_metric(conformal.conformal_metric(g, f1), f2)
    # the reference divides each entry by F_1^2, then by F_2^2, as trees
    comps = g.components
    for fac in (f1, f2):
        fsq = expr.Binary("^", fac.ast, expr.Const(2.0))
        comps = tuple(tuple(expr.Binary("/", entry, fsq) for entry in row)
                      for row in comps)
    ref = RiemannianMetric(
        dom, comps, {**g.parameters, **f1.parameters, **f2.parameters})
    pts = broadcast_points(dom, 2, 6, 41)
    got = geometry.metric_jets(gbar, pts, order=4)
    want = geometry.metric_jets(ref, pts, order=4)
    for got_row, want_row in zip(got, want):
        for a, b in zip(got_row, want_row):
            assert support.relative_error(a.coeffs, b.coeffs) < 1e-13


def test_a_factor_vanishing_at_a_sample_errors_there():
    dom, g, h, phi, fld, _ = conformal.random_transform_family(
        2, 1, np.random.default_rng(3))
    x = np.array([[[0.2, -0.1], [0.0, 0.1], [-0.3, 0.2]]])

    def gap():
        direct, rhs = conformal.law_sides(phi, g, h, fld, "x1", x)["tension"]
        rel = np.max(np.abs(direct - rhs), axis=-1)
        return rel, rel

    rec = catalog.record("tension_law_match", 1e-7, "max", gap, x)
    assert rec.worst_point == (0.0, 0.1)
    assert rec.error == "JetDomainError: division by a jet with zero value"


def test_trivial_factor_is_identity_of_each_law():
    dom, g, tgt, h, phi, fld = curved_setup()
    pts = dom.sample(10, 32)
    assert support.relative_error(
        conformal.tension_transform_rhs(phi, g, h, "1", pts),
        geometry.tension_field(phi, g, h, pts)) < 1e-12
    assert support.relative_error(
        conformal.jacobi_transform_rhs(phi, g, h, "1", fld, pts),
        geometry.jacobi_apply(phi, g, h, pts, fld.components)) < 1e-12
    assert support.relative_error(
        conformal.bitension_transform_rhs(phi, g, h, "1", pts),
        geometry.bitension_field(phi, g, h, pts)) < 1e-12


def test_dimension_two_drops_gradient_terms():
    dom, g, tgt, h, phi, fld = curved_setup()
    pts = dom.sample(8, 33)
    fsrc = "exp(0.3*x1)"
    fv = np.exp(0.3 * pts[:, 0])
    rhs_t = conformal.tension_transform_rhs(phi, g, h, fsrc, pts)
    assert support.relative_error(
        rhs_t, fv[:, None] ** 2 * geometry.tension_field(phi, g, h, pts)) < 1e-12
    rhs_j = conformal.jacobi_transform_rhs(phi, g, h, fsrc, fld, pts)
    assert support.relative_error(
        rhs_j, fv[:, None] ** 2 * geometry.jacobi_apply(phi, g, h, pts,
                                                        fld.components)) < 1e-12


def test_factor_must_be_positive():
    dom, g, tgt, h, phi, fld = curved_setup()
    pts = dom.sample(8, 34)
    with pytest.raises(DomainError):
        conformal.tension_transform_rhs(phi, g, h, "x1", pts)


def _bitwise_equal(a, b):
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_transform_laws_match_direct_rescaled_computation(m):
    rng = np.random.default_rng(100 + m)
    count, samples = 6, 3
    dom, g, h, phi, fld, fac = conformal.random_transform_family(m, count, rng)
    x = broadcast_points(dom, count, samples, 35 + m)
    gbar = conformal.conformal_metric(g, fac)

    direct_t = geometry.tension_field(phi, gbar, h, x)
    law_t = conformal.tension_transform_rhs(phi, g, h, fac, x)
    assert support.relative_error(law_t, direct_t) < 1e-9

    direct_j = geometry.jacobi_apply(phi, gbar, h, x, fld)
    law_j = conformal.jacobi_transform_rhs(phi, g, h, fac, fld, x)
    assert support.relative_error(law_j, direct_j) < 1e-9

    direct_b = geometry.bitension_field(phi, gbar, h, x)
    law_b = conformal.bitension_transform_rhs(phi, g, h, fac, x)
    assert support.relative_error(law_b, direct_b) < 1e-8

    # the shared order-4 states of law_sides give the one-shots' numbers,
    # signs of zeros included
    sides = conformal.law_sides(phi, g, h, fld, fac, x)
    assert list(sides) == ["tension", "jacobi", "bitension"]
    for (direct, rhs), one_shots in zip(sides.values(), [
            (direct_t, law_t), (direct_j, law_j), (direct_b, law_b)]):
        assert _bitwise_equal(direct, one_shots[0])
        assert _bitwise_equal(rhs, one_shots[1])


def test_law_sides_builds_one_state_per_geometry(monkeypatch):
    rng = np.random.default_rng(104)
    dom, g, h, phi, fld, fac = conformal.random_transform_family(4, 2, rng)
    x = broadcast_points(dom, 2, 2, 39)
    built = support.record_builds(monkeypatch)
    conformal.law_sides(phi, g, h, fld, fac, x)
    # two states and one map side, whose target Christoffel symbols and Q
    # both states read; one domain side per state
    assert support.build_counts(built) == {
        "state": 2, "domain": 2, "map": 1, "gammaN_y": 1, "Q_jets": 1}
    # the rescaled metric's side first, so its errors come first, then g's
    bar, own = [side.g for kind, side in built if kind == "domain"]
    assert own is g and bar is not g
    assert [side.order for kind, side in built if kind == "map"] == [4]


def test_each_law_one_shot_pair_builds_one_map_side(monkeypatch):
    rng = np.random.default_rng(105)
    dom, g, h, phi, fld, fac = conformal.random_transform_family(3, 2, rng)
    x = broadcast_points(dom, 2, 3, 40)
    gbar = conformal.conformal_metric(g, fac)
    # the direct side and then the g-side of each law, as the law sweep
    # runs them
    calls = [lambda: geometry.tension_field(phi, gbar, h, x),
             lambda: conformal.tension_transform_rhs(phi, g, h, fac, x),
             lambda: geometry.jacobi_apply(phi, gbar, h, x, fld),
             lambda: conformal.jacobi_transform_rhs(phi, g, h, fac, fld, x),
             lambda: geometry.bitension_field(phi, gbar, h, x),
             lambda: conformal.bitension_transform_rhs(phi, g, h, fac, x)]
    cold = []
    for call in calls:
        monkeypatch.setattr(geometry, "_last", [None, None])
        cold.append(support.bits(call()))
    monkeypatch.setattr(geometry, "_last", [None, None])
    built = support.record_builds(monkeypatch)
    assert [support.bits(call()) for call in calls] == cold
    # each g-side reuses the map side of its law's direct side
    assert support.build_counts(built)["map"] == 3
    assert [side.order for kind, side in built if kind == "map"] == [2, 3, 4]


def test_law_sides_stacks_the_target_christoffel_symbols_once(monkeypatch):
    rng = np.random.default_rng(104)
    dom, g, h, phi, fld, fac = conformal.random_transform_family(4, 2, rng)
    x = broadcast_points(dom, 2, 2, 39)
    built = support.record_builds(monkeypatch)
    stacked, stack = [], jets.stack_gradients

    def recording(nested):
        stacked.append(nested)
        return stack(nested)

    monkeypatch.setattr(jets, "stack_gradients", recording)
    conformal.law_sides(phi, g, h, fld, fac, x)
    # both states read the curvature map from the one map side's stacks
    side, = [side for kind, side in built if kind == "map"]
    assert sum(nest is side.gammaN_y for nest in stacked) == 1


def test_dim2_bitension_form_agrees_with_general():
    rng = np.random.default_rng(77)
    dom, g, h, phi, fld, fac = conformal.random_transform_family(2, 10, rng)
    x = broadcast_points(dom, 10, 4, 41)
    general = conformal.bitension_transform_rhs(phi, g, h, fac, x)
    surface = conformal.bitension_transform_rhs_dim2(phi, g, h, fac, x)
    assert support.relative_error(general, surface) < 1e-12


def test_dim2_bitension_form_rejects_other_dimensions():
    rng = np.random.default_rng(78)
    dom, g, h, phi, fld, fac = conformal.random_transform_family(3, 2, rng)
    x = broadcast_points(dom, 2, 2, 42)
    with pytest.raises(GeometryInputError):
        conformal.bitension_transform_rhs_dim2(phi, g, h, fac, x)


def test_harmonic_biharmonic_condition_hyperbolic():
    dom, g, tgt, h, phi = hyperbolic_inclusion()
    pts = dom.sample(16, 43)
    res = conformal.harmonic_biharmonic_condition(phi, g, h, "1/x4", pts)
    assert np.max(np.abs(res)) < 1e-9
    # a constant factor drops every gradient term
    const = conformal.harmonic_biharmonic_condition(phi, g, h, "2", pts)
    assert np.max(np.abs(const)) == 0.0


def test_harmonic_biharmonic_condition_spherical():
    dom = ChartDomain(("u1", "u2", "u3", "u4"), ((-2.0, 2.0),) * 4)
    tgt = ChartDomain(("y1", "y2", "y3", "y4", "y5"), ((-3.0, 3.0),) * 5)
    h = RiemannianMetric.conformally_flat(
        tgt, "4/(1+y1^2+y2^2+y3^2+y4^2+y5^2)^2")
    ground = RiemannianMetric.conformally_flat(
        dom, "4/(1+u1^2+u2^2+u3^2+u4^2)^2")
    phi = SmoothMap.from_components(dom, tgt, ("u1", "u2", "u3", "u4", "0"))
    pts = dom.sample(16, 44)
    res = conformal.harmonic_biharmonic_condition(
        phi, ground, h, "2/(1+u1^2+u2^2+u3^2+u4^2)", pts)
    assert np.max(np.abs(res)) < 1e-8


def test_harmonic_biharmonic_condition_rejections():
    dom, g, tgt, h, phi, fld = curved_setup()
    pts = dom.sample(6, 45)
    with pytest.raises(GeometryInputError):
        conformal.harmonic_biharmonic_condition(phi, g, h, "exp(x1)", pts)
    dom3, g3, h3, phi3, fld3, fac3 = conformal.random_transform_family(
        3, 2, np.random.default_rng(9))
    x3 = broadcast_points(dom3, 2, 3, 46)
    with pytest.raises(GeometryInputError):
        conformal.harmonic_biharmonic_condition(phi3, g3, h3, fac3, x3)


def wrap_immersion():
    dom = ChartDomain(("x", "y"), ((-2.0, 2.0), (-1.0, 1.0)))
    tgt = ChartDomain(("p", "q", "r"), ((-2.0, 2.0),) * 3)
    h = RiemannianMetric.euclidean(tgt)
    radius = 1.3
    phi = SmoothMap.from_components(
        dom, tgt, ("R*cos(x/R)", "R*sin(x/R)", "y"), {"R": radius})
    return dom, tgt, h, phi


def test_conformal_immersion_residual_identity():
    # left minus right of the immersion criterion equals the bitension field
    # for the unrescaled domain metric
    dom, tgt, h, phi = wrap_immersion()
    g = RiemannianMetric.conformally_flat(dom, "exp(y)")
    pts = dom.sample(12, 47)
    res = conformal.conformal_immersion_residual(phi, g, h, "exp(-y/2)", pts)
    tau2 = geometry.bitension_field(phi, g, h, pts)
    assert support.relative_error(res, tau2) < 1e-10
    # the surface form carries the same content, scaled by lambda^2
    res2 = conformal.conformal_immersion_residual_dim2(
        phi, g, h, "exp(-y/2)", pts)
    lam_sq = np.exp(-pts[:, 1])
    assert support.relative_error(lam_sq[:, None] * res2, res) < 1e-12


def test_conformal_immersion_states_share_one_map_side(monkeypatch):
    dom, tgt, h, phi = wrap_immersion()
    g = RiemannianMetric.conformally_flat(dom, "exp(y)")
    pts = dom.sample(12, 47)
    built = support.record_builds(monkeypatch)
    state, _, _, iso = conformal._immersion_states(phi, g, h, "exp(-y/2)",
                                                   pts)
    assert iso._map is state._map and iso.g is not g and state.g is g
    for each in (state, iso):
        each.bitension_values  # both read gammaN_y and Q
    assert support.build_counts(built) == {
        "state": 2, "domain": 2, "map": 1, "gammaN_y": 1, "Q_jets": 1}


def test_conformal_immersion_tension_split():
    # tension of a conformal immersion: tau = m lambda^2 eta when m = 2
    dom, tgt, h, phi = wrap_immersion()
    g = RiemannianMetric.conformally_flat(dom, "exp(y)")
    pts = dom.sample(12, 48)
    gbar = conformal.conformal_metric(
        g, conformal.ConformalFactor.of("exp(-y/2)").reciprocal())
    eta = geometry.tension_field(phi, gbar, h, pts) / 2.0
    tau = geometry.tension_field(phi, g, h, pts)
    lam_sq = np.exp(-pts[:, 1])
    assert support.relative_error(tau, 2.0 * lam_sq[:, None] * eta) < 1e-11


def test_conformal_immersion_isometric_case():
    dom, tgt, h, phi = wrap_immersion()
    flat = RiemannianMetric.euclidean(dom)
    pts = dom.sample(12, 49)
    res = conformal.conformal_immersion_residual(phi, flat, h, "1", pts)
    tau2 = geometry.bitension_field(phi, flat, h, pts)
    assert support.relative_error(res, tau2) < 1e-12
    # the isometric cylinder is not biharmonic: residual stays away from zero
    assert np.max(np.abs(res)) > 1e-2


def test_conformal_immersion_rejects_bad_input():
    dom, tgt, h, phi = wrap_immersion()
    flat = RiemannianMetric.euclidean(dom)
    pts = dom.sample(8, 50)
    skew = SmoothMap.from_components(dom, tgt, ("x", "2*y", "0"))
    with pytest.raises(GeometryInputError):
        conformal.conformal_immersion_residual(skew, flat, h, "1", pts)
    with pytest.raises(GeometryInputError):
        conformal.conformal_immersion_residual(
            phi, RiemannianMetric.conformally_flat(dom, "exp(y)"), h,
            "exp(-y)", pts)


def test_surface_form_checks_the_given_factor():
    dom, tgt, h, phi = wrap_immersion()
    g = RiemannianMetric.conformally_flat(dom, "exp(y)")
    pts = dom.sample(8, 50)
    with pytest.raises(GeometryInputError, match="given factor disagrees"):
        conformal.conformal_immersion_residual_dim2(phi, g, h, "exp(-y)", pts)
    res = conformal.conformal_immersion_residual_dim2(phi, g, h, "exp(-y/2)",
                                                      pts)
    assert res.shape == (8, 3) and np.all(np.isfinite(res))


_derivatives = support.record_covariant_derivatives


# law -> sections it differentiates: X; tau and dphi(grad ln F); dphi(grad ln F)
@pytest.mark.parametrize("law,sections", [("jacobi", 1), ("bitension", 2),
                                          ("harmonic", 1)])
def test_each_section_is_differentiated_once_per_state(monkeypatch, law,
                                                       sections):
    dom, g, h, phi, fld, fac = conformal.random_transform_family(
        3, 2, np.random.default_rng(21))
    x = broadcast_points(dom, 2, 3, 22)
    calls = _derivatives(monkeypatch)
    if law == "jacobi":
        conformal.jacobi_transform_rhs(phi, g, h, fac, fld, x)
    elif law == "bitension":
        conformal.bitension_transform_rhs(phi, g, h, fac, x)
    else:
        hdom, hg, _, hh, hphi = hyperbolic_inclusion()
        conformal.harmonic_biharmonic_condition(hphi, hg, hh, "1/x4",
                                                hdom.sample(4, 43))
    # ``calls`` keeps every section and result alive, so ids stay distinct
    assert len({id(s) for s, _ in calls}) == sections
    assert len({id(ds) for _, ds in calls}) == sections
