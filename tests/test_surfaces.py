import numpy as np
import pytest

from bitension import catalog, conformal, geometry, jets, surfaces
from bitension.charts import ChartDomain, RiemannianMetric, SmoothMap
from bitension.geometry import GeometryInputError, MapState

import support


def cylindrical_target():
    tgt = ChartDomain(("rho", "psi", "w"),
                      ((0.05, 5.0), (-0.5, 6.8), (-3.0, 3.0)))
    h = RiemannianMetric.from_components(
        tgt, [["1", "0", "0"], ["0", "rho^2", "0"], ["0", "0", "1"]])
    return tgt, h


def cylinder_immersion(radius):
    dom = ChartDomain(("theta", "z"), ((0.1, 6.0), (-1.0, 1.0)))
    tgt, h = cylindrical_target()
    phi = SmoothMap.from_components(dom, tgt, ("R", "theta", "z"),
                                    {"R": radius})
    induced = RiemannianMetric.from_components(
        dom, [["R^2", "0"], ["0", "1"]], {"R": radius})
    return dom, phi, induced, h


def revolution_surface():
    # rho = 1.5 + 0.2 sin z, swept around the axis
    dom = ChartDomain(("theta", "z"), ((0.1, 6.0), (-1.0, 1.0)))
    tgt, h = cylindrical_target()
    phi = SmoothMap.from_components(
        dom, tgt, ("1.5+0.2*sin(z)", "theta", "z"))
    induced = RiemannianMetric.from_components(
        dom, [["(1.5+0.2*sin(z))^2", "0"], ["0", "1+(0.2*cos(z))^2"]])
    return dom, phi, induced, h


def paraboloid():
    dom = ChartDomain(("u", "v"), ((-0.6, 0.6), (-0.6, 0.6)))
    tgt = ChartDomain(("p", "q", "r"), ((-4.0, 4.0),) * 3)
    h = RiemannianMetric.euclidean(tgt)
    phi = SmoothMap.from_components(dom, tgt, ("u", "v", "(u^2+v^2)/2"))
    induced = RiemannianMetric.from_components(
        dom, [["1+u^2", "u*v"], ["u*v", "1+v^2"]])
    return dom, phi, induced, h


# -- extrinsic data against closed forms ------------------------------------------


def test_cylinder_extrinsic_data():
    radius = 1.4
    dom, phi, induced, h = cylinder_immersion(radius)
    pts = dom.sample(20, 1)
    sd = surfaces.surface_data(phi, induced, h, pts)
    assert np.max(np.abs(sd.normal_values - np.array([1.0, 0, 0]))) < 1e-12
    expected = np.zeros((20, 2, 2))
    expected[:, 0, 0] = -1.0 / radius
    assert np.max(np.abs(sd.shape_values - expected)) < 1e-12
    assert np.max(np.abs(sd.mean_curvature_values + 0.5 / radius)) < 1e-13
    assert np.max(np.abs(sd.second_form_sq_values - 1.0 / radius ** 2)) < 1e-12
    want_eta = np.zeros((20, 3))
    want_eta[:, 0] = -0.5 / radius
    assert np.max(np.abs(sd.eta_values - want_eta)) < 1e-12


def test_plane_is_totally_geodesic():
    dom = ChartDomain(("u", "v"), ((-1.0, 1.0), (-1.0, 1.0)))
    tgt = ChartDomain(("p", "q", "r"), ((-2.0, 2.0),) * 3)
    h = RiemannianMetric.euclidean(tgt)
    phi = SmoothMap.from_components(dom, tgt, ("u", "v", "0"))
    induced = RiemannianMetric.euclidean(dom)
    pts = dom.sample(15, 2)
    sd = surfaces.surface_data(phi, induced, h, pts)
    assert np.max(np.abs(sd.normal_values - np.array([0, 0, 1.0]))) < 1e-14
    assert np.max(np.abs(sd.shape_values)) < 1e-14
    assert np.max(np.abs(surfaces.chen_bitension(sd))) < 1e-14


def test_paraboloid_closed_forms():
    dom, phi, induced, h = paraboloid()
    pts = dom.sample(25, 3)
    u, v = pts[:, 0], pts[:, 1]
    w = np.sqrt(1.0 + u ** 2 + v ** 2)
    sd = surfaces.surface_data(phi, induced, h, pts)
    want_xi = np.stack([-u, -v, np.ones_like(u)], axis=-1) / w[:, None]
    assert np.max(np.abs(sd.normal_values - want_xi)) < 1e-11
    assert np.max(np.abs(sd.mean_curvature_values
                         - (2.0 + u ** 2 + v ** 2) / (2.0 * w ** 3))) < 1e-11
    gram = np.empty((25, 2, 2))
    gram[:, 0, 0], gram[:, 1, 1] = 1.0 + u ** 2, 1.0 + v ** 2
    gram[:, 0, 1] = gram[:, 1, 0] = u * v
    second = np.eye(2) / w[:, None, None]
    want_a = np.linalg.solve(gram, second)  # [k, i] = A^k_i
    assert np.max(np.abs(sd.shape_values
                         - np.swapaxes(want_a, -1, -2))) < 1e-11
    # the shape operator is self-adjoint for the induced metric
    paired = np.einsum("...ik,...kj->...ij", sd.shape_values, gram)
    assert np.max(np.abs(paired - np.swapaxes(paired, -1, -2))) < 1e-11


def test_flat_target_surface_makes_no_product_with_a_zero_entry(monkeypatch):
    case = catalog.build_case("r2_wrap_r3")
    phi, _, h = case.geometry
    # the wrap is isometric for the flat metric of its parameter plane
    state = MapState(phi, RiemannianMetric.euclidean(case.domain), h,
                     case.domain.sample(8, 3), 4)
    # the stages SurfaceData reads are built on first read: not measured here
    state.dphi, state.ginv_jets, state.Q_jets
    inverses, invert = [], geometry._jet_matrix_inverse

    def recording_inverse(rows):
        inverses.append(invert(rows))
        return inverses[-1]

    monkeypatch.setattr(geometry, "_jet_matrix_inverse", recording_inverse)
    calls, mul = [], jets.Jet.__mul__

    def recording_mul(a, b):
        if isinstance(b, jets.Jet):
            calls.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(jets.Jet, "__mul__", recording_mul)
    sd = surfaces.SurfaceData(state)
    (hinv,) = inverses
    zeros = [e for rows in (sd._hx, hinv, state.ginv_jets) for row in rows
             for e in row if not np.any(e.coeffs)]
    assert len(zeros) == 6 + 6 + 2  # every off-diagonal entry
    assert calls
    assert not any(a is z or b is z for a, b in calls for z in zeros)
    # the normal of the wrapped cylinder is radial: (cos, sin, 0)
    assert not np.any(sd.normal[2].coeffs)


def test_surface_rejects_bad_input():
    dom, phi, induced, h = cylinder_immersion(1.2)
    pts = dom.sample(6, 4)
    wrong = RiemannianMetric.euclidean(dom)
    with pytest.raises(GeometryInputError, match="pullback"):
        surfaces.surface_data(phi, wrong, h, pts)
    dom3 = ChartDomain(("a", "b", "c"), ((-1.0, 1.0),) * 3)
    tgt, h3 = cylindrical_target()
    bulk = SmoothMap.from_components(dom3, tgt, ("1+a", "1+b", "c"))
    with pytest.raises(GeometryInputError, match="2d domain"):
        surfaces.surface_data(bulk, RiemannianMetric.euclidean(dom3), h3,
                              dom3.sample(4, 5))


# -- the extrinsic bitension formula ----------------------------------------------


def test_chen_formula_cylinder():
    radius = 1.7
    dom, phi, induced, h = cylinder_immersion(radius)
    pts = dom.sample(18, 6)
    sd = surfaces.surface_data(phi, induced, h, pts)
    chen = surfaces.chen_bitension(sd)
    want = np.zeros((18, 3))
    want[:, 0] = 1.0 / radius ** 3
    assert np.max(np.abs(chen - want)) < 1e-12
    engine = geometry.bitension_field(phi, induced, h, pts)
    assert support.relative_error(chen, engine) < 1e-8


def test_chen_formula_paraboloid():
    dom, phi, induced, h = paraboloid()
    pts = dom.sample(22, 7)
    sd = surfaces.surface_data(phi, induced, h, pts)
    chen = surfaces.chen_bitension(sd)
    engine = geometry.bitension_field(phi, induced, h, pts)
    assert support.relative_error(chen, engine) < 1e-8


def test_chen_formula_revolution_surface():
    dom, phi, induced, h = revolution_surface()
    pts = dom.sample(20, 8)
    sd = surfaces.surface_data(phi, induced, h, pts)
    chen = surfaces.chen_bitension(sd)
    engine = geometry.bitension_field(phi, induced, h, pts)
    assert support.relative_error(chen, engine) < 1e-8


# -- derivatives of the mean curvature section -------------------------------------


def test_normal_derivative_cylinder_closed_form():
    radius = 1.5
    dom, phi, induced, h = cylinder_immersion(radius)
    pts = dom.sample(12, 9)
    sd = surfaces.surface_data(phi, induced, h, pts)
    around = surfaces.normal_field_covariant_derivative(sd, ("1", "0"))
    want = np.zeros((12, 3))
    want[:, 1] = -0.5 / radius ** 2
    assert np.max(np.abs(around.derivative - want)) < 1e-12
    assert np.max(np.abs(around.split_residual)) < 1e-12
    along = surfaces.normal_field_covariant_derivative(sd, ("0", "1"))
    assert np.max(np.abs(along.derivative)) < 1e-13


def test_normal_derivative_split_generic():
    dom, phi, induced, h = revolution_surface()
    pts = dom.sample(14, 10)
    sd = surfaces.surface_data(phi, induced, h, pts)
    out = surfaces.normal_field_covariant_derivative(
        sd, ("0.7+0.2*z", "sin(theta)"))
    assert np.max(np.abs(out.derivative)) > 1e-3  # actually moves
    assert np.max(np.abs(out.split_residual)) < 1e-9


# -- the two-equation biharmonicity system ------------------------------------------


def test_r3_system_cylinder_biharmonic_factor():
    radius = 1.3
    dom, phi, induced, h = cylinder_immersion(radius)
    pts = dom.sample(24, 11)
    sd = surfaces.surface_data(phi, induced, h, pts)
    g = RiemannianMetric.from_components(
        dom, [["R^2*exp(-z/R)", "0"], ["0", "exp(-z/R)"]], {"R": radius})
    tangential, normal = surfaces.r3_system_residual(
        sd, "exp(z/(2*R))", MapState(phi, g, h, pts, 3),
        parameters={"R": radius})
    assert np.max(np.abs(tangential)) < 1e-10
    assert np.max(np.abs(normal)) < 1e-10
    res = conformal.conformal_immersion_residual(
        phi, g, h, "exp(z/(2*R))", pts, parameters={"R": radius})
    assert np.max(np.abs(res)) < 1e-7


def test_r3_system_flags_nonsolution_factor():
    radius = 1.3
    dom, phi, induced, h = cylinder_immersion(radius)
    pts = dom.sample(24, 12)
    sd = surfaces.surface_data(phi, induced, h, pts)
    g = RiemannianMetric.from_components(
        dom, [["R^2*exp(-2*z/R)", "0"], ["0", "exp(-2*z/R)"]], {"R": radius})
    tangential, normal = surfaces.r3_system_residual(
        sd, "exp(z/R)", MapState(phi, g, h, pts, 3), parameters={"R": radius})
    assert np.max(np.abs(tangential)) < 1e-10  # the factor only depends on z
    want = -1.5 * np.exp(2.0 * pts[:, 1] / radius) / radius ** 3
    assert np.max(np.abs(normal - want)) < 1e-10
    assert np.min(np.abs(normal)) > 1e-2
    res = conformal.conformal_immersion_residual(
        phi, g, h, "exp(z/R)", pts, parameters={"R": radius})
    assert np.max(np.abs(res)) > 1e-2


def test_r3_requires_positive_factor():
    dom, phi, induced, h = cylinder_immersion(1.0)
    pts = dom.sample(8, 13)
    sd = surfaces.surface_data(phi, induced, h, pts)
    g = RiemannianMetric.euclidean(dom)
    with pytest.raises(GeometryInputError, match="positive"):
        surfaces.r3_system_residual(sd, "z", MapState(phi, g, h, pts, 3))


def test_laplacian_conformal_rescale_on_cylinder():
    # for surfaces, rescaling the metric by lambda^-2 scales the Laplacian
    # by lambda^2
    radius = 1.3
    dom, phi, induced, h = cylinder_immersion(radius)
    pts = dom.sample(16, 14)
    g = RiemannianMetric.from_components(
        dom, [["R^2*exp(-z/R)", "0"], ["0", "exp(-z/R)"]], {"R": radius})
    probe = "sin(theta)*exp(0.3*z)+z^2"
    bar_state = MapState(phi, induced, h, pts, 3)
    con_state = MapState(phi, g, h, pts, 3)
    lap_bar = bar_state.scalar_laplacian(bar_state.scalar_jet(probe)).value
    lap_con = con_state.scalar_laplacian(con_state.scalar_jet(probe)).value
    lam_sq = np.exp(pts[:, 1] / radius)
    assert support.relative_error(lap_con, lam_sq * lap_bar) < 1e-11
