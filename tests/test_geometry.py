import tracemalloc

import numpy as np
import pytest

from bitension import catalog, conformal, expr, geometry, jets
from bitension.charts import (ChartDomain, DomainError, RiemannianMetric,
                              SmoothMap, VectorFieldAlongMap)
from bitension.geometry import MapState

import support


# -- shared chart builders ----------------------------------------------------


def half_plane():
    dom = ChartDomain(("x", "y"), ((-2.0, 2.0), (0.2, 3.0)))
    return dom, RiemannianMetric.conformally_flat(dom, "1/y^2")


def hyperbolic_space(m, lo=0.3, hi=2.5):
    coords = tuple(f"x{i}" for i in range(1, m + 1))
    box = tuple((-1.5, 1.5) for _ in range(m - 1)) + ((lo, hi),)
    dom = ChartDomain(coords, box)
    return dom, RiemannianMetric.conformally_flat(dom, f"1/x{m}^2")


def cylindrical_chart():
    dom = ChartDomain(("rho", "psi", "w"), ((0.05, 5.0), (-0.5, 6.8), (-3.0, 3.0)))
    met = RiemannianMetric.from_components(
        dom, [["1", "0", "0"], ["0", "rho^2", "0"], ["0", "0", "1"]])
    return dom, met


def hyperbolic_inclusion():
    """The totally geodesic inclusion of hyperbolic 4-space in hyperbolic
    5-space, in upper half-space coordinates."""
    dom, g4 = hyperbolic_space(4, 0.5, 2.0)
    tgt = ChartDomain(("y1", "y2", "y3", "y4", "y5"),
                      ((-3.0, 3.0),) * 4 + ((0.1, 3.0),))
    h5 = RiemannianMetric.conformally_flat(tgt, "1/y5^2")
    phi = SmoothMap.from_components(dom, tgt, ("1", "x1", "x2", "x3", "x4"))
    return dom, g4, tgt, h5, phi


def metric_values(met, pts):
    rows = geometry.metric_jets(met, pts, order=2)
    return np.stack([np.stack([e.value for e in r], axis=-1) for r in rows],
                    axis=-2)


def field_values(components, coords, pts):
    ctx = expr.EvalContext({c: pts[..., i] for i, c in enumerate(coords)})
    cols = [np.broadcast_to(np.asarray(expr.evaluate(expr.parse(c), ctx),
                                       dtype=float), pts.shape[:-1])
            for c in components]
    return np.stack(cols, axis=-1)


# -- Christoffel symbols against closed forms -----------------------------------


def test_christoffel_flat_is_zero():
    dom = ChartDomain(("a", "b", "c"), ((-1.0, 1.0),) * 3)
    met = RiemannianMetric.euclidean(dom)
    gam = geometry.christoffel(met, dom.sample(8, 1))
    assert np.max(np.abs(gam)) == 0.0


def test_christoffel_hyperbolic_plane_closed_form():
    dom, met = half_plane()
    pts = dom.sample(12, 2)
    gam = geometry.christoffel(met, pts)
    y = pts[:, 1]
    expected = np.zeros_like(gam)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                expected[:, i, j, k] = -((i == k) * (j == 1) + (j == k) * (i == 1)
                                         - (i == j) * (k == 1)) / y
    assert support.relative_error(gam, expected) < 1e-12


def test_christoffel_cylindrical_chart():
    dom, met = cylindrical_chart()
    pts = dom.sample(10, 3)
    gam = geometry.christoffel(met, pts)
    rho = pts[:, 0]
    expected = np.zeros_like(gam)
    expected[:, 1, 1, 0] = -rho
    expected[:, 0, 1, 1] = 1.0 / rho
    expected[:, 1, 0, 1] = 1.0 / rho
    assert support.relative_error(gam, expected) < 1e-12


# -- curvature ------------------------------------------------------------------


def constant_curvature_residual(dom, met, c, seed):
    pts = dom.sample(32, seed)
    curv = geometry.curvature_tensor(met, pts)
    gv = metric_values(met, pts)
    rng = np.random.default_rng(seed)
    X, Y, Z = rng.normal(size=(3, len(pts), dom.dim))
    lhs = np.einsum("...lkij,...i,...j,...k->...l", curv, X, Y, Z)
    gYZ = np.einsum("...ij,...i,...j->...", gv, Y, Z)
    gXZ = np.einsum("...ij,...i,...j->...", gv, X, Z)
    rhs = c * (gYZ[..., None] * X - gXZ[..., None] * Y)
    return support.relative_error(lhs, rhs)


def test_curvature_hyperbolic_space_is_constant_negative():
    dom, met = hyperbolic_space(3)
    assert constant_curvature_residual(dom, met, -1.0, 5) < 5e-11


def test_curvature_stereographic_sphere_is_constant_positive():
    dom = ChartDomain(("y1", "y2", "y3"), ((-1.5, 1.5),) * 3)
    met = RiemannianMetric.conformally_flat(dom, "4/(1+y1^2+y2^2+y3^2)^2")
    assert constant_curvature_residual(dom, met, 1.0, 6) < 5e-11


def wiggly_metric():
    dom = ChartDomain(("x1", "x2", "x3"), ((-0.7, 0.7),) * 3)
    rows = [["1.3+0.2*sin(x1)", "0.1*x1*x3", "0.05*x2"],
            ["0.1*x1*x3", "1.1+0.1*x2^2", "0.1*sin(x3)"],
            ["0.05*x2", "0.1*sin(x3)", "1.4+0.1*x1"]]
    return dom, RiemannianMetric.from_components(dom, rows)


def test_first_bianchi_identity():
    dom, met = wiggly_metric()
    curv = geometry.curvature_tensor(met, dom.sample(16, 9))
    # cyclic sum R(e_i,e_j)e_k + R(e_j,e_k)e_i + R(e_k,e_i)e_j as [l,k,i,j]
    cyc = (curv + np.einsum("...lijk->...lkij", curv)
           + np.einsum("...ljki->...lkij", curv))
    assert np.max(np.abs(cyc)) < 1e-9


def test_metric_compatibility_of_connection():
    dom, met = wiggly_metric()
    pts = dom.sample(16, 10)
    gj = geometry.metric_jets(met, pts, order=2)
    m = dom.dim
    gv = np.stack([np.stack([e.value for e in r], axis=-1) for r in gj], axis=-2)
    dgv = np.stack(
        [np.stack([np.stack([gj[i][j].derivative(k).value for j in range(m)],
                            axis=-1) for i in range(m)], axis=-2)
         for k in range(m)], axis=-3)
    gam = geometry.christoffel(met, pts)
    nabla_g = (dgv - np.einsum("...kil,...lj->...kij", gam, gv)
               - np.einsum("...kjl,...li->...kij", gam, gv))
    assert np.max(np.abs(nabla_g)) < 1e-10


def test_jet_matrix_inverse_roundtrip():
    dom, met = wiggly_metric()
    pts = dom.sample(6, 11)
    m = dom.dim
    for order in (1, 2, 3, 4):
        rows = geometry.metric_jets(met, pts, order=order)
        inv = geometry._jet_matrix_inverse(rows)
        for i in range(m):
            for j in range(m):
                assert inv[i][j].order == order
                acc = None
                for k in range(m):
                    term = rows[i][k] * inv[k][j]
                    acc = term if acc is None else acc + term
                expected = np.zeros_like(acc.coeffs)
                expected[..., 0] = 1.0 if i == j else 0.0
                assert np.max(np.abs(acc.coeffs - expected)) < 1e-11, order


def test_diagonal_metric_inverse_keeps_exact_zeros():
    dom, met = hyperbolic_space(3)
    pts = dom.sample(8, 12)
    rows = geometry.metric_jets(met, pts, order=3)
    inv = geometry._jet_matrix_inverse(rows)
    x3 = jets.Jet.variable(2, pts[:, 2], 3, 3)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert not np.any(inv[i][j].coeffs)
    # the inverse of 1/x3^2 is x3^2 through order 3
    assert np.max(np.abs(inv[0][0].coeffs - (x3 * x3).coeffs)) < 1e-12


def _jet_products(monkeypatch):
    """Record the operands of every jet-by-jet product from now on."""
    calls, mul = [], jets.Jet.__mul__

    def recording(a, b):
        if isinstance(b, jets.Jet):
            calls.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(jets.Jet, "__mul__", recording)
    return calls


def _structurally_zero(jet):
    return not np.any(jet.coeffs)


def test_tension_makes_no_product_with_a_zero_inverse_entry(monkeypatch):
    dom, met = half_plane()
    tgt = ChartDomain(("p", "q"), ((-30.0, 30.0),) * 2)
    phi = SmoothMap.from_components(dom, tgt, ("x*y + sin(y)", "x^2 - y^3"))
    state = MapState(phi, met, RiemannianMetric.euclidean(tgt),
                     dom.sample(8, 3), 4)
    assert _structurally_zero(state.ginv_jets[0][1])
    state.gammaM, state.Q_jets  # built on first read: not measured here
    calls = _jet_products(monkeypatch)
    state.tension_jets
    assert not any(_structurally_zero(a) or _structurally_zero(b)
                   for a, b in calls)
    # flat target: Q vanishes, every dphi entry is nonzero, and g^-1 is
    # diagonal, so H_ij is built only for i = j: each component costs one
    # product per nonzero Gamma^k_ii plus one per diagonal g^ii
    nonzero_gamma = sum(not _structurally_zero(state.gammaM[i][i][k])
                        for i in range(2) for k in range(2))
    assert nonzero_gamma == 2
    assert len(calls) == state.n * (nonzero_gamma + state.m) == 8
    ginv = [e for row in state.ginv_jets for e in row]
    assert sum(any(a is e for e in ginv) for a, _ in calls) == state.n * state.m


def test_map_state_carries_each_jet_at_the_order_it_is_read():
    dom, met = wiggly_metric()
    tgt = ChartDomain(("y1", "y2", "y3"), ((-1.0, 1.0),) * 3)
    phi = SmoothMap.from_components(dom, tgt, ("x1+0.1*x2^2", "x2", "x3"))
    h = RiemannianMetric.euclidean(tgt)
    pts = dom.sample(6, 13)
    state = MapState(phi, met, h, pts, 4)
    assert all(e.order == 3 for row in state.g_jets for e in row)
    assert all(e.order == 3 for row in state.ginv_jets for e in row)
    assert all(e.order == 2 for jj in state.gammaM for kk in jj for e in kk)
    # the truncated inputs reproduce a prefix of the untruncated Christoffel
    # jets bit for bit: no coefficient that is read depends on a dropped one
    rows = geometry.metric_jets(met, pts, order=4)
    full = geometry._christoffel_jets(rows, geometry._jet_matrix_inverse(rows))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert full[i][j][k].order == 3
                assert np.array_equal(state.gammaM[i][j][k].coeffs,
                                      full[i][j][k].truncated(2).coeffs)


def _every_jet(nest):
    if isinstance(nest, jets.Jet):
        yield nest
    else:
        for entry in nest:
            yield from _every_jet(entry)


def _support_source(name):
    if name in catalog.CASE_NAMES:
        phi, g, h = catalog.build_case(name).geometry
        return phi, g, h, phi.domain.sample(6, 31)
    m = int(name[-1])
    dom, g, h, phi, _, _ = conformal.random_transform_family(
        m, 3, np.random.default_rng(60 + m))
    pts = dom.sample(2, 70 + m)
    return phi, g, h, np.broadcast_to(pts, (3,) + pts.shape)


@pytest.mark.parametrize("name", catalog.CASE_NAMES
                         + tuple(f"family m={m}" for m in range(2, 6)))
def test_map_state_jets_record_supersets_of_their_supports(name):
    state = MapState(*_support_source(name), 4)
    lists = (state.g_jets, state.ginv_jets, state.gammaM, state.phi_jets,
             state.Dphi, state.Q_jets, state.tension_jets)
    every = [jet for nest in lists for jet in _every_jet(nest)]
    narrower = 0
    for jet in every:
        recorded = jet._support
        assert recorded is not None  # built by jets operations, not scanned
        assert support.scanned_support(jet) & ~recorded == 0
        narrower += recorded != (1 << jet.num_vars) - 1
    assert narrower > 0


def _curvature_by_derivatives(gamma):
    """R[..., l, k, i, j] from one derivative() call per partial."""
    n = len(gamma)
    gv = jets.stack_values(gamma)
    dg = np.empty(gv.shape[:-3] + (n, n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for d in range(n):
                    dg[..., d, i, j, k] = gamma[i][j][k].derivative(d).value
    return (np.einsum("...ijkl->...lkij", dg)
            - np.einsum("...jikl->...lkij", dg)
            + np.einsum("...ipl,...jkp->...lkij", gv, gv)
            - np.einsum("...jpl,...ikp->...lkij", gv, gv))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_curvature_reads_every_partial_in_one_gather(n, monkeypatch):
    rng = np.random.default_rng(40 + n)
    # Gamma^k_ij without the i <-> j symmetry, so a swapped index shows
    gamma = [[[jets.Jet(n, 2, rng.normal(size=(5, jets._ncoef(n, 2))))
               for _ in range(n)] for _ in range(n)] for _ in range(n)]
    want = _curvature_by_derivatives(gamma)

    def refuse(self, axis):
        raise AssertionError("derivative() called")

    monkeypatch.setattr(jets.Jet, "derivative", refuse)
    got = geometry._curvature_values(gamma)
    assert got.shape == want.shape == (5, n, n, n, n)
    # the first-partial terms are gathered exactly; only the einsum path of
    # the Gamma * Gamma terms may reorder a sum, by a few ulps of the tensor
    assert np.max(np.abs(got - want)) <= 1e-15 * (1.0 + np.max(np.abs(want)))


def test_metric_symmetry_violation_raises():
    dom = ChartDomain(("x1", "x2"), ((-1.0, 1.0),) * 2)
    met = RiemannianMetric.from_components(
        dom, [["1", "x1"], ["0.5*x1", "1"]])
    with pytest.raises(geometry.MetricError):
        geometry.christoffel(met, dom.sample(4, 1))


def test_mirror_entries_with_one_expression_share_a_jet():
    dom = ChartDomain(("x1", "x2"), ((-1.0, 1.0),) * 2)
    met = RiemannianMetric.from_components(
        dom, [["2", "x1*x2"], ["x1*x2", "2"]])
    rows = geometry.metric_jets(met, dom.sample(4, 1))
    assert rows[1][0] is rows[0][1]
    assert rows[0][0] is not rows[1][1]


def test_metric_not_positive_definite_raises():
    dom = ChartDomain(("x1", "x2"), ((-1.0, 1.0),) * 2)
    met = RiemannianMetric.from_components(dom, [["1", "0"], ["0", "x1"]])
    with pytest.raises(DomainError):
        geometry.christoffel(met, dom.sample(8, 2))


# -- composition of target-side jets with the map --------------------------------


def test_compose_codomain_jet_matches_substitution():
    dom = ChartDomain(("x1", "x2"), ((-0.9, 0.9),) * 2)
    tgt = ChartDomain(("y1", "y2"), ((-5.0, 5.0),) * 2)
    g = RiemannianMetric.euclidean(dom)
    h = RiemannianMetric.euclidean(tgt)
    phi = SmoothMap.from_components(dom, tgt, ("sin(x1)", "x1*x2"))
    st = MapState(phi, g, h, dom.sample(6, 4), 4)
    yseeds = {name: jets.Jet.variable(a, st.y0[..., a], 2, 3)
              for a, name in enumerate(tgt.coords)}
    jy = expr.evaluate(expr.parse("sin(y1) + y1*y2^2"),
                       expr.EvalContext(yseeds))
    composed = jets.compose(jy, jets.Monomials(st.phi_jets, 3))
    direct = st.scalar_jet("sin(sin(x1)) + sin(x1)*(x1*x2)^2").truncated(3)
    assert np.max(np.abs(composed.coeffs - direct.coeffs)) < 1e-12


def _pullback_products(monkeypatch):
    """Count the jet products made inside jets.compose from now on, for
    outer jets in more than one variable (the elementary functions compose
    univariate ones)."""
    calls, mul, compose = [], jets.Jet.__mul__, jets.compose
    inside = []

    def recording(a, b):
        if inside and inside[-1] and isinstance(b, jets.Jet):
            calls.append((a, b))
        return mul(a, b)

    def composing(outer, monos):
        inside.append(outer.num_vars > 1)
        try:
            return compose(outer, monos)
        finally:
            inside.pop()

    monkeypatch.setattr(jets.Jet, "__mul__", recording)
    monkeypatch.setattr(jets, "compose", composing)
    return calls


def test_target_pullback_products_do_not_grow_with_nonconstant_jets(
        monkeypatch):
    dom = ChartDomain(("x1", "x2"), ((-0.5, 0.5),) * 2)
    tgt = ChartDomain(("y1", "y2", "y3"), ((-2.0, 2.0),) * 3)
    phi = SmoothMap.from_components(dom, tgt, ("x1", "x2", "x1*x2"))
    g = RiemannianMetric.euclidean(dom)
    # both targets vary along y1 only, so both read the monomials of y1
    # alone; the conformal one has more nonconstant Christoffel jets
    fewer = RiemannianMetric.from_components(
        tgt, [["1", "0", "0"], ["0", "2+y1", "0"], ["0", "0", "1"]])
    more = RiemannianMetric.conformally_flat(tgt, "2+y1")
    pts = dom.sample(5, 3)
    nonconstant, products = [], []
    for h in (fewer, more):
        state = MapState(phi, g, h, pts, 4)
        nonconstant.append(sum(not e.is_constant() for ab in state.gammaN_y
                               for b in ab for e in b))
        calls = _pullback_products(monkeypatch)
        state.Q_jets
        products.append(len(calls))
        monkeypatch.undo()
    assert nonconstant == [2, 7]
    # one product, u1 * u1, for the one monomial of degree 2 read
    assert products == [1, 1]


# -- tension fields ---------------------------------------------------------------


def test_tension_identity_map_vanishes():
    dom, g = hyperbolic_space(3)
    tgt = ChartDomain(("y1", "y2", "y3"), dom.box)
    h = RiemannianMetric.conformally_flat(tgt, "1/y3^2")
    phi = SmoothMap.from_components(dom, tgt, ("x1", "x2", "x3"))
    tau = geometry.tension_field(phi, g, h, dom.sample(20, 6))
    assert np.max(np.abs(tau)) < 1e-11


def test_tension_isometric_cylinder():
    radius = 1.7
    dom = ChartDomain(("theta", "z"), ((0.0, 2 * np.pi), (0.0, 1.0)))
    g = RiemannianMetric.from_components(dom, [["R^2", "0"], ["0", "1"]],
                                         {"R": radius})
    tgt, h = cylindrical_chart()
    phi = SmoothMap.from_components(dom, tgt, ("R", "theta", "z"), {"R": radius})
    pts = dom.sample(12, 7)
    tau = geometry.tension_field(phi, g, h, pts)
    expected = np.zeros_like(tau)
    expected[:, 0] = -1.0 / radius
    assert support.relative_error(tau, expected) < 1e-12


def test_tension_hyperbolic_inclusion():
    dom, g4, tgt, h5, phi = hyperbolic_inclusion()
    pts = dom.sample(16, 8)
    # harmonic for the hyperbolic domain metric ...
    tau_hyp = geometry.tension_field(phi, g4, h5, pts)
    assert np.max(np.abs(tau_hyp)) < 1e-11
    # ... and with tension 2/x4 * e_5 for the flat chart metric
    flat = RiemannianMetric.euclidean(dom)
    tau_flat = geometry.tension_field(phi, flat, h5, pts)
    expected = np.zeros_like(tau_flat)
    expected[:, 4] = 2.0 / pts[:, 3]
    assert support.relative_error(tau_flat, expected) < 1e-12


def test_scalar_laplacian_conformal_rescaling_dim_two():
    # in dimension two, scaling the metric by F^-2 scales the Laplacian by F^2
    dom = ChartDomain(("x", "y"), ((-1.0, 1.0), (0.3, 2.0)))
    tgt = ChartDomain(("u", "v"), ((-2.0, 2.0),) * 2)
    h = RiemannianMetric.euclidean(tgt)
    phi = SmoothMap.from_components(dom, tgt, ("x", "y"))
    factor = "exp(0.3*x)*(1+0.2*y^2)"
    g = RiemannianMetric.euclidean(dom)
    gbar = RiemannianMetric.conformally_flat(dom, f"1/({factor})^2")
    pts = dom.sample(14, 12)
    st_g = MapState(phi, g, h, pts, 3)
    st_b = MapState(phi, gbar, h, pts, 3)
    u = "sin(x)*y + 0.3*y^3"
    lap_g = st_g.scalar_laplacian(st_g.scalar_jet(u)).value
    lap_b = st_b.scalar_laplacian(st_b.scalar_jet(u)).value
    ctx = expr.EvalContext({"x": pts[:, 0], "y": pts[:, 1]})
    fv = np.asarray(expr.evaluate(expr.parse(factor), ctx), dtype=float)
    assert support.relative_error(lap_b, fv ** 2 * lap_g) < 1e-11


# -- Jacobi operator ---------------------------------------------------------------


def test_jacobi_constant_section_hyperbolic_target():
    dom, _, tgt, h5, phi = hyperbolic_inclusion()
    flat = RiemannianMetric.euclidean(dom)
    pts = dom.sample(16, 14)
    out = geometry.jacobi_apply(phi, flat, h5, pts, ("0", "0", "0", "0", "1"))
    expected = np.zeros_like(out)
    expected[:, 4] = 4.0 / pts[:, 3] ** 2
    assert support.relative_error(out, expected) < 1e-10


def curved_test_setup():
    dom = ChartDomain(("x1", "x2"), ((-0.8, 0.8),) * 2)
    g = RiemannianMetric.from_components(
        dom, [["1+0.2*sin(x1)", "0.1*x1*x2"], ["0.1*x1*x2", "1+0.1*x2^2"]])
    tgt = ChartDomain(("y1", "y2", "y3"), ((-4.0, 4.0),) * 3)
    h = RiemannianMetric.conformally_flat(tgt, "exp(0.4*sin(y1)+0.2*y2)")
    phi = SmoothMap.from_components(
        dom, tgt, ("x1+0.3*sin(x2)", "x2", "0.2*x1*x2"))
    return dom, g, tgt, h, phi


def test_jacobi_matches_finite_difference_of_tension():
    # nabla_t tau(phi + tV)|_0 = -J(V); the left side by central differences
    # plus the Christoffel correction for the moving frame along phi_t
    dom, g, tgt, h, phi = curved_test_setup()
    vcomps = ("0.3*cos(x2)", "0.2*x1", "0.1+0.1*x1*x2")
    pts = dom.sample(12, 13)
    st = MapState(phi, g, h, pts, 3)
    jac = st.jacobi_of(st.section_from_field(
        VectorFieldAlongMap.from_components(vcomps)))
    tau0 = st.tension_values

    def shifted(t):
        comps = tuple(expr.Binary("+", pc,
                                  expr.Binary("*", expr.Const(t), expr.parse(c)))
                      for pc, c in zip(phi.components, vcomps))
        return SmoothMap(dom, tgt, comps, {})

    eps = 1e-4
    fd = (geometry.tension_field(shifted(eps), g, h, pts)
          - geometry.tension_field(shifted(-eps), g, h, pts)) / (2 * eps)
    gam_n = geometry.christoffel(h, st.y0)
    vv = field_values(vcomps, dom.coords, pts)
    corr = np.einsum("...abc,...a,...b->...c", gam_n, vv, tau0)
    assert support.relative_error(fd + corr, -jac) < 5e-6


def test_jacobi_product_rule():
    # J(fX) = f J(X) - (Laplacian f) X - 2 nabla_{grad f} X
    dom, g, tgt, h, phi = curved_test_setup()
    fsrc = "1 + 0.3*x1*x2"
    xcomps = ("sin(x2)", "0.2+0.1*x1", "0.3*x1")
    fx = tuple(f"({fsrc})*({c})" for c in xcomps)
    st = MapState(phi, g, h, dom.sample(12, 17), 3)
    j_fx = st.jacobi_of(st.section_from_field(
        VectorFieldAlongMap.from_components(fx)))
    xsec = st.section_from_field(VectorFieldAlongMap.from_components(xcomps))
    j_x = st.jacobi_of(xsec)
    fj = st.scalar_jet(fsrc)
    lap_f = st.scalar_laplacian(fj).value
    nabla = st.directional_covariant(st.gradient_jets(fj), xsec)
    xval = np.stack([s.value for s in xsec], axis=-1)
    rhs = fj.value[..., None] * j_x - lap_f[..., None] * xval - 2.0 * nabla
    assert support.relative_error(j_fx, rhs) < 1e-9


# -- bitension fields ---------------------------------------------------------------


def test_bitension_hyperbolic_inclusion_proper_biharmonic():
    dom, _, tgt, h5, phi = hyperbolic_inclusion()
    flat = RiemannianMetric.euclidean(dom)
    st = MapState(phi, flat, h5, dom.sample(16, 19), 4)
    tau = st.tension_values
    norms = np.sqrt(st.target_inner(tau, tau))
    assert np.min(norms) > 1e-3
    assert np.max(np.abs(st.bitension_values)) < 1e-9


def test_bitension_spherical_inclusion_proper_biharmonic():
    dom = ChartDomain(("u1", "u2", "u3", "u4"), ((-2.0, 2.0),) * 4)
    tgt = ChartDomain(("y1", "y2", "y3", "y4", "y5"), ((-3.0, 3.0),) * 5)
    h = RiemannianMetric.conformally_flat(
        tgt, "4/(1+y1^2+y2^2+y3^2+y4^2+y5^2)^2")
    phi = SmoothMap.from_components(dom, tgt, ("u1", "u2", "u3", "u4", "0"))
    pts = dom.sample(16, 21)
    # harmonic for the round metric on the domain chart
    ground = RiemannianMetric.conformally_flat(
        dom, "4/(1+u1^2+u2^2+u3^2+u4^2)^2")
    assert np.max(np.abs(geometry.tension_field(phi, ground, h, pts))) < 1e-10
    # proper biharmonic for the flat chart metric
    flat = RiemannianMetric.euclidean(dom)
    st = MapState(phi, flat, h, pts, 4)
    s = np.sum(pts ** 2, axis=1)
    expected = np.zeros((len(pts), 5))
    expected[:, :4] = 4.0 * pts / (1.0 + s)[:, None]
    assert support.relative_error(st.tension_values, expected) < 1e-11
    tau = st.tension_values
    assert np.min(np.sqrt(st.target_inner(tau, tau))) > 1e-3
    assert np.max(np.abs(st.bitension_values)) < 1e-8


# -- pullbacks and conformality -------------------------------------------------------


def test_pullback_and_conformality():
    dom = ChartDomain(("x", "y"), ((-2.0, 2.0), (-1.0, 1.0)))
    tgt = ChartDomain(("p", "q", "r"), ((-2.0, 2.0),) * 3)
    h3 = RiemannianMetric.euclidean(tgt)
    radius = 1.3
    wrap = SmoothMap.from_components(
        dom, tgt, ("R*cos(x/R)", "R*sin(x/R)", "y"), {"R": radius})
    pts = dom.sample(15, 23)
    pb = geometry.pullback_metric(wrap, h3, pts)
    assert support.relative_error(pb, np.broadcast_to(np.eye(2), pb.shape)) < 1e-12
    g = RiemannianMetric.conformally_flat(dom, "exp(y)")
    res = geometry.conformality_factor(wrap, g, h3, pts)
    assert res.conformal
    assert support.relative_error(res.lambda_sq, np.exp(-pts[:, 1])) < 1e-12
    skew = SmoothMap.from_components(dom, tgt, ("x", "2*y", "0"))
    res2 = geometry.conformality_factor(skew, RiemannianMetric.euclidean(dom),
                                        h3, pts)
    assert not res2.conformal
    assert res2.max_residual > 0.1


def test_state_conformality_matches_the_one_shot_fit():
    dom = ChartDomain(("x", "y"), ((-2.0, 2.0), (-1.0, 1.0)))
    tgt = ChartDomain(("p", "q", "r"), ((-2.0, 2.0),) * 3)
    h3 = RiemannianMetric.euclidean(tgt)
    wrap = SmoothMap.from_components(
        dom, tgt, ("R*cos(x/R)", "R*sin(x/R)", "y"), {"R": 1.3})
    skew = SmoothMap.from_components(dom, tgt, ("x", "2*y", "0"))
    pts = dom.sample(15, 23)
    for phi, g in ((wrap, RiemannianMetric.conformally_flat(dom, "exp(y)")),
                   (skew, RiemannianMetric.euclidean(dom))):
        want = geometry.conformality_factor(phi, g, h3, pts)
        got = MapState(phi, g, h3, pts, 2).conformality()
        assert got.conformal == want.conformal
        assert support.relative_error(got.lambda_sq, want.lambda_sq) < 1e-15
        assert abs(got.max_residual - want.max_residual) < 1e-15


# -- bienergy and its first variation ---------------------------------------------------


def test_bienergy_isometric_cylinder():
    tgt, h = cylindrical_chart()
    for radius in (0.5, 1.0, 2.0):
        dom = ChartDomain(("theta", "z"), ((0.0, 2 * np.pi), (0.0, 1.0)))
        g = RiemannianMetric.from_components(dom, [["R^2", "0"], ["0", "1"]],
                                             {"R": radius})
        phi = SmoothMap.from_components(dom, tgt, ("R", "theta", "z"),
                                        {"R": radius})
        energy = geometry.bienergy(phi, g, h, nodes=16)
        assert abs(energy - np.pi / radius) < 1e-10


def reference_variation_setup():
    dom = ChartDomain(("x", "y"), ((0.0, 1.0),) * 2)
    g = RiemannianMetric.conformally_flat(dom, "exp(x)")
    tgt = ChartDomain(("u", "v"), ((-2.0, 2.0),) * 2)
    h = RiemannianMetric.conformally_flat(tgt, "exp(0.3*u)")
    phi = SmoothMap.from_components(dom, tgt, ("x^3", "y"))
    return dom, g, tgt, h, phi


def test_bienergy_quadrature_stability():
    _, g, _, h, phi = reference_variation_setup()
    e20 = geometry.bienergy(phi, g, h, nodes=20)
    e40 = geometry.bienergy(phi, g, h, nodes=40)
    assert abs(e20 - e40) < 1e-10 * (1.0 + abs(e40))


def test_first_variation_matches_bitension_pairing():
    _, g, _, h, phi = reference_variation_setup()
    bump = "100*(x*(1-x)*y*(1-y))^3"
    field = VectorFieldAlongMap.from_components((bump, bump))
    out = geometry.first_variation(phi, g, h, field, eps=0.2, nodes=24)
    target = geometry.VARIATION_SIGN * out["pairing"]
    assert abs(out["pairing"]) > 1e-4
    err_full = abs(out["slope"] - target)
    err_half = abs(out["slope_half"] - target)
    assert err_half < 1e-5 * (1.0 + abs(target))
    # halving eps divides the central-difference error by about four
    assert err_half > 1e-13
    assert 3.0 < err_full / err_half < 5.2


def test_first_variation_vanishes_at_biharmonic_map():
    dom, _, tgt, h5, phi = hyperbolic_inclusion()
    box = ((-1.0, 1.0),) * 3 + ((0.5, 1.5),)
    dom = ChartDomain(dom.coords, box)
    phi = SmoothMap.from_components(dom, tgt, ("1", "x1", "x2", "x3", "x4"))
    flat = RiemannianMetric.euclidean(dom)
    bump = ("((x1+1)*(1-x1)*(x2+1)*(1-x2)*(x3+1)*(1-x3)"
            "*(x4-0.5)*(1.5-x4))^2")
    field = VectorFieldAlongMap.from_components((bump, "0", "0", "0", bump))
    out = geometry.first_variation(phi, flat, h5, field, eps=0.1, nodes=8)
    assert abs(out["pairing"]) < 1e-9
    # the difference quotient is pure eps^2 artifact: it drops fourfold when
    # eps halves, and extrapolating it away leaves nothing
    assert 3.5 < out["slope"] / out["slope_half"] < 4.5
    richardson = (4.0 * out["slope_half"] - out["slope"]) / 3.0
    assert abs(richardson) < 1e-5


def small_slab():
    """The 4-D first-variation slab of the test above, on a coarser grid."""
    dom, _, tgt, h5, _ = hyperbolic_inclusion()
    dom = ChartDomain(dom.coords, ((-1.0, 1.0),) * 3 + ((0.5, 1.5),))
    phi = SmoothMap.from_components(dom, tgt, ("1", "x1", "x2", "x3", "x4"))
    bump = ("((x1+1)*(1-x1)*(x2+1)*(1-x2)*(x3+1)*(1-x3)"
            "*(x4-0.5)*(1.5-x4))^2")
    field = VectorFieldAlongMap.from_components((bump, "0", "0", "0", bump))
    return phi, RiemannianMetric.euclidean(dom), h5, field


def _count_states(monkeypatch):
    sizes, cls = [], geometry.MapState

    class Counting(cls):
        def __init__(self, phi, g, h, x, order):
            sizes.append((order, len(x)))
            super().__init__(phi, g, h, x, order)

    monkeypatch.setattr(geometry, "MapState", Counting)
    return sizes


# budget, nodes: the 2-D pair (36 points) runs order-4 chunks of 8 points and
# order-2 chunks of 21; the slab (81 points) order-4 chunks of 7 and order-2
# chunks of 33; every grid ends in a shorter chunk
@pytest.mark.parametrize("geom,budget,nodes", [("pair", 130, 6),
                                               ("slab", 500, 3)])
def test_chunked_quadrature_is_bit_identical(monkeypatch, geom, budget, nodes):
    if geom == "pair":
        _, g, _, h, phi = reference_variation_setup()
        bump = "100*(x*(1-x)*y*(1-y))^3"
        field = VectorFieldAlongMap.from_components((bump, bump))
    else:
        phi, g, h, field = small_slab()
    whole = (geometry.bienergy(phi, g, h, nodes=nodes),
             geometry.first_variation(phi, g, h, field, eps=0.1, nodes=nodes))
    monkeypatch.setattr(geometry, "_CHUNK_COEFFS", budget)
    sizes = _count_states(monkeypatch)
    chunked = (geometry.bienergy(phi, g, h, nodes=nodes),
               geometry.first_variation(phi, g, h, field, eps=0.1, nodes=nodes))
    assert chunked[0].hex() == whole[0].hex()
    assert {k: v.hex() for k, v in chunked[1].items()} == \
        {k: v.hex() for k, v in whole[1].items()}
    points = nodes ** phi.domain.dim

    def chunks(order):
        step = budget // jets._ncoef(phi.domain.dim, order)
        assert points % step, "the grid must end in a shorter chunk"
        return [step] * (points // step) + [points % step]

    # five energies (one above, four in first_variation) and one pairing
    assert [n for o, n in sizes if o == 2] == chunks(2) * 5
    assert [n for o, n in sizes if o == 4] == chunks(4)


def test_bienergy_memory_is_bounded_by_one_chunk(monkeypatch):
    phi, g, h, _ = small_slab()
    # order-2 jets in four variables carry 15 coefficients: 256-point chunks
    monkeypatch.setattr(geometry, "_CHUNK_COEFFS", 15 * 256)

    def peak(nodes):
        tracemalloc.start()
        try:
            geometry.bienergy(phi, g, h, nodes=nodes)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(4)  # first call fills the module-level tables and caches
    one = peak(4)  # 256 points, one chunk
    # 4096 points, 16 chunks; in one batch the peak is about 15 times larger
    assert peak(8) <= 1.5 * one


def test_quadrature_grid_is_built_chunk_by_chunk(monkeypatch):
    phi, g, h, _ = small_slab()
    # 4096-point chunks: nodes = 8 is one chunk and nodes = 16 sixteen, so
    # the two peaks differ only by what grows with the grid
    monkeypatch.setattr(geometry, "_CHUNK_COEFFS", 15 * 4096)

    def peak(nodes):
        tracemalloc.start()
        try:
            geometry.bienergy(phi, g, h, nodes=nodes)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # first call fills the module-level tables and caches
    # 65536 points: the per-point terms take 0.5 MiB; a whole grid with its
    # weights would add 2.5 MiB more
    assert peak(16) - peak(8) < 1.5 * 2 ** 20


def test_a_euclidean_slab_has_known_zero_christoffel_jets():
    phi, g, h, _ = small_slab()
    state = MapState(phi, g, h, phi.domain.sample(5, 3), 4)
    for jet in _every_jet(state.gammaM):
        # known when built: no is_zero() scan set the flag, and the
        # coefficients are the shared read-only zero, which holds no memory
        assert jet._zero is True
        assert not jet.coeffs.flags.writeable and not any(jet.coeffs.strides)


def test_zero_jets_of_an_order_four_slab_chunk_hold_no_memory():
    phi, g, h, _ = small_slab()
    # one chunk of the first-variation pairing: 65536 // 70 points of
    # order-4 jets in four variables
    x = phi.domain.sample(936, 5)
    MapState(phi, g, h, x[:4], 4).bitension_values  # fill the caches
    tracemalloc.start()
    try:
        MapState(phi, g, h, x, 4).bitension_values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the derivatives of the Euclidean metric, its Christoffel symbols and
    # the inverse's off-diagonal entries are known zeros: with every zero
    # allocated the peak is about 150 jets of the chunk (79 MB), without
    # them about 70 (37 MB)
    assert peak < 100 * 936 * jets._ncoef(4, 4) * 8


# -- stages built on first read ------------------------------------------------


def _raising(monkeypatch, name):
    """Replace geometry.<name> by a function that raises and counts calls."""
    calls = []

    def raising(*args):
        calls.append(args)
        raise FloatingPointError(f"{name} refused")

    monkeypatch.setattr(geometry, name, raising)
    return calls


def test_conformally_flat_factor_is_evaluated_and_differentiated_once(
        monkeypatch):
    dom, g4, tgt, h5, phi = hyperbolic_inclusion()
    g_factor, h_factor = g4.components[0][0], h5.components[0][0]
    evaluated, evaluate = [], expr.evaluate

    def recording(node, ctx):
        evaluated.append(node)
        return evaluate(node, ctx)

    monkeypatch.setattr(expr, "evaluate", recording)
    state = MapState(phi, g4, h5, dom.sample(6, 5), 4)
    assert sum(node is g_factor for node in evaluated) == 1
    assert sum(node is h_factor for node in evaluated) == 1
    assert all(state.g_jets[i][i] is state.g_jets[0][0] for i in range(4))
    state.ginv_jets  # the inverse takes no derivatives
    differentiated, derivative = [], jets.Jet.derivative

    def differentiating(self, axis):
        differentiated.append((self, axis))
        return derivative(self, axis)

    monkeypatch.setattr(jets.Jet, "derivative", differentiating)
    state.gammaM
    # one factor jet and one zero jet, each differentiated along each axis
    assert len(differentiated) == 2 * 4
    assert sum(e is state.g_jets[0][0] for e, _ in differentiated) == 4


def test_a_stage_that_raises_is_not_kept(monkeypatch):
    phi, g, h, _ = small_slab()
    x = phi.domain.sample(5, 3)
    calls = _raising(monkeypatch, "_christoffel_jets")
    state = MapState(phi, g, h, x, 4)  # validation reads no Christoffel stage
    for attempt in (1, 2):
        with pytest.raises(FloatingPointError):
            state.gammaM
        assert len(calls) == attempt
    monkeypatch.undo()
    assert np.array_equal(state.gammaM_val,
                          MapState(phi, g, h, x, 4).gammaM_val)


def test_codomain_error_comes_before_a_failing_stage(monkeypatch):
    dom = ChartDomain(("u", "v"), ((-1.0, 1.0),) * 2)
    tgt = ChartDomain(("p", "q", "r"), ((-2.0, 2.0),) * 3)
    phi = SmoothMap.from_components(dom, tgt, ("u", "v", "5*u"))
    g = RiemannianMetric.conformally_flat(dom, "2+u")
    _raising(monkeypatch, "_christoffel_jets")
    with pytest.raises(DomainError):
        MapState(phi, g, RiemannianMetric.euclidean(tgt), dom.sample(8, 1), 4)


@pytest.mark.parametrize("subscripts,shapes", [
    ("...ipl,...jkp->...lkij", [(7, 3, 3, 3)] * 2),
    ("...jpl,...ikp->...lkij", [(2, 5, 4, 4, 4), (2, 5, 4, 4, 4)]),
    ("...ij,...ijk,...kc->...c", [(9, 4, 4), (9, 4, 4, 4), (9, 4, 5)]),
    ("...ij,...ia,...b,...jk,...ckab->...c",
     [(3, 6, 2, 2), (3, 6, 2, 3), (3, 6, 3), (3, 6, 2, 3), (3, 6, 3, 3, 3, 3)]),
])
def test_einsum_helper_matches_optimized_einsum_bitwise(subscripts, shapes):
    rng = np.random.default_rng(len(subscripts))
    operands = [rng.normal(size=s) for s in shapes]
    want = np.einsum(subscripts, *operands, optimize=True)
    for _ in range(2):  # a searched path, then a cached one
        got = geometry._einsum(subscripts, *operands)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_einsum_path_cache_is_bounded():
    limit = geometry._einsum_path.cache_info().maxsize
    assert limit is not None
    operand = np.ones((1, 2, 2, 2))
    for batch in range(1, limit + 11):
        geometry._einsum("...ipl,...jkp->...lkij", operand,
                         np.ones((batch, 2, 2, 2)))
    assert geometry._einsum_path.cache_info().currsize <= limit
