import dataclasses
import gc
import itertools
import tracemalloc
import weakref
from functools import cached_property

import numpy as np
import pytest

from bitension import catalog, conformal, expr, geometry, jets, surfaces
from bitension.charts import (ChartDomain, DomainError, RiemannianMetric,
                              SmoothMap, VectorFieldAlongMap)
from bitension.geometry import GeometryInputError, MapState

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
    state.gammaM_trace, state.Q_jets  # built on first read: not measured here
    calls = _jet_products(monkeypatch)
    state.tension_jets
    assert not any(_structurally_zero(a) or _structurally_zero(b)
                   for a, b in calls)
    # flat target: Q vanishes, every dphi entry is nonzero, and g^-1 is
    # diagonal, so H_ij = d_j dphi_i^c is built only for i = j: component c
    # costs one product per diagonal g^ii whose H_ii is not zero (d_x^2 of
    # x*y + sin(y) is) plus one per nonzero Gamma^k = g^ij Gamma^k_ij, and
    # those vanish for a conformally flat plane metric (their two terms
    # cancel exactly, so no product is formed with them)
    nonzero_gamma = sum(not gam.is_zero() for gam in state.gammaM_trace)
    assert nonzero_gamma == 0
    nonzero_hessian = sum(not state.Dphi[i][c].derivative(i).is_zero()
                          for i in range(state.m) for c in range(state.n))
    assert nonzero_hessian == 3
    assert len(calls) == nonzero_hessian + state.n * nonzero_gamma == 3
    ginv = [e for row in state.ginv_jets for e in row]
    assert all(any(a is e for e in ginv) for a, _ in calls)


def test_map_state_carries_each_jet_at_the_order_it_is_read():
    dom, met = wiggly_metric()
    tgt = ChartDomain(("y1", "y2", "y3"), ((-1.0, 1.0),) * 3)
    phi = SmoothMap.from_components(dom, tgt, ("x1+0.1*x2^2", "x2", "x3"))
    h = RiemannianMetric.euclidean(tgt)
    pts = dom.sample(6, 13)
    state = MapState(phi, met, h, pts, 4)
    assert all(e.order == 3 for row in state.g_jets for e in row)
    assert all(e.order == 2 for row in state.ginv_jets for e in row)
    assert all(e.order == 2 for e in state.gammaM_trace)
    # the truncated inputs reproduce a prefix of the untruncated contracted
    # Christoffel jets bit for bit: no coefficient that is read depends on a
    # dropped one
    rows = geometry.metric_jets(met, pts, order=4)
    full = geometry._christoffel_trace_jets(
        rows, geometry._jet_matrix_inverse(rows))
    for k in range(3):
        assert full[k].order == 3
        assert np.array_equal(state.gammaM_trace[k].coeffs,
                              full[k].truncated(2).coeffs)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_contracted_christoffel_jets_are_the_trace_of_the_symbols(order):
    dom, met = wiggly_metric()  # every entry of g and of g^-1 is nonzero
    tgt = ChartDomain(("y1", "y2", "y3"), ((-1.0, 1.0),) * 3)
    phi = SmoothMap.from_components(dom, tgt, dom.coords)
    state = MapState(phi, met, RiemannianMetric.euclidean(tgt),
                     dom.sample(7, 17), order)
    ginv = state.ginv_jets
    assert not any(e.is_zero() for row in ginv for e in row)
    full = geometry._christoffel_jets(state.g_jets, ginv)
    for k, got in enumerate(state.gammaM_trace):
        want = jets.contract((ginv[i][j], full[i][j][k])
                             for i in range(3) for j in range(3))
        assert got.order == want.order == order - 2
        a, b = got.coeffs, want.coeffs
        assert np.all(np.abs(a - b)
                      <= 1e-13 * np.maximum(np.abs(a), np.abs(b)))


def _law_state(m, seed):
    """An order-4 state of the law family of dimension m on F^-2 g, a full
    domain metric."""
    dom, g, h, phi, _, fac = conformal.random_transform_family(
        m, 2, np.random.default_rng(seed))
    pts = dom.sample(4, seed + 1)
    return MapState(phi, conformal.conformal_metric(g, fac), h,
                    np.broadcast_to(pts, (2,) + pts.shape), 4)


def test_the_contracted_christoffel_stage_forms_fewer_products(monkeypatch):
    built, christoffel = [], geometry._christoffel_jets

    def recording(gj, ginv):
        built.append(gj)
        return christoffel(gj, ginv)

    monkeypatch.setattr(geometry, "_christoffel_jets", recording)
    state = _law_state(5, 105)
    m = state.m
    assert not any(e.is_zero() for row in state.ginv_jets for e in row)
    state.Dphi, state.Q_jets  # built on first read: not measured here
    calls = _jet_products(monkeypatch)
    state.gammaM_trace
    # v_l = 1/2 g^ij s(i, j)[l] over the pairs i <= j, one product per
    # nonzero s(i, j)[l], then Gamma^k = g^kl v_l, m^2 products: at most
    # m^2 (m + 1) / 2 + m^2 = 100, where the full symbols took
    # m^3 (m + 1) / 2 = 375 (300 here, with the same zeros skipped)
    s = geometry._christoffel_sums(state.g_jets)
    nonzero = sum(not s(i, j)[l].is_zero() for i in range(m)
                  for j in range(i, m) for l in range(m))
    assert not any(v.is_zero() for v in state.gammaM_trace)
    assert len(calls) == nonzero + m * m == 85
    assert len(calls) <= m * m * (m + 1) // 2 + m * m == 100
    calls.clear()
    state.tension_jets
    # 365 with the full symbols, each contracted with dphi inside the trace
    assert len(calls) == 169
    state.scalar_laplacian(state.scalar_jet("x1*x2"))
    state.bitension_values
    # the target's symbols, once; the domain's never
    assert len(built) == 1 and built[0] is state.h_yjets


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
    lists = (state.g_jets, state.ginv_jets, state.gammaM_trace, state.phi_jets,
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


def _first_case(obj):
    """A family member (chart map or metric) with its (count, 1) parameters
    replaced by the first case's scalars."""
    return dataclasses.replace(obj, parameters={
        k: v[0, 0] for k, v in obj.parameters.items()})


# (m, n): n = m + 1 for m = 2..5, then a target below the domain dimension
# and one two above it
@pytest.mark.parametrize("m,n", [(2, 3), (3, 4), (4, 5), (5, 6), (3, 2),
                                 (2, 4)])
@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("single", [False, True])
def test_curvature_trace_matches_the_riemann_tensor_route(m, n, order, single):
    dom, g, h, phi, _, _ = conformal.random_transform_family(
        m, 3, np.random.default_rng(60 + 7 * m + n), n=n)
    pts = dom.sample(5, 61 + m)
    if single:
        state = MapState(_first_case(phi), _first_case(g), _first_case(h),
                         pts[0], order)
    else:
        state = MapState(phi, g, h, np.broadcast_to(pts, (3,) + pts.shape),
                         order)
    section = np.random.default_rng(m * n).normal(
        size=state.batch_shape + (n,))
    want = np.einsum("...ij,...ia,...b,...jk,...ckab->...c",
                     state.ginv_val, state.dphi, section, state.dphi,
                     geometry._curvature_values(state.gammaN_y), optimize=True)
    got = state.curvature_trace(section)
    assert got.shape == want.shape == state.batch_shape + (n,)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_bitension_and_jacobi_never_form_the_curvature_tensor(monkeypatch):
    _raising(monkeypatch, "_curvature_values")
    dom, g, h, phi, fld, fac = conformal.random_transform_family(
        3, 2, np.random.default_rng(5))
    pts = dom.sample(4, 6)
    x = np.broadcast_to(pts, (2,) + pts.shape)
    state = MapState(phi, g, h, x, 4)
    assert np.all(np.isfinite(state.bitension_values))
    jac = state.jacobi_of(state.section_from_field(fld))
    assert jac.shape == x.shape[:-1] + (4,)
    sides = conformal.law_sides(phi, g, h, fld, fac, x)
    assert sorted(sides) == ["bitension", "jacobi", "tension"]
    with pytest.raises(FloatingPointError):  # it is still there to inspect
        geometry.curvature_tensor(h, state.y0)


def test_metric_symmetry_violation_raises():
    dom = ChartDomain(("x1", "x2"), ((-1.0, 1.0),) * 2)
    met = RiemannianMetric.from_components(
        dom, [["1", "x1"], ["0.5*x1", "1"]])
    with pytest.raises(geometry.MetricError):
        geometry.christoffel(met, dom.sample(4, 1))


def test_long_equal_mirror_entries_are_matched_by_identity():
    dom, met = support.long_mirror_metric()
    assert met.components[1][0] is met.components[0][1]
    assert geometry.christoffel(met, dom.sample(4, 1)).shape == (4, 2, 2, 2)


def test_equal_mirror_trees_that_are_distinct_objects_are_compared():
    dom = ChartDomain(("x1", "x2"), ((-1.0, 1.0),) * 2)
    met = RiemannianMetric(dom, ((expr.parse("2"), expr.parse("x1*x2")),
                                 (expr.parse("x1*x2"), expr.parse("2"))))
    rows = geometry.metric_jets(met, dom.sample(4, 1))
    assert rows[1][0] is not rows[0][1]
    assert np.array_equal(rows[1][0].coeffs, rows[0][1].coeffs)


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


def test_not_positive_definite_names_the_point_and_smallest_eigenvalue():
    dom = ChartDomain(("x1", "x2"), ((-2.0, 2.0),) * 2)
    met = RiemannianMetric.from_components(
        dom, [["1", "1.25*x1"], ["1.25*x1", "1"]])
    # smallest eigenvalues 1, 0.375, -0.25 and -0.875: the first sample
    # (in C order) that is not positive definite is named
    pts = np.array([[0.0, 0.0], [0.5, 0.1], [-1.0, 0.5], [1.5, -1.0]])
    want = ("metric is not positive definite at [-1.0, 0.5] "
            "(smallest eigenvalue -0.25)")
    with pytest.raises(DomainError) as err:
        geometry.metric_jets(met, pts)
    assert str(err.value) == want
    # a batched factorization decides; the eigenvalues only locate a failure
    calls, eigvalsh = [], np.linalg.eigvalsh

    def counting(a):
        calls.append(a.shape)
        return eigvalsh(a)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", counting)
        geometry.metric_jets(met, pts[:2])
        assert calls == []
        with pytest.raises(DomainError, match="smallest eigenvalue -0.25"):
            geometry.metric_jets(met, pts)
        assert calls == [(4, 2, 2)]
    # a NaN matrix is not rejected here, as before: the non-finite gate of
    # the report locates it
    geometry._require_spd(np.full((3, 2, 2), np.nan), pts[:3], "metric")


def test_a_conformally_flat_inverse_takes_one_reciprocal(monkeypatch):
    dom, g4, tgt, h5, phi = hyperbolic_inclusion()
    state = MapState(phi, g4, h5, dom.sample(6, 5), 4)
    calls, compose = [], jets.compose

    def counting(outer, monos):
        calls.append(outer)
        return compose(outer, monos)

    # a reciprocal is one composition; nothing else in an inverse composes
    monkeypatch.setattr(jets, "compose", counting)
    state.gammaN_y  # the target inverse: one diagonal jet, five pivots
    assert len(calls) == 1
    state.ginv_jets  # the domain inverse: one diagonal jet, four pivots
    assert len(calls) == 2
    assert np.allclose(state.ginv_val, np.linalg.inv(state.g_val),
                       rtol=1e-14, atol=0.0)


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


# every public read of a section's covariant derivative
_SECTION_READS = {
    "covariant_derivative": lambda st, s, y: st.covariant_derivative(s),
    "directional_covariant": lambda st, s, y: st.directional_covariant(y, s),
    "trace_laplacian": lambda st, s, y: st.trace_laplacian(s),
    "jacobi_of": lambda st, s, y: st.jacobi_of(s),
}


def test_any_mix_of_reads_differentiates_a_section_once(monkeypatch):
    dom, g, tgt, h, phi = curved_test_setup()
    pts = dom.sample(6, 29)
    fld = VectorFieldAlongMap.from_components(
        ("0.3*cos(x2)", "0.2*x1", "0.1+0.1*x1*x2"))
    calls = support.record_covariant_derivatives(monkeypatch)
    for reads in itertools.permutations(_SECTION_READS):
        st = MapState(phi, g, h, pts, 3)
        section = st.section_from_field(fld)
        y = st.gradient_jets(st.scalar_jet("x1*x2"))
        del calls[:]
        for read in reads + reads:
            _SECTION_READS[read](st, section, y)
        # ``calls`` holds every result, so a second derivative would have
        # an id of its own
        assert all(s is section for s, _ in calls)
        assert len({id(ds) for _, ds in calls}) == 1, reads


def test_sections_with_reused_ids_get_their_own_derivatives():
    dom, g, tgt, h, phi = curved_test_setup()
    pts = dom.sample(6, 31)
    fld = VectorFieldAlongMap.from_components(
        ("0.3*cos(x2)", "0.2*x1", "0.1+0.1*x1*x2"))

    def reads(st, k):
        # the caller keeps no section, so CPython may hand the next one the
        # id of the last
        base = st.section_from_field(fld)
        return (st.jacobi_of([c * (1.0 + k) for c in base]),
                st.directional_covariant([0.5, -1.0],
                                         [c * -(1.0 + k) for c in base]))

    shared = MapState(phi, g, h, pts, 3)
    got = [reads(shared, k) for k in range(6)]
    for k, pair in enumerate(got):
        want = reads(MapState(phi, g, h, pts, 3), k)
        assert [a.tobytes() for a in pair] == [b.tobytes() for b in want]


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


def test_pullback_and_conformality_check_their_metrics_positive_definite():
    dom = ChartDomain(("x", "y"), ((-2.0, 2.0), (-1.0, 1.0)))
    tgt = ChartDomain(("p", "q", "r"), ((-2.0, 2.0),) * 3)
    wrap = SmoothMap.from_components(
        dom, tgt, ("R*cos(x/R)", "R*sin(x/R)", "y"), {"R": 1.3})
    pts = dom.sample(15, 23)
    h3 = RiemannianMetric.euclidean(tgt)
    tilted = RiemannianMetric.conformally_flat(tgt, "q")
    with pytest.raises(DomainError, match="^target metric is not positive"):
        geometry.pullback_metric(wrap, tilted, pts)
    with pytest.raises(DomainError, match="^domain metric is not positive"):
        geometry.conformality_factor(
            wrap, RiemannianMetric.conformally_flat(dom, "x"), h3, pts)


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
    # the fit is per point: with R on a leading member axis, each member's
    # rows are its own fit, and reduce to its own one-shot max_residual
    g = RiemannianMetric.conformally_flat(dom, "exp(y)")
    radii = (0.9, 1.3, 2.0)
    family = SmoothMap.from_components(
        dom, tgt, wrap.components, {"R": np.array(radii)[:, None]})
    fit = MapState(family, g, h3, np.broadcast_to(pts, (3,) + pts.shape),
                   2).conformality()
    assert fit.residual.shape == fit.scale.shape == (3, 15)
    for k, radius in enumerate(radii):
        member = SmoothMap.from_components(dom, tgt, wrap.components,
                                           {"R": radius})
        alone = MapState(member, g, h3, pts, 2).conformality()
        for key in ("lambda_sq", "residual", "scale"):
            assert (getattr(fit, key)[k].tobytes()
                    == getattr(alone, key).tobytes())
        reduced = np.max(fit.residual[k]) / (1.0 + np.max(fit.scale[k]))
        assert reduced == geometry.conformality_factor(member, g, h3,
                                                       pts).max_residual


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
    """Record (order, batch shape, domain-side batch shape) of every state
    built from now on."""
    sizes, cls = [], geometry.MapState

    class Counting(cls):
        def __init__(self, phi, g, h, x, order):
            super().__init__(phi, g, h, x, order)
            sizes.append((order, self.batch_shape, self.g_val.shape[:-2]))

    monkeypatch.setattr(geometry, "MapState", Counting)
    return sizes


def _quadrature_case(geom):
    """phi, g, h and the variation field of the 2-D pair or the 4-D slab."""
    if geom == "slab":
        return small_slab()
    _, g, _, h, phi = reference_variation_setup()
    bump = "100*(x*(1-x)*y*(1-y))^3"
    return phi, g, h, VectorFieldAlongMap.from_components((bump, bump))


# budget, nodes: the 2-D pair (36 points) runs order-4 chunks of 8 points,
# order-2 chunks of 21 and order-2 family chunks of 4 x 5; the slab (81
# points) order-4 chunks of 7, order-2 chunks of 33 and family chunks of
# 4 x 8; every grid ends in a shorter chunk
@pytest.mark.parametrize("geom,budget,nodes", [("pair", 130, 6),
                                               ("slab", 500, 3)])
def test_chunked_quadrature_is_bit_identical(monkeypatch, geom, budget, nodes):
    phi, g, h, field = _quadrature_case(geom)
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

    def chunks(order, width=1):
        step = budget // (width * jets._ncoef(phi.domain.dim, order))
        assert points % step, "the grid must end in a shorter chunk"
        family = (width,) if width > 1 else ()
        return [family + (n,) for n in
                [step] * (points // step) + [points % step]]

    # one energy above, then the family of four energies in first_variation
    # and one pairing
    assert [n for o, n, _ in sizes if o == 2] == \
        chunks(2) + chunks(2, width=4)
    assert [n for o, n, _ in sizes if o == 4] == chunks(4)
    # every domain side on the chunk's points alone, the family's included
    assert [d for _, _, d in sizes] == [n[-1:] for _, n, _ in sizes]


def test_first_variation_builds_each_domain_side_on_the_chunk_points(
        monkeypatch):
    phi, g, h, field = _quadrature_case("pair")
    built = support.record_builds(monkeypatch)
    geometry.first_variation(phi, g, h, field, eps=0.1, nodes=6)
    states = [np.shape(x) for kind, x in built if kind == "state"]
    domains = [side.g_val.shape for kind, side in built if kind == "domain"]
    maps = [side.batch_shape for kind, side in built if kind == "map"]
    # one family state of 4 x 36 points and one pairing state of 36
    assert states == [(36, 2), (36, 2)]
    assert domains == [(36, 2, 2), (36, 2, 2)]
    assert maps == [(4, 36), (36,)]


@pytest.mark.parametrize("geom,budget,nodes", [("pair", 130, 6),
                                               ("slab", 500, 3)])
def test_first_variation_energies_are_one_by_one_bienergies(
        monkeypatch, geom, budget, nodes):
    phi, g, h, field = _quadrature_case(geom)
    eps = 0.1
    # the family of four runs in 8 (pair) and 11 (slab) chunks
    monkeypatch.setattr(geometry, "_CHUNK_COEFFS", budget)
    sums, integrate = [], geometry._integrate

    def recording(integrand, box, nodes, order, width=1):
        out = integrate(integrand, box, nodes, order, width)
        sums.append((width, out))
        return out

    monkeypatch.setattr(geometry, "_integrate", recording)
    got = geometry.first_variation(phi, g, h, field, eps=eps, nodes=nodes)
    (width, family), = [(w, out) for w, out in sums if w > 1]
    assert width == 4 and family.shape == (4,)
    monkeypatch.undo()
    t = "__fv_t__"
    comps = tuple(expr.Binary("+", pc, expr.Binary("*", expr.Name(t), vc))
                  for pc, vc in zip(phi.components, field.components))
    one_by_one = [geometry.bienergy(SmoothMap(phi.domain, phi.codomain, comps,
                                              {t: s}), g, h, nodes=nodes)
                  for s in (eps, -eps, eps / 2.0, -eps / 2.0)]
    assert [float(0.5 * e).hex() for e in family] == \
        [e.hex() for e in one_by_one]
    assert got["slope"].hex() == \
        ((one_by_one[0] - one_by_one[1]) / (2.0 * eps)).hex()
    assert got["slope_half"].hex() == \
        ((one_by_one[2] - one_by_one[3]) / eps).hex()


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
    for jet in _every_jet(state.gammaM_trace):
        # known when built: no is_zero() scan set the flag, and the
        # coefficients are the shared read-only zero, which holds no memory
        assert jet._zero is True
        assert not jet.coeffs.flags.writeable and not any(jet.coeffs.strides)


def _bent_plane():
    """The bent plane (u, v, (u^4 + v^4)/4), whose tension and bitension do
    not vanish, between Euclidean charts, each metric also written as
    1 + 0*c and 0*c in a coordinate c of its chart: the same values with
    variable support, so its connection is derived entry by entry."""
    dom = ChartDomain(("u", "v"), ((-1.0, 1.0),) * 2)
    tgt = ChartDomain(("p", "q", "r"), ((-2.0, 2.0),) * 3)
    phi = SmoothMap.from_components(dom, tgt, ("u", "v", "(u^4 + v^4)/4"))

    def with_support(chart):
        c, m = chart.coords[0], chart.dim
        return RiemannianMetric.from_components(chart, [
            [f"{int(i == j)} + 0*{c}" for j in range(m)] for i in range(m)])
    g, h = RiemannianMetric.euclidean(dom), RiemannianMetric.euclidean(tgt)
    return phi, g, h, with_support(dom), with_support(tgt), dom.sample(8, 3)


def _recording(monkeypatch, name):
    """Record the first argument of every call to geometry.<name>."""
    calls, call = [], getattr(geometry, name)

    def recording(*args):
        calls.append(args[0])
        return call(*args)

    monkeypatch.setattr(geometry, name, recording)
    return calls


def _known_zeros(nest):
    return all(jet._zero is True and not jet.coeffs.flags.writeable
               and not any(jet.coeffs.strides) for jet in _every_jet(nest))


def test_a_euclidean_target_has_a_known_zero_connection_and_no_inverse(
        monkeypatch):
    phi, g, h, _, h_support, x = _bent_plane()
    state = MapState(phi, g, h, x, 4)
    inverses = _recording(monkeypatch, "_jet_matrix_inverse")
    sums = _recording(monkeypatch, "_christoffel_sums")
    assert _known_zeros(state.gammaN_y) and _known_zeros(state.Q_jets)
    # decided from the metric jets: no inverse, no symbol derived
    assert inverses == [] and sums == []
    general = MapState(phi, g, h_support, x, 4)
    general.Q_jets
    assert inverses == [general.h_yjets] and sums == [general.h_yjets]
    for name in ("tension_values", "bitension_values"):
        got, want = getattr(state, name), getattr(general, name)
        assert np.max(np.abs(got)) > 0.1 and np.array_equal(got, want), name


def test_a_euclidean_domain_has_a_known_zero_contracted_connection(
        monkeypatch):
    phi, g, h, g_support, _, x = _bent_plane()
    state = MapState(phi, g, h, x, 4)
    sums = _recording(monkeypatch, "_christoffel_sums")
    assert _known_zeros(state.gammaM_trace) and sums == []
    general = MapState(phi, g_support, h, x, 4)
    general.gammaM_trace
    assert sums == [general.g_jets]
    for name in ("tension_values", "bitension_values"):
        got, want = getattr(state, name), getattr(general, name)
        assert np.max(np.abs(got)) > 0.1 and np.array_equal(got, want), name


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
    state.gammaM_trace
    # one factor jet and one zero jet, each differentiated along each axis
    assert len(differentiated) == 2 * 4
    assert sum(e is state.g_jets[0][0] for e, _ in differentiated) == 4


def test_a_stage_that_raises_is_not_kept(monkeypatch):
    phi, g, h, _ = small_slab()
    x = phi.domain.sample(5, 3)
    calls = _raising(monkeypatch, "_christoffel_trace_jets")
    state = MapState(phi, g, h, x, 4)  # validation reads no Christoffel stage
    for attempt in (1, 2):
        with pytest.raises(FloatingPointError):
            state.gammaM_trace
        assert len(calls) == attempt
    monkeypatch.undo()
    assert np.array_equal(state.gammaM_trace_val,
                          MapState(phi, g, h, x, 4).gammaM_trace_val)


def test_on_shares_the_map_side_and_builds_its_own_domain_side():
    dom, g, h, phi, _, fac = conformal.random_transform_family(
        3, 2, np.random.default_rng(81))
    pts = dom.sample(5, 82)
    x = np.broadcast_to(pts, (2,) + pts.shape)
    gbar = conformal.conformal_metric(g, fac)
    state = MapState(phi, g, h, x, 4)
    state.Q_jets  # a map stage built before the sharing is shared too
    other = state.on(gbar)
    assert other._map is state._map and other._domain is not state._domain
    assert other.g is gbar and other.Q_jets is state.Q_jets
    assert other.gammaM_trace is not state.gammaM_trace
    fresh = MapState(phi, gbar, h, x, 4)
    for name in ("gammaM_trace_val", "sqrt_det_g", "Q_val", "curvature_map",
                 "tension_values", "bitension_values"):
        assert support.bits(getattr(other, name)) == \
            support.bits(getattr(fresh, name)), name
    # the new domain metric is validated as the constructor validates it
    bad = RiemannianMetric.from_components(
        dom, [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]])
    with pytest.raises(DomainError, match="domain metric is not positive"):
        state.on(bad)
    elsewhere = ChartDomain(("a", "b", "c"), ((-1.0, 1.0),) * 3)
    with pytest.raises(GeometryInputError, match="different chart"):
        state.on(RiemannianMetric.euclidean(elsewhere))


def test_codomain_error_comes_before_a_failing_stage(monkeypatch):
    dom = ChartDomain(("u", "v"), ((-1.0, 1.0),) * 2)
    tgt = ChartDomain(("p", "q", "r"), ((-2.0, 2.0),) * 3)
    phi = SmoothMap.from_components(dom, tgt, ("u", "v", "5*u"))
    g = RiemannianMetric.conformally_flat(dom, "2+u")
    _raising(monkeypatch, "_christoffel_jets")
    _raising(monkeypatch, "_christoffel_trace_jets")
    with pytest.raises(DomainError):
        MapState(phi, g, RiemannianMetric.euclidean(tgt), dom.sample(8, 1), 4)


@pytest.mark.parametrize("over", ["raise", "ignore"])
def test_plain_einsum_raises_an_overflow_under_errstate(over):
    big = np.full((2, 3), 1e200)
    with np.errstate(over=over):
        if over == "raise":
            with pytest.raises(FloatingPointError) as info:
                geometry._plain_einsum("...i,...i->...", big, big)
            assert str(info.value) == "overflow encountered in einsum"
        else:  # carried on as inf, as np.einsum does
            assert np.all(geometry._plain_einsum("...i,...i->...", big, big)
                          == np.inf)
    # an operand that is already not finite is carried on, not raised
    with np.errstate(over="raise"):
        held = np.array([np.inf, 1.0])
        assert geometry._plain_einsum("...i,...i->...", held,
                                      np.ones(2)) == np.inf


@pytest.mark.parametrize("subscripts,shapes", [
    ("...ia,...ab,...jb->...ij", [(5, 3, 4), (5, 4, 4), (5, 3, 4)]),
    ("...ij,...ijc->...c", [(2, 5, 3, 3), (2, 5, 3, 3, 4)]),
    ("...k,...kc->...c", [(5, 3), (2, 5, 3, 4)]),
])
def test_plain_einsum_is_np_einsum_bitwise(subscripts, shapes):
    rng = np.random.default_rng(len(shapes))
    operands = [rng.normal(size=s) for s in shapes]
    with np.errstate(over="raise"):
        got = geometry._plain_einsum(subscripts, *operands)
    assert support.bits(got) == support.bits(np.einsum(subscripts, *operands))


# -- each jet built once, at the order it is read --------------------------------


def _compositions(monkeypatch):
    """Record every Taylor composition (elementary function or reciprocal)
    from now on."""
    calls, compose = [], jets.compose

    def counting(outer, monos):
        calls.append(outer)
        return compose(outer, monos)

    monkeypatch.setattr(jets, "compose", counting)
    return calls


def test_a_rescaled_metric_expands_its_factor_once(monkeypatch):
    dom, g, _, _, _, factor = conformal.random_transform_family(
        5, 3, np.random.default_rng(105))
    gbar = conformal.conformal_metric(g, factor)
    pts = np.broadcast_to(dom.sample(2, 205), (3, 2, 5))
    calls = _compositions(monkeypatch)
    plain = geometry.metric_jets(g, pts, order=4)
    sines = len(calls)  # down the diagonal of g
    assert sines == 5
    rows = geometry.metric_jets(gbar, pts, order=4)
    # the sines again, then exp for F and 1 / F^2, once for all 15
    # distinct entries
    assert len(calls) == 2 * sines + 2
    seeds = {c: jets.Jet.variable(a, pts[..., a], 5, 4)
             for a, c in enumerate(dom.coords)}
    fsq = jets.power(expr.evaluate(gbar.factor, expr.EvalContext(
        seeds, gbar.parameters)), 2.0)
    for i in range(5):
        for j in range(5):
            want = plain[i][j] / fsq
            assert np.array_equal(rows[i][j].coeffs, want.coeffs)


def test_a_zero_entry_of_a_rescaled_metric_stays_a_known_zero():
    dom = ChartDomain(("x1", "x2"), ((-1.0, 1.0),) * 2)
    gbar = conformal.conformal_metric(RiemannianMetric.euclidean(dom),
                                      "exp(x1)")
    rows = geometry.metric_jets(gbar, dom.sample(4, 3), order=2)
    # 0 / F^2 is not divided out: known zero when built, reading no variable
    assert rows[0][1]._zero is True and rows[0][1]._support == 0
    assert rows[0][0]._support != 0


def test_a_jet_keeps_its_reciprocal(monkeypatch):
    x = jets.Jet.variable(0, np.array([0.5, 2.0]), 2, 3) + 1.0
    calls = _compositions(monkeypatch)
    first = 1.0 / x
    assert (2.0 / x).coeffs.tobytes() == (first * 2.0).coeffs.tobytes()
    assert (x / x).value.tolist() == [1.0, 1.0]
    assert len(calls) == 1


def test_the_domain_inverse_is_carried_at_the_order_read():
    dom, met = wiggly_metric()
    tgt = ChartDomain(("y1", "y2", "y3"), ((-1.0, 1.0),) * 3)
    phi = SmoothMap.from_components(dom, tgt, ("x1+0.1*x2^2", "x2", "x3"))
    for order, kept in ((2, 1), (3, 2), (4, 2)):
        state = MapState(phi, met, RiemannianMetric.euclidean(tgt),
                         dom.sample(6, 13), order)
        assert {e.order for row in state.ginv_jets for e in row} == {kept}
        # the inverse at order - 1 reproduces it as a prefix, bit for bit
        full = geometry._jet_matrix_inverse(state.g_jets)
        for row, full_row in zip(state.ginv_jets, full):
            for e, f in zip(row, full_row):
                assert np.array_equal(e.coeffs, f.truncated(kept).coeffs)


def test_gradients_and_covariant_derivatives_match_the_full_orders():
    dom, g, h, phi, fld, factor = conformal.random_transform_family(
        4, 3, np.random.default_rng(104))
    pts = np.broadcast_to(dom.sample(3, 204), (3, 3, 4))
    state = MapState(phi, g, h, pts, 4)
    f = jets.ln(state.scalar_jet(factor.ast, factor.parameters))
    grad = state.gradient_jets(f)
    assert {e.order for e in grad} == {2}  # one below f would be 3
    ginv = geometry._jet_matrix_inverse(state.g_jets)
    df = [f.derivative(j) for j in range(4)]
    for i in range(4):
        full = jets.contract((ginv[i][j], df[j]) for j in range(4))
        assert full.order == 3
        assert np.array_equal(grad[i].coeffs, full.truncated(2).coeffs)
    for section in (state.section_from_field(fld), state.tension_jets):
        nabla = state.covariant_derivative(section)
        for j in range(4):
            for c in range(5):
                full = jets.contract(
                    [(section[c].derivative(j),)]
                    + [(state.Q_jets[j][c][b], section[b]) for b in range(5)])
                assert nabla[j][c].order == full.order
                assert np.array_equal(nabla[j][c].coeffs, full.coeffs)
    # an order-3 state reads its gradient at order 2, as the Jacobi operator
    # of the pushed gradient needs, and agrees with an order-4 state
    dom, g4, tgt, h5, phi = hyperbolic_inclusion()
    args = (phi, g4, h5, "exp(0.2*x1 + 0.1*x4^2)", dom.sample(8, 43))
    got = conformal.harmonic_biharmonic_condition(*args)
    assert np.all(np.isfinite(got)) and np.max(np.abs(got)) > 1e-3
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(conformal, "MapState", lambda phi, g, h, x, order:
                      MapState(phi, g, h, x, 4))
        assert conformal.harmonic_biharmonic_condition(*args).tobytes() \
            == got.tobytes()


def test_an_error_names_the_innermost_stage(monkeypatch):
    phi, g, h, _ = small_slab()
    state = MapState(phi, g, h, phi.domain.sample(5, 3), 4)
    _raising(monkeypatch, "_christoffel_jets")
    _raising(monkeypatch, "_christoffel_trace_jets")
    # the curvature map reads the target Christoffel stage, which raises
    with pytest.raises(FloatingPointError) as info:
        state.curvature_map
    assert info.value.__notes__ == ["in stage gammaN_y"]
    assert geometry.error_text(info.value) == \
        "_christoffel_jets refused in stage gammaN_y"
    # the tension reads the contracted domain Christoffel stage first
    with pytest.raises(FloatingPointError) as info:
        state.tension_jets
    assert geometry.error_text(info.value) == \
        "_christoffel_trace_jets refused in stage gammaM_trace"


# -- one route per fact -------------------------------------------------------


def test_target_curvature_is_not_a_map_state_stage():
    assert not hasattr(MapState, "RN")


def test_conformality_and_surface_data_share_one_pullback(monkeypatch):
    dom = ChartDomain(("theta", "z"), ((0.1, 6.0), (-1.0, 1.0)))
    tgt, h = cylindrical_chart()
    phi = SmoothMap.from_components(dom, tgt, ("1.4", "theta", "z"))
    induced = RiemannianMetric.from_components(dom, [["1.96", "0"],
                                                     ["0", "1"]])
    calls, einsum = [], np.einsum

    def counting(subscripts, *operands, **kwargs):
        calls.append(subscripts)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    state = MapState(phi, induced, h, dom.sample(6, 2), 4)
    assert state.conformality().conformal
    surfaces.SurfaceData(state)
    assert calls.count("...ia,...ab,...jb->...ij") == 1


def test_tension_values_are_stacked_once_per_state(monkeypatch):
    dom, g, h, phi, _, _ = conformal.random_transform_family(
        3, 2, np.random.default_rng(70))
    pts = dom.sample(4, 71)
    state = MapState(phi, g, h, np.broadcast_to(pts, (2,) + pts.shape), 2)
    stacked, stack_values = [], jets.stack_values

    def counting(nested):
        stacked.append(nested)
        return stack_values(nested)

    monkeypatch.setattr(jets, "stack_values", counting)
    first = state.tension_values
    assert state.tension_values is first and state.tension_values is first
    assert [n is state.tension_jets for n in stacked].count(True) == 1


@pytest.mark.parametrize("order", [1, 2])
def test_matrix_inverse_truncates_each_shared_entry_once(monkeypatch, order):
    dom = ChartDomain(("x1", "x2", "x3"), ((-0.5, 0.5),) * 3)
    met = RiemannianMetric.from_components(
        dom, [["2 + x1^2", "0.1*x1*x2", "0"],
              ["0.1*x1*x2", "2 + sin(x2)", "0.2*x3"],
              ["0", "0.2*x3", "3"]])
    rows = geometry.metric_jets(met, dom.sample(5, 72), order=3)
    by_hand = [[e.truncated(order) for e in row] for row in rows]
    want = geometry._jet_matrix_inverse(by_hand)
    entries = {id(e) for row in rows for e in row}
    cut, truncated = [], jets.Jet.truncated

    def counting(jet, k):
        cut.extend([id(jet)] if id(jet) in entries else [])
        return truncated(jet, k)

    monkeypatch.setattr(jets.Jet, "truncated", counting)
    got = geometry._jet_matrix_inverse(rows, order)
    assert sorted(cut) == sorted(entries)
    for g_row, w_row in zip(got, want):
        for a, b in zip(g_row, w_row):
            assert a.order == b.order == order
            assert a.coeffs.tobytes() == b.coeffs.tobytes()


def test_a_map_state_is_freed_without_the_cycle_collector():
    dom, g, h, phi, fld, fac = conformal.random_transform_family(
        3, 2, np.random.default_rng(73))
    pts = dom.sample(4, 74)
    x = np.broadcast_to(pts, (2,) + pts.shape)
    stages = [name for name, attr in vars(MapState).items()
              if isinstance(attr, (cached_property, property))]
    gc.collect()
    gc.disable()
    try:
        state = MapState(phi, g, h, x, 4)
        for name in stages:
            getattr(state, name)
        state.conformality()
        state.jacobi_of(state.section_from_field(fld))
        conformal.law_sides(phi, g, h, fld, fac, x)
        catalog.verify_case(catalog.build_case("cylinder_family"))
        ref = weakref.ref(state)
        del state
        assert ref() is None
        assert gc.collect() == 0
    finally:
        gc.enable()
