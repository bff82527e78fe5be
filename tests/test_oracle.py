"""Independent symbolic oracle for the jet engine.

The Christoffel symbols and their trace g^ij Gamma^k_ij, target curvature,
its trace along the map, tension field and bitension field are derived
exactly with sympy from the coordinate formulas and conventions in
``geometry``'s docstring, evaluated in 30-digit arithmetic at
dyadic points (exact in binary, so both sides see the same inputs) and
compared with the engine.  Unlike the conformal-law checks, which compare
the engine with itself, this catches an order mistake that cancels between
the two sides of a law.
"""
from functools import cached_property

import numpy as np
import pytest

from bitension import catalog, expr, geometry
from bitension.charts import ChartDomain, RiemannianMetric, SmoothMap
from bitension.geometry import MapState

sp = pytest.importorskip("sympy")

REL_TOL = 1e-12

_CALLS = {"exp": sp.exp, "ln": sp.log, "sin": sp.sin, "cos": sp.cos,
          "sqrt": sp.sqrt, "pow": sp.Pow}


def _exact(number):
    return sp.Rational(str(float(number)))


def _to_sympy(node, symbols, parameters):
    if isinstance(node, expr.Const):
        return _exact(node.value)
    if isinstance(node, expr.Name):
        if node.ident in symbols:
            return symbols[node.ident]
        return _exact(parameters[node.ident])
    if isinstance(node, expr.Unary):
        return -_to_sympy(node.child, symbols, parameters)
    if isinstance(node, expr.Binary):
        a = _to_sympy(node.left, symbols, parameters)
        b = _to_sympy(node.right, symbols, parameters)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return a / b if node.op == "/" else a ** b
    return _CALLS[node.fn](*(_to_sympy(arg, symbols, parameters)
                             for arg in node.args))


def _metric(metric, symbols):
    """The exact matrix of ``metric``: F^-2 times its components when it
    carries a factor F."""
    gmat = sp.Matrix([[_to_sympy(c, symbols, metric.parameters) for c in row]
                      for row in metric.components])
    if metric.factor is None:
        return gmat
    return gmat / _to_sympy(metric.factor, symbols, metric.parameters) ** 2


def _christoffel(gmat, ginv, xs):
    """gamma[i][j][k] = Gamma^k_ij."""
    rng = range(len(xs))
    return [[[sum(ginv[k, l] * (sp.diff(gmat[j, l], xs[i])
                                + sp.diff(gmat[i, l], xs[j])
                                - sp.diff(gmat[i, j], xs[l]))
                  for l in rng) / 2 for k in rng] for j in rng] for i in rng]


def _curvature(gam, ys):
    """R[l][k][i][j] with R(e_i, e_j) e_k = R^l_kij e_l."""
    rng = range(len(ys))
    return [[[[sp.diff(gam[j][k][l], ys[i]) - sp.diff(gam[i][k][l], ys[j])
               + sum(gam[i][p][l] * gam[j][k][p] - gam[j][p][l] * gam[i][k][p]
                     for p in rng)
               for j in rng] for i in rng] for k in rng] for l in rng]


class _Oracle:
    """Christoffel symbols, tau and tau2 of one (map, domain metric, target
    metric), as exact expressions in the domain coordinates."""

    def __init__(self, phi, g, h):
        self.xs = xs = sp.symbols(phi.domain.coords)
        self.ys = ys = sp.symbols(phi.codomain.coords)
        m, n = len(xs), len(ys)
        xsym = dict(zip(phi.domain.coords, xs))
        gmat = _metric(g, xsym)
        hmat = _metric(h, dict(zip(phi.codomain.coords, ys)))
        self.ginv = gmat.inv(method="LU")
        self.gamma = _christoffel(gmat, self.ginv, xs)
        # Gamma^k = g^ij Gamma^k_ij, the contraction the engine forms
        self.gamma_trace = [sum(self.ginv[i, j] * self.gamma[i][j][k]
                                for i in range(m) for j in range(m))
                            for k in range(m)]
        self.gamma_n = _christoffel(hmat, hmat.inv(method="LU"), ys)
        self.curv_n = _curvature(self.gamma_n, ys)
        self.phi = [_to_sympy(c, xsym, phi.parameters) for c in phi.components]
        on_map = dict(zip(ys, self.phi))
        self.gn = [[[e.subs(on_map) for e in kk] for kk in jj]
                   for jj in self.gamma_n]
        self.dphi = [[sp.diff(self.phi[a], xs[i]) for a in range(n)]
                     for i in range(m)]
        # tau = g^ij (d_ij phi - Gamma^k_ij d_k phi + GammaN(phi)(d_i phi, d_j phi))
        self.tau = [sum(self.ginv[i, j]
                        * (sp.diff(self.phi[c], xs[i], xs[j])
                           - sum(self.gamma[i][j][k] * self.dphi[k][c]
                                 for k in range(m))
                           + sum(self.gn[a][b][c] * self.dphi[i][a]
                                 * self.dphi[j][b]
                                 for a in range(n) for b in range(n)))
                        for i in range(m) for j in range(m))
                    for c in range(n)]

    def _nabla(self, section, i):
        """(nabla^phi_i S)^c along the map."""
        n = len(self.ys)
        return [sp.diff(section[c], self.xs[i])
                + sum(self.gn[a][b][c] * self.dphi[i][a] * section[b]
                      for a in range(n) for b in range(n))
                for c in range(n)]

    def bitension(self):
        """tau2 = Trace nabla^2 tau - Trace R^N(dphi, tau) dphi."""
        m, n = len(self.xs), len(self.ys)
        first = [self._nabla(self.tau, j) for j in range(m)]
        lap = [sum(self.ginv[i, j] * (self._nabla(first[j], i)[c]
                                      - sum(self.gamma[i][j][k] * first[k][c]
                                            for k in range(m)))
                   for i in range(m) for j in range(m) if self.ginv[i, j] != 0)
               for c in range(n)]
        trace_r = [sum(self.tau[b] * self.curvature_map[b][c]
                       for b in range(n)) for c in range(n)]
        return [lap[c] - trace_r[c] for c in range(n)]

    @cached_property
    def curvature_map(self):
        """K[b][c] = P^ak R^c_kab along the map, P^ak = g^ij dphi_i^a
        dphi_j^k, so that Trace R^N(dphi, S) dphi = S^b K[b][c]."""
        m, n = len(self.xs), len(self.ys)
        on_map = dict(zip(self.ys, self.phi))
        pull = [[sum(self.ginv[i, j] * self.dphi[i][a] * self.dphi[j][k]
                     for i in range(m) for j in range(m))
                 for k in range(n)] for a in range(n)]
        return [[sum((pull[a][k] * self.curv_n[c][k][a][b].subs(on_map)
                      for a in range(n) for k in range(n)
                      if self.curv_n[c][k][a][b] != 0), sp.S.Zero)
                 for c in range(n)] for b in range(n)]


def _values(exprs, symbols, point):
    """Evaluate exact expressions at a point in 30-digit arithmetic."""
    at = {s: sp.Float(float(c), 30) for s, c in zip(symbols, point)}
    return np.array([float(sp.N(e.xreplace(at), 30)) for e in exprs])


def _close(engine, exact, what):
    engine = np.asarray(engine, dtype=float)
    err = np.max(np.abs(engine - exact) / (1.0 + np.abs(exact)))
    assert err < REL_TOL, f"{what}: relative error {err:.3g}"


def _nondiagonal():
    dom = ChartDomain(("u", "v"), ((-1.0, 1.0),) * 2)
    tgt = ChartDomain(("p", "q", "r"), ((-2.0, 2.0),) * 3)
    g = RiemannianMetric.from_components(
        dom, [["1+u^2/4", "u*v/8"], ["u*v/8", "1+v^2/4"]])
    h = RiemannianMetric.from_components(
        tgt, [["1", "0", "0"], ["0", "exp(p/4)", "0"], ["0", "0", "1"]])
    phi = SmoothMap.from_components(dom, tgt, ("u+v^2/4", "u*v/2+v", "u^2/4"))
    return phi, g, h


# The catalog cases are biharmonic, so their negative controls supply nonzero
# bitension fields; every catalog metric is diagonal, so the last geometry
# drives the off-diagonal elimination of the jet inverse.
GEOMETRIES = {
    "plane_inclusion": lambda: catalog.build_case("plane_inclusion").geometry,
    "plane_bent": lambda: catalog.negative_control("plane_inclusion")[0].geometry,
    "identity_m2": lambda: catalog.build_case("identity", m=2).geometry,
    "identity_m2_bent":
        lambda: catalog.negative_control("identity", m=2)[0].geometry,
    "h5_inclusion": lambda: catalog.build_case("h5_inclusion").geometry,
    "h5_power_2.4": lambda: catalog.negative_control("h5_inclusion")[0].geometry,
    "cylinder_family": lambda: catalog.build_case(
        "cylinder_family", R=1.0, C1=-1.0, C2=2.0, sign=-1).geometry,
    "nondiagonal": _nondiagonal,
}


def _dyadic_points(domain, count):
    """Points on a 1/16 grid well inside the box, exact in binary."""
    t = np.array([[((3 + 5 * k + 7 * a) % 13 + 2) / 16.0
                   for a in range(domain.dim)] for k in range(count)])
    lo, hi = np.array(domain.box).T
    return np.floor((lo + t * (hi - lo)) * 16.0) / 16.0


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_engine_matches_exact_derivation(name):
    phi, g, h = GEOMETRIES[name]()
    pts = _dyadic_points(phi.domain, 2)
    oracle = _Oracle(phi, g, h)
    gamma = [e for jj in oracle.gamma for kk in jj for e in kk]
    gamma_n = [e for jj in oracle.gamma_n for kk in jj for e in kk]
    curv_n = [e for ll in oracle.curv_n for kk in ll for ii in kk for e in ii]
    tau2 = oracle.bitension()
    curv_map = [e for row in oracle.curvature_map for e in row]
    state = MapState(phi, g, h, pts, 4)
    for p, x in enumerate(pts):
        _close(state.gammaM_trace_val[p],
               _values(oracle.gamma_trace, oracle.xs, x), f"{name} Gamma_M")
        _close(geometry.christoffel(g, x[None])[0].reshape(-1),
               _values(gamma, oracle.xs, x), f"{name} christoffel()")
        y = state.y0[p]
        _close(geometry.christoffel(h, y[None])[0].reshape(-1),
               _values(gamma_n, oracle.ys, y), f"{name} Gamma_N")
        _close(geometry.curvature_tensor(h, y[None])[0].reshape(-1),
               _values(curv_n, oracle.ys, y), f"{name} R^N")
        _close(state.curvature_map[p].reshape(-1),
               _values(curv_map, oracle.xs, x), f"{name} K")
        _close(state.tension_values[p], _values(oracle.tau, oracle.xs, x),
               f"{name} tau")
        _close(state.bitension_values[p], _values(tau2, oracle.xs, x),
               f"{name} tau2")
