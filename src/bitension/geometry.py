"""Riemannian geometry engine driven by Taylor arithmetic.

Metrics and maps are given by coordinate expressions; every geometric object
(Christoffel symbols, curvature, tension and bitension fields, the Jacobi
operator) is obtained by evaluating those expressions on batches of jets and
reading off the derivatives.  No finite differencing happens here: derivatives
are exact up to floating point rounding.

Index conventions, fixed once for the whole package:

* ``gamma[i][j][k]`` holds the Christoffel symbol with the upper index last.
* The curvature sign is R(X,Y)Z = [nabla_X, nabla_Y]Z - nabla_{[X,Y]}Z.
  Stored values ``R[..., l, k, i, j]`` satisfy R(e_i, e_j)e_k = R[l,k,i,j] e_l;
  with this sign the unit sphere has constant sectional curvature +1.
* The Jacobi operator of a map is
  J(X) = -Trace_g (nabla^phi)^2 X + Trace_g R^N(dphi, X) dphi,
  and the bitension field is tau2 = -J(tau); harmonic maps are biharmonic.

Every index contraction (Christoffel symbols, the pull-back connection, the
tension field, traces against g^-1) goes through :func:`jets.contract`, whose
docstring fixes the zero-skipping rule and the summation order.

A :class:`MapState` holds the per-point data for one (map, domain metric,
target metric, batch of points, derivative order) tuple.  It validates its
inputs when built and derives every other stage on first read, so a reader
pays only for the stages it uses.  The module-level functions are thin
wrappers that build a state and extract one quantity.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import expr, jets
from .charts import DomainError, SmoothMap, VectorFieldAlongMap

# d/dt E2(phi_t) = VARIATION_SIGN * integral <tau2, V> dv_g for compactly
# supported variation fields V (checked numerically in the test suite).
VARIATION_SIGN = 1.0


class GeometryInputError(ValueError):
    """Charts, dimensions, or parameters of the inputs do not fit together."""


class MetricError(ValueError):
    """A metric's component matrix is malformed (not symmetric)."""


# -- expression evaluation on jet seeds ---------------------------------------


def _seeds(coords, x, order):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != len(coords):
        raise GeometryInputError(
            f"points have {x.shape[-1]} coordinates, chart has {len(coords)}")
    variables = {c: jets.Jet.variable(i, x[..., i], len(coords), order)
                 for i, c in enumerate(coords)}
    return x, x.shape[:-1], variables


def _eval_components(components, variables, parameters, batch_shape, num_vars, order):
    """Evaluate expression components to jets, coercing constants."""
    ctx = expr.EvalContext(variables, parameters)
    out = []
    for comp in components:
        v = expr.evaluate(comp, ctx)
        if isinstance(v, jets.Jet):
            out.append(v)
        else:
            arr = np.broadcast_to(np.asarray(v, dtype=float), batch_shape)
            out.append(jets.Jet.constant(arr, num_vars, order))
    return out


def _by_identity(build):
    """``build`` of one argument, run once per distinct argument object.

    Keys are ``id``s: use it within one call that holds every argument it
    passes, so no id is reused while the memo lives."""
    done = {}

    def once(obj):
        if id(obj) not in done:
            done[id(obj)] = build(obj)
        return done[id(obj)]
    return once


def _sym_matrix_jets(metric, variables, batch_shape, order, what):
    """Component jets of a metric.  Each expression object is evaluated once
    (a conformally flat metric repeats one factor down its diagonal), and
    entries (i, j) and (j, i) with equal expressions share one jet; other
    mirror pairs are evaluated and compared."""
    m, comps = metric.dim, metric.components
    jet = _by_identity(lambda comp: _eval_components(
        [comp], variables, metric.parameters, batch_shape, m, order)[0])
    rows = []
    for i in range(m):
        rows.append([rows[j][i] if j < i and comps[i][j] == comps[j][i] else
                     jet(comps[i][j]) for j in range(m)])
    for i in range(m):
        for j in range(i + 1, m):
            a, b = rows[i][j], rows[j][i]
            if a is not b and (a - b).max_abs() > 1e-9 * (
                    1.0 + max(a.max_abs(), b.max_abs())):
                raise MetricError(
                    f"{what} components ({i},{j}) and ({j},{i}) disagree")
    return rows


def _float_values(components, coords, parameters, x):
    """Plain float evaluation of expressions at points ``x``, stacked on a
    last axis."""
    ctx = expr.EvalContext({c: x[..., a] for a, c in enumerate(coords)}, parameters)
    return np.stack([np.broadcast_to(np.asarray(expr.evaluate(comp, ctx), dtype=float),
                                     x.shape[:-1]) for comp in components], axis=-1)


def _metric_values(metric, y):
    """Plain float evaluation of the component matrix at points ``y``."""
    flat = _float_values([c for row in metric.components for c in row],
                         metric.domain.coords, metric.parameters, y)
    return flat.reshape(y.shape[:-1] + (metric.dim, metric.dim))


def _require_spd(values, x, what):
    eig = np.linalg.eigvalsh(values)
    smallest = eig[..., 0]
    if np.any(smallest <= 0.0):
        flat = smallest.reshape(-1)
        k = int(np.argmin(flat))
        pt = np.asarray(x, dtype=float).reshape(-1, x.shape[-1])[k]
        raise DomainError(f"{what} is not positive definite at {pt.tolist()} "
                          f"(smallest eigenvalue {flat[k]:.6g})")


# -- jet linear algebra --------------------------------------------------------


def _truncated(rows, order):
    return [[e.truncated(order) for e in row] for row in rows]


def _jet_matrix_inverse(rows):
    """Inverse of a symmetric positive definite jet matrix.

    Gauss-Jordan in its symmetric form (the sweep operator), without
    pivoting: every caller has checked that the value part is positive
    definite, so each pivot has a nonzero value.  Structurally zero entries
    are skipped, so a diagonal matrix costs one reciprocal per diagonal entry
    and its inverse has exactly zero off-diagonal jets.  The result carries
    the smallest order among the entries: truncate the input to the order
    the inverse is read at.
    """
    m = len(rows)
    order = min(e.order for row in rows for e in row)
    a = {}  # the nonzero entries, each symmetric pair sharing one jet
    for i in range(m):
        for j in range(i, m):
            if not rows[i][j].is_zero():
                a[i, j] = a[j, i] = rows[i][j].truncated(order)
    # sweeping pivot k maps a_ij to a_ij - a_ik a_kj / a_kk, the pivot row
    # to a_kj / a_kk and the pivot to -1 / a_kk; sweeping all leaves -A^-1
    for k in range(m):
        r = a[k, k]._reciprocal()
        s = {j: a[k, j] * r for j in range(m) if j != k and (k, j) in a}
        for i in s:
            for j in s:
                if i <= j:
                    t = a[i, k] * s[j]
                    a[i, j] = a[j, i] = a[i, j] - t if (i, j) in a else -t
        for j, sj in s.items():
            a[k, j] = a[j, k] = sj
        a[k, k] = -r
    zero = jets.Jet.constant(np.zeros(rows[0][0].value.shape),
                             rows[0][0].num_vars, order)
    return [[-a[i, j] if (i, j) in a else zero for j in range(m)]
            for i in range(m)]


def _christoffel_jets(gj, ginv):
    """gamma[i][j][k] = Gamma^k_ij, one jet order below the metric jets."""
    m = len(gj)
    # each distinct jet is differentiated once: entries that share a jet
    # (see _sym_matrix_jets) share its derivatives
    partials = _by_identity(lambda e: [e.derivative(l) for l in range(m)])
    dg = [[partials(e) for e in row] for row in gj]
    out = [[[None] * m for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            # d_i g_jl + d_j g_il - d_l g_ij, formed once for every k
            s = [dg[j][l][i] + dg[i][l][j] - dg[i][j][l] for l in range(m)]
            for k in range(m):
                out[i][j][k] = out[j][i][k] = jets.contract(
                    (ginv[k][l], s[l]) for l in range(m)) * 0.5
    return out


def _curvature_values(gamma):
    """R[..., l, k, i, j] with R(e_i, e_j) e_k = R^l_{kij} e_l."""
    gv = jets.stack_values(gamma)
    dg = jets.stack_gradients(gamma)  # d_l Gamma^k_ij at [..., i, j, k, l]
    t1 = np.einsum("...jkli->...lkij", dg)
    t2 = np.einsum("...iklj->...lkij", dg)
    t3 = _einsum("...ipl,...jkp->...lkij", gv, gv)
    t4 = _einsum("...jpl,...ikp->...lkij", gv, gv)
    return t1 - t2 + t3 - t4


def _einsum(subscripts, *operands):
    """``np.einsum(subscripts, *operands, optimize=True)``, bit for bit, with
    the contraction path searched once per subscripts and operand shapes."""
    path = _einsum_path(subscripts, *(np.shape(op) for op in operands))
    return np.einsum(subscripts, *operands, optimize=path)


@lru_cache(maxsize=128)
def _einsum_path(subscripts, *shapes):
    # the search reads shapes only: zero-stride stand-ins allocate nothing;
    # a tuple, so no caller can change the path the cache hands out
    stand_ins = [np.broadcast_to(0.0, s) for s in shapes]
    return tuple(np.einsum_path(subscripts, *stand_ins, optimize=True)[0])


# -- the per-point engine -------------------------------------------------------


class MapState:
    """Jets of one map between metric charts at a batch of points.

    ``order`` is the Taylor order carried for the map: 2 suffices for
    tension fields, 3 for the Jacobi operator, 4 for bitension fields.  The
    target metric is expanded to ``order - 1`` around the image points and
    its Christoffel symbols are pulled back through the map.

    Building a state evaluates and validates its inputs, in this order: the
    points (``domain.require``); the domain metric ``g_jets``/``g_val``
    (symmetric and positive definite); the map ``phi_jets`` and its image
    ``y0`` (``codomain.require``); the target metric ``h_yjets``/``hN_val``
    at the image (symmetric and positive definite).  Every other stage is
    built on first read and then kept; a stage that raises is not kept, so
    reading it again raises again.  The stages and their readers:

    * ``ginv_jets``/``ginv_val``, the domain inverse: metric traces,
      gradients, ``gammaM``, the rough Laplacian, the curvature trace;
    * ``sqrt_det_g``, the volume density: the integral functionals;
    * ``gammaM``/``gammaM_val``, the domain Christoffel symbols: the tension
      field, the scalar and rough Laplacians;
    * ``Dphi``/``dphi``, the differential: the tension field, ``Q_jets``,
      the curvature trace, :meth:`conformality`, the surface machinery;
    * ``gammaN_y``, the target Christoffel symbols at the image: ``Q_jets``
      and ``RN``;
    * ``Q_jets``/``Q_val``, the target Christoffel symbols pulled back and
      contracted with dphi: covariant derivatives of sections;
    * ``RN``, the target curvature (``None`` below order 3): the curvature
      trace.

    So a reader of the inputs alone (the complex-coordinate lane) builds no
    Christoffel symbols, and an error in a stage fails only its readers.

    Other jets are carried at the order they are read at: the domain metric
    ``g_jets`` (evaluated from seeds truncated to that order) and
    ``ginv_jets`` at ``order - 1``; ``gammaM``, ``Q_jets`` and the target
    inverse at ``order - 2``.

    Points ``x`` may carry arbitrary leading batch axes; every derived value
    keeps those axes.
    """

    def __init__(self, phi, g, h, x, order):
        if order not in (2, 3, 4):
            raise GeometryInputError(f"unsupported jet order {order}")
        if g.domain.coords != phi.domain.coords:
            raise GeometryInputError("domain metric lives on a different chart")
        if h.domain.coords != phi.codomain.coords:
            raise GeometryInputError("target metric lives on a different chart")
        self.phi, self.g, self.h = phi, g, h
        self.order = order
        m, n = phi.domain.dim, phi.codomain.dim
        self.m, self.n = m, n

        x, batch, xvars = _seeds(phi.domain.coords, x, order)
        phi.domain.require(x)
        self.x = x
        self.batch_shape = batch
        self._xvars = xvars

        gvars = {c: v.truncated(order - 1) for c, v in xvars.items()}
        self.g_jets = _sym_matrix_jets(g, gvars, batch, order - 1,
                                       "domain metric")
        self.g_val = jets.stack_values(self.g_jets)
        _require_spd(self.g_val, x, "domain metric")

        self.phi_jets = _eval_components(phi.components, xvars, phi.parameters,
                                         batch, m, order)
        self.y0 = jets.stack_values(self.phi_jets)
        phi.codomain.require(self.y0)

        yvars = {c: jets.Jet.variable(a, self.y0[..., a], n, order - 1)
                 for a, c in enumerate(phi.codomain.coords)}
        self.h_yjets = _sym_matrix_jets(h, yvars, batch, order - 1,
                                        "target metric")
        self.hN_val = jets.stack_values(self.h_yjets)
        _require_spd(self.hN_val, self.y0, "target metric")
        self._tension = None
        self._tension_ds = None
        self._bitension = None

    # -- stages, built on first read ----------------------------------------------

    @cached_property
    def ginv_jets(self):
        return _jet_matrix_inverse(self.g_jets)

    @cached_property
    def ginv_val(self):
        return jets.stack_values(self.ginv_jets)

    @cached_property
    def sqrt_det_g(self):
        return np.sqrt(np.linalg.det(self.g_val))

    @cached_property
    def gammaM(self):
        return _christoffel_jets(self.g_jets, self.ginv_jets)

    @cached_property
    def gammaM_val(self):
        return jets.stack_values(self.gammaM)

    @cached_property
    def Dphi(self):
        return [[self.phi_jets[a].derivative(i) for a in range(self.n)]
                for i in range(self.m)]

    @cached_property
    def dphi(self):
        return jets.stack_values(self.Dphi)

    @cached_property
    def gammaN_y(self):
        hinv_y = _jet_matrix_inverse(_truncated(self.h_yjets, self.order - 2))
        return _christoffel_jets(self.h_yjets, hinv_y)

    @cached_property
    def Q_jets(self):
        n, D = self.n, self.Dphi
        monos = jets.Monomials(self.phi_jets, self.order - 2)
        gnx = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                gnx[a][b] = gnx[b][a] = [jets.compose(j, monos)
                                         for j in self.gammaN_y[a][b]]
        return [[[jets.contract((gnx[a][b][c], D[i][a]) for a in range(n))
                  for b in range(n)] for c in range(n)] for i in range(self.m)]

    @cached_property
    def Q_val(self):
        return jets.stack_values(self.Q_jets)

    @cached_property
    def RN(self):
        return _curvature_values(self.gammaN_y) if self.order >= 3 else None

    # -- scalar helpers ---------------------------------------------------------

    def scalar_jet(self, source, parameters=None):
        """Jet of a scalar expression in the domain coordinates."""
        node = expr.parse(source) if isinstance(source, str) else source
        return _eval_components([node], self._xvars, parameters or {},
                                self.batch_shape, self.m, self.order)[0]

    def _metric_trace(self, hessian):
        """g^ij H_ij over the symmetric pairs i <= j, off-diagonal ones twice;
        ``hessian(i, j)`` builds H_ij, only where g^ij is not structurally
        zero (the diagonal of an SPD inverse never is)."""
        return jets.contract(
            (self.ginv_jets[i][j], hessian(i, j)) + ((2.0,) if i != j else ())
            for i in range(self.m) for j in range(i, self.m)
            if not self.ginv_jets[i][j].is_zero())

    def gradient_jets(self, f):
        """Metric gradient of a scalar jet, one component jet per axis."""
        df = [f.derivative(j) for j in range(self.m)]
        return [jets.contract((self.ginv_jets[i][j], df[j]) for j in range(self.m))
                for i in range(self.m)]

    def scalar_laplacian(self, f):
        """Laplace-Beltrami of a scalar jet, as a jet two orders lower."""
        df = [f.derivative(k) for k in range(self.m)]
        return self._metric_trace(lambda i, j: jets.contract(
            [(df[i].derivative(j),)]
            + [(self.gammaM[i][j][k], df[k], -1.0) for k in range(self.m)]))

    def domain_inner(self, u, v):
        return np.einsum("...ij,...i,...j->...", self.g_val, u, v)

    def target_inner(self, a, b):
        return np.einsum("...ab,...a,...b->...", self.hN_val, a, b)

    def conformality(self, tol=1e-9):
        """:func:`conformality_factor` at the state's points, read from its
        dphi and metric values instead of evaluating the map again."""
        pb = np.einsum("...ia,...ab,...jb->...ij", self.dphi, self.hN_val,
                       self.dphi)
        return _fit_conformality(pb, self.g_val, tol)

    # -- sections of the pulled-back bundle --------------------------------------

    def section_from_field(self, field):
        return _eval_components(field.components, self._xvars, field.parameters,
                                self.batch_shape, self.m, self.order)

    def dphi_apply(self, vec):
        """Push a domain vector (jet components) through the differential."""
        return [jets.contract((vec[i], self.Dphi[i][a]) for i in range(self.m))
                for a in range(self.n)]

    def covariant_derivative(self, section):
        """Pull-back connection derivative: DS[j][c] = (nabla^phi_j S)^c.

        The derivative of the state's own tension field is built once and
        kept: the bitension field and the conformal laws both read it."""
        if section is self._tension and self._tension_ds is not None:
            return self._tension_ds
        ds = [[jets.contract([(section[c].derivative(j),)]
                             + [(self.Q_jets[j][c][b], section[b])
                                for b in range(self.n)])
               for c in range(self.n)] for j in range(self.m)]
        if section is self._tension:
            self._tension_ds = ds
        return ds

    def _along(self, vec, ds):
        """Values of Y^j DS[j] for a domain vector Y (jets or values)."""
        dsval = jets.stack_values(ds)
        if isinstance(vec[0], jets.Jet):
            yv = jets.stack_values(vec)
        else:
            yv = np.stack([np.broadcast_to(np.asarray(v, dtype=float),
                                           self.batch_shape) for v in vec], axis=-1)
        return np.einsum("...j,...jc->...c", yv, dsval)

    def directional_covariant(self, vec, section):
        """Values of nabla^phi_Y S for a domain vector Y."""
        return self._along(vec, self.covariant_derivative(section))

    def _rough_laplacian(self, ds):
        """Values of Trace_g (nabla^phi)^2 S from DS = nabla^phi S."""
        if min(d.order for row in ds for d in row) < 1:
            raise GeometryInputError("trace_laplacian needs order-2 section jets")
        dsval = jets.stack_values(ds)
        # d_i (nabla_j S)^c at [..., i, j, c]
        dds = np.moveaxis(jets.stack_gradients(ds), -1, -3)
        full = dds + np.einsum("...icb,...jb->...ijc", self.Q_val, dsval)
        return (np.einsum("...ij,...ijc->...c", self.ginv_val, full)
                - _einsum("...ij,...ijk,...kc->...c", self.ginv_val,
                          self.gammaM_val, dsval))

    def trace_laplacian(self, section):
        """Values of Trace_g (nabla^phi)^2 S (the rough Laplacian on sections)."""
        return self._rough_laplacian(self.covariant_derivative(section))

    def curvature_trace(self, section_values):
        """Values of Trace_g R^N(dphi, S) dphi."""
        if self.RN is None:
            raise GeometryInputError("curvature trace needs jet order >= 3")
        # contracted pairwise, in the order np.einsum's optimize=True picks
        # (searched once per batch shape, see _einsum); the unoptimized
        # einsum loops over all six summed indices at once, about 40x slower
        return _einsum("...ij,...ia,...b,...jk,...ckab->...c", self.ginv_val,
                       self.dphi, section_values, self.dphi, self.RN)

    def _jacobi(self, section, ds):
        return (self.curvature_trace(jets.stack_values(section))
                - self._rough_laplacian(ds))

    def jacobi_of(self, section):
        """J(S) = -Trace nabla^2 S + Trace R^N(dphi, S) dphi, as values."""
        return self._jacobi(section, self.covariant_derivative(section))

    def jacobi_and_directional(self, section, vec):
        """J(S) and nabla^phi_Y S, from one covariant derivative of S."""
        ds = self.covariant_derivative(section)
        return self._jacobi(section, ds), self._along(vec, ds)

    # -- tension and bitension ----------------------------------------------------

    @property
    def tension_jets(self):
        if self._tension is None:
            m, n, D = self.m, self.n, self.Dphi
            # (nabla dphi)_ij^c = d_j dphi_i^c - Gamma^k_ij dphi_k^c
            #                     + Q_i^c_b dphi_j^b
            self._tension = [self._metric_trace(lambda i, j: jets.contract(
                [(D[i][c].derivative(j),)]
                + [(self.gammaM[i][j][k], D[k][c], -1.0) for k in range(m)]
                + [(self.Q_jets[i][c][b], D[j][b]) for b in range(n)]))
                for c in range(n)]
        return self._tension

    @property
    def tension_values(self):
        return jets.stack_values(self.tension_jets)

    @property
    def bitension_values(self):
        """tau2 = Trace nabla^2 tau - Trace R^N(dphi, tau) dphi = -J(tau)."""
        if self._bitension is None:
            if self.order < 4:
                raise GeometryInputError("bitension needs jet order 4")
            tau = self.tension_jets
            self._bitension = (self.trace_laplacian(tau)
                               - self.curvature_trace(jets.stack_values(tau)))
        return self._bitension


# -- public one-shot operators ---------------------------------------------------


def metric_jets(metric, x, order=2):
    """Component jets of a metric at points ``x`` (symmetry and SPD checked)."""
    x, batch, variables = _seeds(metric.domain.coords, x, order)
    metric.domain.require(x)
    rows = _sym_matrix_jets(metric, variables, batch, order, "metric")
    _require_spd(jets.stack_values(rows), x, "metric")
    return rows


def christoffel(metric, x):
    """Christoffel values; ``[..., i, j, k]`` is Gamma^k_ij."""
    rows = metric_jets(metric, x, order=2)
    ginv = _jet_matrix_inverse(_truncated(rows, 1))
    return jets.stack_values(_christoffel_jets(rows, ginv))


def curvature_tensor(metric, x):
    """Curvature values R[..., l, k, i, j]; R(e_i,e_j)e_k = R^l_{kij} e_l."""
    rows = metric_jets(metric, x, order=2)
    ginv = _jet_matrix_inverse(_truncated(rows, 1))
    return _curvature_values(_christoffel_jets(rows, ginv))


def pullback_metric(phi, h, x):
    """Values of (phi^* h)_ij = h_ab(phi) d_i phi^a d_j phi^b."""
    x, batch, variables = _seeds(phi.domain.coords, x, 1)
    phi.domain.require(x)
    pj = _eval_components(phi.components, variables, phi.parameters, batch,
                          phi.domain.dim, 1)
    y0 = jets.stack_values(pj)
    phi.codomain.require(y0)
    dphi = jets.stack_values([[p.derivative(i) for p in pj]
                              for i in range(phi.domain.dim)])
    hv = _metric_values(h, y0)
    return np.einsum("...ia,...ab,...jb->...ij", dphi, hv, dphi)


@dataclass(frozen=True)
class ConformalityResult:
    """Outcome of testing phi^* h = lambda^2 g at a batch of points."""
    conformal: bool
    lambda_sq: np.ndarray
    max_residual: float


def conformality_factor(phi, g, h, x, tol=1e-9):
    """Fit lambda^2 = trace(g^-1 phi^*h)/m and measure the residual.

    ``max_residual`` is the largest entry of phi^*h - lambda^2 g over all
    points, divided by 1 + the largest entry of phi^*h.  A caller holding a
    :class:`MapState` reads the same fit from :meth:`MapState.conformality`.
    """
    x = np.asarray(x, dtype=float)
    return _fit_conformality(pullback_metric(phi, h, x), _metric_values(g, x),
                             tol)


def _fit_conformality(pb, gv, tol):
    lam2 = np.einsum("...ij,...ji->...", np.linalg.inv(gv), pb) / gv.shape[-1]
    resid = pb - lam2[..., None, None] * gv
    scale = 1.0 + np.max(np.abs(pb))
    max_res = float(np.max(np.abs(resid)) / scale)
    return ConformalityResult(bool(max_res <= tol and np.all(lam2 > 0.0)),
                              lam2, max_res)


def _as_field(field):
    if isinstance(field, VectorFieldAlongMap):
        return field
    return VectorFieldAlongMap.from_components(tuple(field))


def tension_field(phi, g, h, x):
    """tau(phi) = Trace_g nabla dphi, as target-frame values."""
    return MapState(phi, g, h, x, 2).tension_values


def jacobi_apply(phi, g, h, x, field):
    """Jacobi operator applied to a section given by target-frame expressions."""
    state = MapState(phi, g, h, x, 3)
    return state.jacobi_of(state.section_from_field(_as_field(field)))


def bitension_field(phi, g, h, x):
    """tau2(phi), the bitension field, as target-frame values."""
    return MapState(phi, g, h, x, 4).bitension_values


# -- integral functionals ----------------------------------------------------------


def _gauss_axes(box, nodes):
    """Gauss-Legendre nodes and weights of each axis of a box."""
    axes, wts = [], []
    for lo, hi in box:
        t, w = np.polynomial.legendre.leggauss(nodes)
        axes.append(0.5 * (hi + lo) + 0.5 * (hi - lo) * t)
        wts.append(0.5 * (hi - lo) * w)
    return axes, wts


# Jet coefficients per point times points per chunk of a quadrature integrand
# (see _integrate): on a 4-D grid, order-4 jets run in chunks of 936 points
# and order-2 jets in chunks of 4369.
_CHUNK_COEFFS = 65536


def _integrate(integrand, box, nodes, order):
    """Sum of ``integrand(points, weights)`` over the tensor Gauss-Legendre
    grid of a box, ``nodes`` per axis.

    The grid is flattened with the last axis fastest and cut into
    consecutive slices of ``_CHUNK_COEFFS`` divided by the jet width per
    point (at least one point); the integrand returns the weighted per-point
    terms of one slice.  Each slice's points and weights are built from its
    flat indices, the weight as the left-to-right product ``(1 * w0) * w1
    ...`` of the axis weights, so neither the grid nor the weight vector is
    ever held whole and memory stays bounded whatever ``nodes`` is.  The
    terms are concatenated and summed once, so the sum sees the same array
    as one batch would.
    """
    axes, wts = _gauss_axes(box, nodes)
    shape = (nodes,) * len(axes)
    size = nodes ** len(axes)
    step = max(1, _CHUNK_COEFFS // jets._ncoef(len(axes), order))
    terms = []
    for k in range(0, size, step):
        idx = np.unravel_index(np.arange(k, min(k + step, size)), shape)
        weight = np.ones(1)
        for w, i in zip(wts, idx):
            weight = weight * w[i]
        terms.append(integrand(np.stack([a[i] for a, i in zip(axes, idx)],
                                        axis=-1), weight))
    return np.sum(np.concatenate(terms))


def bienergy(phi, g, h, nodes=32):
    """E2(phi) = 1/2 integral |tau(phi)|^2 dv_g over the domain box.

    The grid is evaluated chunk by chunk under a fixed jet budget, so memory
    stays bounded for any ``nodes``; parameters of ``phi``, ``g`` and ``h``
    must therefore not carry the grid axis (scalars or arrays broadcasting
    against one chunk of points).
    """
    def terms(x, w):
        state = MapState(phi, g, h, x, 2)
        tau = state.tension_values
        return w * state.target_inner(tau, tau) * state.sqrt_det_g

    return float(0.5 * _integrate(terms, phi.domain.box, nodes, 2))


def first_variation(phi, g, h, field, eps=1e-2, nodes=24):
    """Slope of E2 along a variation field versus its bitension pairing.

    Returns a dict with the central-difference slope at ``eps``, the slope at
    ``eps/2``, and the integral of <tau2, V> dv_g.  For fields vanishing to
    high order on the boundary, slope = VARIATION_SIGN * pairing up to
    O(eps^2).  Both integrals run chunk by chunk, as in :func:`bienergy`, so
    memory is bounded by the chunk budget and parameters must not carry the
    grid axis.
    """
    field = _as_field(field)
    tname = "__fv_t__"
    if tname in phi.parameters or tname in field.parameters:
        raise GeometryInputError(f"parameter name {tname} is reserved")
    merged = dict(phi.parameters)
    for k, v in field.parameters.items():
        if k in merged and not np.array_equal(merged[k], v):
            raise GeometryInputError(f"parameter {k} bound to conflicting values")
        merged[k] = v
    comps = tuple(expr.Binary("+", pc, expr.Binary("*", expr.Name(tname), vc))
                  for pc, vc in zip(phi.components, field.components))

    def energy(t):
        moved = SmoothMap(phi.domain, phi.codomain, comps, {**merged, tname: t})
        return bienergy(moved, g, h, nodes=nodes)

    def pairing_terms(x, w):
        state = MapState(phi, g, h, x, 4)
        vvals = _float_values(field.components, phi.domain.coords,
                              field.parameters, x)
        return (w * state.target_inner(state.bitension_values, vvals)
                * state.sqrt_det_g)

    slope = (energy(eps) - energy(-eps)) / (2.0 * eps)
    slope_half = (energy(eps / 2.0) - energy(-eps / 2.0)) / eps
    pairing = float(_integrate(pairing_terms, phi.domain.box, nodes, 4))
    return {"slope": float(slope), "slope_half": float(slope_half),
            "pairing": pairing}
