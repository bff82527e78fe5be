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
target metric, batch of points, derivative order) tuple, as a domain side
and a map side.  A state built on the map, target metric, points and order
of the state built just before it shares that state's map side.  It
validates its inputs when built and derives every other stage on first
read, so a reader pays only for the stages it uses.

Each metric is evaluated, checked symmetric and checked positive definite in
one step (:func:`_sym_matrix_jets`), and each batch of points is checked
against its chart where its jet seeds are made (:func:`_seeds`).  The
module-level functions are thin wrappers over that one route:
:func:`pullback_metric` reads the ``pullback`` stage of a map side,
:func:`conformality_factor` and the field operators build a state and read
one quantity, and :func:`metric_jets`, :func:`christoffel` and
:func:`curvature_tensor` evaluate one metric.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, partial, wraps

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


def _seeds(domain, x, order):
    """The points ``x`` as floats, checked against the chart ``domain``
    (``domain.require``), and the order-``order`` jet seed of each chart
    coordinate at them: the one place sample points meet their chart."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != domain.dim:
        raise GeometryInputError(
            f"points have {x.shape[-1]} coordinates, chart has {domain.dim}")
    domain.require(x)
    return x, {c: jets.Jet.variable(i, x[..., i], domain.dim, order)
               for i, c in enumerate(domain.coords)}


def _as_jet(value, batch_shape, num_vars, order):
    """An evaluated expression as a jet: a number or array is a constant."""
    if isinstance(value, jets.Jet):
        return value
    arr = np.broadcast_to(np.asarray(value, dtype=float), batch_shape)
    return jets.Jet.constant(arr, num_vars, order)


def _eval_components(components, variables, parameters, batch_shape, num_vars, order):
    """Evaluate expression components to jets, coercing constants; each
    tree is walked once, so a subtree two components share is evaluated
    twice."""
    ctx = expr.EvalContext(variables, parameters)
    return [_as_jet(expr.evaluate(comp, ctx), batch_shape, num_vars, order)
            for comp in components]


def _sym_matrix_jets(metric, variables, batch_shape, order, what, at):
    """Component jets of a metric and their values, checked symmetric and
    positive definite (:func:`_require_spd`, naming a point of ``at``).

    Each distinct expression object is evaluated once (a conformally flat
    metric repeats one factor down its diagonal); entries (i, j) and
    (j, i) holding one expression object share one jet
    (:meth:`RiemannianMetric.from_components` gives mirror entries of equal
    source text one object); other mirror pairs, equal trees included, are
    evaluated and compared.  A metric with a ``factor`` F has F evaluated
    once and each entry value divided by its one F^2 before constants
    become jets, so every division shares F^2's reciprocal; an entry that
    is a constant zero is not divided, so it stays a known zero."""
    m, comps = metric.dim, metric.components
    mirrored = {(i, j) for i in range(m) for j in range(i)
                if comps[i][j] is comps[j][i]}
    distinct = {id(comps[i][j]): comps[i][j] for i in range(m)
                for j in range(m) if (i, j) not in mirrored}
    ctx = expr.EvalContext(variables, metric.parameters)
    raw = [expr.evaluate(comp, ctx) for comp in distinct.values()]
    if metric.factor is not None:
        fsq = jets.power(expr.evaluate(metric.factor, ctx), 2.0)
        raw = [v if not isinstance(v, jets.Jet) and not np.any(v)
               else jets.divide(v, fsq) for v in raw]
    jet = {key: _as_jet(v, batch_shape, m, order)
           for key, v in zip(distinct, raw)}
    rows = []
    for i in range(m):
        rows.append([rows[j][i] if (i, j) in mirrored else
                     jet[id(comps[i][j])] for j in range(m)])
    for i in range(m):
        for j in range(i + 1, m):
            a, b = rows[i][j], rows[j][i]
            if a is not b and (a - b).max_abs() > 1e-9 * (
                    1.0 + max(a.max_abs(), b.max_abs())):
                raise MetricError(
                    f"{what} components ({i},{j}) and ({j},{i}) disagree")
    values = jets.stack_values(rows)
    _require_spd(values, at, what)
    return rows, values


def _float_values(components, coords, parameters, x):
    """Plain float evaluation of expressions at points ``x``, stacked on a
    last axis."""
    ctx = expr.EvalContext({c: x[..., a] for a, c in enumerate(coords)}, parameters)
    return np.stack([np.broadcast_to(np.asarray(expr.evaluate(comp, ctx), dtype=float),
                                     x.shape[:-1]) for comp in components], axis=-1)


def _require_spd(values, x, what):
    """Raise DomainError naming the first point (in C order) where a metric
    value matrix is not positive definite, with its smallest eigenvalue;
    its ``outside`` is True wherever the smallest eigenvalue is not
    positive, so the point named is the first one that mask holds.

    A batched Cholesky factorization decides; ``eigvalsh`` runs only when it
    fails or a value is not finite, and names the point.  So a matrix whose
    factorization succeeds passes even if its smallest eigenvalue rounds to
    zero or below, one that fails passes only if every eigenvalue is
    positive, and a NaN matrix passes, as no eigenvalue compares <= 0."""
    if np.isfinite(values).all():
        try:
            np.linalg.cholesky(values)
            return
        except np.linalg.LinAlgError:
            pass
    eig = np.linalg.eigvalsh(values)
    smallest = eig[..., 0]
    outside = smallest <= 0.0
    if np.any(outside):
        k = int(np.argmax(outside.reshape(-1)))
        pt = np.asarray(x, dtype=float).reshape(-1, x.shape[-1])[k]
        err = DomainError(f"{what} is not positive definite at {pt.tolist()} "
                          f"(smallest eigenvalue {smallest.flat[k]:.6g})")
        err.outside = outside
        raise err


# -- jet linear algebra --------------------------------------------------------


def _jet_matrix_inverse(rows, order=None):
    """Inverse of a symmetric positive definite jet matrix.

    Gauss-Jordan in its symmetric form (the sweep operator), without
    pivoting: every caller has checked that the value part is positive
    definite, so each pivot has a nonzero value.  Structurally zero entries
    are skipped, so a diagonal matrix costs one reciprocal per distinct
    diagonal jet (one for a conformally flat metric, whose diagonal shares
    one jet, which keeps its reciprocal) and its inverse has exactly zero
    off-diagonal jets.  The entries are read truncated to ``order`` (the
    order the inverse is read at) or to the smallest order among them,
    whichever is lower, and that is the result's order; entries that share
    a jet share its truncation.
    """
    m = len(rows)
    entries = min(e.order for row in rows for e in row)
    order = entries if order is None else min(order, entries)
    cut = cache(lambda e: e.truncated(order))
    a = {}  # the nonzero entries, each symmetric pair sharing one jet
    for i in range(m):
        for j in range(i, m):
            if not cut(rows[i][j]).is_zero():
                a[i, j] = a[j, i] = cut(rows[i][j])
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


def _christoffel_sums(gj):
    """``s(i, j)``, the jets s[l] = d_i g_jl + d_j g_il - d_l g_ij for every
    l, formed on the first call for (i, j), so that Gamma^k_ij =
    1/2 g^kl s(i, j)[l]."""
    m = len(gj)
    # each distinct jet is differentiated once: entries that share a jet
    # (see _sym_matrix_jets) share its derivatives; a Jet hashes by
    # identity, and the cache keeps each one alive
    partials = cache(lambda e: [e.derivative(l) for l in range(m)])
    dg = [[partials(e) for e in row] for row in gj]
    return cache(lambda i, j: [dg[j][l][i] + dg[i][l][j] - dg[i][j][l]
                               for l in range(m)])


def _zero_connection(gj):
    """None, unless every entry of the metric jets ``gj`` has variable
    support 0: then the metric is constant, every partial of it and so
    every Christoffel symbol is a known zero, and this is that zero, one
    order below the metric jets, decided once rather than derived."""
    entries = [e for row in gj for e in row]
    if not any(e._variables() for e in entries):
        shape = np.broadcast_shapes(*{e.value.shape for e in entries})
        return jets.Jet.constant(np.zeros(shape), len(gj), gj[0][0].order - 1)


def _christoffel_jets(gj, ginv):
    """gamma[i][j][k] = Gamma^k_ij, one jet order below the metric jets;
    ``ginv`` is g^-1, or None to form it here at that order, which a
    constant metric (:func:`_zero_connection`) never does."""
    m, zero = len(gj), _zero_connection(gj)
    if zero is not None:
        return [[[zero] * m] * m] * m
    if ginv is None:
        ginv = _jet_matrix_inverse(gj, gj[0][0].order - 1)
    s = _christoffel_sums(gj)
    # the pairs i <= j, each read as (i, j) and as (j, i)
    gamma = {(i, j): [jets.contract(zip(row, s(i, j))) * 0.5 for row in ginv]
             for i in range(m) for j in range(i, m)}
    return [[gamma[min(i, j), max(i, j)] for j in range(m)] for i in range(m)]


def _christoffel_trace_jets(gj, ginv):
    """gamma[k] = Gamma^k = g^ij Gamma^k_ij, one jet order below the metric
    jets, as g^kl v_l with v_l = 1/2 g^ij s(i, j)[l] (see
    :func:`_christoffel_sums`): m^2 (m + 1) / 2 + m^2 products for a full
    metric, where the symbols themselves take m^3 (m + 1) / 2.  A constant
    metric's are known zeros (:func:`_zero_connection`)."""
    m, zero = len(gj), _zero_connection(gj)
    if zero is not None:
        return [zero] * m
    s = _christoffel_sums(gj)
    v = [_metric_trace(ginv, lambda i, j: s(i, j)[l]) * 0.5 for l in range(m)]
    return [jets.contract(zip(row, v)) for row in ginv]


def _metric_trace(ginv, hessian):
    """g^ij H_ij over the symmetric pairs i <= j, off-diagonal ones twice;
    ``hessian(i, j)`` builds H_ij, only where g^ij is not structurally zero
    (the diagonal of an SPD inverse never is)."""
    m = len(ginv)
    return jets.contract(
        (ginv[i][j], hessian(i, j)) + ((2.0,) if i != j else ())
        for i in range(m) for j in range(i, m) if not ginv[i][j].is_zero())


def _curvature_values(gamma):
    """R[..., l, k, i, j] with R(e_i, e_j) e_k = R^l_{kij} e_l."""
    gv = jets.stack_values(gamma)
    dg = jets.stack_gradients(gamma)  # d_l Gamma^k_ij at [..., i, j, k, l]
    t1 = np.einsum("...jkli->...lkij", dg)
    t2 = np.einsum("...iklj->...lkij", dg)
    t3 = np.einsum("...ipl,...jkp->...lkij", gv, gv, optimize=True)
    t4 = np.einsum("...jpl,...ikp->...lkij", gv, gv, optimize=True)
    return t1 - t2 + t3 - t4


def _curvature_map(gv, dg, pull):
    """K[..., b, c] = P^ak R^c_kab for P = ``pull``; with P = dphi^T g^-1 dphi
    this makes Trace_g R(dphi, S) dphi = S^b K[b, c].  ``gv`` holds
    Gamma^k_ij at [..., i, j, k] and ``dg`` d_l Gamma^k_ij at
    [..., i, j, k, l].

    R^c_kab = d_a Gamma^c_bk - d_b Gamma^c_ak + Gamma^c_ap Gamma^p_bk
    - Gamma^c_bp Gamma^p_ak, the terms t1..t4 of :func:`_curvature_values`
    with the same sign.  Each term is contracted with P in batched matrix
    products (t1 and t4 through the symmetry of Gamma's lower pair), so no
    array of n^4 values per point is formed beyond the first partials of
    Gamma.  ``@`` rather than einsum, which parses its subscripts on every
    call."""
    n, batch = pull.shape[-1], pull.shape[:-2]
    gv = gv.reshape(batch + (n, n * n))
    flat = pull.reshape(batch + (1, n * n))
    t1 = (dg.reshape(batch + (n, n * n, n)) @ pull.mT[..., None]).sum(axis=-3)
    t2 = (flat @ dg.reshape(batch + (n * n, n * n))).reshape(batch + (n, n))
    t3 = gv @ (pull.mT @ gv).reshape(batch + (n * n, n))
    t4 = flat @ gv.reshape(batch + (n * n, n)) @ gv
    return (t1.reshape(batch + (n, n)) - t2.mT + t3
            - t4.reshape(batch + (n, n)))


def _plain_einsum(subscripts, *operands):
    """``np.einsum(subscripts, *operands)``, bit for bit, which raises
    ``FloatingPointError("overflow encountered in einsum")`` under
    ``np.errstate(over="raise")`` when the result is not finite but every
    operand is: a plain einsum does not honour ``np.errstate``, while ``@``
    and ``optimize=True`` would change its summation order.  The error's
    ``outside`` is the result's non-finite mask, which locates the fault as
    :class:`jets.JetDomainError`'s does.  The operands are scanned only when
    the result is not finite."""
    out = np.einsum(subscripts, *operands)
    if np.geterr()["over"] == "raise":
        outside = ~np.isfinite(out)
        if outside.any() and all(np.isfinite(op).all() for op in operands):
            err = FloatingPointError("overflow encountered in einsum")
            err.outside = outside
            raise err
    return out


# -- the per-point engine -------------------------------------------------------


def _named(build):
    """``build``, a stage or reader of :class:`MapState`, with its errors
    carrying the note "in stage <its name>" unless an inner stage noted
    itself first (see :func:`error_text`)."""
    @wraps(build)
    def named(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except Exception as err:
            if not any(note.startswith("in stage ")
                       for note in getattr(err, "__notes__", ())):
                err.add_note(f"in stage {build.__name__}")
            raise
    return named


def _stage(build):
    # a named stage built on first read and kept
    return cached_property(_named(build))


def error_text(err):
    """The text of an error followed by its notes: the stage of a
    :class:`MapState` it was raised in, if any."""
    return " ".join([str(err), *getattr(err, "__notes__", ())])


class _Side(cached_property):
    """An attribute of a :class:`MapState` that its side ``side`` holds:
    read from that side on first read and kept on the state."""

    def __init__(self, side):
        super().__init__(lambda obj: getattr(vars(obj)[side], self.attrname))


class _DomainSide:
    """The stages of a :class:`MapState` that read the domain metric and no
    map, for one (domain metric, points, order): ``g_jets``/``g_val``,
    validated when built, then ``ginv_jets``/``ginv_val``, ``sqrt_det_g``
    and ``gammaM_trace``/``gammaM_trace_val`` on first read.  Its batch
    shape is the points'.

    Every reader of the domain Christoffel symbols (the tension field, the
    scalar and rough Laplacians) takes them only through the trace
    Gamma^k = g^ij Gamma^k_ij, so that is the stage formed; the full
    symbols of a metric are :func:`christoffel`."""

    def __init__(self, g, x, xvars, order):
        self.g, self.order = g, order
        gvars = {c: v.truncated(order - 1) for c, v in xvars.items()}
        self.g_jets, self.g_val = _sym_matrix_jets(
            g, gvars, x.shape[:-1], order - 1, "domain metric", x)

    @_stage
    def ginv_jets(self):
        return _jet_matrix_inverse(self.g_jets, min(self.order - 1, 2))

    @_stage
    def ginv_val(self):
        return jets.stack_values(self.ginv_jets)

    @_stage
    def sqrt_det_g(self):
        return np.sqrt(np.linalg.det(self.g_val))

    @_stage
    def gammaM_trace(self):
        return _christoffel_trace_jets(self.g_jets, self.ginv_jets)

    @_stage
    def gammaM_trace_val(self):
        return jets.stack_values(self.gammaM_trace)


class _MapSide:
    """The stages of a :class:`MapState` that read the map and the target
    metric and no domain metric, for one (map, target metric, points,
    order): ``phi_jets``/``y0`` and ``h_yjets``/``hN_val``, validated when
    built, then ``Dphi``/``dphi``, ``pullback``, ``gammaN_y`` with its
    stacked values and first partials ``gammaN_stacks``, and
    ``Q_jets``/``Q_val`` on first read.  Its batch shape is the points'
    broadcast against the shapes of the map's parameters."""

    def __init__(self, phi, h, x, xvars, order):
        self.phi, self.h, self.x, self._xvars = phi, h, x, xvars
        self.order, self.m, self.n = order, phi.domain.dim, phi.codomain.dim
        batch = self.batch_shape = np.broadcast_shapes(
            x.shape[:-1], *map(np.shape, phi.parameters.values()))
        self.phi_jets = _eval_components(phi.components, xvars, phi.parameters,
                                         batch, self.m, order)
        self.y0, yvars = _seeds(phi.codomain, jets.stack_values(self.phi_jets),
                                order - 1)
        self.h_yjets, self.hN_val = _sym_matrix_jets(
            h, yvars, batch, order - 1, "target metric", self.y0)

    @_stage
    def Dphi(self):
        return [[self.phi_jets[a].derivative(i) for a in range(self.n)]
                for i in range(self.m)]

    @_stage
    def dphi(self):
        return jets.stack_values(self.Dphi)

    @_stage
    def pullback(self):
        return _plain_einsum("...ia,...ab,...jb->...ij", self.dphi,
                             self.hN_val, self.dphi)

    @_stage
    def gammaN_y(self):
        return _christoffel_jets(self.h_yjets, None)

    @_stage
    def gammaN_stacks(self):
        return (jets.stack_values(self.gammaN_y),
                jets.stack_gradients(self.gammaN_y))

    @_stage
    def Q_jets(self):
        n, D = self.n, self.Dphi
        gamma = [e for ab in self.gammaN_y for row in ab for e in row]
        if all(e._zero for e in gamma):  # a constant target metric
            shape = np.broadcast_shapes(D[0][0].value.shape,
                                        *{e.value.shape for e in gamma})
            zero = jets.Jet.constant(np.zeros(shape), self.m, self.order - 2)
            return [[[zero] * n] * n] * self.m
        monos = jets.Monomials(self.phi_jets, self.order - 2)
        gnx = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                gnx[a][b] = gnx[b][a] = [jets.compose(j, monos)
                                         for j in self.gammaN_y[a][b]]
        return [[[jets.contract((gnx[a][b][c], D[i][a]) for a in range(n))
                  for b in range(n)] for c in range(n)] for i in range(self.m)]

    @_stage
    def Q_val(self):
        return jets.stack_values(self.Q_jets)


def _bits(value):
    # a number or array as its dtype, shape and raw bytes
    a = np.asarray(value)
    return a.dtype.str, a.shape, a.tobytes()


# [key, side]: the map side of the last MapState built, keyed by what it was
# built from; the side holds its map and target metric, so their ids are not
# reused while it is kept
_last = [None, None]


class MapState:
    """Jets of one map between metric charts at a batch of points.

    ``order`` is the Taylor order carried for the map: 2 suffices for
    tension fields, 3 for the Jacobi operator, 4 for bitension fields.  The
    target metric is expanded to ``order - 1`` around the image points and
    its Christoffel symbols are pulled back through the map.

    A state joins two sides.  The domain side holds the stages that read
    the domain metric and no map (``g_jets`` through ``gammaM_trace``), one
    per (domain metric, points, order); the map side those that read the
    map and the target metric and no domain metric (``phi_jets`` through
    ``Q_jets``), one per (map, target metric, points, order).  Their stages
    read as attributes of the state.  The stages that read both sides
    (``curvature_map``, the tension, the bitension, covariant derivatives
    and the Laplacians) are the state's own.

    The paper's conformal-change laws compare one map under two domain
    metrics, so a state reuses the map side of the state built just before
    it, with every stage built on it then or later, when both have the same
    map and target metric objects, the same order, points equal bit for bit
    and the parameters of the map and the target metric equal bit for bit
    to their values when that side was built (so an array edited in place
    gets a new side).  The module keeps that one side only: a state that
    cannot reuse it drops it before seeding its points, and keeps its own
    side once it is built; the quadrature loop (:func:`_integrate`) drops
    it after each chunk, whose successor has other points.  A shared side gives the same bits as a rebuilt
    one, and the state still builds and validates its own domain side.

    Building a state evaluates and validates its inputs, in this order: the
    points (``domain.require``); the domain metric ``g_jets``/``g_val``
    (symmetric and positive definite); the map ``phi_jets`` and its image
    ``y0`` (``codomain.require``); the target metric ``h_yjets``/``hN_val``
    at the image (symmetric and positive definite).  A reused map side was
    validated when it was built; a side whose build raised is not kept, so
    the next state on its inputs raises again.  Every other stage is
    built on first read and then kept; a stage that raises is not kept, so
    reading it again raises again.  The stages and their readers:

    * ``ginv_jets``/``ginv_val``, the domain inverse: metric traces,
      gradients, ``gammaM_trace``, the rough Laplacian, ``curvature_map``;
    * ``sqrt_det_g``, the volume density: the integral functionals;
    * ``gammaM_trace``/``gammaM_trace_val``, the contracted domain
      Christoffel symbols Gamma^k = g^ij Gamma^k_ij: the tension field, the
      scalar and rough Laplacians, which read the symbols only through this
      trace (the full symbols are not a stage);
    * ``Dphi``/``dphi``, the differential: the tension field, ``Q_jets``,
      ``curvature_map``, ``pullback``, the surface machinery;
    * ``pullback``, the values of the pull-back metric phi^*h: the
      conformality fit (:meth:`conformality`) and the surface machinery's
      check of the induced metric;
    * ``gammaN_y``, the target Christoffel symbols at the image: ``Q_jets``
      and the map side's ``gammaN_stacks`` (their values and first partials
      as arrays, stacked once per map side), which ``curvature_map`` reads;
    * ``Q_jets``/``Q_val``, the target Christoffel symbols pulled back and
      contracted with dphi: covariant derivatives of sections;
    * ``curvature_map``, the n x n map K[b, c] = P^ak R^c_kab with
      P = dphi^T g^-1 dphi (``None`` below order 3), built from ``gammaN_y``
      and its first partials without forming R^N: the curvature trace, so
      the Jacobi operator and the bitension field (the target curvature R^N
      itself is :func:`curvature_tensor` of the target metric);
    * ``tension_values``, the tension field's values: the tension checks
      and the conformal-change laws, which read it several times.

    A constant metric (every component jet of variable support 0, such as
    a Euclidean chart) has its connection decided once, not derived:
    ``gammaM_trace`` or ``gammaN_y`` is one shared known zero
    (:func:`_zero_connection`), ``gammaN_y`` then forms no target inverse,
    and ``Q_jets`` is known zeros when every ``gammaN_y`` jet is one.

    So a reader of the inputs alone (the complex-coordinate lane) builds no
    Christoffel symbols, and an error in a stage fails only its readers.  An
    error raised in a stage or in a reader of the state's values (the
    tension, the bitension, a covariant derivative, the two inner products,
    the conformality fit, the trace Laplacian or the curvature trace)
    carries the note "in stage <name>" naming the innermost one
    (:func:`error_text` renders it).

    Other jets are carried at the lowest order any reader keeps: the domain
    metric ``g_jets`` at ``order - 1`` (evaluated from seeds truncated to
    that order); ``ginv_jets`` at ``min(order - 1, 2)``, as the Christoffel
    symbols and the metric traces keep ``order - 2`` and the Jacobi operator
    of a pushed gradient (:meth:`gradient_jets`) needs order 2;
    ``gammaM_trace``, ``Q_jets`` and the target inverse at ``order - 2``.

    Points ``x`` may carry arbitrary leading batch axes; every derived value
    keeps those axes.  The map side's batch shape, the state's
    ``batch_shape``, is the points' broadcast against the shapes of the
    map's parameters, and the domain side's is the points' own: a family
    axis carried by a map parameter alone (the ``(4, 1)`` variation
    parameter of :func:`first_variation`) leaves the domain side on the
    points, and its values broadcast against the map side's.
    """

    (g, g_jets, g_val, ginv_jets, ginv_val, sqrt_det_g, gammaM_trace,
     gammaM_trace_val) = map(_Side, ["_domain"] * 8)
    (phi, h, x, _xvars, order, m, n, batch_shape, phi_jets, y0, h_yjets,
     hN_val, Dphi, dphi, pullback, gammaN_y, Q_jets, Q_val) = map(
        _Side, ["_map"] * 18)

    def __init__(self, phi, g, h, x, order):
        if order not in (2, 3, 4):
            raise GeometryInputError(f"unsupported jet order {order}")
        if g.domain.coords != phi.domain.coords:
            raise GeometryInputError("domain metric lives on a different chart")
        if h.domain.coords != phi.codomain.coords:
            raise GeometryInputError("target metric lives on a different chart")
        key = (id(phi), id(h), order, _bits(x),
               *(tuple((k, *_bits(v)) for k, v in obj.parameters.items())
                 for obj in (phi, h)))
        kept, side = _last  # one read, so the key and its side agree
        if kept == key:
            self._domain = _DomainSide(g, side.x, side._xvars, order)
        else:
            # the kept side is released before the points are seeded
            side = None
            _last[:] = None, None
            x, xvars = _seeds(phi.domain, x, order)
            # the domain metric is validated first
            self._domain = _DomainSide(g, x, xvars, order)
            side = _MapSide(phi, h, x, xvars, order)
            _last[:] = key, side
        self._map = side
        self._tension = self._bitension = None
        self._derivatives = {}  # id(section) -> (section, its derivative)

    # -- stages that read both sides, built on first read ----------------------

    @_stage
    def curvature_map(self):
        pull = self.dphi.mT @ (self.ginv_val @ self.dphi)
        return (_curvature_map(*self._map.gammaN_stacks, pull)
                if self.order >= 3 else None)

    # -- scalar helpers ---------------------------------------------------------

    def scalar_jet(self, source, parameters=None):
        """Jet of a scalar expression in the domain coordinates."""
        node = expr.parse(source) if isinstance(source, str) else source
        return _eval_components([node], self._xvars, parameters or {},
                                self.batch_shape, self.m, self.order)[0]

    def gradient_jets(self, f):
        """Metric gradient of a scalar jet, one component jet per axis, at
        the order of ``ginv_jets`` or one below ``f``'s, whichever is lower
        (order 2 at most)."""
        df = [f.derivative(j) for j in range(self.m)]
        return [jets.contract(zip(row, df)) for row in self.ginv_jets]

    def _laplace(self, hessian, grad):
        """g^ij H_ij - Gamma^k grad_k, with ``hessian(i, j)`` building H_ij
        (see :func:`_metric_trace`).  Gamma^k is read first, so when the
        domain Christoffel stage fails, that is the error reported, even
        where a map stage read by ``hessian`` fails too."""
        gam = self.gammaM_trace
        return jets.contract(
            [(_metric_trace(self.ginv_jets, hessian),)]
            + [(gk, dk, -1.0) for gk, dk in zip(gam, grad)])

    def scalar_laplacian(self, f):
        """Laplace-Beltrami of a scalar jet, as a jet two orders lower:
        g^ij d_i d_j f - Gamma^k d_k f."""
        df = [f.derivative(k) for k in range(self.m)]
        return self._laplace(lambda i, j: df[i].derivative(j), df)

    @_named
    def domain_inner(self, u, v):
        return _plain_einsum("...ij,...i,...j->...", self.g_val, u, v)

    @_named
    def target_inner(self, a, b):
        return _plain_einsum("...ab,...a,...b->...", self.hN_val, a, b)

    @_named
    def conformality(self):
        """The fit of phi^*h = lambda^2 g at each of the state's points,
        read from its ``pullback`` and ``g_val``: a
        :class:`ConformalityResult`."""
        pb, gv, m = self.pullback, self.g_val, self.m
        lam2 = _plain_einsum("...ij,...ji->...", np.linalg.inv(gv), pb) / m
        resid = np.abs(pb - lam2[..., None, None] * gv)
        return ConformalityResult(lam2, np.max(resid, axis=(-2, -1)),
                                  np.max(np.abs(pb), axis=(-2, -1)))

    # -- sections of the pulled-back bundle --------------------------------------

    def section_from_field(self, field):
        return _eval_components(field.components, self._xvars, field.parameters,
                                self.batch_shape, self.m, self.order)

    def dphi_apply(self, vec):
        """Push a domain vector (jet components) through the differential."""
        return [jets.contract((vec[i], self.Dphi[i][a]) for i in range(self.m))
                for a in range(self.n)]

    @_named
    def covariant_derivative(self, section):
        """Pull-back connection derivative: DS[j][c] = (nabla^phi_j S)^c.

        Each section object is differentiated once per state: the result is
        kept beside the section itself, keyed by its ``id``, so the id cannot
        be reused while the state lives and every later read (the Jacobi
        operator, the trace Laplacian, directional derivatives) shares it.
        Like a jet's coefficients, a section is not modified after it is
        differentiated.  The products with Q are formed at one order below
        the section's, the order the derivative terms keep, which gives the
        same coefficients as the full products."""
        kept = self._derivatives.get(id(section))
        if kept is None:
            # an order-0 section is kept whole, for derivative to reject
            top = max(max(s.order for s in section) - 1, 0)
            cut = [s.truncated(top) for s in section]
            kept = self._derivatives[id(section)] = (section, [
                [jets.contract([(section[c].derivative(j),)]
                               + [(self.Q_jets[j][c][b], cut[b])
                                  for b in range(self.n)])
                 for c in range(self.n)] for j in range(self.m)])
        return kept[1]

    @_named
    def directional_covariant(self, vec, section):
        """Values of nabla^phi_Y S for a domain vector Y (jets or values)."""
        dsval = jets.stack_values(self.covariant_derivative(section))
        if isinstance(vec[0], jets.Jet):
            yv = jets.stack_values(vec)
        else:
            yv = np.stack([np.broadcast_to(np.asarray(v, dtype=float),
                                           self.batch_shape) for v in vec], axis=-1)
        return _plain_einsum("...j,...jc->...c", yv, dsval)

    @_named
    def trace_laplacian(self, section):
        """Values of Trace_g (nabla^phi)^2 S (the rough Laplacian on sections)."""
        ds = self.covariant_derivative(section)
        if min(d.order for row in ds for d in row) < 1:
            raise GeometryInputError("trace_laplacian needs order-2 section jets")
        dsval = jets.stack_values(ds)
        # d_i (nabla_j S)^c at [..., i, j, c]
        dds = np.moveaxis(jets.stack_gradients(ds), -1, -3)
        full = dds + _plain_einsum("...icb,...jb->...ijc", self.Q_val, dsval)
        return (_plain_einsum("...ij,...ijc->...c", self.ginv_val, full)
                - _plain_einsum("...k,...kc->...c", self.gammaM_trace_val,
                                dsval))

    @_named
    def curvature_trace(self, section_values):
        """Values of Trace_g R^N(dphi, S) dphi = S^b K[b, c].

        K = ``curvature_map``, with K[b, c] = P^ak R^c_kab and
        P = dphi^T g^-1 dphi, is built once per state from the target
        Christoffel symbols and their first partials (see
        :func:`_curvature_map`); the curvature tensor R^N itself is not
        formed."""
        if self.curvature_map is None:
            raise GeometryInputError("curvature trace needs jet order >= 3")
        return (section_values[..., None, :] @ self.curvature_map)[..., 0, :]

    def jacobi_of(self, section):
        """J(S) = -Trace nabla^2 S + Trace R^N(dphi, S) dphi, as values."""
        return (self.curvature_trace(jets.stack_values(section))
                - self.trace_laplacian(section))

    # -- tension and bitension ----------------------------------------------------

    @property
    @_named
    def tension_jets(self):
        if self._tension is None:
            n, D = self.n, self.Dphi
            # tau^c = g^ij (d_j dphi_i^c + Q_i^c_b dphi_j^b) - Gamma^k dphi_k^c
            self._tension = [self._laplace(lambda i, j: jets.contract(
                [(D[i][c].derivative(j),)]
                + [(self.Q_jets[i][c][b], D[j][b]) for b in range(n)]),
                [row[c] for row in D]) for c in range(n)]
        return self._tension

    @_stage
    def tension_values(self):
        return jets.stack_values(self.tension_jets)

    @property
    @_named
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
    x, variables = _seeds(metric.domain, x, order)
    return _sym_matrix_jets(metric, variables, x.shape[:-1], order, "metric",
                            x)[0]


def _christoffel_of(metric, x):
    return _christoffel_jets(metric_jets(metric, x, order=2), None)


def christoffel(metric, x):
    """Christoffel values; ``[..., i, j, k]`` is Gamma^k_ij."""
    return jets.stack_values(_christoffel_of(metric, x))


def curvature_tensor(metric, x):
    """Curvature values R[..., l, k, i, j]; R(e_i,e_j)e_k = R^l_{kij} e_l."""
    return _curvature_values(_christoffel_of(metric, x))


def pullback_metric(phi, h, x):
    """Values of (phi^* h)_ij = h_ab(phi) d_i phi^a d_j phi^b: the
    ``pullback`` stage of the map side of an order-2 :class:`MapState`, so
    the target metric is checked symmetric and positive definite."""
    x, xvars = _seeds(phi.domain, x, 2)
    return _MapSide(phi, h, x, xvars, 2).pullback


@dataclass(frozen=True)
class ConformalityResult:
    """The fit of phi^*h = lambda^2 g, point by point: ``lambda_sq`` is
    trace(g^-1 phi^*h)/m, ``residual`` the largest entry of
    |phi^*h - lambda^2 g| and ``scale`` the largest entry of |phi^*h|.  The
    two properties reduce over every point."""
    lambda_sq: np.ndarray
    residual: np.ndarray
    scale: np.ndarray

    @property
    def max_residual(self):
        return float(np.max(self.residual) / (1.0 + np.max(self.scale)))

    @property
    def conformal(self):
        return bool(self.max_residual <= 1e-9 and np.all(self.lambda_sq > 0.0))


def conformality_factor(phi, g, h, x):
    """Fit lambda^2 = trace(g^-1 phi^*h)/m and measure the residual.

    ``max_residual`` is the largest entry of phi^*h - lambda^2 g over all
    points, divided by 1 + the largest entry of phi^*h; the map counts as
    conformal when it is at most 1e-9 and lambda^2 > 0.  This is
    :meth:`MapState.conformality` of an order-2 state, so both metrics are
    checked symmetric and positive definite.
    """
    return MapState(phi, g, h, x, 2).conformality()


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


@lru_cache(maxsize=32)
def _gauss_rule(nodes):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per
    ``nodes``; read-only, so no caller can change the cached rule."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _gauss_axes(box, nodes):
    """Gauss-Legendre nodes and weights of each axis of a box."""
    t, w = _gauss_rule(nodes)
    axes, wts = [], []
    for lo, hi in box:
        axes.append(0.5 * (hi + lo) + 0.5 * (hi - lo) * t)
        wts.append(0.5 * (hi - lo) * w)
    return axes, wts


# Jet coefficients per point times points per chunk of a quadrature integrand
# (see _integrate): on a 4-D grid, order-4 jets run in chunks of 936 points,
# order-2 jets in chunks of 4369, and the four-member first-variation family
# of order-2 jets in chunks of 1092 points.
_CHUNK_COEFFS = 65536


def _integrate(integrand, box, nodes, order, width=1):
    """Sums of ``integrand(points, weights)`` over the tensor Gauss-Legendre
    grid of a box, ``nodes`` per axis, one per member of a family of
    ``width`` integrands evaluated together.

    The grid is flattened with the last axis fastest and cut into
    consecutive slices of ``_CHUNK_COEFFS`` divided by the jet width per
    point and by ``width`` (at least one point), so a chunk holds as many
    jets whatever the family width; the integrand returns the weighted
    per-point terms of one slice, of shape ``(points,)`` for width 1 and
    ``(width, points)`` for a family.  Each slice's points and weights are
    built from its flat indices, the weight as the left-to-right product
    ``(1 * w0) * w1 ...`` of the axis weights, so neither the grid nor the
    weight vector is ever held whole and memory stays bounded whatever
    ``nodes`` is.  The terms are concatenated along the point axis and
    summed once per member, so each member's sum sees the same array as one
    batch of that member alone would, and gives the same bits.
    """
    axes, wts = _gauss_axes(box, nodes)
    shape = (nodes,) * len(axes)
    size = nodes ** len(axes)
    step = max(1, _CHUNK_COEFFS // (width * jets._ncoef(len(axes), order)))
    terms = []
    for k in range(0, size, step):
        idx = np.unravel_index(np.arange(k, min(k + step, size)), shape)
        weight = np.ones(1)
        for w, i in zip(wts, idx):
            weight = weight * w[i]
        terms.append(integrand(np.stack([a[i] for a, i in zip(axes, idx)],
                                        axis=-1), weight))
        # the next chunk's points differ, so this chunk's map side cannot
        # serve it; holding it while they are built slows quadrature
        _last[:] = None, None
    return np.sum(np.concatenate(terms, axis=-1), axis=-1)


def bienergy(phi, g, h, nodes=32):
    """E2(phi) = 1/2 integral |tau(phi)|^2 dv_g over the domain box.

    The grid is evaluated chunk by chunk under a fixed jet budget, so memory
    stays bounded for any ``nodes``; parameters of ``phi``, ``g`` and ``h``
    must therefore not carry the grid axis (scalars or arrays broadcasting
    against one chunk of points).
    """
    return float(0.5 * _integrate(lambda x, w: _energy_terms(phi, g, h, x, w),
                                  phi.domain.box, nodes, 2))


def _energy_terms(phi, g, h, x, w):
    # the weighted |tau|^2 dv_g of the points x, for _integrate
    state = MapState(phi, g, h, x, 2)
    tau = state.tension_values
    return w * state.target_inner(tau, tau) * state.sqrt_det_g


def first_variation(phi, g, h, field, eps=1e-2, nodes=24):
    """Slope of E2 along a variation field versus its bitension pairing.

    Returns a dict with the central-difference slope at ``eps``, the slope at
    ``eps/2``, and the integral of <tau2, V> dv_g.  For fields vanishing to
    high order on the boundary, slope = VARIATION_SIGN * pairing up to
    O(eps^2).

    The four energies E2(phi + t V), t = eps, -eps, eps/2, -eps/2, are one
    family: the reserved parameter ``t`` is bound to the ``(4, 1)`` array of
    those values and each chunk builds one state over its points, whose map
    side broadcasts to ``(4, points)`` while its domain side stays on the
    points, so the grid is walked once for all four, each domain stage is
    built once per point, and each energy has the bits of a
    :func:`bienergy` call on its moved map.  Both
    integrals run chunk by chunk (the family's chunks hold a quarter of the
    points), so memory is bounded by the chunk budget and parameters must
    not carry the grid axis.
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
    ts = np.array([[eps], [-eps], [eps / 2.0], [-eps / 2.0]])
    moved = SmoothMap(phi.domain, phi.codomain, comps, {**merged, tname: ts})

    def pairing_terms(x, w):
        state = MapState(phi, g, h, x, 4)
        vvals = _float_values(field.components, phi.domain.coords,
                              field.parameters, x)
        return (w * state.target_inner(state.bitension_values, vvals)
                * state.sqrt_det_g)

    energy = 0.5 * _integrate(partial(_energy_terms, moved, g, h),
                              phi.domain.box, nodes, 2, width=len(ts))
    slope = (energy[0] - energy[1]) / (2.0 * eps)
    slope_half = (energy[2] - energy[3]) / eps
    pairing = float(_integrate(pairing_terms, phi.domain.box, nodes, 4))
    return {"slope": float(slope), "slope_half": float(slope_half),
            "pairing": pairing}
