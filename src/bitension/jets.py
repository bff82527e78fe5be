"""Truncated multivariate Taylor arithmetic (scalar jets).

A :class:`Jet` stores the Taylor coefficients ``c[alpha] = d^alpha f / alpha!``
of a smooth function at a base point, for every multi-index ``alpha`` of total
degree <= ``order`` (at most :data:`MAX_ORDER`).  Coefficients are real
float64, in a dense array stored coefficient-major: its first axis enumerates
multi-indices in graded lexicographic order, so indices of degree <= k always
form a prefix of rows and truncation is a slice, and the axes after it are
broadcastable batch axes: one jet object can carry a whole batch of
evaluation points, and each coefficient (the value, a partial) is one
contiguous row over the batch.  Batch axes align from the right, as in numpy
broadcasting of batch-shaped arrays: an operand of lower batch rank gets
1-axes after its coefficient axis (:func:`_aligned`).  The public
:attr:`Jet.coeffs` is a read-only batch-major view of this storage, and
:class:`Jet` takes a batch-major array, so only this module sees the layout.

A coefficient array is never written after its jet is constructed: every
operation builds a new array (or a view it does not write), and code that
fills an array in place does so before handing it to :class:`Jet`.
:meth:`Jet.is_zero` relies on this to test each jet once and keep the answer,
and division to compose each jet's reciprocal once and keep it on the jet.

Complex input to :class:`Jet`, :meth:`Jet.constant`, :meth:`Jet.variable`, a
scalar operation or the functions of this module that take plain numbers
(:func:`ln`, :func:`sqrt`, :func:`divide`, :func:`power`) raises
``TypeError``: a complex-valued function is a pair of real jets (see
:mod:`bitension.weierstrass`).

Arithmetic truncates to the smaller operand order; differentiating drops the
order by one.  Products are convolutions driven by a precomputed pair table:
gather the pairs of every output coefficient, multiply, and sum each output's
terms left to right, ``((t0 + t1) + t2) + ...``, the one summation rule of
the module (:func:`contract` sums its terms the same way).  Every gather
takes whole rows of the coefficient-major storage.  Every product of two
jets that are neither constant nor known zeros takes one path, at every
batch size: it sums rank by rank (:func:`_rank_plan`, :func:`_rank_sum`).
The ``k``-th terms of all outputs form one contiguous block of rows, so a
handful of numpy calls cover the whole batch whatever its size, and the
rank-0 rows are the result in the stored layout, with no transpose.  Each
batch point is summed alone, so no result depends on batch size or
chunking.

Every jet carries a variable support: a bitmask that contains every variable
used by a multi-index whose coefficient is nonzero at some batch point (a
superset; it may hold more).  Seeds get ``1 << index`` and constants ``0``;
sums, differences, products, negation, scalar operations and truncation take
the union of their operands' supports; :func:`compose` the union of the inner
supports it reads; a derivative along a variable outside the support gets
``0``.  A jet built from a raw coefficient array scans it once, at
construction, for its support and whether it is zero.  So every jet's
support is known from how it was built.  A product gathers only the pairs
of the dense :func:`_mul_table` (which stays the reference) whose factors
lie in the operands' supports, in dense order; a factor of support ``0`` is
a scale by its value column.  The skipped pairs are exact zeros, so a
product equals the left-to-right sum over the dense table (what
``np.add.accumulate`` computes, the tests' reference) bit for bit, except
possibly in the sign of a zero.

A jet can also be known to be zero from how it was built, and then it holds
no memory: its coefficients are one shared read-only zero array per
coefficient shape (``np.broadcast_to``), and :meth:`Jet.is_zero`
answers without a scan.  Known zeros come from :meth:`Jet.constant` of an
all-zero value (so the all-skipped :func:`contract`, zero fills and literal
``0`` components), a derivative along a variable outside the support (every
derivative of a constant), a product with a known zero factor, the centred
monomials of a constant inner jet and :func:`compose` of a known zero outer
jet.  A sum or difference with a known zero returns the other operand
(negated for ``0 - x``) at the order and batch shape of the dense result;
negation and truncation keep the flag.  Results equal the dense ones except
possibly in the sign of a zero, and ``x * 0`` is ``0`` even where ``x``
holds inf or NaN, as in :func:`contract`.

Taylor composition (the elementary functions, target-side jets pulled back
through a map) is done in one place: :func:`compose` sums the outer
coefficients against a :class:`Monomials` set of the inner jets; the two
docstrings fix the product and summation order.
"""
from __future__ import annotations

import math
import operator
from functools import lru_cache, reduce

import numpy as np

MAX_ORDER = 4


class JetDomainError(ArithmeticError):
    """An elementary function was evaluated outside its smooth domain.

    ``value`` is the argument array it was given and ``outside`` the boolean
    array that is True where that argument lies outside the domain, so the
    offending entries are known without evaluating again (either may be
    None)."""

    def __init__(self, message, value=None, outside=None):
        super().__init__(message)
        self.value = value
        self.outside = outside


def _require_domain(value, outside, message):
    # raise JetDomainError when any entry of value is outside the domain
    if np.any(outside):
        raise JetDomainError(message, value=value, outside=outside)


def _degree_block(num_vars, deg):
    if num_vars == 1:
        return [(deg,)]
    block = []
    for first in range(deg, -1, -1):
        for rest in _degree_block(num_vars - 1, deg - first):
            block.append((first,) + rest)
    return block


@lru_cache(maxsize=None)
def multi_indices(num_vars, order):
    """All multi-indices with |alpha| <= order, graded lexicographic."""
    out = []
    for deg in range(order + 1):
        out.extend(_degree_block(num_vars, deg))
    return tuple(out)


@lru_cache(maxsize=None)
def _positions(num_vars, order):
    return {mi: p for p, mi in enumerate(multi_indices(num_vars, order))}


@lru_cache(maxsize=None)
def _ncoef(num_vars, order):
    return math.comb(num_vars + order, order)


@lru_cache(maxsize=None)
def _mul_table(num_vars, order):
    # pairs (ia, ib) grouped by output position, plus segment starts
    mids = multi_indices(num_vars, order)
    pos = _positions(num_vars, order)
    degs = [sum(mi) for mi in mids]
    groups = [[] for _ in mids]
    for ia, a in enumerate(mids):
        for ib, b in enumerate(mids):
            if degs[ia] + degs[ib] <= order:
                groups[pos[tuple(x + y for x, y in zip(a, b))]].append((ia, ib))
    ia_flat, ib_flat, seg = [], [], []
    for g in groups:
        seg.append(len(ia_flat))
        for ia, ib in g:
            ia_flat.append(ia)
            ib_flat.append(ib)
    return (np.array(ia_flat, dtype=np.intp), np.array(ib_flat, dtype=np.intp),
            np.array(seg, dtype=np.intp))


@lru_cache(maxsize=None)
def _var_masks(num_vars, order):
    # per position, the bitmask of the variables its multi-index uses
    return np.array([sum(1 << k for k, e in enumerate(mi) if e)
                     for mi in multi_indices(num_vars, order)], dtype=np.int64)


@lru_cache(maxsize=None)
def _rank_plan(num_vars, order, sa, sb):
    """The pairs of :func:`_mul_table` that a product of factors with the
    supports ``sa`` and ``sb`` gathers, laid out rank by rank for
    :func:`_rank_sum`, which sums every product of two non-constant jets:
    ``(ia, ib, adds, inverse)``.

    Every output position keeps, in dense order, the pairs whose factors lie
    in the supports; a position that keeps none (outside ``sa | sb``) keeps
    its first dense pair, an exact zero, as a filler.  A left-to-right sum
    that skips exact zeros changes at most the sign of a zero sum.

    The outputs are sorted by their number of kept pairs, most first, and
    the pairs ordered rank-major: rank ``k`` holds the ``k``-th term of every
    output that has one, so it is a block of rows whose outputs are a prefix
    of the sorted ones.  ``adds`` lists, for k = 1, 2, ..., the in-place sum
    ``t[:n] += t[s:s + n]`` of rank ``k`` (its ``n`` rows start at ``s``)
    into the first ``n`` rank-0 rows, which so hold every output summed left
    to right, ``((t0 + t1) + t2) + ...``.  ``inverse`` maps each output to
    its sorted row, or is ``None`` when the sort kept the order.
    """
    ia, ib, seg = _mul_table(num_vars, order)
    masks = _var_masks(num_vars, order)
    keep = ((masks[ia] & ~sa) == 0) & ((masks[ib] & ~sb) == 0)
    sizes = np.add.reduceat(keep.astype(np.intp), seg)
    keep[seg[sizes == 0]] = True
    sizes = np.maximum(sizes, 1)
    ia, ib, seg = ia[keep], ib[keep], np.cumsum(sizes) - sizes
    perm = np.argsort(-sizes, kind="stable")
    counts = [int(np.count_nonzero(sizes > k)) for k in range(sizes.max())]
    starts = np.cumsum([0] + counts[:-1]).tolist()
    rows = np.concatenate([seg[perm[:n]] + k for k, n in enumerate(counts)])
    adds = tuple(zip(counts[1:], starts[1:]))
    inverse = np.argsort(perm)
    if (perm == np.arange(len(perm))).all():
        inverse = None
    return ia[rows], ib[rows], adds, inverse


def _rank_sum(ca, cb, plan):
    """The product of coefficient arrays ``ca``, ``cb`` (stored
    coefficient-major, batch axes aligned) by a :func:`_rank_plan`: each
    output's terms summed left to right, from a handful of numpy calls
    whatever the batch size.

    The gathered terms are whole rows, so every rank is a contiguous block
    of rows and each add covers all its outputs and batch points at once.
    The rank-0 rows hold the result in the stored layout; it is returned as
    a C-contiguous array of its own, never a view of the term buffer.
    """
    ia, ib, adds, inverse = plan
    t = ca[ia] * cb[ib]
    for n, s in adds:
        rows = t[:n]
        np.add(rows, t[s:s + n], out=rows)
    return t[:len(ca)].copy() if inverse is None else t[inverse]


@lru_cache(maxsize=None)
def _diff_table(num_vars, order):
    # axis j: positions of beta+e_j inside the order table, and weights beta_j+1,
    # mapping an order jet onto the order-1 coefficient layout
    lower = multi_indices(num_vars, order - 1)
    pos = _positions(num_vars, order)
    idx = np.empty((num_vars, len(lower)), dtype=np.intp)
    wgt = np.empty((num_vars, len(lower)))
    for j in range(num_vars):
        for p, a in enumerate(lower):
            idx[j, p] = pos[a[:j] + (a[j] + 1,) + a[j + 1:]]
            wgt[j, p] = a[j] + 1
    return idx, wgt


@lru_cache(maxsize=None)
def _factorials(num_vars, order):
    return np.array([math.prod(math.factorial(k) for k in mi)
                     for mi in multi_indices(num_vars, order)])


def _jet(num_vars, order, coeffs, support, zero=None):
    # a jet over the coefficient-major array coeffs, whose variable support
    # is known from how it was built, and zero=True when it is known to be
    # zero; the slots are set here rather than through __init__, as every
    # operation comes through here
    out = object.__new__(Jet)
    out.num_vars, out.order, out._c = num_vars, order, coeffs
    out._zero, out._support, out._recip = zero, support, None
    return out


@lru_cache(maxsize=256)
def _zeros(shape):
    # the read-only coefficients shared by every known zero of this shape
    return np.broadcast_to(np.zeros(()), shape)


def _zero_jet(num_vars, order, batch):
    """A known zero jet: no allocation, and never scanned."""
    return _jet(num_vars, order, _zeros((_ncoef(num_vars, order),) + batch),
                0, True)


def _real(a):
    """The array ``a`` as float64; complex input raises ``TypeError``, as
    every jet coefficient is real."""
    if a.dtype.kind == "c":
        raise TypeError(f"jets take real numbers, not {a.dtype}")
    return a.astype(float, copy=False)


def _aligned(c, ndim):
    """The coefficient-major array ``c`` with 1-axes after its coefficient
    axis, up to ``ndim`` axes in all: its batch axes then line up with those
    of an operand of batch rank ``ndim - 1`` as batch-major broadcasting
    lines them up, from the right.  A view; ``c`` itself at that rank."""
    if c.ndim >= ndim:
        return c
    return c.reshape(c.shape[:1] + (1,) * (ndim - c.ndim) + c.shape[1:])


def _batch_major(c):
    # the coefficient-major array c with its coefficient axis last (a view)
    return c.transpose(_batch_major_axes(c.ndim))


@lru_cache(maxsize=None)
def _batch_major_axes(ndim):
    return tuple(range(1, ndim)) + (0,)


def _batch(ca, cb):
    # the broadcast batch shape of two coefficient arrays
    a, b = ca.shape[1:], cb.shape[1:]
    return a if a == b else np.broadcast_shapes(a, b)


class Jet:
    """Taylor expansion of a scalar function truncated at ``order``.

    ``Jet(num_vars, order, coeffs)`` takes a batch-major array (batch axes,
    then the coefficient axis) and stores it coefficient-major (see the
    module docstring) as a view, keeping an ndarray subclass.
    :attr:`coeffs` gives it back batch-major, as a read-only view of the
    storage.  The storage is not written after construction (see the module
    docstring), so queries on it such as :meth:`is_zero` may be cached on
    the jet.

    The jet's variable support is a bitmask holding every variable that a
    nonzero coefficient's multi-index uses, and possibly more.  Operations
    in this module record it from their operands; ``Jet(...)`` finds it in
    one scan of the array at construction, which also answers
    :meth:`is_zero`.  Products multiply only over the supports (see the
    module docstring).

    A jet known to be zero at construction (see the module docstring) has
    ``_zero`` set and shares a read-only zero coefficient array; sums with
    it return the other operand and products with it are zero without
    arithmetic, so ``x * 0`` is ``0`` even where ``x`` is inf or NaN.
    """

    # _c is the coefficient-major storage, _recip the kept reciprocal
    __slots__ = ("num_vars", "order", "_c", "_zero", "_support", "_recip")

    # keep ndarray operands from absorbing jets elementwise; with ufuncs
    # disabled, ndarray <op> Jet falls through to the reflected methods
    __array_ufunc__ = None

    def __init__(self, num_vars, order, coeffs):
        self.num_vars = num_vars
        self.order = order
        self._c = np.moveaxis(_real(np.asanyarray(coeffs)), -1, 0)
        self._recip = None
        self._scan()

    # -- construction ------------------------------------------------------

    @classmethod
    def variable(cls, index, value, num_vars, order=MAX_ORDER):
        if not 0 <= index < num_vars:
            raise ValueError(f"variable index {index} out of range for {num_vars} variables")
        value = _real(np.asarray(value))
        coeffs = np.zeros((_ncoef(num_vars, order),) + value.shape)
        coeffs[0] = value
        coeffs[_positions(num_vars, order)[
            tuple(1 if k == index else 0 for k in range(num_vars))]] = 1.0
        return _jet(num_vars, order, coeffs, 1 << index)

    @classmethod
    def constant(cls, value, num_vars, order=MAX_ORDER):
        value = _real(np.asarray(value))
        if not value.any():
            return _zero_jet(num_vars, order, value.shape)
        coeffs = np.zeros((_ncoef(num_vars, order),) + value.shape)
        coeffs[0] = value
        return _jet(num_vars, order, coeffs, 0)

    # -- coefficient access ------------------------------------------------

    @property
    def coeffs(self):
        """The coefficients batch-major: a read-only view of the storage."""
        view = _batch_major(self._c)
        view.flags.writeable = False
        return view

    @property
    def value(self):
        return self._c[0]

    def partial(self, alpha):
        """The partial derivative d^alpha f at the base point."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.num_vars or any(a < 0 for a in alpha):
            raise ValueError(f"bad multi-index {alpha} for {self.num_vars} variables")
        if sum(alpha) > self.order:
            raise ValueError(f"multi-index {alpha} exceeds jet order {self.order}")
        p = _positions(self.num_vars, self.order)[alpha]
        return self._c[p] * _factorials(self.num_vars, self.order)[p]

    def is_constant(self):
        return bool(np.all(self._c[1:] == 0.0))

    def is_zero(self):
        """True when no coefficient is nonzero at any batch point (a
        structurally zero jet).  Known zeros (see the module docstring) and
        jets built by ``Jet(...)`` answer at once; any other jet scans on the
        first call and keeps the answer."""
        if self._zero is None:
            self._zero = not self._c.any()
        return self._zero

    def _variables(self):
        """The variable support bitmask (see the class docstring)."""
        return self._support

    def _scan(self):
        # a jet built from a raw array: one reduction over the batch axes
        # finds its support and whether it is zero
        c = self._c
        nonzero = c.any(axis=tuple(range(1, c.ndim)))
        self._zero = not nonzero.any()
        self._support = int(np.bitwise_or.reduce(
            _var_masks(self.num_vars, self.order)[nonzero]))

    def max_abs(self):
        """The largest coefficient modulus over all batch points."""
        if self._zero:
            return 0.0
        return float(np.max(np.abs(self._c)))

    def truncated(self, order):
        if order >= self.order:
            return self
        # a zero stays zero; a nonzero jet may lose its nonzero coefficients
        return _jet(self.num_vars, order,
                    self._c[:_ncoef(self.num_vars, order)],
                    self._support, self._zero or None)

    def derivative(self, axis):
        """The jet of df/dx_axis, one order lower."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        c, support = self._c, self._support
        if self._zero or not support >> axis & 1:
            return _zero_jet(self.num_vars, self.order - 1, c.shape[1:])
        idx, wgt = _diff_table(self.num_vars, self.order)
        # a row gather, each row scaled by its weight
        weights = wgt[axis].reshape((-1,) + (1,) * (c.ndim - 1))
        return _jet(self.num_vars, self.order - 1, c[idx[axis]] * weights,
                    support)

    # -- ring operations ----------------------------------------------------

    def _pair(self, other):
        # both coefficient arrays at the smaller order, batch axes aligned
        order = min(self.order, other.order)
        nc = _ncoef(self.num_vars, order)
        ca, cb = self._c[:nc], other._c[:nc]
        if ca.ndim != cb.ndim:
            ndim = max(ca.ndim, cb.ndim)
            ca, cb = _aligned(ca, ndim), _aligned(cb, ndim)
        return order, ca, cb

    def _plus_zero(self, zero):
        """The sum of this jet and the known zero ``zero``: this jet at the
        order and broadcast batch shape of the dense sum."""
        order = min(self.order, zero.order)
        c, batch = self._c, _batch(self._c, zero._c)
        if self._zero:
            return _zero_jet(self.num_vars, order, batch)
        if order < self.order:
            c = c[:_ncoef(self.num_vars, order)]
        if batch != c.shape[1:]:
            c = np.broadcast_to(_aligned(c, len(batch) + 1),
                                c.shape[:1] + batch)
        if c is self._c:
            return self
        return _jet(self.num_vars, order, c, self._support, self._zero or None)

    def _shifted(self, value):
        # this jet with the value row of its sum or difference with a scalar,
        # whose batch shape is that of the result
        c, value = self._c, _real(value)
        out = np.empty(c.shape[:1] + value.shape)
        out[0] = value
        out[1:] = _aligned(c[1:], out.ndim)
        return _jet(self.num_vars, self.order, out, self._support)

    def __add__(self, other):
        if isinstance(other, Jet):
            if other._zero:
                return self._plus_zero(other)
            if self._zero:
                return other._plus_zero(self)
            order, ca, cb = self._pair(other)
            return _jet(self.num_vars, order, ca + cb,
                        self._support | other._support)
        return self._shifted(self._c[0] + other)

    __radd__ = __add__

    def __neg__(self):
        if self._zero:
            return self
        return _jet(self.num_vars, self.order, -self._c, self._support)

    def __sub__(self, other):
        if isinstance(other, Jet):
            if other._zero:
                return self._plus_zero(other)
            if self._zero:
                return (-other)._plus_zero(self)
            order, ca, cb = self._pair(other)
            return _jet(self.num_vars, order, ca - cb,
                        self._support | other._support)
        return self._shifted(self._c[0] - other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            if self._zero or other._zero:
                return _zero_jet(self.num_vars, min(self.order, other.order),
                                 _batch(self._c, other._c))
            order, ca, cb = self._pair(other)
            sa, sb = self._variables(), other._variables()
            if sa == 0:
                out = ca[:1] * cb
            elif sb == 0:
                out = ca * cb[:1]
            else:
                # each operand is gathered at its own batch shape; the
                # multiply broadcasts them, as parameter-only jets are often
                # narrower
                out = _rank_sum(ca, cb, _rank_plan(self.num_vars, order,
                                                   sa, sb))
            return _jet(self.num_vars, order, out, sa | sb)
        other = _real(np.asarray(other))
        c = self._c
        if self._zero:
            batch = (c.shape[1:] if other.ndim == 0
                     else np.broadcast_shapes(c.shape[1:], other.shape))
            return _zero_jet(self.num_vars, self.order, batch)
        return _jet(self.num_vars, self.order, _aligned(c, other.ndim + 1)
                    * other, self._support)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        arr = _real(np.asarray(other))
        _require_domain(arr, arr == 0.0, "division by zero")
        return self * (1.0 / arr)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, exponent):
        return power(self, exponent)

    # -- composition with univariate smooth functions -----------------------

    def _compose(self, taylor):
        """sum_k taylor[k] * (self - value)^k, taylor[k] ~ f^(k)(value)/k!."""
        outer = _jet(1, self.order, np.stack(np.broadcast_arrays(*taylor)), 1)
        return compose(outer, Monomials([self], self.order))

    def _reciprocal(self):
        """1 / this jet, composed on the first call and kept on the jet, so
        every quotient by one jet object shares one composition."""
        if self._recip is None:
            v = self.value
            _require_domain(v, v == 0.0, "division by a jet with zero value")
            r = 1.0 / v
            self._recip = self._compose(
                [r, -r * r, r ** 3, -(r ** 4), r ** 5][: self.order + 1])
        return self._recip

    def exp(self):
        v = np.exp(self.value)
        return self._compose([v, v, v / 2.0, v / 6.0, v / 24.0][: self.order + 1])

    def ln(self):
        v = self.value
        _require_domain(v, v <= 0.0, "ln of a nonpositive value")
        r = 1.0 / v
        return self._compose([np.log(v), r, -r * r / 2.0, r ** 3 / 3.0,
                              -(r ** 4) / 4.0][: self.order + 1])

    def sin(self):
        s, c = np.sin(self.value), np.cos(self.value)
        return self._compose([s, c, -s / 2.0, -c / 6.0, s / 24.0][: self.order + 1])

    def cos(self):
        s, c = np.sin(self.value), np.cos(self.value)
        return self._compose([c, -s, -c / 2.0, s / 6.0, c / 24.0][: self.order + 1])

    def sqrt(self):
        v = self.value
        _require_domain(v, v <= 0.0, "sqrt of a nonpositive value")
        s = np.sqrt(v)
        return self._compose([s, 0.5 / s, -1.0 / (8.0 * s * v),
                              1.0 / (16.0 * s * v * v),
                              -5.0 / (128.0 * s * v ** 3)][: self.order + 1])

    def _pow_real(self, p):
        v = self.value
        _require_domain(v, v <= 0.0, "non-integer power of a nonpositive base")
        p = np.asarray(p, dtype=float)
        taylor, coeff = [], np.ones(np.broadcast(v, p).shape)
        for k in range(self.order + 1):
            taylor.append(coeff * np.power(v, p - k))
            coeff = coeff * (p - k) / (k + 1.0)
        return self._compose(taylor)

    def _pow_int(self, k):
        if k < 0:
            return self._pow_int(-k)._reciprocal()
        if k == 0:
            return Jet.constant(np.ones(self.value.shape), self.num_vars, self.order)
        out, base = None, self
        while k:
            if k & 1:
                out = base if out is None else out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __repr__(self):
        return f"Jet(num_vars={self.num_vars}, order={self.order}, value={self.value!r})"


# -- composition --------------------------------------------------------------


class Monomials(dict):
    """The centred monomials (u - u(0))^alpha of a list of inner jets.

    ``monos[p]`` is the monomial of the ``p``-th multi-index of
    :func:`multi_indices` in ``len(inner)`` variables, a jet at ``order``.
    It is built on first read and kept, so one set serves every outer jet
    composed against it.  Per variable the powers are ``p[k] = p[k-1] * u``;
    a monomial is the product of its variables' powers, left to right.
    """

    def __init__(self, inner, order):
        self.num_vars, self.order = inner[0].num_vars, order
        self.batch_shape = inner[0]._c.shape[1:]
        self.supports = [u._variables() for u in inner]
        self._mids = multi_indices(len(inner), order)
        # per variable [None, u - u(0), (u - u(0))^2, ...], grown on demand;
        # a constant inner jet (support 0) centres to a known zero
        self._powers = [[None, u.truncated(order) - u.value if s else
                         _zero_jet(self.num_vars, order, u._c.shape[1:])]
                        for u, s in zip(inner, self.supports)]

    def __missing__(self, pos):
        factors = []
        for row, k in zip(self._powers, self._mids[pos]):
            while len(row) <= k:
                row.append(row[-1] * row[1])
            factors += [row[k]] if k else []
        self[pos] = reduce(operator.mul, factors)
        return self[pos]


def compose(outer, monos):
    """The outer jet, a Taylor polynomial about the inner values, composed
    with the inner jets of ``monos``: a real jet at ``monos.order`` (at most
    the outer order).

    The constant term is set first, then ``c_alpha * monos[alpha]`` is added
    one multi-index at a time in graded order.  A multi-index whose
    coefficient is zero at every batch point is skipped, so its monomial is
    never built and a constant outer jet costs no product; one reduction
    over the batch axes finds these multi-indices for the whole outer jet.
    A known zero monomial is skipped too, and a known zero outer jet gives a
    known zero.  The result's support is the union of the supports of the
    inner jets that the added terms use.
    """
    c = outer._c
    shape = c.shape[1:]
    if shape != monos.batch_shape:
        shape = np.broadcast_shapes(shape, monos.batch_shape)
    if outer._zero:
        return _zero_jet(monos.num_vars, monos.order, shape)
    out = np.zeros((_ncoef(monos.num_vars, monos.order),) + shape)
    out[0] = c[0]
    nonzero = c.any(axis=tuple(range(1, c.ndim)))
    masks, used = _var_masks(outer.num_vars, monos.order), 0
    for pos in range(1, _ncoef(outer.num_vars, monos.order)):
        if nonzero[pos] and not monos[pos]._zero:
            # the outer coefficient's row scales every row of the monomial
            out += c[pos] * _aligned(monos[pos]._c, out.ndim)
            used |= int(masks[pos])
    support = reduce(operator.or_, (s for k, s in enumerate(monos.supports)
                                    if used >> k & 1), 0)
    return _jet(monos.num_vars, monos.order, out, support)


# -- contractions -------------------------------------------------------------


def contract(terms):
    """Sum of products of jets: the one place index contractions are summed.

    ``terms`` yields tuples of factors, each a :class:`Jet` or a plain scalar
    such as ``2.0`` or ``-1.0``.  The rules, relied on by every contraction in
    the package:

    * A term with a structurally zero jet factor (no nonzero coefficient) is
      skipped before any product is formed, so diagonal metrics and flat
      targets cost no products with their zero entries.  The test is
      :meth:`Jet.is_zero`, which scans a jet's coefficients once however
      many terms share it (jets are immutable, see the module docstring).
    * Each kept term is multiplied left to right in the order given, and the
      kept terms are summed left to right.  Jet products are convolutions
      whose rounding depends on operand order, so this order is part of the
      result; ``t - p`` is written as the term ``(..., -1.0)``, which adds
      the exact negation.
    * If every term is skipped, the result is a known zero jet (see the
      module docstring) at the smallest order among all the jet factors,
      with their broadcast batch shape.
    """
    total, skipped = None, []
    for factors in terms:
        for f in factors:
            if isinstance(f, Jet) and f.is_zero():
                skipped += [g for g in factors if isinstance(g, Jet)]
                break
        else:
            product = factors[0]
            for f in factors[1:]:
                product = product * f
            total = product if total is None else total + product
    if total is None:
        shapes = {f._c.shape[1:] for f in skipped}
        shape = shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)
        return _zero_jet(skipped[0].num_vars, min(f.order for f in skipped),
                         shape)
    return total


def _stack(nested, leaf, leaf_axes):
    # leaf(jet) is batch-major: batch axes, then leaf_axes axes.  The leaves
    # are stacked on one axis, which is then split into the nest's axes.
    # One path: the leaves that are not known zeros are written into one
    # zero buffer, which gives the bits of np.stack (a known zero holds
    # +0.0), and a known zero is never read.
    shape, leaves = (), [nested]
    while not isinstance(leaves[0], Jet):
        shape += (len(leaves[0]),)
        if any(len(row) != shape[-1] for row in leaves):
            raise ValueError("a nest of jets must be rectangular")
        leaves = [e for row in leaves for e in row]
    values = [leaf(jet) for jet in leaves]
    if len({v.shape for v in values}) > 1:
        raise ValueError("the jets of a nest must have one batch shape")
    cut = values[0].ndim - leaf_axes
    out = np.zeros(values[0].shape[:cut] + (len(values),)
                   + values[0].shape[cut:], dtype=values[0].dtype)
    tail = (slice(None),) * leaf_axes
    for k, (jet, v) in enumerate(zip(leaves, values)):
        if not jet._zero:
            out[(Ellipsis, k) + tail] = v
    return out.reshape(out.shape[:cut] + shape + out.shape[cut + 1:])


def stack_values(nested):
    """Values of a nested list of jets as one array: ``gamma[i][j][k]`` is
    read at ``[..., i, j, k]``, after the batch axes."""
    return _stack(nested, lambda jet: jet._c[0], 0)


def _gradient(jet):
    if jet.order < 1:
        raise ValueError("cannot differentiate an order-0 jet")
    return _batch_major(jet._c[1:jet.num_vars + 1])


def stack_gradients(nested):
    """First partials of a nested list of jets as one array: d_l of
    ``gamma[i][j][k]`` is read at ``[..., i, j, k, l]``.

    These are the degree-1 coefficients, whose derivative weight is exactly
    1, so each entry equals ``gamma[i][j][k].derivative(l).value``.
    """
    return _stack(nested, _gradient, 1)


# -- public functional surface ----------------------------------------------

def exp(x):
    return x.exp() if isinstance(x, Jet) else np.exp(x)


def ln(x):
    if isinstance(x, Jet):
        return x.ln()
    x = _real(np.asarray(x))
    _require_domain(x, x <= 0.0, "ln of a nonpositive value")
    return np.log(x)


def sin(x):
    return x.sin() if isinstance(x, Jet) else np.sin(x)


def cos(x):
    return x.cos() if isinstance(x, Jet) else np.cos(x)


def sqrt(x):
    if isinstance(x, Jet):
        return x.sqrt()
    x = _real(np.asarray(x))
    _require_domain(x, x <= 0.0, "sqrt of a nonpositive value")
    return np.sqrt(x)


def divide(num, den):
    if isinstance(num, Jet) or isinstance(den, Jet):
        if not isinstance(num, Jet):
            return den.__rtruediv__(num)
        return num / den
    den = _real(np.asarray(den))
    _require_domain(den, den == 0.0, "division by zero")
    return _real(np.asarray(num)) / den


def power(base, exponent):
    """base ** exponent with exact handling of integer exponents.

    Integer exponents go through repeated multiplication and are valid at
    negative bases; anything else requires a strictly positive base.
    """
    if isinstance(exponent, Jet):
        if exponent.is_constant():
            exponent = exponent.value
        else:
            return exp(exponent * ln(base))
    e = _real(np.asarray(exponent))
    if e.ndim == 0 and float(e).is_integer():  # False for inf and nan
        k = int(e)
        if isinstance(base, Jet):
            return base._pow_int(k)
        base = _real(np.asarray(base))
        if k < 0:
            _require_domain(base, base == 0.0,
                            "zero base with negative exponent")
        return np.power(base, k)
    if isinstance(base, Jet):
        return base._pow_real(e)
    base = _real(np.asarray(base))
    _require_domain(base, base <= 0.0,
                    "non-integer power of a nonpositive base")
    return np.power(base, e)
