"""Shared test helpers: random safe function trees, finite-difference
oracles, the recursive expression walkers as a reference and the parity
tool."""
import importlib.util
import operator
from collections import Counter
from functools import cached_property
from pathlib import Path

import numpy as np

from bitension import expr, geometry, jets
from bitension.charts import ChartDomain, RiemannianMetric
from bitension.expr import Binary, Const, Name, Unary
from bitension.geometry import MapState


def _tool(name):
    # a script of tools/, imported as a module
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_outputs = _tool("compare_outputs")
bench_pairs = _tool("bench_pairs")

# 7-point central stencils on offsets -3..3, 4th-order accurate for k <= 4.
_OFFSETS = np.arange(-3, 4)
_STENCILS = {
    0: np.array([0, 0, 0, 1, 0, 0, 0], dtype=float),
    1: np.array([0, 1, -8, 0, 8, -1, 0], dtype=float) / 12.0,
    2: np.array([0, -1, 16, -30, 16, -1, 0], dtype=float) / 12.0,
    3: np.array([1, -8, 13, 0, -13, 8, -1], dtype=float) / 8.0,
    4: np.array([-1, 12, -39, 56, -39, 12, -1], dtype=float) / 6.0,
}


def fd_lattice(f, x0, num_vars, step=1e-2):
    """Evaluate f on the 7^m lattice around x0 in one vectorized call."""
    axes = [x0[i] + step * _OFFSETS for i in range(num_vars)]
    grids = np.meshgrid(*axes, indexing="ij")
    return f(grids)


def fd_partial(values, alpha, step=1e-2):
    """Tensor-product central-difference estimate of d^alpha f from lattice values."""
    out = values
    for axis, k in enumerate(alpha):
        w = _STENCILS[k] / step ** k
        out = np.tensordot(out, w, axes=([0], [0]))  # consumes leading axis each time
    return float(out)


def scanned_support(jet):
    """Bitmask of the variables used by the multi-indices whose coefficient
    is nonzero at some batch point, read from the coefficients alone."""
    c = np.asarray(jet.coeffs)
    nonzero = c.reshape(-1, c.shape[-1]).any(axis=0)
    mask = 0
    for mi, used in zip(jets.multi_indices(jet.num_vars, jet.order), nonzero):
        if used:
            mask |= sum(1 << k for k, e in enumerate(mi) if e)
    return mask


def record_covariant_derivatives(monkeypatch):
    """Record (section, result) of every covariant derivative from now on."""
    calls, nabla = [], MapState.covariant_derivative

    def recording(self, section):
        out = nabla(self, section)
        calls.append((section, out))
        return out

    monkeypatch.setattr(MapState, "covariant_derivative", recording)
    return calls


def record_builds(monkeypatch):
    """Record from now on what map states are built from, as (kind, detail)
    pairs: ``("state", x)`` per ``MapState`` constructor call, ``("domain",
    side)`` and ``("map", side)`` per domain or map side built, and
    ``("gammaN_y", side)`` and ``("Q_jets", side)`` per build of those
    map-side stages."""
    built = []

    def side_init(cls, kind):
        init = cls.__init__

        def recording(self, *args):
            init(self, *args)
            built.append((kind, self))
        monkeypatch.setattr(cls, "__init__", recording)

    def stage(name):
        build = vars(geometry._MapSide)[name].func

        def recording(side):
            built.append((name, side))
            return build(side)
        counted = cached_property(recording)
        counted.__set_name__(geometry._MapSide, name)
        monkeypatch.setattr(geometry._MapSide, name, counted)

    state_init = MapState.__init__

    def state(self, phi, g, h, x, order):
        built.append(("state", x))
        state_init(self, phi, g, h, x, order)

    monkeypatch.setattr(MapState, "__init__", state)
    side_init(geometry._DomainSide, "domain")
    side_init(geometry._MapSide, "map")
    stage("gammaN_y")
    stage("Q_jets")
    return built


def build_counts(built):
    """How many of each kind :func:`record_builds` recorded."""
    return dict(Counter(kind for kind, _ in built))


def overflow_curvature_map(monkeypatch):
    """From now on, build the curvature map stage from Christoffel values
    and first partials scaled by 1e10 and from the largest float in every
    entry of dphi^T g^-1 dphi, so the stage's own products overflow."""
    build = geometry._curvature_map

    def overflowing(gv, dg, pull):
        return build(gv * 1e10, dg * 1e10,
                     np.full_like(pull, np.finfo(float).max))

    monkeypatch.setattr(geometry, "_curvature_map", overflowing)


def relative_error(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.max(np.abs(a - b) / (1.0 + np.maximum(np.abs(a), np.abs(b))))


# -- random smooth programs ---------------------------------------------------
#
# A "program" is a closure f(vars) composing only the jet-safe elementary
# operations, with arguments of ln/sqrt/div kept inside their domains by
# construction so the same tree is valid for jets, floats, and arrays.

def _leaf(rng, num_vars):
    if rng.random() < 0.7:
        i = int(rng.integers(num_vars))
        return lambda v: v[i]
    c = float(rng.uniform(0.5, 2.0))
    return lambda v: c


def _positive(child):
    # maps any smooth value into [1.3, 1.9]; the 0.6 damping keeps high-order
    # derivatives of deep compositions small enough for the FD oracle
    return lambda v: 1.6 + 0.3 * jets.sin(0.6 * child(v))


def random_program(rng, num_vars, depth):
    if depth == 0:
        return _leaf(rng, num_vars)
    op = rng.choice(["add", "sub", "mul", "div", "exp", "ln", "sin", "cos",
                     "sqrt", "powi", "powneg"])
    a = random_program(rng, num_vars, depth - 1)
    if op in ("add", "sub", "mul", "div"):
        b = random_program(rng, num_vars, depth - 1)
        if op == "add":
            return lambda v: a(v) + b(v)
        if op == "sub":
            return lambda v: a(v) - b(v)
        if op == "mul":
            return lambda v: a(v) * b(v)
        pos = _positive(b)
        return lambda v: jets.divide(a(v), pos(v))
    if op == "exp":
        return lambda v: jets.exp(0.35 * a(v))
    if op == "ln":
        pos = _positive(a)
        return lambda v: jets.ln(pos(v))
    if op == "sin":
        return lambda v: jets.sin(0.6 * a(v))
    if op == "cos":
        return lambda v: jets.cos(0.6 * a(v))
    if op == "sqrt":
        pos = _positive(a)
        return lambda v: jets.sqrt(pos(v))
    if op == "powi":
        k = int(rng.integers(2, 4))
        return lambda v: jets.power(0.7 * a(v), k)
    pos = _positive(a)
    return lambda v: jets.power(pos(v), -2)


# -- the recursive expression walkers -------------------------------------------
#
# evaluate, free_names and to_source as they were written before one loop
# walked every tree: one recursion each, left child before right.  They hit
# Python's recursion limit on long sums, so they serve as a reference on
# trees of ordinary size only.  The reference evaluate quotes the node that
# raised a domain fault, cut after 200 characters, as evaluate does.

_REFERENCE_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "neg": 15, "^": 30}
_REFERENCE_CALLS = {"exp": jets.exp, "ln": jets.ln, "sin": jets.sin,
                    "cos": jets.cos, "sqrt": jets.sqrt}


def _reference_prec(node):
    if isinstance(node, Binary):
        return _REFERENCE_PREC[node.op]
    if isinstance(node, Unary):
        return _REFERENCE_PREC["neg"]
    return 100


def reference_to_source(node):
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, expr.Call):
        return f"{node.fn}({', '.join(reference_to_source(a) for a in node.args)})"
    if isinstance(node, Unary):
        child = reference_to_source(node.child)
        if isinstance(node.child, Binary) and node.child.op != "^":
            child = f"({child})"
        return f"-{child}"
    left, right = reference_to_source(node.left), reference_to_source(node.right)
    p = _REFERENCE_PREC[node.op]
    if node.op == "^":
        if _reference_prec(node.left) <= p:
            left = f"({left})"
        if isinstance(node.right, Binary) and node.right.op != "^":
            right = f"({right})"
        return f"{left}^{right}"
    if _reference_prec(node.left) < p:
        left = f"({left})"
    if _reference_prec(node.right) <= p:
        right = f"({right})"
    return f"{left} {node.op} {right}"


def reference_free_names(node):
    if isinstance(node, Const):
        return set()
    if isinstance(node, Name):
        return {node.ident}
    if isinstance(node, Unary):
        return reference_free_names(node.child)
    if isinstance(node, Binary):
        return reference_free_names(node.left) | reference_free_names(node.right)
    out = set()
    for a in node.args:
        out |= reference_free_names(a)
    return out


def reference_evaluate(node, ctx):
    return _reference_eval(node, ctx)


_REFERENCE_BINARY = {"+": operator.add, "-": operator.sub,
                     "*": operator.mul, "/": jets.divide, "^": jets.power}


def _reference_eval(node, ctx):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Name):
        return ctx.resolve(node.ident)
    if isinstance(node, Unary):
        return -_reference_eval(node.child, ctx)
    if isinstance(node, Binary):
        fn = _REFERENCE_BINARY[node.op]
        args = (_reference_eval(node.left, ctx),
                _reference_eval(node.right, ctx))
    else:
        fn = jets.power if node.fn == "pow" else _REFERENCE_CALLS[node.fn]
        args = tuple(_reference_eval(a, ctx) for a in node.args)
    try:
        return fn(*args)
    except jets.JetDomainError as err:
        # the node that raised, its full source cut after 200 characters
        source = reference_to_source(node)
        if len(source) > 200:
            source = source[:200] + "..."
        raise expr.ExprEvalError(str(err), source) from err


def bits(value):
    """A float, array or jet as its type and raw bytes (a jet's
    coefficients), so two values compare equal exactly when every bit,
    zero signs and NaN payloads included, is the same."""
    if isinstance(value, jets.Jet):
        return (type(value), value.num_vars, value.order, bits(value.coeffs))
    a = np.ascontiguousarray(value)
    return (type(value), a.dtype.str, a.shape, a.tobytes())


def outcome(fn, *args):
    """bits of fn(*args), or the type and message of what it raised."""
    try:
        return bits(fn(*args))
    except (expr.ExprError, ArithmeticError) as err:
        return type(err), str(err)


def long_mirror_metric():
    """A metric on (u, v) in (0.5, 1)^2 whose two off-diagonal entries are
    one long source text, a sum of 5000 terms: too deep a tree for a
    recursive structural comparison."""
    big = " + ".join(["0.00001*u"] * 5000)
    off = "0.01*u*v + " + big
    dom = ChartDomain(("u", "v"), ((0.5, 1.0), (0.5, 1.0)))
    return dom, RiemannianMetric.from_components(
        dom, [["2 + " + big, off], [off, "2"]])
