"""Named verification cases: closed-form geometries with checkable claims.

Each case bundles a map, its metrics, and a list of expectations — residuals
that must vanish, magnitudes that must not — evaluated at low-discrepancy
sample points.  ``CHECK_KINDS`` is the one table of check kinds: the mode,
default tolerance, needed inputs and evaluator of each.  Every named case,
negative control and ad-hoc ``custom_case`` is assembled from it by one step.
Every case also has a deliberately broken variant whose key check fails
loudly, so a green report can't be vacuous.  ``build_case`` and
``negative_control`` bind parameters by one step, which takes only the
parameters a builder or control owns: the switches that break a case stay
inside its control.
"""

import functools
import inspect
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from . import cylinder, jets, surfaces, weierstrass
from . import expr as expr_mod
from .charts import ChartDomain, DomainError, RiemannianMetric, SmoothMap
from .conformal import ConformalFactor, conformal_metric
from .cylinder import CylinderParams
from .expr import ExprEvalError
from .geometry import GeometryInputError, MapState, MetricError, error_text
from .report import (VERSION, CheckRecord, VerificationReport,
                     check_record)


class CaseError(ValueError):
    """A case, negative control or check that its name, parameters or
    inputs do not describe: an input error, not a failed check."""


@dataclass(frozen=True)
class Expectation:
    check: str
    tol: float
    mode: str  # "max": value must stay below tol; "min": must exceed it


class VerificationCase:
    """A named geometry plus expectations with their evaluators."""

    def __init__(self, name, domain, params, entries, geometry=None):
        self.name = name
        self.domain = domain
        self.params = dict(params)
        self._entries = tuple(entries)
        self.geometry = geometry  # (map, domain metric, target metric)

    @property
    def expectations(self):
        return tuple(e for e, _ in self._entries)


# -- evaluators ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Inputs:
    """What a case's checks read: the map and its metrics, the immersion's
    induced metric and conformal factor lambda (a
    :class:`conformal.ConformalFactor` or a source with no parameters),
    ``lambda_sq`` (points -> lambda^2) and chen_match's engine-side metric.
    """
    phi: SmoothMap
    g: RiemannianMetric
    h: RiemannianMetric
    induced: RiemannianMetric
    factor: object
    lambda_sq: object
    engine: RiemannianMetric


class _SharedStates:
    """Order-4 map states at one batch of points, shared by a case's checks.

    States are keyed by the identity of their (map, domain metric, target
    metric) objects, which hold dicts and so cannot be hashed.  The states
    of one (map, target metric) share one map side: the first that builds,
    their kin, lends it to the others (:meth:`MapState.on`).  A build that
    raises is not kept: every check that needs it fails on its own, and a
    domain metric that cannot be built fails only the checks that read it.
    """

    def __init__(self, pts):
        self.pts = pts
        self._built = {}

    def _get(self, kind, key, build):
        key = (kind,) + tuple(id(obj) for obj in key)
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def map(self, phi, g, h):
        kin = self._get("kin", (phi, h),
                        lambda: MapState(phi, g, h, self.pts, 4))
        return self._get("map", (phi, g, h),
                         lambda: kin if kin.g is g else kin.on(g))

    def surface(self, phi, g, h):
        return self._get("surface", (phi, g, h),
                         lambda: surfaces.SurfaceData(self.map(phi, g, h)))

    def section(self, phi, g, h):
        return self._get("section", (phi, g, h),
                         lambda: weierstrass.section_of(self.map(phi, g, h)))

    def r3(self, src):
        # both r3 checks of a case read this one residual computation
        return self._get("r3", (src,), lambda: surfaces.r3_system_residual(
            self.surface(src.phi, src.induced, src.h), src.factor,
            self.map(src.phi, src.g, src.h)))


def _tension(src, states):
    state = states.map(src.phi, src.g, src.h)
    tau = state.tension_values
    mags = np.sqrt(state.target_inner(tau, tau))
    return mags, mags


def _bitension(src, states):
    state = states.map(src.phi, src.g, src.h)
    tau2 = state.bitension_values
    tau = state.tension_values
    mags = np.sqrt(state.target_inner(tau2, tau2))
    scale = 1.0 + np.sqrt(state.target_inner(tau, tau))
    return mags, mags / scale


def _recovery(src, states):
    fit = states.map(src.phi, src.g, src.h).conformality()
    want = src.lambda_sq(states.pts)
    # the fit's residual over the points (the last batch axis) of each member
    top = np.max([fit.residual, fit.scale], axis=-1, keepdims=True)
    diff = np.abs(fit.lambda_sq - want) + top[0] / (1.0 + top[1])
    return diff, diff / (1.0 + np.abs(want))


def _r3_scaled(src, states, v):
    hv = states.surface(src.phi, src.induced, src.h).mean_curvature_values
    return v, v / (1.0 + np.abs(hv))


def _r3_tangential(src, states):
    tan = states.r3(src)[0]
    return _r3_scaled(src, states, np.sqrt(np.sum(tan ** 2, axis=-1)))


def _r3_normal(src, states):
    return _r3_scaled(src, states, np.abs(states.r3(src)[1]))


def _lane(read):
    """The evaluator of a figure that ``read`` takes from the section."""
    def evaluate(src, states):
        v = read(states.section(src.phi, src.g, src.h))
        return v, v
    return evaluate


# each reader looks its weierstrass function up when it runs
_w1 = _lane(lambda ws: np.abs(weierstrass.conformality_sums(ws)[0]))
_immersion_scale = _lane(lambda ws: weierstrass.conformality_sums(ws)[1])
_w3 = _lane(lambda ws: np.max(np.abs(weierstrass.w3_residual(ws)), axis=-1))
_nonholomorphic = _lane(lambda ws: weierstrass.nonholomorphicity(ws))


def _chen(src, states):
    induced = src.g if src.induced is None else src.induced
    chen = surfaces.chen_bitension(states.surface(src.phi, induced, src.h))
    state = states.map(src.phi, src.engine, src.h)
    diff = chen - state.bitension_values
    v = np.sqrt(state.target_inner(diff, diff))
    scale = 1.0 + np.sqrt(state.target_inner(chen, chen))
    return v, v / scale


# kind -> (comparison mode, default tolerance, inputs it needs, evaluator).
# "max": the value must stay below the tolerance; "min": it must exceed it.
# chen_match reads ``induced`` when given and the domain metric otherwise.
CHECK_KINDS = {
    "tension_zero": ("max", 1e-7, (), _tension),
    "tension_nonzero": ("min", 1e-3, (), _tension),
    "bitension_zero": ("max", 1e-7, (), _bitension),
    "bitension_nonzero": ("min", 1e-3, (), _bitension),
    "w1_zero": ("max", 1e-12, (), _w1),
    "w3_zero": ("max", 1e-9, (), _w3),
    "nonholomorphic": ("min", 0.1, (), _nonholomorphic),
    "chen_match": ("max", 1e-7, (), _chen),
    "r3_tangential": ("max", 1e-8, ("factor", "induced"), _r3_tangential),
    "r3_normal": ("max", 1e-8, ("factor", "induced"), _r3_normal),
    "conformal_recovery": ("max", 1e-12, ("factor",), _recovery),
}


def _factor_sq_values(domain, source):
    factor = ConformalFactor.of(source)

    def run(pts):
        variables = {c: pts[..., i] for i, c in enumerate(domain.coords)}
        lam = expr_mod.evaluate(factor.ast, expr_mod.EvalContext(
            variables, factor.parameters))
        return np.asarray(lam, dtype=float) ** 2

    return run


def _assemble(name, params, phi, g, h, checks, induced=None, factor=None,
              lambda_sq=None, engine=None):
    """The case whose checks are the (kind, tolerance-or-None) pairs of
    ``checks``, each evaluated as CHECK_KINDS says.  ``lambda_sq`` defaults
    to the square of ``factor`` and ``engine`` to ``g``."""
    if lambda_sq is None and factor is not None:
        lambda_sq = _factor_sq_values(phi.domain, factor)
    src = _Inputs(phi, g, h, induced, factor, lambda_sq,
                  g if engine is None else engine)
    entries = []
    for kind, tol in checks:
        if kind not in CHECK_KINDS:
            known = ", ".join(sorted(CHECK_KINDS))
            raise CaseError(f"unknown check '{kind}' (choose from {known})")
        mode, default, needs, evaluate = CHECK_KINDS[kind]
        missing = [key for key in needs if getattr(src, key) is None]
        if missing:
            raise CaseError(f"check '{kind}' needs {' and '.join(missing)}")
        entries.append((Expectation(kind, default if tol is None
                                    else float(tol), mode),
                        functools.partial(evaluate, src)))
    return VerificationCase(name, phi.domain, params, entries,
                            geometry=(phi, g, h))


def _defaults(*kinds):
    return [(kind, None) for kind in kinds]


# -- case builders -------------------------------------------------------------
# Keyword-only arguments are the switches of the negative controls: they are
# not case parameters, so neither build_case nor negative_control accepts them.


def _h5_inclusion(*, power=2.0):
    dom = ChartDomain(tuple(f"x{i}" for i in range(1, 5)), ((0.5, 2.0),) * 4)
    tgt = ChartDomain(tuple(f"y{i}" for i in range(1, 6)), ((0.4, 2.4),) * 5)
    h = RiemannianMetric.conformally_flat(tgt, f"1/y5^{power!r}")
    g = RiemannianMetric.euclidean(dom)
    phi = SmoothMap.from_components(dom, tgt, ("1", "x1", "x2", "x3", "x4"))
    return _assemble("h5_inclusion", {}, phi, g, h,
                     _defaults("bitension_zero", "tension_nonzero"))


def _s5_stereographic(*, bend=False):
    dom = ChartDomain(tuple(f"u{i}" for i in range(1, 5)), ((-2.0, 2.0),) * 4)
    tgt = ChartDomain(tuple(f"y{i}" for i in range(1, 6)), ((-2.2, 2.2),) * 5)
    square_sum = "+".join(f"y{i}^2" for i in range(1, 6))
    h = RiemannianMetric.conformally_flat(tgt, f"4/(1+{square_sum})^2")
    g = RiemannianMetric.euclidean(dom)
    last = "0.2*u1^2" if bend else "0"
    phi = SmoothMap.from_components(dom, tgt, ("u1", "u2", "u3", "u4", last))
    return _assemble("s5_stereographic", {}, phi, g, h,
                     _defaults("bitension_zero", "tension_nonzero"))


def _cylinder_case(shown, params, phi, g, h, lam):
    # recovery compares against the closed form of lambda^2: squaring the
    # sqrt(...) of lam would move ulps
    return _assemble(
        "cylinder_family", shown, phi, g, h,
        _defaults("bitension_zero", "tension_nonzero", "r3_tangential",
                  "r3_normal", "conformal_recovery"),
        induced=cylinder.induced_metric(params, phi.domain), factor=lam,
        lambda_sq=lambda pts: cylinder.lambda_sq_closed_form(params,
                                                             pts[:, 1]))


def _cylinder_family(R=1.0, C1=0.0, C2=2.0, sign=-1):
    params = CylinderParams(float(R), float(C1), float(C2), int(sign),
                            (0.0, 1.0))
    phi, g, h = cylinder.build_family_case(params)
    return _cylinder_case({"R": R, "C1": C1, "C2": C2, "sign": sign},
                          params, phi, g, h, cylinder.lambda_factor(params))


def _broken_cylinder(R=1.0):
    """The cylinder with factor lambda^2 = exp(2z/R): twice the decay rate
    the solution family allows."""
    radius = float(R)
    params = CylinderParams(radius, 0.0, 2.0, 1, (0.0, 1.0))
    phi, _, h = cylinder.build_family_case(params)
    lam = ConformalFactor(expr_mod.parse("exp(z/R)"), {"R": radius})
    g = conformal_metric(cylinder.induced_metric(params, phi.domain), lam)
    return _cylinder_case({"R": radius}, params, phi, g, h, lam)


def _wrap_case(name, copies, *, exponent=1.0):
    radius = 1.0
    dom = ChartDomain(("x", "y"), ((-2.0, 2.0), (-1.0, 1.0)))
    names = ("p", "q", "r", "s", "t", "w")[:3 * copies]
    box = (((-1.5, 1.5),) * 2 + ((-3.0, 3.0),)) * copies
    tgt = ChartDomain(names, box)
    h = RiemannianMetric.euclidean(tgt)
    phi = SmoothMap.from_components(
        dom, tgt, ("R*cos(x/R)", "R*sin(x/R)", "y") * copies, {"R": radius})
    g = RiemannianMetric.conformally_flat(
        dom, f"exp({exponent!r}*y/R)", {"R": radius})
    return _assemble(name, {}, phi, g, h,
                     _defaults("w1_zero", "w3_zero", "nonholomorphic",
                               "bitension_zero"))


def _plane_inclusion(*, bend=False):
    dom = ChartDomain(("u", "v"), ((-1.0, 1.0), (-1.0, 1.0)))
    tgt = ChartDomain(("p", "q", "r"), ((-2.0, 2.0),) * 3)
    h = RiemannianMetric.euclidean(tgt)
    third = "(u^2+v^2)/2" if bend else "0"
    phi = SmoothMap.from_components(dom, tgt, ("u", "v", third))
    g = RiemannianMetric.euclidean(dom)
    return _assemble("plane_inclusion", {}, phi, g, h,
                     _defaults("tension_zero", "bitension_zero"))


def _identity(m=3, *, bend=False):
    m = int(m)
    if not 2 <= m <= 6:
        raise CaseError("identity case supports dimensions 2..6")
    coords = tuple(f"x{i}" for i in range(1, m + 1))
    dom = ChartDomain(coords, ((-1.0, 1.0),) * m)
    tgt = ChartDomain(coords, ((-1.5, 1.5),) * m)
    g = RiemannianMetric.conformally_flat(dom, "exp(0.3*x1)")
    h = RiemannianMetric.conformally_flat(tgt, "exp(0.3*x1)")
    comps = ("x1+0.2*x1^2",) + coords[1:] if bend else coords
    phi = SmoothMap.from_components(dom, tgt, comps)
    return _assemble("identity", {"m": m}, phi, g, h,
                     _defaults("tension_zero", "bitension_zero"))


def _isometric_cylinder(R=1.0, *, engine_scale=1.0):
    radius = float(R)
    dom = ChartDomain(("theta", "z"), ((0.1, 6.0), (-1.0, 1.0)))
    tgt = ChartDomain(("rho", "psi", "w"),
                      ((0.5 * radius, 2.0 * radius + 3.0), (0.05, 6.25),
                       (-1.5, 1.5)))
    h = RiemannianMetric.from_components(
        tgt, [["1", "0", "0"], ["0", "rho^2", "0"], ["0", "0", "1"]])
    phi = SmoothMap.from_components(dom, tgt, ("R", "theta", "z"),
                                    {"R": radius})
    induced = RiemannianMetric.from_components(
        dom, [["R^2", "0"], ["0", "1"]], {"R": radius})
    scale = float(engine_scale)
    engine = RiemannianMetric.from_components(
        dom, [[f"{scale!r}*R^2", "0"], ["0", f"{scale!r}"]], {"R": radius})
    # chen_match's engine side runs on the scaled metric, while
    # tension_nonzero stays on the induced one
    return _assemble("isometric_cylinder", {"R": R}, phi, induced, h,
                     _defaults("chen_match", "tension_nonzero"),
                     engine=engine)


_BUILDERS = {
    "h5_inclusion": _h5_inclusion,
    "s5_stereographic": _s5_stereographic,
    "cylinder_family": _cylinder_family,
    "r2_wrap_r3": functools.partial(_wrap_case, "r2_wrap_r3", 1),
    "r2_wrap_r6": functools.partial(_wrap_case, "r2_wrap_r6", 2),
    "plane_inclusion": _plane_inclusion,
    "identity": _identity,
    "isometric_cylinder": _isometric_cylinder,
}

# name -> (the callable that builds the negative control, the check it must
# fail): the builder with its switch set, or a builder of its own
_CONTROLS = {
    "h5_inclusion": (functools.partial(_h5_inclusion, power=2.4),
                     "bitension_zero"),
    "s5_stereographic": (functools.partial(_s5_stereographic, bend=True),
                         "bitension_zero"),
    "cylinder_family": (_broken_cylinder, "bitension_zero"),
    "r2_wrap_r3": (functools.partial(_BUILDERS["r2_wrap_r3"], exponent=2.0),
                   "w3_zero"),
    "r2_wrap_r6": (functools.partial(_BUILDERS["r2_wrap_r6"], exponent=2.0),
                   "w3_zero"),
    "plane_inclusion": (functools.partial(_plane_inclusion, bend=True),
                        "tension_zero"),
    "identity": (functools.partial(_identity, bend=True), "tension_zero"),
    "isometric_cylinder": (functools.partial(_isometric_cylinder,
                                             engine_scale=1.69),
                           "chen_match"),
}

CASE_NAMES = tuple(sorted(_BUILDERS))


def _build(name, params, control=False):
    """Call the named case's builder, or its control's callable, with
    ``params``.  An unknown name, a parameter the callable does not take
    (keyword-only ones are switches, not parameters), a value that is
    not a number (a bool is not), a non-integral value for a parameter
    whose default is an int and a value that is not finite, or an integer
    beyond float range, raise CaseError."""
    if name not in _BUILDERS:
        known = ", ".join(CASE_NAMES)
        raise CaseError(f"unknown case '{name}' (choose from {known})")
    build = _CONTROLS[name][0] if control else _BUILDERS[name]
    signature = inspect.signature(build)
    own = [p for p in signature.parameters.values()
           if p.kind is not p.KEYWORD_ONLY]
    try:
        signature.replace(parameters=own).bind(**params)
    except TypeError as err:
        raise CaseError(f"bad parameters for '{name}': {err}")
    for key, value in params.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise CaseError(f"bad parameters for '{name}': {key} = "
                            f"{value!r} is not a number")
        if (isinstance(signature.parameters[key].default, int)
                and value % 1 != 0):
            raise CaseError(f"bad parameters for '{name}': {key} = "
                            f"{value!r} is not an integer")
        if not abs(value) <= sys.float_info.max:
            what = ("beyond float range" if isinstance(value, int)
                    else "not finite")
            raise CaseError(f"bad parameters for '{name}': {key} = "
                            f"{value!r} is {what}")
    return build(**params)


def build_case(name, **params):
    """Assemble a named case; unknown names and bad parameters raise."""
    return _build(name, params)


def negative_control(name, **params):
    """A deliberately broken variant of the named case, plus the check it
    must fail.  It takes the parameters its control keeps (``m`` for
    identity, ``R`` for both cylinders) and raises as ``build_case`` does
    on any other."""
    return _build(name, params, control=True), _CONTROLS[name][1]


def custom_case(name, phi, g, h, checks, induced=None, factor=None):
    """Assemble an ad-hoc case from raw geometry.

    ``checks`` lists (kind, tolerance-or-None) pairs drawn from CHECK_KINDS,
    which also names the inputs each kind needs: the r3 system checks need
    ``induced`` (the immersion pullback metric on the domain) and ``factor``
    (the conformal scale lambda in domain coordinates: a
    :class:`conformal.ConformalFactor` carrying the parameters it reads, or
    a source string or tree with none); conformal_recovery needs ``factor``;
    chen_match reads ``induced``, defaulting to the domain metric itself.
    A kind that is unknown or lacks an input raises CaseError.
    """
    return _assemble(name, {}, phi, g, h, checks, induced=induced,
                     factor=factor)


# -- running -------------------------------------------------------------------

# failures of the inputs at the sample points; anything else, such as a plain
# ValueError from reading a jet beyond its order, is a bug and propagates
_EVALUATION_ERRORS = (DomainError, GeometryInputError, MetricError,
                      ExprEvalError, jets.JetDomainError,
                      np.linalg.LinAlgError, FloatingPointError)


def _fault_point(err, pts):
    """The first sample (in C order) where the mask ``outside`` that the
    error (or the error behind it) carries is True: the argument mask of a
    :class:`jets.JetDomainError`, the non-finite mask of an overflow in
    ``geometry._plain_einsum``, or the mask of a :class:`DomainError` from a
    point outside its chart or a metric that is not positive definite there.
    None for other errors or a mask of another shape."""
    outside = getattr(err, "outside", getattr(err.__cause__, "outside", None))
    if outside is None or np.shape(outside) != pts.shape[:-1]:
        return None
    idx = np.unravel_index(np.argmax(outside), outside.shape)
    return tuple(float(c) for c in pts[idx])


def record(name, tol, mode, evaluate, pts):
    """The record of one check at ``pts``, from ``evaluate()``'s pair of
    per-point (values, normalized values): the one record step of every
    verify-style command.

    Evaluation runs with overflow, invalid values and division by zero
    raised.  An evaluation error makes an errored record: ``error`` says
    what was raised, and the map-state stage that raised it, if one did
    (``... in stage curvature_map``).  A jet domain fault (raised directly
    or behind an expression error) is located at the first sample whose
    argument lies outside the function's domain, a plain einsum's overflow
    at the first sample whose result is not finite, and a domain fault at
    the first sample whose point or image lies outside its chart or where
    its metric is not positive definite, read from the error
    (:func:`_fault_point`); its ``worst_point`` stays None when that mask
    does not have the samples' batch shape.  Otherwise
    :func:`report.check_record` makes the record, which is errored too when
    a value is not finite.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return check_record(name, *evaluate(), pts, tol, mode)
    except _EVALUATION_ERRORS as err:
        return CheckRecord(name, None, None, tol, False, _fault_point(err, pts),
                           f"{type(err).__name__}: {error_text(err)}")


def verify_case(case, samples=64, seed=7, tol=None):
    """Evaluate every expectation at low-discrepancy points.

    ``tol`` overrides the tolerance of residual ("max") checks only;
    magnitude checks keep their own bounds.  The checks share one map state
    per (map, domain metric, target metric), so a state that cannot be built
    errors every check that reads it.  Each check is recorded by
    :func:`record`: evaluation errors, overflow and non-finite values
    included, become errored checks.
    """
    pts = case.domain.sample(samples, seed)
    states = _SharedStates(pts)
    records = tuple(
        record(exp.check, float(tol) if tol is not None and exp.mode == "max"
               else exp.tol, exp.mode, functools.partial(evaluate, states), pts)
        for exp, evaluate in case._entries)
    return VerificationReport(VERSION, case.name, seed, samples, records,
                              all(r.passed for r in records))


def lane_records(phi, g, h, pts, tol, conformal_tol):
    """The four records of the complex-coordinate lane at ``pts``, all read
    from one section: w1_zero below ``conformal_tol``, the immersion scale
    min sum |phi_a|^2 above 0, w3_zero below ``tol`` and the holomorphy
    defect max |d phi_sec/dzbar| below 1e-10, which holds for a harmonic
    map.  The last two are figures of the lane, not check kinds."""
    src = _Inputs(phi, g, h, None, None, None, g)
    states = _SharedStates(pts)
    return tuple(
        record(name, bound, mode, functools.partial(evaluate, src, states), pts)
        for name, bound, mode, evaluate in (
            ("w1_zero", conformal_tol, "max", _w1),
            ("immersion_scale", 0.0, "min", _immersion_scale),
            ("w3_zero", tol, "max", _w3),
            ("holomorphy", 1e-10, "max", _nonholomorphic)))
