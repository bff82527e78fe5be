"""Conformal rescalings gbar = F^-2 g and their effect on tension-type operators.

A factor F is one value, a :class:`ConformalFactor` carrying its tree and
the parameters it reads; every function that takes a factor takes that,
or a source string or tree with no parameters.

Every *_transform_rhs function evaluates the g-side of a transformation law --
all gradients, Laplacians and covariant derivatives taken with respect to the
original metric g -- so the result can be compared against a direct computation
carried out with the rescaled metric.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import expr, jets
from .charts import ChartDomain, DomainError, RiemannianMetric, SmoothMap, \
    VectorFieldAlongMap
from .geometry import GeometryInputError, MapState

__all__ = [
    "ConformalFactor", "conformal_metric", "law_sides",
    "tension_transform_rhs", "jacobi_transform_rhs", "bitension_transform_rhs",
    "bitension_transform_rhs_dim2", "harmonic_biharmonic_condition",
    "conformal_immersion_residual", "conformal_immersion_residual_dim2",
    "random_transform_family",
]


@dataclass(frozen=True)
class ConformalFactor:
    """A positive scale function on the domain chart, written in its
    coordinates, with the parameters it reads."""

    ast: object
    parameters: dict = field(default_factory=dict)

    @classmethod
    def of(cls, source):
        """``source`` itself when it is a factor, else the factor of a
        source string or tree with no parameters."""
        if isinstance(source, cls):
            return source
        return cls(expr.parse(source) if isinstance(source, str) else source)

    def reciprocal(self):
        return ConformalFactor(expr.Binary("/", expr.Const(1.0), self.ast),
                               dict(self.parameters))


class _FactorData:
    """Derived quantities of ln F at the points of a map state."""

    def __init__(self, state, source):
        self.factor = ConformalFactor.of(source)
        fj = state.scalar_jet(self.factor.ast, self.factor.parameters)
        self.values = np.asarray(fj.value, dtype=float)
        outside = self.values <= 0.0
        if np.any(outside):
            worst = float(np.min(self.values))
            err = DomainError(
                f"conformal factor must stay positive (found {worst:g})")
            err.outside = outside
            raise err
        lnf = jets.ln(fj)
        self.grad = state.gradient_jets(lnf)
        self.grad_values = jets.stack_values(self.grad)
        self.laplacian = state.scalar_laplacian(lnf).value
        self.grad_norm_sq = state.domain_inner(self.grad_values,
                                               self.grad_values)
        self._state = state

    @cached_property
    def pushed(self):
        """dphi(grad ln F), as target-frame jets."""
        return self._state.dphi_apply(self.grad)

    @cached_property
    def pushed_values(self):
        return jets.stack_values(self.pushed)


def conformal_metric(g, factor):
    """The metric F^-2 g: g's components, g's and F's parameters and the
    factor F, or F_1 F_2 when g is already F_1^-2 times its components."""
    fac = ConformalFactor.of(factor)
    f = fac.ast if g.factor is None else expr.Binary("*", g.factor, fac.ast)
    return RiemannianMetric(g.domain, g.components,
                            {**g.parameters, **fac.parameters}, f)


def _tension_rhs(state, fac):
    inner = state.tension_values - (state.m - 2.0) * fac.pushed_values
    return fac.values[..., None] ** 2 * inner


def _jacobi_rhs(state, fac, fld):
    section = state.section_from_field(fld)
    return fac.values[..., None] ** 2 * (
        state.jacobi_of(section)
        + (state.m - 2.0) * state.directional_covariant(fac.grad, section))


def _bitension_rhs(state, fac):
    m = state.m
    tau_jets = state.tension_jets
    tau = state.tension_values
    jac_pushed = state.jacobi_of(fac.pushed)
    slide_pushed = state.directional_covariant(fac.grad, fac.pushed)
    slide_tau = state.directional_covariant(fac.grad, tau_jets)
    a = fac.laplacian - (m - 4.0) * fac.grad_norm_sq
    inner = (state.bitension_values
             + (m - 2.0) * jac_pushed
             + 2.0 * a[..., None] * tau
             - (m - 6.0) * slide_tau
             - 2.0 * (m - 2.0) * a[..., None] * fac.pushed_values
             + (m - 2.0) * (m - 6.0) * slide_pushed)
    return fac.values[..., None] ** 4 * inner


def tension_transform_rhs(phi, g, h, factor, x):
    """g-side of the tension law: F^2 {tau(phi,g) - (m-2) dphi(grad ln F)}."""
    state = MapState(phi, g, h, x, 2)
    return _tension_rhs(state, _FactorData(state, factor))


def jacobi_transform_rhs(phi, g, h, factor, fld, x):
    """g-side of the Jacobi law: F^2 J(X) + F^2 (m-2) nabla_{grad ln F} X."""
    state = MapState(phi, g, h, x, 3)
    return _jacobi_rhs(state, _FactorData(state, factor), fld)


def bitension_transform_rhs(phi, g, h, factor, x):
    """g-side of the bitension law, valid in every dimension."""
    state = MapState(phi, g, h, x, 4)
    return _bitension_rhs(state, _FactorData(state, factor))


def bitension_transform_rhs_dim2(phi, g, h, factor, x):
    """Two-dimensional specialization of the bitension law.

    F^4 {tau^2 + 2(Lap ln F + 2|grad ln F|^2) tau + 4 nabla_{grad ln F} tau},
    written out separately rather than reusing the general formula.
    """
    state = MapState(phi, g, h, x, 4)
    if state.m != 2:
        raise GeometryInputError("dimension-2 form requires a 2d domain, "
                                 f"got m={state.m}")
    fac = _FactorData(state, factor)
    tau = state.tension_values
    slide_tau = state.directional_covariant(fac.grad, state.tension_jets)
    b = fac.laplacian + 2.0 * fac.grad_norm_sq
    inner = state.bitension_values + 2.0 * b[..., None] * tau + 4.0 * slide_tau
    return fac.values[..., None] ** 4 * inner


def law_sides(phi, g, h, fld, factor, x):
    """Both sides of all three conformal-change laws, from two shared states.

    Returns ``{"tension": (direct, rhs), "jacobi": ..., "bitension": ...}``
    in that order.  Every direct side is read from one order-4 state on the
    rescaled metric conformal_metric(g, factor), every g-side from one
    order-4 state on g.  The g-state is built with :meth:`MapState.on`, so
    the two share their map side (the stages that read no domain metric,
    which give the same bits either way) and keep their domain-metric
    stages apart, as the laws compare them.  The rescaled state is built
    first, so its errors come first.  ``fld`` is the section the Jacobi law
    is applied to.  Each side is bitwise equal to its one-shot
    (geometry.tension_field etc. on the rescaled metric, the
    *_transform_rhs functions), whose lower orders give the same low-degree
    coefficients.
    """
    factor = ConformalFactor.of(factor)
    bar = MapState(phi, conformal_metric(g, factor), h, x, 4)
    state = bar.on(g)
    fac = _FactorData(state, factor)
    return {
        "tension": (bar.tension_values, _tension_rhs(state, fac)),
        "jacobi": (bar.jacobi_of(bar.section_from_field(fld)),
                   _jacobi_rhs(state, fac, fld)),
        "bitension": (bar.bitension_values, _bitension_rhs(state, fac)),
    }


def harmonic_biharmonic_condition(phi, g, h, factor, x):
    """Residual whose vanishing makes a g-harmonic map biharmonic for F^-2 g.

    J(dphi(grad ln F)) + (m-6) nabla_{grad ln F} dphi(grad ln F)
    - 2(Lap ln F - (m-4)|grad ln F|^2) dphi(grad ln F), for m != 2 only.
    """
    state = MapState(phi, g, h, x, 3)
    if state.m == 2:
        raise GeometryInputError("the harmonic-to-biharmonic criterion needs "
                                 "m != 2")
    worst = float(np.max(np.abs(state.tension_values)))
    if worst >= 1e-8:
        raise GeometryInputError("input map is not harmonic for g "
                                 f"(|tension| up to {worst:g})")
    fac = _FactorData(state, factor)
    m = state.m
    jac_pushed = state.jacobi_of(fac.pushed)
    slide_pushed = state.directional_covariant(fac.grad, fac.pushed)
    a = fac.laplacian - (m - 4.0) * fac.grad_norm_sq
    return (jac_pushed + (m - 6.0) * slide_pushed
            - 2.0 * a[..., None] * fac.pushed_values)


# the conformal-immersion criterion's tolerance on the pullback residual and
# on the given factor against the measured one
_CONFORMAL_TOL = 1e-8


def _immersion_states(phi, g, h, lam, x):
    """The order-4 states of a conformal immersion on g and on the isometric
    metric gbar = lambda^2 g, sharing one map side, with the factor data of
    lambda and lambda^2.

    Raises GeometryInputError unless phi is conformal for g, h and the given
    factor lambda matches the measured conformal factor.
    """
    state = MapState(phi, g, h, x, 4)
    fit = state.conformality()
    if not (fit.max_residual <= _CONFORMAL_TOL and np.all(fit.lambda_sq > 0)):
        raise GeometryInputError("map is not a conformal immersion for g, h "
                                 f"(pullback residual {fit.max_residual:g})")
    data = _FactorData(state, lam)
    lam_sq = data.values ** 2
    mismatch = np.max(np.abs(lam_sq - fit.lambda_sq)
                      / (1.0 + np.abs(fit.lambda_sq)))
    if mismatch > _CONFORMAL_TOL:
        raise GeometryInputError("given factor disagrees with the measured "
                                 f"conformal factor (off by {mismatch:g})")
    gbar = conformal_metric(g, data.factor.reciprocal())
    return state, data, lam_sq, state.on(gbar)


def conformal_immersion_residual(phi, g, h, lam, x):
    """Left minus right of the biharmonicity criterion for a conformal
    immersion; zero iff the conformal immersion is biharmonic.

    For phi with pullback metric lambda^2 g the left side is
    lambda^4 tau^2(phi, gbar) of the associated isometric immersion
    (gbar = lambda^2 g, mean curvature section eta = tau(phi,gbar)/m), and the
    right side collects the g-side terms
    -(m-2) J(dphi(grad ln lambda))
    + 2m lambda^2 (-Lap ln lambda - 2|grad ln lambda|^2) eta
    + m(m-6) lambda^2 nabla_{grad ln lambda} eta.
    Left minus right equals tau^2(phi, g).
    """
    state, data, lam_sq, iso = _immersion_states(phi, g, h, lam, x)
    m = state.m
    lhs = lam_sq[..., None] ** 2 * iso.bitension_values
    eta_jets = [t * (1.0 / m) for t in iso.tension_jets]
    eta = jets.stack_values(eta_jets)
    jac_pushed = state.jacobi_of(data.pushed)
    slide_eta = state.directional_covariant(data.grad, eta_jets)
    shrink = -data.laplacian - 2.0 * data.grad_norm_sq
    rhs = (-(m - 2.0) * jac_pushed
           + 2.0 * m * (lam_sq * shrink)[..., None] * eta
           + m * (m - 6.0) * lam_sq[..., None] * slide_eta)
    return lhs - rhs


def conformal_immersion_residual_dim2(phi, g, h, lam, x):
    """Surface form of the criterion: lambda^2 tau^2(phi,gbar)
    + 4(Lap ln lambda + 2|grad ln lambda|^2) eta + 8 nabla_{grad ln lambda} eta.

    Equals the general residual divided by lambda^2 when m = 2.
    """
    if phi.domain.dim != 2:
        raise GeometryInputError("surface criterion requires a 2d domain, "
                                 f"got m={phi.domain.dim}")
    state, data, lam_sq, iso = _immersion_states(phi, g, h, lam, x)
    eta_jets = [t * 0.5 for t in iso.tension_jets]
    eta = jets.stack_values(eta_jets)
    slide_eta = state.directional_covariant(data.grad, eta_jets)
    grow = data.laplacian + 2.0 * data.grad_norm_sq
    return (lam_sq[..., None] * iso.bitension_values
            + 4.0 * grow[..., None] * eta + 8.0 * slide_eta)


def random_transform_family(m, count, rng, n=None):
    """A batched family of randomized (phi, g, h, X, F) cases on one chart.

    Expression skeletons are fixed per dimension; the `count` cases differ by
    parameter draws stored as (count, 1) arrays, so one evaluation over points
    of shape (count, samples) covers the whole family.  Metrics stay positive
    definite by diagonal dominance, maps land inside the target box, and the
    factor is an exponential, hence positive.  The target dimension defaults
    to m + 1 but any n >= 2 works.
    """
    if m < 2:
        raise GeometryInputError("need a domain dimension of at least 2")
    n = m + 1 if n is None else int(n)
    if n < 2:
        raise GeometryInputError("need a target dimension of at least 2")
    coords = tuple(f"x{i+1}" for i in range(m))
    dom = ChartDomain(coords, ((-0.4, 0.4),) * m)
    tgt = ChartDomain(tuple(f"y{a+1}" for a in range(n)), ((-2.0, 2.0),) * n)
    params = {}

    def draw(name, width):
        params[name] = rng.uniform(-width, width, size=(count, 1))
        return name

    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            if i == j:
                row.append(f"1 + {draw(f'g{i}d', 0.15)}*sin(x{i+1})"
                           f" + {draw(f'g{i}q', 0.1)}*x{(i % m) + 1}^2")
            elif i < j:
                row.append(f"{draw(f'g{i}{j}o', 0.08)}*x{i+1}*x{j+1}")
            else:
                row.append(rows[j][i])
        rows.append(row)
    g = RiemannianMetric.from_components(dom, rows, dict(params))

    comps = []
    for a in range(n):
        if a < m:
            b = (a + 1) % m
            comps.append(f"x{a+1} + {draw(f'p{a}', 0.25)}*sin(x{b+1})")
        else:
            other = m - (a - m) % m
            comps.append(f"{draw(f'p{a}', 0.3)}*x1*x{other}")
    phi = SmoothMap.from_components(dom, tgt, comps, dict(params))

    h = RiemannianMetric.conformally_flat(
        tgt, f"exp({draw('hl', 0.25)}*y1 + {draw('hq', 0.2)}*y2*y{n})",
        dict(params))

    fld = VectorFieldAlongMap.from_components(
        tuple(f"{draw(f'v{a}c', 0.5)} + {draw(f'v{a}x', 0.4)}"
              f"*x{(a % m) + 1}*x1" for a in range(n)),
        dict(params))

    factor = ConformalFactor(expr.parse(
        f"exp({draw('fc', 0.2)} + {draw('fl', 0.3)}*x1"
        f" + {draw('fq', 0.2)}*x{m}^2)"), dict(params))
    return dom, g, h, phi, fld, factor
