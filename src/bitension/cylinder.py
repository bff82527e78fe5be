"""The one-parameter-family of conformally biharmonic circular cylinders.

A round cylinder of radius R in flat 3-space, isometric for the induced
metric gbar = R^2 dtheta^2 + dz^2, becomes proper biharmonic for the
rescaled domain metric g = lambda^-2 gbar exactly when the factor depends
on z alone and solves (lambda^2)'' = lambda^2 / R^2.  This module carries
the closed-form solutions, an RK4 integrator for cross-checking them, and
the round cylinder itself as (map, induced metric, target metric) inputs
for the bitension engine, written once for every cylinder case.
"""

from dataclasses import dataclass

import numpy as np

from .charts import ChartDomain, DomainError, RiemannianMetric, SmoothMap
from .conformal import ConformalFactor
from .expr import parse

_GRID = 257  # positivity is checked on this many equally spaced z values
_MAX_STEPS = 10 ** 7  # solve_ode's largest step count


class ParameterError(ValueError):
    """Family parameters or integration settings that describe no run."""


@dataclass(frozen=True)
class CylinderParams:
    """Radius, the two solution constants, the exponential branch sign,
    and the z-interval of interest."""
    radius: float
    c1: float
    c2: float
    sign: int = 1
    z_range: tuple = (0.0, 1.0)

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ParameterError("radius must be positive")
        if self.c2 == 0.0:
            raise ParameterError("c2 = 0 does not describe a solution; "
                                 "both exponential branches would collapse")
        if self.sign not in (-1, 1):
            raise ParameterError(
                "sign selects an exponential branch, +1 or -1")
        lo, hi = self.z_range
        if not lo < hi:
            raise ParameterError("empty z range")
        if not np.all(np.isfinite([self.radius, self.c1, self.c2, lo, hi])):
            raise ParameterError("radius, c1, c2 and the z range must be "
                                 "finite")


def _branches(params, z):
    """The two exponential branches c2 e^{s z/R} and c1 c2^-1 R^2 e^{-s z/R}
    of the squared factor."""
    z = np.asarray(z, dtype=float)
    r, s = params.radius, params.sign
    return (params.c2 * np.exp(s * z / r),
            params.c1 / params.c2 * r ** 2 * np.exp(-s * z / r))


def lambda_sq_closed_form(params, z):
    """The squared conformal factor (c2 e^{s z/R} - c1 c2^-1 R^2 e^{-s z/R})/2."""
    grow, decay = _branches(params, z)
    return 0.5 * (grow - decay)


def lambda_sq_slope(params, z):
    """d/dz of the squared factor (used to seed the integrator exactly)."""
    grow, decay = _branches(params, z)
    return 0.5 * params.sign / params.radius * (grow + decay)


def lambda_factor(params):
    """lambda itself, in the chart coordinate z, with R, C1 and C2 bound."""
    if params.sign == 1:
        body = "0.5*(C2*exp(z/R) - C1*R^2/C2*exp(-z/R))"
    else:
        body = "0.5*(C2*exp(-z/R) - C1*R^2/C2*exp(z/R))"
    return ConformalFactor(parse(f"sqrt({body})"), {
        "R": params.radius, "C1": params.c1, "C2": params.c2})


def check_positive(params, lambda_sq=lambda_sq_closed_form):
    """Verify 0 < lambda^2 < inf across the z range, with lambda^2 read by
    ``lambda_sq(params, z)`` (the closed form of the solution family by
    default); report the first z where lambda^2 is not positive or not
    finite (an overflowed exponential reads inf, and 0 * inf reads nan).
    Overflow and invalid values are computed, not raised, whatever the
    caller's ``np.errstate``: this check rejects them, with its
    DomainError."""
    lo, hi = params.z_range
    z = np.linspace(lo, hi, _GRID)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = lambda_sq(params, z)
    bad = np.nonzero(~(np.isfinite(vals) & (vals > 0.0)))[0]
    if bad.size:
        raise DomainError("conformal factor is not positive and finite on the "
                          f"cylinder: lambda^2 = {vals[bad[0]]:g} near "
                          f"z = {z[bad[0]]:g}")
    return float(np.min(vals))


def fit_from_initial(radius, z0, y0, y0prime):
    """Constants of the closed-form solution through y(z0), y'(z0).

    Picks the branch sign that keeps c2 away from zero; the first-integral
    constant c1 = y'^2 - y^2/R^2 is branch-independent.
    """
    plus = y0 + radius * y0prime
    minus = y0 - radius * y0prime
    if plus == 0.0 and minus == 0.0:
        raise ParameterError("zero initial data only fits the zero solution")
    sign = 1 if abs(plus) >= abs(minus) else -1
    lead = plus if sign == 1 else minus
    c2 = lead * np.exp(-sign * z0 / radius)
    c1 = y0prime ** 2 - y0 ** 2 / radius ** 2
    return c1, float(c2), sign


@dataclass(frozen=True)
class OdeRun:
    """RK4 output on a uniform grid, with diagnostics against the exact
    solution through the same initial data."""
    z: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    closed_form: np.ndarray
    deviation: float          # sup |values - closed_form|
    first_integral_drift: float  # sup |y'^2 - y^2/R^2 - c1|


def solve_ode(params, y0=None, y0prime=None, steps=256):
    """Integrate y'' = y/R^2 with classical RK4 over the params z range.

    Initial data defaults to the closed-form member described by
    ``params``, so the run doubles as an independent check of the formula.
    A step count below 16 or above 10**7 raises ParameterError.
    """
    if steps < 16:
        raise ParameterError("use at least 16 steps")
    if steps > _MAX_STEPS:
        raise ParameterError(f"use at most {_MAX_STEPS} steps")
    lo, hi = params.z_range
    r = params.radius
    if y0 is None:
        y0 = float(lambda_sq_closed_form(params, lo))
    if y0prime is None:
        y0prime = float(lambda_sq_slope(params, lo))
    z = np.linspace(lo, hi, steps + 1)
    step = (hi - lo) / steps
    values = np.empty(steps + 1)
    slopes = np.empty(steps + 1)
    y, yp = float(y0), float(y0prime)
    values[0], slopes[0] = y, yp
    for k in range(steps):
        k1y, k1p = yp, y / r ** 2
        k2y, k2p = yp + 0.5 * step * k1p, (y + 0.5 * step * k1y) / r ** 2
        k3y, k3p = yp + 0.5 * step * k2p, (y + 0.5 * step * k2y) / r ** 2
        k4y, k4p = yp + step * k3p, (y + step * k3y) / r ** 2
        y += step / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        yp += step / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        values[k + 1], slopes[k + 1] = y, yp
    c1, c2, sign = fit_from_initial(r, lo, y0, y0prime)
    exact = lambda_sq_closed_form(
        CylinderParams(r, c1, c2, sign, params.z_range), z)
    drift = np.max(np.abs(slopes ** 2 - values ** 2 / r ** 2 - c1))
    return OdeRun(z, values, slopes, exact,
                  float(np.max(np.abs(values - exact))), float(drift))


def round_cylinder(radius, z_range):
    """(map, induced metric gbar, target metric) of the round cylinder of
    ``radius`` over ``z_range``: the map (R, theta, z) into a cylindrical
    chart of flat 3-space, gbar = R^2 dtheta^2 + dz^2 and the flat metric
    diag(1, rho^2, 1).  A radius that is not positive raises
    ParameterError."""
    if not radius > 0.0:
        raise ParameterError("radius must be positive")
    lo, hi = z_range
    dom = ChartDomain(("theta", "z"), ((0.1, 6.0), (lo, hi)))
    target = ChartDomain(("rho", "psi", "w"),
                         ((0.5 * radius, 2.0 * radius + 3.0), (0.05, 6.25),
                          (lo - 0.5, hi + 0.5)))
    flat3 = RiemannianMetric.from_components(
        target, [["1", "0", "0"], ["0", "rho^2", "0"], ["0", "0", "1"]])
    gbar = RiemannianMetric.from_components(
        dom, [["R^2", "0"], ["0", "1"]], {"R": radius})
    phi = SmoothMap.from_components(dom, target, ("R", "theta", "z"),
                                    {"R": radius})
    return phi, gbar, flat3
