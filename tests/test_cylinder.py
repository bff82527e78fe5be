import numpy as np
import pytest

from bitension import cylinder, expr, geometry, jets, surfaces
from bitension.charts import DomainError
from bitension.conformal import conformal_metric
from bitension.cylinder import CylinderParams

import support


def test_closed_form_exponential_members():
    grow = CylinderParams(1.0, 0.0, 2.0, 1, (0.0, 1.0))
    z = np.linspace(0.0, 1.0, 9)
    assert support.relative_error(
        cylinder.lambda_sq_closed_form(grow, z), np.exp(z)) < 1e-15
    decay = CylinderParams(1.5, 0.0, 2.0, -1, (0.0, 1.0))
    assert support.relative_error(
        cylinder.lambda_sq_closed_form(decay, z), np.exp(-z / 1.5)) < 1e-15
    both = CylinderParams(1.0, -1.0, 1.0, 1, (0.0, 1.0))
    assert support.relative_error(
        cylinder.lambda_sq_closed_form(both, z), np.cosh(z)) < 1e-15


@pytest.mark.parametrize("params", [
    CylinderParams(1.0, 0.0, 2.0, 1, (0.0, 1.0)),
    CylinderParams(0.7, -1.0, 1.3, 1, (0.0, 1.0)),
    CylinderParams(2.0, 3.0, -2.0, -1, (-1.0, 1.0)),
])
def test_expression_solves_the_ode(params):
    # evaluate the squared factor as a z-jet and check (lam^2)'' = lam^2/R^2
    lam = cylinder.lambda_factor(params)
    z = np.linspace(*params.z_range, 11)
    zjet = jets.Jet.variable(0, z, 1, 4)
    ctx = expr.EvalContext({"z": zjet}, lam.parameters)
    lam_sq = expr.evaluate(expr.Binary("^", lam.ast, expr.Const(2.0)), ctx)
    ddz = lam_sq.derivative(0).derivative(0)
    assert support.relative_error(
        ddz.value, lam_sq.value / params.radius ** 2) < 1e-12
    assert support.relative_error(
        lam_sq.value, cylinder.lambda_sq_closed_form(params, z)) < 1e-13


def test_parameter_validation():
    with pytest.raises(ValueError, match="c2"):
        CylinderParams(1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="radius"):
        CylinderParams(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="branch"):
        CylinderParams(1.0, 0.0, 1.0, 3)
    with pytest.raises(ValueError, match="z range"):
        CylinderParams(1.0, 0.0, 1.0, 1, (1.0, 1.0))


def test_positivity_reports_crossing():
    vanishing = CylinderParams(1.0, 4.0, 2.0, 1, (0.0, 2.0))  # 2 sinh z
    with pytest.raises(DomainError, match="z = 0"):
        cylinder.check_positive(vanishing)
    fine = CylinderParams(1.0, 4.0, 2.0, 1, (0.5, 2.0))
    assert cylinder.check_positive(fine) > 1.0


@pytest.mark.parametrize("sign,value", [(1, "inf"), (-1, "nan")])
def test_positivity_rejects_a_non_finite_factor(sign, value):
    # at R = 0.001, exp(z/R) overflows where z > 0.7098: with C1 = 0 the
    # growing branch reads inf there and the decaying one 0 * inf = nan
    params = CylinderParams(0.001, 0.0, 2.0, sign, (0.0, 1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        vals = cylinder.lambda_sq_closed_form(params,
                                              np.linspace(0.0, 1.0, 257))
        first = np.linspace(0.0, 1.0, 257)[np.argmin(np.isfinite(vals))]
        with pytest.raises(DomainError, match=f"lambda\\^2 = {value} near "
                                              f"z = {first:g}"):
            cylinder.check_positive(params)


@pytest.mark.parametrize("sign", [1, -1])
def test_positivity_decides_under_raised_floating_errors(sign):
    # the CLI raises overflow and invalid values: the check still rejects
    # the member with its DomainError, and leaves the caller's errstate
    params = CylinderParams(0.001, 0.0, 2.0, sign, (0.0, 1.0))
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(DomainError, match="not positive and finite"):
            cylinder.check_positive(params)
        with pytest.raises(FloatingPointError):
            np.exp(np.float64(800.0))


def test_rk4_matches_closed_form():
    params = CylinderParams(1.0, 0.0, 2.0, 1, (0.0, 1.0))
    run = cylinder.solve_ode(params, steps=256)
    assert run.deviation < 1e-8
    assert run.first_integral_drift < 1e-10
    assert support.relative_error(run.values, np.exp(run.z)) < 1e-8


def test_rk4_fourth_order_convergence():
    params = CylinderParams(1.0, 0.0, 2.0, 1, (0.0, 1.0))
    errs = [cylinder.solve_ode(params, steps=n).deviation
            for n in (32, 64, 128)]
    assert 12.0 < errs[0] / errs[1] < 20.0
    assert 12.0 < errs[1] / errs[2] < 20.0


def test_rk4_from_custom_initial_data():
    # y(0) = 1, y'(0) = 0 lies on the cosh branch
    params = CylinderParams(1.0, 0.0, 1.0, 1, (0.0, 1.5))
    run = cylinder.solve_ode(params, y0=1.0, y0prime=0.0, steps=256)
    assert support.relative_error(run.values, np.cosh(run.z)) < 1e-9
    assert run.first_integral_drift < 1e-10
    with pytest.raises(ValueError, match="16"):
        cylinder.solve_ode(params, steps=8)
    # rejected before linspace is asked for a grid of that many steps
    with pytest.raises(cylinder.ParameterError, match="at most 10000000"):
        cylinder.solve_ode(params, steps=10 ** 20)


def test_branch_fit_prefers_nonzero_constant():
    c1, c2, sign = cylinder.fit_from_initial(2.0, 0.0, 1.0, -0.5)
    assert sign == -1 and c2 == 2.0 and abs(c1) < 1e-15
    with pytest.raises(ValueError, match="zero initial"):
        cylinder.fit_from_initial(1.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("params", [
    CylinderParams(1.3, 0.0, 2.0, -1, (-1.0, 1.0)),
    CylinderParams(1.0, -1.0, 1.0, 1, (0.0, 1.5)),   # cosh member
    CylinderParams(0.5, 1.0, 2.0, 1, (0.0, 1.0)),
])
def test_family_members_are_proper_biharmonic(params):
    phi, gbar, h = cylinder.round_cylinder(params.radius, params.z_range)
    g = conformal_metric(gbar, cylinder.lambda_factor(params))
    dom = phi.domain
    pts = dom.sample(64, 21)
    probe = geometry.conformality_factor(phi, g, h, pts)
    assert probe.conformal
    assert support.relative_error(
        probe.lambda_sq,
        cylinder.lambda_sq_closed_form(params, pts[:, 1])) < 1e-12
    tau2 = geometry.bitension_field(phi, g, h, pts)
    assert np.max(np.abs(tau2)) < 1e-7
    tau = geometry.tension_field(phi, g, h, pts)
    state = geometry.MapState(phi, g, h, pts, 2)
    norms = np.sqrt(state.target_inner(tau, tau))
    assert np.min(norms) > 1e-3


def test_family_member_satisfies_surface_system():
    params = CylinderParams(1.3, 0.0, 2.0, -1, (-1.0, 1.0))
    phi, gbar, h = cylinder.round_cylinder(params.radius, params.z_range)
    lam = cylinder.lambda_factor(params)
    pts = phi.domain.sample(32, 22)
    sd = surfaces.surface_data(phi, gbar, h, pts)
    tangential, normal = surfaces.r3_system_residual(
        sd, lam, geometry.MapState(phi, conformal_metric(gbar, lam), h, pts,
                                   3))
    assert np.max(np.abs(tangential)) < 1e-8
    assert np.max(np.abs(normal)) < 1e-8


@pytest.mark.parametrize("radius", [0.0, -1.0, -2.0, float("nan")])
def test_the_round_cylinder_needs_a_positive_radius(radius):
    with pytest.raises(cylinder.ParameterError,
                       match="radius must be positive"):
        cylinder.round_cylinder(radius, (0.0, 1.0))
