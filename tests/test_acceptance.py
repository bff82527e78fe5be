"""Acceptance gate: the headline claims, one verdict line per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines;
each criterion asserts, so a regression fails the suite loudly.
"""
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import jsonschema
import numpy as np

import support
from bitension import catalog, cli, conformal, cylinder, geometry, report
from bitension import expr, jets, weierstrass
from bitension.charts import (ChartDomain, DomainError, RiemannianMetric,
                              SmoothMap, VectorFieldAlongMap)
from bitension.cylinder import CylinderParams
from bitension.geometry import MapState


def _line(num, passed, detail):
    print(f"criterion {num:2d}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"criterion {num} failed: {detail}"


def _record(rep, name):
    return next(c for c in rep.checks if c.name == name)


def test_criterion_01_transformation_laws():
    started = time.monotonic()
    worst = {"tension": 0.0, "jacobi": 0.0, "bitension": 0.0}
    for m in (2, 3, 4, 5):
        rng = np.random.default_rng(100 + m)
        dom, g, h, phi, fld, fac = conformal.random_transform_family(
            m, 100, rng)
        pts = dom.sample(4, 200 + m)
        x = np.broadcast_to(pts, (100,) + pts.shape)
        sides = conformal.law_sides(phi, g, h, fld, fac, x)
        for law, (direct, via) in sides.items():
            worst[law] = max(worst[law], support.relative_error(direct, via))
    elapsed = time.monotonic() - started
    top = max(worst.values())
    _line(1, top < 1e-7 and elapsed <= 30.0,
          f"conformal-change laws, 100 cases x m in 2..5: max rel "
          f"{top:.2e} (< 1e-7) in {elapsed:.1f}s (<= 30s)")


def test_criterion_02_dimension_two_form():
    rng = np.random.default_rng(321)
    dom, g, h, phi, fld, fac = conformal.random_transform_family(2, 50, rng)
    pts = dom.sample(4, 322)
    x = np.broadcast_to(pts, (50,) + pts.shape)
    general = conformal.bitension_transform_rhs(phi, g, h, fac, x)
    surface = conformal.bitension_transform_rhs_dim2(phi, g, h, fac, x)
    rel = support.relative_error(general, surface)
    _line(2, rel < 1e-12,
          f"dimension-2 bitension form vs general, 50 cases: {rel:.2e} "
          "(< 1e-12)")


def test_criterion_03_space_form_inclusions():
    results = []
    for name in ("h5_inclusion", "s5_stereographic"):
        rep = catalog.verify_case(catalog.build_case(name), samples=64)
        res = _record(rep, "bitension_zero").max_abs
        mag = _record(rep, "tension_nonzero").max_abs
        results.append((name, res, mag))
    ok = all(res < 1e-7 and mag > 1e-3 for _, res, mag in results)
    detail = "; ".join(f"{n}: tau2 {r:.1e}, |tau| {m:.2f}"
                       for n, r, m in results)
    _line(3, ok, f"hyperbolic and spherical inclusions at 64 points — "
          f"{detail}")


def test_criterion_04_cylinder_parameter_grid():
    admissible, failures = 0, []
    signs_seen = set()
    for radius in (0.5, 1.0, 2.0):
        for c1 in (-1.0, 0.0, 1.0):
            for c2 in (1.0, 2.0):
                for sign in (1, -1):
                    try:
                        case = catalog.build_case(
                            "cylinder_family", R=radius, C1=c1, C2=c2,
                            sign=sign)
                    except DomainError:
                        continue
                    admissible += 1
                    signs_seen.add(sign)
                    rep = catalog.verify_case(case, samples=64)
                    checks = {
                        "bitension_zero": (1e-7, "max"),
                        "tension_nonzero": (1e-3, "min"),
                        "r3_tangential": (1e-8, "max"),
                        "r3_normal": (1e-8, "max"),
                    }
                    for name, (tol, mode) in checks.items():
                        val = _record(rep, name).max_abs
                        bad = val >= tol if mode == "max" else val <= tol
                        if bad:
                            failures.append((radius, c1, c2, sign, name, val))
    ok = not failures and admissible == 27 and signs_seen == {1, -1}
    _line(4, ok, f"cylinder family grid: {admissible} admissible members, "
          f"{len(failures)} check failures (bitension < 1e-7, |tau| > 1e-3, "
          "tangential/normal system < 1e-8)")


def test_criterion_05_ode_integration():
    params = CylinderParams(1.0, 0.0, 2.0, 1, (0.0, 1.0))
    run = cylinder.solve_ode(params, steps=256)
    errs = [cylinder.solve_ode(params, steps=s).deviation
            for s in (32, 64, 128)]
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    ok = (run.deviation < 1e-8 and run.first_integral_drift < 1e-10
          and all(12.0 < r < 20.0 for r in ratios))
    _line(5, ok, f"RK4 vs closed form: deviation {run.deviation:.1e} "
          f"(< 1e-8), drift {run.first_integral_drift:.1e} (< 1e-10), "
          f"halving ratios {ratios[0]:.1f}/{ratios[1]:.1f} (~16)")


def test_criterion_06_second_form_bitension_route():
    rep = catalog.verify_case(catalog.build_case("isometric_cylinder"),
                              samples=64)
    val = _record(rep, "chen_match").max_abs
    _line(6, val < 1e-7, f"curvature-term route vs direct bitension on the "
          f"isometric cylinder: {val:.1e} (< 1e-7)")


def test_criterion_07_complex_coordinate_equivalence():
    summary = []
    for name in ("r2_wrap_r3", "r2_wrap_r6"):
        rep = catalog.verify_case(catalog.build_case(name), samples=64)
        w1 = _record(rep, "w1_zero").max_abs
        w3 = _record(rep, "w3_zero").max_abs
        holo = _record(rep, "nonholomorphic").max_abs
        summary.append(w1 < 1e-12 and w3 < 1e-9 and holo > 0.1)
    pool = weierstrass.random_wrapped_pool(50, seed=4050)
    discordant = 0
    verdicts = set()
    for case in pool:
        pts = case.phi.domain.sample(12, 4051)
        ws = weierstrass.section(case.phi, case.g, case.h, pts)
        by_w3 = float(np.max(np.abs(weierstrass.w3_residual(ws)))) < 1e-7
        direct = geometry.bitension_field(case.phi, case.g, case.h, pts)
        by_direct = float(np.max(np.abs(direct))) < 1e-7
        discordant += by_w3 != by_direct
        verdicts.add(by_direct)
    ok = all(summary) and discordant == 0 and verdicts == {True, False}
    _line(7, ok, "wrapped-plane examples conformal+biharmonic+nonholomorphic;"
          f" 50-case pool verdict agreement with {discordant} discordant")


def test_criterion_08_jacobi_product_rule():
    rng = np.random.default_rng(808)
    dom, g, h, phi, fld, fac = conformal.random_transform_family(3, 100, rng)
    pts = dom.sample(4, 809)
    x = np.broadcast_to(pts, (100,) + pts.shape)
    state = MapState(phi, g, h, x, 3)
    fsrc = "1 + fa*x1*x2 + fb*sin(x3)"
    fparams = {"fa": rng.uniform(-0.5, 0.5, size=(100, 1)),
               "fb": rng.uniform(-0.5, 0.5, size=(100, 1))}
    merged = {**fld.parameters, **fparams}
    fx = VectorFieldAlongMap.from_components(
        tuple(f"({fsrc})*({expr.to_source(c)})" for c in fld.components),
        merged)
    j_fx = state.jacobi_of(state.section_from_field(fx))
    xsec = state.section_from_field(fld)
    j_x = state.jacobi_of(xsec)
    fj = state.scalar_jet(fsrc, fparams)
    lap_f = state.scalar_laplacian(fj).value
    nabla = state.directional_covariant(state.gradient_jets(fj), xsec)
    xval = np.stack([s.value for s in xsec], axis=-1)
    rhs = fj.value[..., None] * j_x - lap_f[..., None] * xval - 2.0 * nabla
    rel = support.relative_error(j_fx, rhs)
    _line(8, rel < 1e-7,
          f"Jacobi of a rescaled field, 100 cases: {rel:.2e} (< 1e-7)")


def test_criterion_09_first_variation_slope():
    dom = ChartDomain(("x", "y"), ((0.0, 1.0),) * 2)
    g = RiemannianMetric.conformally_flat(dom, "exp(x)")
    tgt = ChartDomain(("u", "v"), ((-2.0, 2.0),) * 2)
    h = RiemannianMetric.conformally_flat(tgt, "exp(0.3*u)")
    phi = SmoothMap.from_components(dom, tgt, ("x^3", "y"))
    bump = "100*(x*(1-x)*y*(1-y))^3"
    field = VectorFieldAlongMap.from_components((bump, bump))
    one = geometry.first_variation(phi, g, h, field, eps=1e-2, nodes=24)
    two = geometry.first_variation(phi, g, h, field, eps=5e-3, nodes=24)
    target = geometry.VARIATION_SIGN * one["pairing"]
    errs = [abs(one["slope"] - target), abs(one["slope_half"] - target),
            abs(two["slope_half"] - target)]
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    ok = (abs(target) > 1e-4 and errs[2] > 0.0
          and all(3.0 < r < 5.5 for r in ratios))
    _line(9, ok, "energy slope vs bitension pairing: quartering error over "
          f"t = 1e-2, 5e-3, 2.5e-3 (ratios {ratios[0]:.2f}, {ratios[1]:.2f})")


def test_criterion_10_negative_controls():
    weakest = None
    for name in catalog.CASE_NAMES:
        control, key = catalog.negative_control(name)
        rep = catalog.verify_case(control, samples=64)
        rec = _record(rep, key)
        value = rec.max_abs if rec.max_abs is not None else float("inf")
        if rec.passed:
            weakest = (name, 0.0)
            break
        if weakest is None or value < weakest[1]:
            weakest = (name, value)
    ok = weakest is not None and weakest[1] > 1e-2
    _line(10, ok, f"all {len(catalog.CASE_NAMES)} perturbed variants fail "
          f"their key check; smallest margin {weakest[1]:.2f} at "
          f"'{weakest[0]}' (> 1e-2)")


def test_criterion_11_infrastructure_contracts():
    # jet arithmetic against finite differences of a random composite
    rng = np.random.default_rng(1111)
    program = support.random_program(rng, 2, 4)
    x0 = rng.uniform(-0.5, 0.5, size=2)
    jet = program([jets.Jet.variable(i, x0[i], 2) for i in range(2)])
    lattice = support.fd_lattice(program, x0, 2)
    grad_ok = all(
        support.relative_error(jet.partial(a), support.fd_partial(lattice, a))
        < 1e-5 for a in [(1, 0), (0, 1), (2, 0), (1, 1), (2, 1)])
    # expression round trip and precedence
    source = "1 - 2*x^2 + sin(x*y)/(3 + y)"
    node = expr.parse(source)
    again = expr.parse(expr.to_source(node))
    ctx = expr.EvalContext({"x": 0.7, "y": -0.4})
    round_trip = abs(expr.evaluate(node, ctx)
                     - expr.evaluate(again, ctx)) < 1e-15
    precedence = expr.evaluate(expr.parse("2+3*4^2"), ctx) == 50.0
    # CLI exit codes and report schema (probe output silenced)
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        codes = [
            cli.main(["catalog", "verify", "identity", "--samples", "16"])
            == 0,
            cli.main(["catalog", "verify", "nope"]) == 2,
            cli.main(["catalog", "verify", "cylinder_family", "--param",
                      "C1=4", "--param", "C2=1"]) == 4,
            cli.main(["catalog", "verify", "h5_inclusion", "--samples", "16",
                      "--tol", "1e-300"]) == 1,
        ]
    rep = catalog.verify_case(catalog.build_case("plane_inclusion"),
                              samples=16, seed=3)
    payload = json.loads(report.to_json(rep))
    jsonschema.validate(payload, report.REPORT_SCHEMA)
    schema_ok = payload["pass"] is True
    repeat = catalog.verify_case(catalog.build_case("plane_inclusion"),
                                 samples=16, seed=3)
    reproducible = report.to_json(rep) == report.to_json(repeat)
    ok = (grad_ok and round_trip and precedence and all(codes)
          and schema_ok and reproducible)
    _line(11, ok, "jet/FD agreement, parser round trip and precedence, "
          "CLI exit codes 0/2/4/1, schema-valid deterministic reports")
