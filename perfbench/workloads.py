"""The three benchmark workloads.

Each workload is a pair of functions: ``setup(seed, root)`` builds every input
(families, cases, grids, sample points) from the seed alone, and
``run_pass(inputs, verdicts)`` produces all of the workload's verdicts once,
asserting the bounds of the acceptance criteria and the 4-D first-variation
test in ``tests/``.  Seed 0 reproduces the seeds those tests use; seed ``s``
shifts every one of them by ``SEED_STRIDE * s``.
"""
import io
import itertools
import json
from contextlib import redirect_stdout
from types import SimpleNamespace

import numpy as np

from bitension import catalog, cli, conformal, cylinder, geometry, weierstrass
from bitension.charts import (ChartDomain, DomainError, RiemannianMetric,
                              SmoothMap, VectorFieldAlongMap)
from bitension.cylinder import CylinderParams

SEED_STRIDE = 1000


def _shift(base, seed):
    return base + SEED_STRIDE * seed


# -- law_sweep: acceptance criterion 1 -----------------------------------------

LAW_DIMS = (2, 3, 4, 5)
LAW_CASES = 100
LAW_POINTS = 4
LAW_TOL = 1e-7

_LAWS = {
    "tension": (
        lambda f: geometry.tension_field(f.phi, f.gbar, f.h, f.x),
        lambda f: conformal.tension_transform_rhs(f.phi, f.g, f.h, f.fac,
                                                  f.x)),
    "jacobi": (
        lambda f: geometry.jacobi_apply(f.phi, f.gbar, f.h, f.x, f.fld),
        lambda f: conformal.jacobi_transform_rhs(f.phi, f.g, f.h, f.fac,
                                                 f.fld, f.x)),
    "bitension": (
        lambda f: geometry.bitension_field(f.phi, f.gbar, f.h, f.x),
        lambda f: conformal.bitension_transform_rhs(f.phi, f.g, f.h, f.fac,
                                                    f.x)),
}


def law_setup(seed, root):
    families = []
    for m in LAW_DIMS:
        rng = np.random.default_rng(_shift(100 + m, seed))
        dom, g, h, phi, fld, fac = conformal.random_transform_family(
            m, LAW_CASES, rng)
        pts = dom.sample(LAW_POINTS, _shift(200 + m, seed))
        families.append(SimpleNamespace(
            m=m, g=g, h=h, phi=phi, fld=fld, fac=fac,
            gbar=conformal.conformal_metric(g, fac),
            x=np.broadcast_to(pts, (LAW_CASES,) + pts.shape)))
    return families


def _relative_per_case(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    rel = np.abs(a - b) / (1.0 + np.maximum(np.abs(a), np.abs(b)))
    return rel.reshape(rel.shape[0], -1).max(axis=1)


def law_pass(families, verdicts):
    for fam in families:
        for law, (direct, via) in _LAWS.items():
            with verdicts.guard(f"{law} m={fam.m}"):
                rel = _relative_per_case(direct(fam), via(fam))
                for k, value in enumerate(rel):
                    verdicts.vanish(f"{law} m={fam.m} case {k}", value,
                                    LAW_TOL)


# -- catalog_sweep: criteria 3-7 and 10, the shipped configs --------------------

CATALOG_SAMPLES = 64
CONTROL_MARGIN = 1e-2
POOL_CASES = 50
POOL_POINTS = 12
POOL_TOL = 1e-7
GRID = {"R": (0.5, 1.0, 2.0), "C1": (-1.0, 0.0, 1.0), "C2": (1.0, 2.0),
        "sign": (1, -1)}
GRID_ADMISSIBLE = 27
GRID_CHECKS = ("bitension_zero", "tension_nonzero", "r3_tangential",
               "r3_normal")
SHIPPED_CONFIGS = 8


def catalog_setup(seed, root):
    grid, signs = [], set()
    for values in itertools.product(*GRID.values()):
        params = dict(zip(GRID, values))
        try:
            grid.append((params, catalog.build_case("cylinder_family",
                                                    **params)))
        except DomainError:
            continue
        signs.add(params["sign"])
    pool = weierstrass.random_wrapped_pool(POOL_CASES,
                                           seed=_shift(4050, seed))
    return SimpleNamespace(
        sample_seed=_shift(7, seed),
        cases=[(n, catalog.build_case(n)) for n in catalog.CASE_NAMES],
        controls=[(n,) + catalog.negative_control(n)
                  for n in catalog.CASE_NAMES],
        grid=grid, grid_signs=signs,
        pool=[(c, c.phi.domain.sample(POOL_POINTS, _shift(4051, seed)))
              for c in pool],
        configs=sorted(root.joinpath("configs").glob("*.cfg")),
        ode=CylinderParams(1.0, 0.0, 2.0, 1, (0.0, 1.0)))


def _verify(inputs, case):
    return catalog.verify_case(case, samples=CATALOG_SAMPLES,
                               seed=inputs.sample_seed)


def _catalog_checks(inputs, verdicts):
    for name, case in inputs.cases:
        with verdicts.guard(f"case {name}"):
            rep = _verify(inputs, case)
            for exp, rec in zip(case.expectations, rep.checks):
                verdicts.report_check(f"case {name}/{rec.name}", rec.max_abs,
                                      rec.tol, exp.mode)
    for name, control, key in inputs.controls:
        with verdicts.guard(f"control {name}"):
            rec = next(c for c in _verify(inputs, control).checks
                       if c.name == key)
            label = f"control {name}/{key}"
            verdicts.expect(f"{label} fails", rec.passed, False)
            if rec.max_abs is None:
                verdicts.report_check(label, None, CONTROL_MARGIN, "min")
            else:
                verdicts.exceed(label, rec.max_abs, CONTROL_MARGIN)


def _grid_checks(inputs, verdicts):
    verdicts.expect("grid admissible members", len(inputs.grid),
                    GRID_ADMISSIBLE)
    verdicts.expect("grid signs", inputs.grid_signs, {1, -1})
    for params, case in inputs.grid:
        label = "grid " + ",".join(f"{k}={v}" for k, v in params.items())
        with verdicts.guard(label):
            rep = _verify(inputs, case)
            for exp, rec in zip(case.expectations, rep.checks):
                if rec.name in GRID_CHECKS:
                    verdicts.report_check(f"{label}/{rec.name}", rec.max_abs,
                                          rec.tol, exp.mode)


def _pool_checks(inputs, verdicts):
    verdicts.expect("pool holds both verdicts",
                    {case.biharmonic for case, _ in inputs.pool},
                    {True, False})
    # both routes must reach the case's known verdict, which implies the
    # criterion's W3-vs-direct agreement and gives each verdict a headroom
    for k, (case, pts) in enumerate(inputs.pool):
        with verdicts.guard(f"pool {k}"):
            ws = weierstrass.section(case.phi, case.g, case.h, pts)
            by_w3 = np.max(np.abs(weierstrass.w3_residual(ws)))
            direct = np.max(np.abs(geometry.bitension_field(
                case.phi, case.g, case.h, pts)))
            for route, value in (("w3", by_w3), ("direct", direct)):
                label = f"pool {k} {route}"
                if case.biharmonic:
                    verdicts.vanish(label, value, POOL_TOL)
                else:
                    verdicts.exceed(label, value, POOL_TOL)


def _config_checks(inputs, verdicts):
    verdicts.expect("shipped configs", len(inputs.configs), SHIPPED_CONFIGS)
    for path in inputs.configs:
        with verdicts.guard(f"config {path.stem}"):
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main(["custom", "verify", "--config", str(path),
                                 "--format", "json",
                                 "--seed", str(inputs.sample_seed)])
            verdicts.expect(f"config {path.stem} exit code", code,
                            cli.EXIT_PASS)
            for c in json.loads(out.getvalue())["checks"]:
                verdicts.report_check(f"config {path.stem}/{c['name']}",
                                      c["max_abs"], c["tol"],
                                      catalog.CHECK_KINDS[c["name"]][0])


def _ode_checks(inputs, verdicts):
    with verdicts.guard("rk4"):
        run = cylinder.solve_ode(inputs.ode, steps=256)
        verdicts.vanish("rk4 deviation", run.deviation, 1e-8)
        verdicts.vanish("rk4 first-integral drift", run.first_integral_drift,
                        1e-10)
        errs = [cylinder.solve_ode(inputs.ode, steps=s).deviation
                for s in (32, 64, 128)]
        for i in range(2):
            verdicts.within(f"rk4 halving ratio {i}", errs[i] / errs[i + 1],
                            12.0, 20.0)


def catalog_pass(inputs, verdicts):
    _catalog_checks(inputs, verdicts)
    _grid_checks(inputs, verdicts)
    _pool_checks(inputs, verdicts)
    _config_checks(inputs, verdicts)
    _ode_checks(inputs, verdicts)


# -- quadrature: the 4-D first-variation test and criterion 9 -------------------


def quadrature_setup(seed, root):
    """Fixed geometries: the seed has no inputs to draw here."""
    coords = tuple(f"x{i}" for i in range(1, 5))
    slab = ChartDomain(coords, ((-1.0, 1.0),) * 3 + ((0.5, 1.5),))
    tgt5 = ChartDomain(tuple(f"y{i}" for i in range(1, 6)),
                       ((-3.0, 3.0),) * 4 + ((0.1, 3.0),))
    bump4 = ("((x1+1)*(1-x1)*(x2+1)*(1-x2)*(x3+1)*(1-x3)"
             "*(x4-0.5)*(1.5-x4))^2")
    square = ChartDomain(("x", "y"), ((0.0, 1.0),) * 2)
    plane = ChartDomain(("u", "v"), ((-2.0, 2.0),) * 2)
    bump2 = "100*(x*(1-x)*y*(1-y))^3"
    return SimpleNamespace(
        slab=(SmoothMap.from_components(slab, tgt5,
                                        ("1", "x1", "x2", "x3", "x4")),
              RiemannianMetric.euclidean(slab),
              RiemannianMetric.conformally_flat(tgt5, "1/y5^2"),
              VectorFieldAlongMap.from_components(
                  (bump4, "0", "0", "0", bump4))),
        pair=(SmoothMap.from_components(square, plane, ("x^3", "y")),
              RiemannianMetric.conformally_flat(square, "exp(x)"),
              RiemannianMetric.conformally_flat(plane, "exp(0.3*u)"),
              VectorFieldAlongMap.from_components((bump2, bump2))))


def quadrature_pass(inputs, verdicts):
    with verdicts.guard("slab"):
        out = geometry.first_variation(*inputs.slab, eps=0.1, nodes=8)
        verdicts.vanish("slab pairing", abs(out["pairing"]), 1e-9)
        verdicts.within("slab slope ratio", out["slope"] / out["slope_half"],
                        3.5, 4.5)
        richardson = (4.0 * out["slope_half"] - out["slope"]) / 3.0
        verdicts.vanish("slab richardson", abs(richardson), 1e-5)
    with verdicts.guard("pair"):
        one = geometry.first_variation(*inputs.pair, eps=1e-2, nodes=24)
        two = geometry.first_variation(*inputs.pair, eps=5e-3, nodes=24)
        target = geometry.VARIATION_SIGN * one["pairing"]
        errs = [abs(one["slope"] - target), abs(one["slope_half"] - target),
                abs(two["slope_half"] - target)]
        verdicts.exceed("pair pairing", abs(target), 1e-4)
        verdicts.expect("pair error nonzero", errs[2] > 0.0, True)
        for i in range(2):
            verdicts.within(f"pair quartering ratio {i}",
                            errs[i] / errs[i + 1], 3.0, 5.5)


WORKLOADS = {
    "law_sweep": (law_setup, law_pass),
    "catalog_sweep": (catalog_setup, catalog_pass),
    "quadrature": (quadrature_setup, quadrature_pass),
}
