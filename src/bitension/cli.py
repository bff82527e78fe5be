"""Command-line front end.

Subcommands:
  catalog list / catalog verify NAME   named verification cases
  check-transform                      all three conformal-change laws
  cylinder solve                       RK4 vs closed form for the ODE family
  weierstrass check                    complex-coordinate verdict for surfaces
  custom verify                        user-configured geometry

Every handler runs with overflow, invalid values and division by zero
raised.  The verify-style commands make their checks through
``catalog.record`` and share one exit table: 0 every check passed, 1 a check
failed and none errored, 3 a check could not be evaluated (an errored record,
or an evaluation error outside any check), 2 bad input, 4 an inadmissible
input (a DomainError before evaluation).  A bug is Python's own exit 1, with
its traceback.  BITENSION_SEED overrides the default seed; an explicit
--seed flag wins over the environment.
"""
import argparse
import functools
import math
import os
import sys

import numpy as np

from . import catalog, conformal, cylinder
from .charts import DomainError
from .config import ConfigError, load_config
from .cylinder import CylinderParams
from .geometry import error_text
from .report import VERSION, VerificationReport, to_json, to_text

EXIT_PASS = 0
EXIT_CHECK_FAIL = 1
EXIT_USAGE = 2
EXIT_EVAL = 3
EXIT_DOMAIN = 4

_DEFAULT_SEED = 7


def _resolve_seed(flag, config_value=None):
    """The sampling seed: the flag, else BITENSION_SEED, else the config's,
    else 7; a negative one is bad input, as numpy takes none."""
    source, seed = "--seed", flag
    raw = os.environ.get("BITENSION_SEED")
    if seed is None and raw is not None:
        source = "BITENSION_SEED"
        try:
            seed = int(raw)
        except ValueError:
            raise ConfigError(f"BITENSION_SEED must be an integer, "
                              f"got {raw!r}")
    if seed is None:
        source, seed = "[run] seed", config_value
    if seed is None:
        return _DEFAULT_SEED
    if seed < 0:
        raise ConfigError(f"{source} must be non-negative, got {seed}")
    return seed


def _coerce(raw):
    for kind in (int, float):
        try:
            return kind(raw)
        except ValueError:
            continue
    return raw


def _positive_int(raw):
    if not raw.isdigit() or int(raw) < 1:
        raise argparse.ArgumentTypeError(
            f"wants a positive integer, got {raw!r}")
    return int(raw)


def _tolerance(raw):
    # a tolerance of inf or NaN passes every check it bounds
    try:
        tol = float(raw)
    except ValueError:
        tol = math.nan
    if not math.isfinite(tol):
        raise argparse.ArgumentTypeError(
            f"wants a finite number, got {raw!r}")
    return tol


def _case_params(pairs):
    out = {}
    for pair in pairs or ():
        key, eq, raw = pair.partition("=")
        if not eq or not key:
            raise ConfigError(f"--param wants key=value, got {pair!r}")
        out[key] = _coerce(raw)
    return out


def _verdict_lines(rep):
    """The five figures and the verdict of ``weierstrass check``, read from
    the records of :func:`catalog.lane_records`."""
    w1, scale, w3, holo = rep.checks
    verdict = ("not conformal" if not w1.passed
               else "not an immersion" if not scale.passed
               else "not biharmonic" if not w3.passed
               else "harmonic" if holo.passed else "proper biharmonic")
    return (f"case: {rep.case}  samples: {rep.samples}  seed: {rep.seed}\n"
            f"conformality defect  max |sum phi_a^2|   {w1.max_abs:.6e}\n"
            f"immersion scale      min sum |phi_a|^2   {scale.max_abs:.6e}\n"
            f"biharmonicity defect max |(W3)|          {w3.max_abs:.6e}\n"
            f"anti-holomorphy      max |d phi/dzbar|   {holo.max_abs:.6e}\n"
            f"verdict: {verdict}")


_RENDERERS = {"text": to_text, "json": to_json, "lines": _verdict_lines}


def _emit(rep, fmt):
    """Print a verify-style command's output in ``fmt`` and return its exit
    code by the one table of these commands: 0 when every check passed, 1
    when one failed and none errored, 3 when one could not be evaluated.
    A report shows an errored record's ``error`` and ``worst_point``; the
    verdict lines cannot, so the first errored record goes to stderr in
    their place."""
    bad = next((c for c in rep.checks if c.error is not None), None)
    if bad is not None and fmt == "lines":
        where = "" if bad.worst_point is None else f" at {bad.worst_point}"
        print(f"evaluation error: {bad.error}{where}", file=sys.stderr)
    else:
        print(_RENDERERS[fmt](rep))
    return (EXIT_EVAL if bad is not None
            else EXIT_PASS if rep.passed else EXIT_CHECK_FAIL)


# -- catalog -------------------------------------------------------------------


def _cmd_catalog_list(args):
    for name in catalog.CASE_NAMES:
        print(name)
    return EXIT_PASS


def _cmd_catalog_verify(args):
    case = catalog.build_case(args.name, **_case_params(args.param))
    rep = catalog.verify_case(case, samples=args.samples,
                              seed=_resolve_seed(args.seed), tol=args.tol)
    return _emit(rep, args.format)


# -- transformation laws -------------------------------------------------------


def _dims(raw):
    m, comma, n = raw.partition(",")
    try:
        m, n = int(m), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--dims wants m,n, got {raw!r}")
    if not comma or not 2 <= m <= 5 or not 2 <= n <= 6:
        raise argparse.ArgumentTypeError(
            "domain dimension must lie in 2..5 and target in 2..6")
    return m, n


def _cmd_check_transform(args):
    m, n = args.dims
    seed = _resolve_seed(args.seed)
    rng = np.random.default_rng(seed)
    dom, g, h, phi, fld, fac = conformal.random_transform_family(
        m, args.cases, rng, n=n)
    pts = dom.sample(4, seed + 1)
    x = np.broadcast_to(pts, (args.cases,) + pts.shape)
    # law_sides runs once; on an evaluation error each law's record
    # re-raises the one error it stored
    try:
        sides = conformal.law_sides(phi, g, h, fld, fac, x)
    except catalog._EVALUATION_ERRORS as err:
        sides = err

    def gap(law):
        if isinstance(sides, Exception):
            raise sides
        direct, rhs = sides[law]
        rel = np.max(np.abs(direct - rhs) / (
            1.0 + np.maximum(np.abs(direct), np.abs(rhs))), axis=-1)
        return rel, rel

    records = tuple(catalog.record(f"{law}_law_match", args.tol, "max",
                                   functools.partial(gap, law), x)
                    for law in ("tension", "jacobi", "bitension"))
    rep = VerificationReport(VERSION, f"transform_{m}to{n}", seed,
                             args.cases * len(pts),  # every case, every point
                             records, all(r.passed for r in records))
    return _emit(rep, args.format)


# -- cylinder ODE --------------------------------------------------------------


def _sign(raw):
    table = {"+": 1, "+1": 1, "1": 1, "-": -1, "-1": -1}
    if raw not in table:
        raise argparse.ArgumentTypeError(f"--sign wants + or -, got {raw!r}")
    return table[raw]


def _write_csv(path, run, params):
    c1, _, _ = cylinder.fit_from_initial(params.radius, run.z[0],
                                         run.values[0], run.slopes[0])
    drift = run.slopes ** 2 - run.values ** 2 / params.radius ** 2 - c1
    with open(path, "w") as handle:
        handle.write("z,lambda_sq_closed,lambda_sq_rk4,first_integral_drift\n")
        for k in range(len(run.z)):
            handle.write(f"{run.z[k]:.17g},{run.closed_form[k]:.17g},"
                         f"{run.values[k]:.17g},{drift[k]:.17g}\n")


def _cmd_cylinder_solve(args):
    params = CylinderParams(args.radius, args.c1, args.c2, args.sign,
                            (args.z0, args.z1))
    cylinder.check_positive(params)
    run = cylinder.solve_ode(params, steps=args.steps)
    if args.emit_csv:
        _write_csv(args.emit_csv, run, params)
    ok_dev = run.deviation < args.tol
    ok_drift = run.first_integral_drift < args.drift_tol
    print(f"closed form vs RK4 over [{args.z0:g}, {args.z1:g}] "
          f"with {args.steps} steps")
    print(f"{'PASS' if ok_dev else 'FAIL'}  deviation        "
          f"{run.deviation:.6e}  (tol {args.tol:g})")
    print(f"{'PASS' if ok_drift else 'FAIL'}  integral drift   "
          f"{run.first_integral_drift:.6e}  (tol {args.drift_tol:g})")
    if args.emit_csv:
        print(f"wrote {args.emit_csv}")
    return EXIT_PASS if ok_dev and ok_drift else EXIT_CHECK_FAIL


# -- weierstrass ---------------------------------------------------------------


def _cmd_weierstrass_check(args):
    if args.case:
        case = catalog.build_case(args.case, **_case_params(args.param))
        phi, g, h = case.geometry
        label = args.case
    else:
        cfg = load_config(args.config)
        phi, g, h = cfg.phi, cfg.metric, cfg.target
        label = cfg.name
    seed = _resolve_seed(args.seed)
    records = catalog.lane_records(
        phi, g, h, phi.domain.sample(args.samples, seed), args.tol,
        args.conformal_tol)
    # every figure but holomorphy, which only classifies a passing map
    rep = VerificationReport(VERSION, label, seed, args.samples, records,
                             all(r.passed for r in records[:3]))
    return _emit(rep, "lines")


# -- custom configs ------------------------------------------------------------


def _cmd_custom_verify(args):
    cfg = load_config(args.config)
    case = cfg.build_case()
    samples = args.samples if args.samples is not None else (cfg.samples or 64)
    rep = catalog.verify_case(case, samples=samples,
                              seed=_resolve_seed(args.seed, cfg.seed),
                              tol=args.tol)
    return _emit(rep, args.format)


# -- parser --------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bitension",
        description="verify tension, bitension, and conformal-change "
                    "identities on expression-defined geometries")
    tree = parser.add_subparsers(dest="command", required=True)

    cat = tree.add_parser("catalog", help="built-in verification cases")
    cat_tree = cat.add_subparsers(dest="subcommand", required=True)
    cat_list = cat_tree.add_parser("list", help="print case names")
    cat_list.set_defaults(handler=_cmd_catalog_list)
    cat_verify = cat_tree.add_parser("verify", help="run one case")
    cat_verify.add_argument("name")
    cat_verify.add_argument("--param", action="append", metavar="KEY=VALUE")
    cat_verify.add_argument("--samples", type=_positive_int, default=64)
    cat_verify.add_argument("--seed", type=int, default=None)
    cat_verify.add_argument("--tol", type=_tolerance, default=None,
                            help="override the tolerance of residual checks")
    cat_verify.add_argument("--format", choices=("text", "json"),
                            default="text")
    cat_verify.set_defaults(handler=_cmd_catalog_verify)

    law = tree.add_parser(
        "check-transform",
        help="randomized conformal-change law comparisons")
    law.add_argument("--dims", type=_dims, required=True, metavar="M,N")
    law.add_argument("--cases", type=_positive_int, default=100)
    law.add_argument("--seed", type=int, default=None)
    law.add_argument("--tol", type=_tolerance, default=1e-7)
    law.add_argument("--format", choices=("text", "json"), default="text")
    law.set_defaults(handler=_cmd_check_transform)

    cyl = tree.add_parser("cylinder", help="the biharmonic cylinder family")
    cyl_tree = cyl.add_subparsers(dest="subcommand", required=True)
    solve = cyl_tree.add_parser("solve", help="integrate and compare")
    solve.add_argument("--radius", type=float, required=True)
    solve.add_argument("--c1", type=float, required=True)
    solve.add_argument("--c2", type=float, required=True)
    solve.add_argument("--sign", type=_sign, default=1)
    solve.add_argument("--z0", type=float, default=0.0)
    solve.add_argument("--z1", type=float, default=1.0)
    solve.add_argument("--steps", type=int, default=256)
    solve.add_argument("--tol", type=_tolerance, default=1e-8,
                       help="bound for the RK4 vs closed-form deviation")
    solve.add_argument("--drift-tol", type=_tolerance, default=1e-10)
    solve.add_argument("--emit-csv", metavar="PATH")
    solve.set_defaults(handler=_cmd_cylinder_solve)

    weier = tree.add_parser("weierstrass",
                            help="complex-coordinate surface checks")
    weier_tree = weier.add_subparsers(dest="subcommand", required=True)
    check = weier_tree.add_parser("check", help="classify one immersion")
    pick = check.add_mutually_exclusive_group(required=True)
    pick.add_argument("--case", help="a catalog case name")
    pick.add_argument("--config", help="a run config file")
    check.add_argument("--param", action="append", metavar="KEY=VALUE")
    check.add_argument("--samples", type=_positive_int, default=64)
    check.add_argument("--seed", type=int, default=None)
    check.add_argument("--tol", type=_tolerance, default=1e-9,
                       help="biharmonicity bound on the mixed third "
                            "derivative")
    check.add_argument("--conformal-tol", type=_tolerance, default=1e-9)
    check.set_defaults(handler=_cmd_weierstrass_check)

    custom = tree.add_parser("custom", help="user-configured geometry")
    custom_tree = custom.add_subparsers(dest="subcommand", required=True)
    run = custom_tree.add_parser("verify", help="run a config file")
    run.add_argument("--config", required=True)
    run.add_argument("--samples", type=_positive_int, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--tol", type=_tolerance, default=None)
    run.add_argument("--format", choices=("text", "json"), default="text")
    run.set_defaults(handler=_cmd_custom_verify)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.handler(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as err:
        print(f"domain error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except catalog._EVALUATION_ERRORS as err:
        # the evaluation errors that catalog.record makes errored records
        # of, raised outside a check
        print(f"evaluation error: {error_text(err)}", file=sys.stderr)
        return EXIT_EVAL
    except (catalog.CaseError, cylinder.ParameterError) as err:
        # input errors by name: any other exception is a bug and keeps its
        # traceback
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
