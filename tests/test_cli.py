import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from bitension import catalog, cli, conformal, cylinder, jets, report
from bitension import weierstrass
from bitension.charts import DomainError
from bitension.config import load_config
from bitension.cylinder import CylinderParams
from bitension.expr import ExprEvalError

import support

CONFIGS = sorted(Path(__file__).resolve().parent.parent.glob("configs/*.cfg"))


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def run(capsys, *argv):
    """Run the CLI; a ``--format json`` report must parse as strict JSON
    (no ``Infinity`` or ``NaN``) in every test that asks for one."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    if "json" in argv and captured.out:
        json.loads(captured.out, parse_constant=_not_json)
    return code, captured.out, captured.err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert set(out.split()) == set(catalog.CASE_NAMES)


def test_catalog_verify_json_schema(capsys):
    code, out, _ = run(capsys, "catalog", "verify", "h5_inclusion",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, report.REPORT_SCHEMA)
    assert payload["case"] == "h5_inclusion" and payload["pass"] is True


def test_catalog_verify_with_params(capsys):
    code, out, _ = run(capsys, "catalog", "verify", "cylinder_family",
                       "--param", "R=1", "--param", "C1=0",
                       "--param", "C2=2", "--param", "sign=-1")
    assert code == 0
    assert "overall: PASS" in out


def test_catalog_exit_codes(capsys):
    code, _, err = run(capsys, "catalog", "verify", "no_such_case")
    assert code == 2 and "unknown case" in err
    code, _, err = run(capsys, "catalog", "verify", "cylinder_family",
                       "--param", "R=1", "--param", "C1=4",
                       "--param", "C2=1", "--param", "sign=1")
    assert code == 4 and "not positive" in err
    code, out, _ = run(capsys, "catalog", "verify", "h5_inclusion",
                       "--tol", "1e-20")
    assert code == 1 and "FAIL" in out


def test_catalog_verify_is_deterministic(capsys):
    argv = ("catalog", "verify", "identity", "--format", "json", "--seed", "5")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_seed_env_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("BITENSION_SEED", "11")
    _, out, _ = run(capsys, "catalog", "verify", "identity",
                    "--format", "json")
    assert json.loads(out)["seed"] == 11
    _, out, _ = run(capsys, "catalog", "verify", "identity",
                    "--format", "json", "--seed", "9")
    assert json.loads(out)["seed"] == 9
    monkeypatch.setenv("BITENSION_SEED", "soon")
    code, _, err = run(capsys, "catalog", "verify", "identity")
    assert code == 2 and "BITENSION_SEED" in err


def test_plain_value_errors_from_a_handler_propagate(capsys, monkeypatch):
    def broken(case, samples, seed, tol):
        # what Jet.derivative raises on an order-0 jet: a bug, not bad input
        raise ValueError("cannot differentiate an order-0 jet")

    monkeypatch.setattr(catalog, "verify_case", broken)
    with pytest.raises(ValueError, match="order-0 jet"):
        cli.main(["catalog", "verify", "identity"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("error", catalog._EVALUATION_ERRORS)
def test_evaluation_errors_exit_as_verify_case_records_them(capsys,
                                                            monkeypatch,
                                                            error):
    def raising(case, samples, seed, tol):
        where = ("at the sample points",)
        raise error(*where, "x") if error is ExprEvalError else error(*where)

    monkeypatch.setattr(catalog, "verify_case", raising)
    code, _, err = run(capsys, "catalog", "verify", "identity")
    # a domain violation keeps its own exit code
    if error is DomainError:
        assert code == cli.EXIT_DOMAIN and err.startswith("domain error")
    else:
        assert code == cli.EXIT_EVAL and err.startswith("evaluation error")
    assert "at the sample points" in err


@pytest.mark.parametrize("argv,message", [
    (("catalog", "verify", "cylinder_family", "--param", "R=abc"),
     "R = 'abc' is not a number"),
    (("catalog", "verify", "identity", "--param", "m=9"), "2..6"),
    (("cylinder", "solve", "--radius", "0", "--c1", "0", "--c2", "2"),
     "radius must be positive"),
    (("cylinder", "solve", "--radius", "1", "--c1", "0", "--c2", "2",
      "--steps", "8"), "at least 16 steps"),
    # a negative control's switch is not a parameter of the case
    (("catalog", "verify", "plane_inclusion", "--param", "bend=1"),
     "bad parameters for 'plane_inclusion'"),
    # a value must be a number, and true is not one
    (("catalog", "verify", "cylinder_family", "--param", "R=true"),
     "R = 'true' is not a number"),
    # an integer parameter is not truncated
    (("catalog", "verify", "identity", "--param", "m=2.5"),
     "m = 2.5 is not an integer"),
    (("catalog", "verify", "cylinder_family", "--param", "sign=1.5"),
     "sign = 1.5 is not an integer"),
    (("catalog", "verify", "identity", "--param", "m=inf"),
     "m = inf is not an integer"),
    (("weierstrass", "check", "--case", "cylinder_family", "--param",
      "sign=0.5"), "sign = 0.5 is not an integer"),
    # a non-finite value would reach the case's chart box
    (("catalog", "verify", "isometric_cylinder", "--param", "R=nan"),
     "R = nan is not finite"),
    (("catalog", "verify", "isometric_cylinder", "--param", "R=inf"),
     "R = inf is not finite"),
    (("weierstrass", "check", "--case", "isometric_cylinder", "--param",
      "R=inf"), "R = inf is not finite"),
    # rejected before any array of that many steps is allocated
    (("cylinder", "solve", "--radius", "1", "--c1", "0", "--c2", "2",
      "--steps", str(10 ** 20)), "at most 10000000 steps"),
    # an integer beyond float range is not converted to one
    pytest.param(("catalog", "verify", "isometric_cylinder", "--param",
                  f"R={10 ** 400}"), f"R = {10 ** 400} is beyond float range",
                 id="R=10**400"),
    pytest.param(("catalog", "verify", "identity", "--param",
                  f"m={10 ** 400}"), f"m = {10 ** 400} is beyond float range",
                 id="m=10**400"),
])
def test_named_input_errors_are_usage_errors(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == cli.EXIT_USAGE and message in err


@pytest.mark.parametrize("argv", [
    ("catalog", "verify", "identity", "--samples", "0"),
    ("check-transform", "--dims", "2,3", "--cases", "0"),
    ("weierstrass", "check", "--case", "r2_wrap_r3", "--samples", "-3"),
])
def test_counts_must_be_positive(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(list(argv))
    assert excinfo.value.code == cli.EXIT_USAGE
    assert "wants a positive integer" in capsys.readouterr().err


def test_an_integral_float_is_an_integer_parameter(capsys):
    code, out, _ = run(capsys, "catalog", "verify", "identity", "--param",
                       "m=2.0", "--samples", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == json.loads(run(
        capsys, "catalog", "verify", "identity", "--param", "m=2",
        "--samples", "4", "--format", "json")[1])


@pytest.mark.parametrize("flag", ["--tol", "--conformal-tol", "--drift-tol"])
@pytest.mark.parametrize("value", ["inf", "nan", "-inf", "ten"])
def test_a_tolerance_must_be_a_finite_number(capsys, flag, value):
    # a tolerance of inf or NaN passes every check it bounds
    commands = {
        "--tol": [["catalog", "verify", "h5_inclusion"],
                  ["check-transform", "--dims", "2,3"],
                  ["cylinder", "solve", "--radius", "1", "--c1", "0",
                   "--c2", "2"],
                  ["weierstrass", "check", "--case", "r2_wrap_r3"],
                  ["custom", "verify", "--config", str(CONFIGS[0])]],
        "--conformal-tol": [["weierstrass", "check", "--case",
                             "r2_wrap_r3"]],
        "--drift-tol": [["cylinder", "solve", "--radius", "1", "--c1", "0",
                         "--c2", "2"]]}
    for argv in commands[flag]:
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv + [f"{flag}={value}"])
        assert excinfo.value.code == cli.EXIT_USAGE
        assert f"wants a finite number, got '{value}'" in (
            capsys.readouterr().err)


def test_a_config_tolerance_of_inf_is_bad_input(capsys, tmp_path):
    # the h5 inclusion under a factor that makes it fail its bitension
    # check would pass it at tol = inf
    source = next(p for p in CONFIGS if p.stem == "h5_inclusion").read_text()
    assert "conformal = 1/y5^2\n" in source
    failing = source.replace("conformal = 1/y5^2\n", "conformal = 1/y5^2.4\n")
    bad = tmp_path / "failing.cfg"
    bad.write_text(failing)
    code, out, _ = run(capsys, "custom", "verify", "--config", str(bad))
    assert code == cli.EXIT_CHECK_FAIL and "FAIL  bitension_zero" in out
    bad.write_text(failing.replace("[check bitension_zero]\ntol = 1e-7",
                                   "[check bitension_zero]\ntol = inf"))
    code, out, err = run(capsys, "custom", "verify", "--config", str(bad))
    assert code == cli.EXIT_USAGE and out == ""
    assert "tol must be positive and finite" in err


@pytest.mark.parametrize("dims", ["4,5", "2,3", "3,4"])
def test_check_transform_laws_pass(capsys, dims):
    code, out, _ = run(capsys, "check-transform", "--dims", dims,
                       "--cases", "10", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    jsonschema.validate(rep, report.REPORT_SCHEMA)
    m, n = dims.split(",")
    assert rep["case"] == f"transform_{m}to{n}" and rep["pass"]
    assert [c["name"] for c in rep["checks"]] == [
        "tension_law_match", "jacobi_law_match", "bitension_law_match"]
    for c in rep["checks"]:
        assert c["pass"] and len(c["worst_point"]) == int(m)


def test_check_transform_reports_points_evaluated(capsys):
    code, out, _ = run(capsys, "check-transform", "--dims", "2,3",
                       "--cases", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)["samples"] == 5 * 4  # four points per case


def test_check_transform_reports_overflow_as_an_evaluation_error(
        capsys, monkeypatch):
    calls = []

    def overflowing(phi, g, h, fld, factor, x):
        calls.append(x)
        side = np.exp(np.full(x.shape[:-1], 800.0))
        return {law: (side, side)
                for law in ("tension", "jacobi", "bitension")}

    monkeypatch.setattr(conformal, "law_sides", overflowing)
    code, out, err = run(capsys, "check-transform", "--dims", "2,3",
                         "--cases", "2")
    assert code == cli.EXIT_EVAL
    assert out.count("error: FloatingPointError: overflow encountered in "
                     "exp\n") == 3
    assert err == ""
    # evaluated once: the three errored records share its one error
    assert len(calls) == 1


def test_check_transform_reports_a_curvature_map_overflow_as_an_evaluation_error(
        capsys, monkeypatch):
    support.overflow_curvature_map(monkeypatch)
    code, out, err = run(capsys, "check-transform", "--dims", "2,3",
                         "--cases", "2")
    assert code == cli.EXIT_EVAL
    assert out.count("error: FloatingPointError: overflow encountered in "
                     "matmul in stage curvature_map\n") == 3
    assert err == ""


def test_check_transform_rejects_bad_dims(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["check-transform", "--dims", "7,3"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_cylinder_solve_and_csv_roundtrip(capsys, tmp_path):
    path = tmp_path / "family.csv"
    code, out, _ = run(capsys, "cylinder", "solve", "--radius", "1",
                       "--c1", "0", "--c2", "2", "--sign", "+",
                       "--emit-csv", str(path))
    assert code == 0
    assert "deviation" in out and "drift" in out
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    params = CylinderParams(1.0, 0.0, 2.0, 1, (0.0, 1.0))
    again = cylinder.solve_ode(params, steps=256)
    # 17 significant digits reparse to the exact binary doubles
    assert np.array_equal(rows[:, 0], again.z)
    assert np.array_equal(rows[:, 1], again.closed_form)
    assert np.array_equal(rows[:, 2], again.values)
    header = path.read_text().splitlines()[0]
    assert header == "z,lambda_sq_closed,lambda_sq_rk4,first_integral_drift"


def test_cylinder_solve_degenerate_exit(capsys):
    code, _, err = run(capsys, "cylinder", "solve", "--radius", "1",
                       "--c1", "4", "--c2", "1", "--sign", "+")
    assert code == 4
    assert "near z = 0" in err


@pytest.mark.parametrize("argv", [
    ("catalog", "verify", "cylinder_family", "--param", "R=0.001", "--param",
     "C1=0"),
    ("cylinder", "solve", "--radius", "0.001", "--c1", "0", "--c2", "2")])
def test_an_overflowing_cylinder_member_is_inadmissible(capsys, argv):
    # lambda^2 overflows to nan at R = 0.001; admissibility rejects it
    # before any evaluation
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_DOMAIN and out == ""
    assert err.startswith("domain error: conformal factor is not positive "
                          "and finite on the cylinder")


@pytest.mark.parametrize("argv", [
    ("cylinder", "solve", "--radius", "1", "--c1", "0", "--c2", "2", flag)
    for flag in ("--z1=inf", "--radius=inf", "--c1=nan", "--c2=nan",
                 "--c1=inf", "--c2=inf", "--z0=-inf", "--z1=nan",
                 "--radius=nan")
] + [("catalog", "verify", "cylinder_family", "--param", "R=inf")])
def test_a_non_finite_cylinder_parameter_is_bad_input(capsys, argv):
    # the last flag wins: each run sets one parameter to inf or NaN
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_USAGE and out == "" and err.startswith("error: ")


def test_cylinder_solve_failing_tolerance(capsys):
    code, out, _ = run(capsys, "cylinder", "solve", "--radius", "1",
                       "--c1", "0", "--c2", "2", "--sign", "+",
                       "--tol", "1e-16")
    assert code == 1 and "FAIL" in out


def test_weierstrass_case_verdicts(capsys):
    code, out, _ = run(capsys, "weierstrass", "check",
                       "--case", "r2_wrap_r3")
    assert code == 0 and "verdict: proper biharmonic" in out
    code, out, _ = run(capsys, "weierstrass", "check",
                       "--case", "r2_wrap_r6")
    assert code == 0 and "verdict: proper biharmonic" in out
    code, out, _ = run(capsys, "weierstrass", "check",
                       "--case", "plane_inclusion")
    assert code == 0 and "verdict: harmonic" in out


def test_weierstrass_rejects_unsuitable_geometry(capsys):
    code, _, err = run(capsys, "weierstrass", "check",
                       "--case", "h5_inclusion")
    assert code == cli.EXIT_EVAL and "2d domain" in err
    code, _, err = run(capsys, "weierstrass", "check",
                       "--case", "isometric_cylinder")
    assert code == cli.EXIT_EVAL and "flat Cartesian" in err


def test_weierstrass_not_biharmonic_verdict(capsys, tmp_path):
    source = next(p for p in CONFIGS if p.stem == "r2_wrap_r3").read_text()
    broken = tmp_path / "wrong_rate.cfg"
    broken.write_text(source.replace("exp(y/R)", "exp(2*y/R)"))
    code, out, _ = run(capsys, "weierstrass", "check",
                       "--config", str(broken))
    assert code == 1 and "verdict: not biharmonic" in out


def constant_map_config(path):
    """The r2_wrap_r3 config with its map made the constant (0, 0, 0),
    written to ``path``: conformal and harmonic, but not an immersion."""
    source = next(p for p in CONFIGS if p.stem == "r2_wrap_r3").read_text()
    path.write_text(source.replace("    R*cos(x/R)\n    R*sin(x/R)\n    y",
                                   "    0\n    0\n    0"))
    return path


def test_weierstrass_fails_a_map_that_is_not_an_immersion(capsys, tmp_path):
    path = constant_map_config(tmp_path / "constant.cfg")
    code, out, err = run(capsys, "weierstrass", "check", "--config",
                         str(path))
    assert code == cli.EXIT_CHECK_FAIL and err == ""
    assert "immersion scale      min sum |phi_a|^2   0.000000e+00" in out
    assert out.endswith("verdict: not an immersion\n")


def test_weierstrass_reports_overflow_as_an_evaluation_error(capsys,
                                                              tmp_path):
    source = next(p for p in CONFIGS if p.stem == "r2_wrap_r3").read_text()
    huge = tmp_path / "overflow.cfg"
    huge.write_text(source.replace("exp(y/R)", "exp(800*y)"))
    code, out, err = run(capsys, "weierstrass", "check",
                         "--config", str(huge))
    assert code == cli.EXIT_EVAL
    assert err == ("evaluation error: FloatingPointError: overflow "
                   "encountered in exp\n")
    assert out == ""


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_every_shipped_config_passes(capsys, path):
    code, out, _ = run(capsys, "custom", "verify", "--config", str(path))
    assert code == 0
    assert "overall: PASS" in out


def test_custom_config_matches_catalog_verdict(capsys):
    path = next(p for p in CONFIGS if p.stem == "h5_inclusion")
    code, custom_out, _ = run(capsys, "custom", "verify", "--config",
                              str(path), "--format", "json",
                              "--seed", "7", "--samples", "64")
    assert code == 0
    code, cat_out, _ = run(capsys, "catalog", "verify", "h5_inclusion",
                           "--format", "json", "--seed", "7",
                           "--samples", "64")
    assert code == 0
    assert json.loads(custom_out) == json.loads(cat_out)


def test_custom_config_errors(capsys, tmp_path):
    bad = tmp_path / "unbound.cfg"
    source = next(p for p in CONFIGS if p.stem == "plane_inclusion").read_text()
    bad.write_text(source.replace("    u\n", "    kappa*u\n"))
    code, _, err = run(capsys, "custom", "verify", "--config", str(bad))
    assert code == 2 and "kappa" in err
    code, _, err = run(capsys, "custom", "verify", "--config",
                       str(tmp_path / "missing.cfg"))
    assert code == 2


@pytest.mark.parametrize("deep", ["(" * 1000 + "u" + ")" * 1000,
                                  "-" * 1000 + "u", "^".join(["u"] * 1000),
                                  "sin(" * 1000 + "u" + ")" * 1000],
                         ids=["parentheses", "minus chain", "power chain",
                              "call arguments"])
def test_deeply_nested_config_line_exits_as_bad_input(capsys, tmp_path, deep):
    bad = tmp_path / "deep.cfg"
    source = next(p for p in CONFIGS if p.stem == "plane_inclusion").read_text()
    bad.write_text(source.replace("    u\n", f"    {deep}\n"))
    code, out, err = run(capsys, "custom", "verify", "--config", str(bad))
    assert code == 2 and out == ""
    assert "nested deeper than 100 levels" in err


LONG_SUM = " + ".join(["0.00001*u"] * 10 ** 4)  # 0.1*u, in 10^4 terms


def _verify_plane_inclusion_with(capsys, tmp_path, old, new):
    wide = tmp_path / "wide.cfg"
    source = next(p for p in CONFIGS if p.stem == "plane_inclusion").read_text()
    wide.write_text(source.replace(old, new, 1))
    code, out, err = run(capsys, "custom", "verify", "--config", str(wide))
    assert code in (0, 1) and err == ""
    assert "overall:" in out


def test_long_flat_metric_entry_yields_a_report(capsys, tmp_path):
    # each config expression is parsed once, so g_1_2 and its mirror are one
    # tree and the metric symmetry test never compares two long sums; name
    # checks and evaluation walk the sum with a loop
    _verify_plane_inclusion_with(capsys, tmp_path, "identity = yes",
                                 f"g_1_1 = 1\ng_2_2 = 1\ng_1_2 = {LONG_SUM}")


def test_long_flat_map_component_yields_a_report(capsys, tmp_path):
    _verify_plane_inclusion_with(capsys, tmp_path, "    v\n    0\n",
                                 f"    v\n    {LONG_SUM}\n")


HUGE_SHEET = """
[chart sheet]
coords = u v
box = 0.5:1 0.5:1

[chart space]
coords = p q r
box = -2:2 -2:2 -2e155:2e155

[metric flat2]
chart = sheet
identity = yes

[metric flat3]
chart = space
identity = yes

[map lift]
from = sheet
to = space
components =
    u
    v
    1e155*u^2

[check tension_nonzero]

[run]
map = lift
metric = flat2
target = flat3
samples = 8
"""


def test_a_non_finite_value_is_an_errored_record(capsys, tmp_path):
    # |tau| = 2e155 is representable, but its squared norm overflows in the
    # target inner product, a plain einsum, which raises the overflow under
    # the command's np.errstate rather than carry it on as inf; the error's
    # non-finite mask locates it at the first sample, where it overflows
    path = tmp_path / "huge.cfg"
    path.write_text(HUGE_SHEET)
    code, out, _ = run(capsys, "custom", "verify", "--config", str(path),
                       "--format", "json")
    check, = json.loads(out)["checks"]
    assert code == cli.EXIT_EVAL
    assert check["error"] == ("FloatingPointError: overflow encountered in "
                              "einsum in stage target_inner")
    assert not check["pass"] and check["max_abs"] is None
    pts = load_config(path).phi.domain.sample(8, 7)
    assert check["worst_point"] == list(pts[0])
    code, out, _ = run(capsys, "custom", "verify", "--config", str(path))
    assert code == cli.EXIT_EVAL
    assert ("error: FloatingPointError: overflow encountered in einsum in "
            "stage target_inner") in out


def test_an_expression_error_quotes_the_failing_node_cut_short(capsys,
                                                               tmp_path):
    # ln's argument is negative on the box; the error quotes ln(...) and
    # not the whole component, in at most 200 characters of source
    far = tmp_path / "far.cfg"
    source = next(p for p in CONFIGS if p.stem == "plane_inclusion").read_text()
    far.write_text(source.replace("box = -1:1 -1:1", "box = 0.5:1 0.5:1")
                   .replace("    u\n", f"    ln(u - 2 + {LONG_SUM})\n", 1))
    code, out, _ = run(capsys, "custom", "verify", "--config", str(far),
                       "--format", "json")
    checks = json.loads(out)["checks"]
    assert code == cli.EXIT_EVAL and len(checks) == 2
    for check in checks:
        head, quoted = check["error"].split(" in ", 1)
        assert head == "ExprEvalError: ln of a nonpositive value"
        assert quoted.startswith("'ln(u - 2.0 + 1e-05 * u + 1e-05 * u")
        assert len(quoted) == 1 + 200 + len("...") + 1


def test_a_jet_domain_fault_is_located_at_its_first_sample(capsys, tmp_path):
    # ln's argument is negative where u < 0.75: the records name the first
    # such sample, found from the error's argument mask without bisection
    near = tmp_path / "near.cfg"
    source = next(p for p in CONFIGS if p.stem == "plane_inclusion").read_text()
    near.write_text(source.replace("box = -1:1 -1:1", "box = 0.5:1 0.5:1")
                    .replace("    u\n", "    ln(u - 0.75)\n", 1))
    code, out, _ = run(capsys, "custom", "verify", "--config", str(near),
                       "--format", "json")
    checks = json.loads(out)["checks"]
    assert code == cli.EXIT_EVAL and len(checks) == 2
    pts = load_config(near).phi.domain.sample(64, 7)
    first = int(np.argmax(pts[:, 0] <= 0.75))
    assert first > 0  # not the first sample by accident
    for check in checks:
        assert check["error"] == ("ExprEvalError: ln of a nonpositive value "
                                  "in 'ln(u - 0.75)'")
        assert check["worst_point"] == list(pts[first])


@pytest.mark.parametrize("power", ["1e400", "(0*1e400)"])
def test_a_non_finite_exponent_is_an_errored_record(capsys, tmp_path, power):
    # an exponent of inf or NaN is a non-integer power, evaluated as such
    path = tmp_path / "power.cfg"
    path.write_text(HUGE_SHEET.replace("1e155*u^2", f"u^{power}"))
    code, out, err = run(capsys, "custom", "verify", "--config", str(path),
                         "--format", "json")
    check, = json.loads(out)["checks"]
    assert code == cli.EXIT_EVAL and err == ""
    assert check["error"] is not None and not check["pass"]


@pytest.mark.parametrize("source", ["flag", "environment", "config"])
def test_a_negative_seed_is_bad_input(capsys, tmp_path, monkeypatch, source):
    argv = ["check-transform", "--dims", "2,3", "--cases", "2"]
    if source == "flag":
        argv += ["--seed", "-1"]
        code, _, err = run(capsys, "catalog", "verify", "identity",
                           "--seed", "-1")
        assert code == cli.EXIT_USAGE
    elif source == "environment":
        monkeypatch.setenv("BITENSION_SEED", "-5")
    else:
        path = tmp_path / "seeded.cfg"
        path.write_text(HUGE_SHEET.replace("samples = 8", "seed = -2"))
        argv = ["custom", "verify", "--config", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_USAGE and out == ""
    name = {"flag": "--seed", "environment": "BITENSION_SEED",
            "config": "[run] seed"}[source]
    assert f"{name} must be non-negative" in err


def _nan_holomorphy(monkeypatch):
    """Make every anti-holomorphy figure NaN."""
    def nan(ws):
        return np.full(ws.mu_sq.value.shape, np.nan)
    monkeypatch.setattr(weierstrass, "nonholomorphicity", nan)


def _huge_sheet(tmp_path, monkeypatch):
    path = tmp_path / "huge.cfg"
    path.write_text(HUGE_SHEET)
    return ("custom", "verify", "--config", str(path), "--format", "json")


def _overflowing_laws(tmp_path, monkeypatch):
    def overflowing(phi, g, h, fld, factor, x):
        side = np.exp(np.full(x.shape[:-1], 800.0))
        return {law: (side, side)
                for law in ("tension", "jacobi", "bitension")}

    monkeypatch.setattr(conformal, "law_sides", overflowing)
    return ("check-transform", "--dims", "2,3", "--cases", "2", "--format",
            "json")


def _nan_holomorphy_case(tmp_path, monkeypatch):
    _nan_holomorphy(monkeypatch)
    return ("catalog", "verify", "r2_wrap_r3", "--format", "json")


def _argv(*argv):
    return lambda tmp_path, monkeypatch: argv


SHIPPED = {p.stem: str(p) for p in CONFIGS}
CYLINDER = ("cylinder", "solve", "--radius", "1", "--c1", "0", "--c2", "2")

# command -> the argv of a run that passes, of one whose check fails, and of
# one whose check cannot be evaluated, with the error that run reports: in
# its errored records, or on stderr when the command prints no report
EXIT_TABLE = {
    "catalog verify": (
        _argv("catalog", "verify", "identity", "--format", "json"),
        _argv("catalog", "verify", "h5_inclusion", "--tol", "1e-20",
              "--format", "json"),
        (_nan_holomorphy_case, "non-finite value nan")),
    "custom verify": (
        _argv("custom", "verify", "--config", SHIPPED["plane_inclusion"],
              "--format", "json"),
        _argv("custom", "verify", "--config", SHIPPED["h5_inclusion"],
              "--tol", "1e-20", "--format", "json"),
        (_huge_sheet, "FloatingPointError: overflow encountered in einsum "
         "in stage target_inner")),
    "check-transform": (
        _argv("check-transform", "--dims", "2,3", "--cases", "2",
              "--format", "json"),
        _argv("check-transform", "--dims", "2,3", "--cases", "2",
              "--tol", "0", "--format", "json"),
        (_overflowing_laws,
         "FloatingPointError: overflow encountered in exp")),
    "weierstrass check": (
        _argv("weierstrass", "check", "--case", "r2_wrap_r3"),
        _argv("weierstrass", "check", "--case", "r2_wrap_r3", "--tol", "0"),
        (_argv("weierstrass", "check", "--case", "h5_inclusion"),
         "evaluation error: GeometryInputError: conformal-coordinate "
         "calculus needs a 2d domain\n")),
    # R = 0.002 is admissible, but the integrated lambda^2 grows like
    # exp(z/R) and its first-integral drift overflows: no nan deviation
    # reaches a verdict
    "cylinder solve": (
        _argv(*CYLINDER, "--sign", "+"),
        _argv(*CYLINDER, "--sign", "+", "--tol", "1e-16"),
        (_argv("cylinder", "solve", "--radius", "0.002", "--c1", "0",
               "--c2", "2"),
         "evaluation error: overflow encountered in square\n")),
}


@pytest.mark.parametrize("outcome,code", [("pass", cli.EXIT_PASS),
                                          ("failed", cli.EXIT_CHECK_FAIL),
                                          ("errored", cli.EXIT_EVAL)])
@pytest.mark.parametrize("command", EXIT_TABLE)
def test_the_exit_table(capsys, tmp_path, monkeypatch, command, outcome,
                        code):
    passing, failing, (errored, error) = EXIT_TABLE[command]
    make = {"pass": passing, "failed": failing, "errored": errored}[outcome]
    argv = make(tmp_path, monkeypatch)
    got, out, err = run(capsys, *argv)
    assert got == code
    if outcome != "errored":
        # the report or the lines, on stdout only
        assert out and err == ""
        if "json" in argv:
            assert json.loads(out)["pass"] is (outcome == "pass")
    elif command in ("weierstrass check", "cylinder solve"):
        # no report: the error, on stderr only
        assert out == "" and err == error
    else:
        # the report carries the errored records, and stderr is empty
        assert err == ""
        rep = json.loads(out)
        jsonschema.validate(rep, report.REPORT_SCHEMA)
        bad = [c for c in rep["checks"] if "error" in c]
        assert bad and rep["pass"] is False
        for c in bad:
            assert c["error"] == error
            assert c["max_abs"] is None and not c["pass"]


def test_a_nan_holomorphy_figure_is_an_errored_record(capsys, monkeypatch):
    _nan_holomorphy(monkeypatch)
    code, out, err = run(capsys, "weierstrass", "check",
                         "--case", "r2_wrap_r3")
    assert code == cli.EXIT_EVAL and out == ""
    phi = catalog.build_case("r2_wrap_r3").geometry[0]
    first = tuple(float(c) for c in phi.domain.sample(64, 7)[0])
    assert err == f"evaluation error: non-finite value nan at {first}\n"


def test_a_law_side_domain_fault_is_located_in_the_case_batch(
        capsys, monkeypatch):
    seen = {}

    def faulty(phi, g, h, fld, factor, x):
        outside = np.zeros(x.shape[:-1], dtype=bool)
        outside[1, 2:] = True
        seen["x"] = x
        raise jets.JetDomainError("ln of a nonpositive value",
                                  outside=outside)

    monkeypatch.setattr(conformal, "law_sides", faulty)
    code, out, err = run(capsys, "check-transform", "--dims", "2,3",
                         "--cases", "3", "--format", "json")
    checks = json.loads(out)["checks"]
    assert code == cli.EXIT_EVAL and err == "" and len(checks) == 3
    for check in checks:
        assert check["error"] == "JetDomainError: ln of a nonpositive value"
        assert check["worst_point"] == list(seen["x"][1, 2])


def test_custom_tolerance_override(capsys):
    path = next(p for p in CONFIGS if p.stem == "h5_inclusion")
    code, out, _ = run(capsys, "custom", "verify", "--config", str(path),
                       "--tol", "1e-20")
    assert code == 1
    assert "FAIL" in out


def test_module_entry_point():
    # the subprocess finds the package through PYTHONPATH, which pytest's
    # own ``pythonpath`` setting does not reach
    root = Path(__file__).resolve().parent.parent
    paths = [str(root / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run([sys.executable, "-m", "bitension",
                           "catalog", "list"],
                          capture_output=True, text=True, cwd=root, env=env)
    assert proc.returncode == 0
    assert "cylinder_family" in proc.stdout
