import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from bitension import catalog, cli, conformal, cylinder, report
from bitension.charts import DomainError
from bitension.cylinder import CylinderParams
from bitension.expr import ExprEvalError

CONFIGS = sorted(Path(__file__).resolve().parent.parent.glob("configs/*.cfg"))


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
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
    def overflowing(phi, g, h, fld, factor, x):
        side = np.exp(np.full(x.shape[:-1], 800.0))
        return {law: (side, side)
                for law in ("tension", "jacobi", "bitension")}

    monkeypatch.setattr(conformal, "law_sides", overflowing)
    code, out, err = run(capsys, "check-transform", "--dims", "2,3",
                         "--cases", "2")
    assert code == cli.EXIT_EVAL
    assert err == "evaluation error: overflow encountered in exp\n"
    assert out == ""


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
    assert code == 2 and "2d domain" in err
    code, _, err = run(capsys, "weierstrass", "check",
                       "--case", "isometric_cylinder")
    assert code == 2 and "flat Cartesian" in err


def test_weierstrass_not_biharmonic_verdict(capsys, tmp_path):
    source = next(p for p in CONFIGS if p.stem == "r2_wrap_r3").read_text()
    broken = tmp_path / "wrong_rate.cfg"
    broken.write_text(source.replace("exp(y/R)", "exp(2*y/R)"))
    code, out, _ = run(capsys, "weierstrass", "check",
                       "--config", str(broken))
    assert code == 1 and "verdict: not biharmonic" in out


def test_weierstrass_reports_overflow_as_an_evaluation_error(capsys,
                                                              tmp_path):
    source = next(p for p in CONFIGS if p.stem == "r2_wrap_r3").read_text()
    huge = tmp_path / "overflow.cfg"
    huge.write_text(source.replace("exp(y/R)", "exp(800*y)"))
    code, out, err = run(capsys, "weierstrass", "check",
                         "--config", str(huge))
    assert code == cli.EXIT_EVAL
    assert err == "evaluation error: overflow encountered in exp\n"
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
