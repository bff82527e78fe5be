"""Tests of the benchmark's own verdict checker and tracer.

    python3 -m pytest perfbench/test_verdicts.py
"""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from bitension import catalog  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from verdicts import Verdicts  # noqa: E402


def test_raised_check_counts_as_failed_and_errored():
    verdicts = Verdicts()
    with verdicts.guard("boom"):
        raise FloatingPointError("overflow")
    verdicts.report_check("null record", None, 1e-7, "max")
    assert (verdicts.attempted, verdicts.failed, verdicts.errored) == (2, 2, 2)


def test_margin_is_the_smallest_headroom():
    verdicts = Verdicts()
    verdicts.vanish("zero residual never binds", 0.0, 1e-7)
    verdicts.vanish("residual", 1e-10, 1e-7)
    verdicts.exceed("magnitude", 0.5, 1e-3)
    verdicts.within("window", 16.0, 12.0, 20.0)
    assert verdicts.correct and verdicts.attempted == 4
    assert abs(verdicts.margin - 2.69897) < 1e-5
    assert verdicts.tightest == "magnitude"


def test_catalog_checks_count_a_control_declared_passing():
    inputs = workloads.catalog_setup(0, HERE.parent)
    control, _ = catalog.negative_control("plane_inclusion")
    inputs.cases, inputs.controls = [("plane_inclusion", control)], []
    verdicts = Verdicts()
    workloads._catalog_checks(inputs, verdicts)
    rep = catalog.verify_case(control, samples=workloads.CATALOG_SAMPLES,
                              seed=inputs.sample_seed)
    assert verdicts.failed == sum(not c.passed for c in rep.checks) >= 1


def test_tracer_restores_every_original_and_counts_products():
    from bitension import cli, expr, geometry, jets
    before = (jets.Jet.__mul__, jets.Jet.__rmul__, expr._CALLS["exp"],
              cli.load_config, geometry.MapState.__dict__["tension_jets"])
    tracer = spans.Tracer()
    with tracer.installed(spans.install_bitension):
        x = jets.Jet.variable(0, [0.1, 0.2], 2, 4)
        y = jets.Jet.variable(1, [0.3, 0.4], 2, 3)
        expr.evaluate(expr.parse("exp(x)*y"),
                      expr.EvalContext({"x": x, "y": y}))
    after = (jets.Jet.__mul__, jets.Jet.__rmul__, expr._CALLS["exp"],
             cli.load_config, geometry.MapState.__dict__["tension_jets"])
    assert before == after
    metrics = spans.layer_metrics(tracer)
    assert metrics["expr.evaluate_calls"][0] == 1
    assert metrics["jets.elementary_calls"][0] == 1
    # exp composes with 3 products at order 4, then one order-3 product;
    # C(2*2 + k, k) pairs per point, two points each
    assert metrics["jets.mul_calls"][0] == 4
    assert metrics["jets.mul_pairs"][0] == 2 * (3 * 70 + 35)
