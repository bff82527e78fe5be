"""tools/bench_pairs.py on canned perfbench/run.py output: the summary of
alternating pairs, and the run order and exit code, with no subprocess."""
import json
import subprocess
from pathlib import Path

import pytest

from support import bench_pairs

_ROOT = Path(__file__).resolve().parent.parent
_BENCH = json.loads((_ROOT / "BENCHMARK.json").read_text())


def _stdout(verdict_s, margin_digits, correct=True, failed=0):
    """What perfbench/run.py prints: a table, then one JSON line."""
    values = {"setup_s": 0.2, "verdict_s": verdict_s, "verdict_cpu_s": 0.1,
              "peak_rss_mb": 90.0, "margin_digits": margin_digits}
    line = {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {k: {"value": v, "unit": "s"}
                        for k, v in values.items()}}
    return "workload law_sweep  seed 0  trace 0\n  ...\n" + json.dumps(line)


def _parsed(*runs):
    names = [m["name"] for m in _BENCH["end_to_end"]]
    return [bench_pairs.parse_run(_stdout(*run), names) for run in runs]


def test_summary_of_pairs_reads_every_metric_in_its_direction():
    runs = {"parent": _parsed((0.5, 7.0), (0.7, 7.0), (0.6, 7.5)),
            "change": _parsed((0.55, 7.2), (0.6, 7.0), (0.5, 7.4, False, 3))}
    out = bench_pairs.summarise(runs, _BENCH["end_to_end"])
    assert list(out) == [m["name"] for m in _BENCH["end_to_end"]] + [
        "correct", "failed"]
    verdict = out["verdict_s"]
    assert verdict["parent"] == {"median": 0.6, "q1": 0.55, "q3": 0.65,
                                 "min": 0.5, "max": 0.7, "n": 3}
    assert verdict["change"]["median"] == 0.55
    # lower is better: the change wins pairs 1 and 2
    assert verdict["change_wins"] == 2 and verdict["pairs"] == 3
    assert verdict["change_worse_by"] == round((0.55 - 0.6) / 0.6, 4)
    assert verdict["bound"] == 0.2
    # higher is better: pair 0 is a win, pair 1 a tie, pair 2 a loss
    margin = out["margin_digits"]
    assert margin["change_wins"] == 1
    assert margin["parent"]["median"] == 7.0
    assert margin["change"]["median"] == 7.2
    # a digits metric moves in digits, not relative to its size
    assert margin["change_worse_by"] == round(-(7.2 - 7.0), 4) < 0
    assert margin["bound"] == 0.1
    # equal runs: no wins either way and no change
    assert out["setup_s"]["change_wins"] == 0
    assert out["setup_s"]["change_worse_by"] == 0.0
    assert out["correct"] == {"parent": [True] * 3,
                              "change": [True, True, False]}
    assert out["failed"] == {"parent": [0, 0, 0], "change": [0, 0, 3]}


def test_a_loss_of_digits_is_read_in_digits():
    # a seed-1 law_sweep margin of 7.773 -> 7.613 digits is 0.16 digits
    # worse, against a bound of 0.1 digits; its relative change is 0.0206
    runs = {"parent": _parsed((0.5, 7.773)), "change": _parsed((0.5, 7.613))}
    margin = bench_pairs.summarise(runs, _BENCH["end_to_end"])["margin_digits"]
    assert margin["change_worse_by"] == 0.16 > margin["bound"]
    assert margin["change_wins"] == 0


def _verdict(parent, change):
    # the verdict_s summary of runs that differ in verdict_s alone
    runs = {"parent": _parsed(*[(v, 7.0) for v in parent]),
            "change": _parsed(*[(v, 7.0) for v in change])}
    return bench_pairs.summarise(runs, _BENCH["end_to_end"])["verdict_s"]


def test_a_clear_win_shows_a_gain():
    parent = [0.45, 0.44, 0.46, 0.45, 0.43, 0.47, 0.45, 0.44, 0.46, 0.45]
    out = _verdict(parent, [v - 0.08 for v in parent])
    assert out["change_wins"] == 10
    assert out["gain_shown"] and not out["unresolved"]


def test_eight_wins_in_ten_show_no_gain():
    parent = [0.45] * 10
    change = [0.36] * 8 + [0.46, 0.47]
    out = _verdict(parent, change)
    assert out["change_wins"] == 8
    assert not out["gain_shown"] and not out["unresolved"]
    # nine wins in ten with the same medians show it
    assert _verdict(parent, [0.36] * 9 + [0.46])["gain_shown"]


def test_a_gain_within_the_parents_spread_is_not_shown():
    # nine wins, but the medians differ by less than the parent's q3 - q1
    parent = [0.3, 0.5] * 5
    out = _verdict(parent, [v - 0.01 for v in parent[:9]] + [0.6])
    assert out["change_wins"] == 9 and not out["gain_shown"]


def test_a_spread_wider_than_the_bound_is_unresolved():
    # the parent's quartiles span 0.3 .. 0.5, 50% of its median 0.4,
    # against a bound of 20%
    parent = [0.3, 0.5] * 5
    out = _verdict(parent, [0.35, 0.45] * 5)
    assert out["bound"] == 0.2 and out["unresolved"]
    assert not out["gain_shown"]
    # every change run below every parent run resolves it
    assert not _verdict(parent, [0.2] * 10)["unresolved"]


@pytest.mark.parametrize("correct", [True, False])
def test_pairs_alternate_and_an_incorrect_run_fails_the_tool(
        monkeypatch, tmp_path, correct):
    order = []

    def run(cmd, cwd, **kwargs):
        order.append(cwd)
        ok = correct or len(order) < 4
        return subprocess.CompletedProcess(cmd, 0 if ok else 1,
                                           _stdout(0.5, 7.0, ok), "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    parent, out = tmp_path / "parent", tmp_path / "bench.json"
    code = bench_pairs.main(["--parent", str(parent), "--change", str(_ROOT),
                             "--workload", "quadrature", "--pairs", "3",
                             "--out", str(out)])
    assert code == (0 if correct else 1)
    assert order == [parent, _ROOT, _ROOT, parent, parent, _ROOT]
    report = json.loads(out.read_text())
    assert f"--seconds {_BENCH['run_seconds']:g}" in report["command"]
    summary = report["summary"]["quadrature seed 0"]
    assert summary["verdict_s"]["pairs"] == 3
    assert len(report["runs"]["quadrature seed 0"]["change"]) == 3
