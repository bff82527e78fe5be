"""Benchmark a change against its parent in alternating pairs of runs.

    python3 tools/bench_pairs.py --parent PARENT --change . \\
        --workload law_sweep --workload quadrature --pairs 5 \\
        --seed 0 --seconds 30 --out BENCH_N.json

``PARENT`` and the change are the roots of two checkouts.  Each run is
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`` in
one side's root, so each side measures its own program with its own
benchmark code.  The workloads run one after another, each with all its
pairs; pair k runs the parent first when k is even and the change first
when it is odd.  ``--seconds`` defaults to the ``run_seconds`` of the
change's ``BENCHMARK.json``.

``--out`` gets one JSON object.  Under ``summary``, per workload and per
end-to-end metric of the change's ``BENCHMARK.json``: each side's median,
quartiles (numpy's linear percentiles), minimum, maximum and run count;
``change_wins``, the pairs in which the change reads better (lower, or
higher for a metric that is better higher), ties counting for neither; and
``change_worse_by``, the change of the median, positive when the change
reads worse, beside the metric's ``bound``: relative to the parent's median,
except for a metric in ``digits``, whose change is its absolute loss in
digits (a margin of 7.773 -> 7.613 digits reads 0.16); then every run's
``correct`` and ``failed``.  Under ``runs``, every run's metrics and verdict
counts.  Progress goes to standard error, one line per run.  The exit code
is 1 if any run was not correct; a run that prints no result (the program
under test cannot be imported) stops the tool with its error output.
"""
import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.bench = json.loads((args.change / "BENCHMARK.json").read_text())
    known = [w["name"] for w in args.bench["workloads"]]
    if any(w not in known for w in args.workload):
        parser.error(f"--workload must be one of {', '.join(known)}")
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    if args.seconds is None:
        args.seconds = args.bench["run_seconds"]
    return args


def parse_run(stdout, names):
    """The metrics ``names`` and the verdict counts of one run, from the JSON
    object on the last line of its standard output."""
    line = json.loads(stdout.strip().splitlines()[-1])
    run = {name: line["metrics"][name]["value"] for name in names}
    run.update((key, line[key]) for key in ("correct", "failed", "attempted"))
    return run


def _stats(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4), "min": round(min(values), 4),
            "max": round(max(values), 4), "n": len(values)}


def summarise(runs, end_to_end):
    """The summary of one workload: ``runs`` maps each side to its runs
    (:func:`parse_run`), pair k being the k-th run of each side, and
    ``end_to_end`` is the ``BENCHMARK.json`` list of metrics."""
    out = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        parent, change = ([run[name] for run in runs[side]] for side in SIDES)
        p, c = np.median(parent), np.median(change)
        worse = c - p if lower else p - c
        if metric["unit"] != "digits":
            worse = worse / abs(p) if p else None
        out[name] = {
            "parent": _stats(parent), "change": _stats(change),
            "change_wins": sum(b < a if lower else b > a
                               for a, b in zip(parent, change)),
            "pairs": min(len(parent), len(change)),
            "change_worse_by": None if worse is None else round(
                float(worse), 4),
            "bound": metric["bound"]}
    for key in ("correct", "failed"):
        out[key] = {side: [run[key] for run in runs[side]] for side in SIDES}
    return out


def _run(root, workload, args, names):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    try:
        return parse_run(proc.stdout, names)
    except (IndexError, KeyError, ValueError):
        sys.exit(f"error: no result from {' '.join(cmd[1:])} in {root} "
                 f"(exit {proc.returncode}):\n{proc.stderr}")


def main(argv=None):
    args = _args(argv)
    end_to_end = args.bench["end_to_end"]
    names = [metric["name"] for metric in end_to_end]
    roots = dict(zip(SIDES, (args.parent, args.change)))
    summary, runs = {}, {}
    for workload in args.workload:
        key = f"{workload} seed {args.seed}"
        runs[key] = {side: [] for side in SIDES}
        for k in range(args.pairs):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                run = _run(roots[side], workload, args, names)
                runs[key][side].append(run)
                print(f"{key} pair {k} {side}: " + ", ".join(
                    f"{name} {run[name]:.4g}" for name in names)
                    + f", correct {run['correct']}", file=sys.stderr)
        summary[key] = summarise(runs[key], end_to_end)
    args.out.write_text(json.dumps({
        "what": (f"perfbench/run.py results, parent vs change, {args.pairs} "
                 "alternating pairs per workload (even-numbered pairs run "
                 "the parent first), each side from its own checkout; see "
                 "tools/bench_pairs.py for the summary fields"),
        "host": (f"{os.cpu_count()}-core {platform.machine()} "
                 f"{platform.system()}; numpy {np.__version__}, Python "
                 f"{platform.python_version()}"),
        "command": (f"python3 perfbench/run.py --workload <w> --seed "
                    f"{args.seed} --seconds {args.seconds:g} --trace 0"),
        "summary": summary, "runs": runs}, indent=1) + "\n")
    correct = all(run["correct"] for sides in runs.values()
                  for side in sides.values() for run in side)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
