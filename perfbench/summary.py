"""Print every metric of every workload, by name and unit.

    python3 perfbench/summary.py [--seed 0] [--seconds 30]

Runs each workload in its own process, one after another: one untraced run
for the end-to-end metrics, then two traced runs for the per-layer metrics.
It reports the tracing overhead (traced verdict_s minus untraced verdict_s)
and checks that the per-layer counts repeat exactly between the two traced
runs.  Exits 1 if any verdict was wrong or a count did not repeat.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("law_sweep", "catalog_sweep", "quadrature")
RUN_TIMEOUT_S = 600


def _run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode not in (0, 1):
        sys.stderr.write(done.stderr)
        sys.exit(f"{workload}: run.py exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        plain = _run(workload, args.seed, args.seconds, 0)
        traced = [_run(workload, args.seed, args.seconds, 1)
                  for _ in range(2)]
        ratio = plain["failed"] / plain["attempted"]
        print(f"== {workload} (seed {args.seed}): {plain['failed']} of "
              f"{plain['attempted']} verdicts failed")
        print(f"  {'failed_ratio':36s} {ratio!r} ratio")
        for name, m in plain["metrics"].items():
            print(f"  {name:36s} {m['value']!r} {m['unit']}")
        for name, m in traced[0]["metrics"].items():
            print(f"  {name:36s} {m['value']!r} {m['unit']}")
        overhead = (traced[0]["metrics"]["trace.verdict_s"]["value"]
                    - plain["metrics"]["verdict_s"]["value"])
        print(f"  {'tracing overhead vs untraced run':36s} {overhead!r} s")
        unstable = [n for n, m in traced[0]["metrics"].items()
                    if m["unit"] in ("count", "B")
                    and m["value"] != traced[1]["metrics"][n]["value"]]
        print("  counts repeat across two traced runs: "
              + ("yes" if not unstable else "NO: " + ", ".join(unstable)))
        ok &= (not unstable and plain["correct"]
               and all(t["correct"] for t in traced))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
