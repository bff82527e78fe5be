"""Benchmark entry point: one workload, one process.

    python3 perfbench/run.py --workload law_sweep --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it reports the
end-to-end metrics (set-up time, verdict time and CPU time, peak memory,
verdict headroom); with ``--trace 1`` it reports the per-layer metrics of one
traced pass.  Times of the end-to-end metrics are rescaled to a reference host
speed (see ``host.py``); the raw times are printed beside them.  A human-readable table comes first; the last line of standard
output is one JSON object.  The exit code is 0 when every verdict matched its
expectation, 1 when one did not, and 2 when the program under test cannot be
imported.  ``perfbench/README.md`` lists the workloads and every metric.
"""
import os

# single-threaded BLAS for this process and every process it starts; set
# before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import host  # noqa: E402
import spans  # noqa: E402
from verdicts import Verdicts  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "verdict_s": "s", "verdict_cpu_s": "s",
                    "peak_rss_mb": "MB", "margin_digits": "digits"}


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("law_sweep", "catalog_sweep", "quadrature"))
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 reproduces the test-suite seeds")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement window for verdict passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_program():
    """Import the package under test from ``src/`` of this checkout."""
    if not (ROOT / "src" / "bitension" / "__init__.py").is_file():
        print(f"error: no bitension sources under {ROOT / 'src'}; run the "
              "benchmark from the root of a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    return workloads


# -- set-up --------------------------------------------------------------------------


def _setup_s(args, kernel):
    """Median over fresh processes of process start to inputs ready, each
    rescaled by the host speed sampled while it ran."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        with host.HostTimed(kernel) as timed:
            spawned = time.monotonic()
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=SETUP_TIMEOUT_S, check=True)
        took = float(done.stdout.split()[-1]) - spawned
        times.append(took * host.speed_factor(timed.samples))
    return statistics.median(times)


# -- passes ---------------------------------------------------------------------


def _measure(args, workloads, verdicts):
    setup, run_pass = workloads.WORKLOADS[args.workload]
    kernel = host.calibration_kernel()
    setup_s = _setup_s(args, kernel)
    inputs = setup(args.seed, ROOT)
    passes = []
    started = time.monotonic()
    while True:
        with host.HostTimed(kernel) as timed:
            run_pass(inputs, verdicts)
        passes.append(timed)
        # start another pass only if it should end inside the window
        typical = statistics.median(p.wall for p in passes)
        if time.monotonic() - started + typical > args.seconds:
            break
    metrics = {
        "setup_s": setup_s,
        "verdict_s": statistics.median(p.wall_ref for p in passes),
        "verdict_cpu_s": statistics.median(p.cpu_ref for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        # no binding headroom only when every bounded check failed
        "margin_digits": (verdicts.margin if math.isfinite(verdicts.margin)
                          else None),
    }
    notes = {"passes": len(passes),
             "pass wall (s, rescaled)": [p.wall_ref for p in passes],
             "pass wall (s, raw)": [p.wall for p in passes],
             "pass cpu (s, raw)": [p.cpu for p in passes],
             "host.calib_s per pass": [p.calib for p in passes]}
    return ({k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes)


def _measure_traced(args, workloads, verdicts):
    setup, run_pass = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer()
    with tracer.installed(spans.install_bitension):
        inputs = setup(args.seed, ROOT)
    kernel = host.calibration_kernel()
    # the first pass warms caches; overhead compares the traced pass with
    # the untraced pass that follows it
    with host.HostTimed(kernel) as warm:
        run_pass(inputs, verdicts)
    tracer.pass_id = 1
    with tracer.installed(spans.install_bitension):
        with host.HostTimed(kernel) as traced:
            run_pass(inputs, verdicts)
    with host.HostTimed(kernel) as untraced:
        run_pass(inputs, verdicts)
    metrics = spans.layer_metrics(tracer)
    metrics["host.calib_s"] = (traced.calib, "s")
    metrics["trace.verdict_s"] = (traced.wall_ref, "s")
    metrics["trace.overhead_s"] = (traced.wall_ref - untraced.wall_ref, "s")
    out = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.json"
    tracer.dump(out)
    return metrics, {"untraced pass wall (s, raw)": [warm.wall,
                                                     untraced.wall],
                     "spans": len(tracer.spans),
                     "span file": str(out.relative_to(ROOT))}


# -- output -----------------------------------------------------------------------


def _print_table(args, metrics, notes, verdicts):
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value!r} {unit}")
    ratio = verdicts.failed / verdicts.attempted if verdicts.attempted else 1.0
    print(f"  {'failed_ratio':36s} {ratio!r} ratio "
          f"({verdicts.failed} of {verdicts.attempted} verdicts, "
          f"{verdicts.errored} raised)")
    print(f"  tightest verdict: {verdicts.tightest}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    for failure in verdicts.failures[:20]:
        print(f"  FAILED {failure}")


def main(argv=None):
    args = _args(argv)
    workloads = _import_program()
    if args.setup_probe:
        workloads.WORKLOADS[args.workload][0](args.seed, ROOT)
        print(time.monotonic())
        return 0
    verdicts = Verdicts()
    measure = _measure_traced if args.trace else _measure
    metrics, notes = measure(args, workloads, verdicts)
    _print_table(args, metrics, notes, verdicts)
    print(json.dumps({
        "correct": verdicts.correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if verdicts.correct else 1


if __name__ == "__main__":
    sys.exit(main())
