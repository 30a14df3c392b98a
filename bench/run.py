"""Benchmark of nilnov's certified verdicts, truncated series and class-3 collection.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nilnov is imported from its src/.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones (setup_s, op_s_p50, ops_per_s, peak_rss_mb); with --trace 1
they are the per-layer ones from a traced run (see README.md).  The same
object, and with --trace 1 the trace, are written under bench/results/.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 9  # set-ups timed per run: this process plus fresh child processes

from oracles import Mismatch  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_nilnov():
    src = ROOT / "src"
    if not (src / "nilnov" / "__init__.py").is_file():
        raise SystemExit(f"error: no nilnov sources under {src}")
    sys.path.insert(0, str(src))
    import nilnov

    if src.resolve() not in Path(nilnov.__file__).resolve().parents:
        raise SystemExit(f"error: imported nilnov from {nilnov.__file__}, not from {src}")
    return nilnov


def setup(workload, seed):
    """Import nilnov and build the workload; returns (nv, workload, seconds)."""
    t0 = time.perf_counter()
    nv = load_nilnov()
    state = WORKLOADS[workload](nv, ROOT, seed)
    return nv, state, time.perf_counter() - t0


def child_setup_seconds(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


class Run:
    """Operation loop with failure accounting and output checks."""

    def __init__(self, nv, state):
        self.nv, self.state = nv, state
        self.attempted = self.failed = 0
        self.correct = True

    def op(self, i, call):
        """Times call(state.run, i) and checks its output.

        Returns (completed, seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = call(self.state.run, i)
        except self.nv.errors.NilnovError as e:
            print(f"operation {i} failed: {type(e).__name__}: {e}", file=sys.stderr)
            self.failed += 1
            return False, time.perf_counter() - t0
        dt = time.perf_counter() - t0
        try:
            self.state.check(i, out)
        except Mismatch as e:
            print(f"operation {i}: wrong output: {e}", file=sys.stderr)
            self.correct = False
        return True, dt


def _plain(fn, i):
    return fn(i)


def run_untraced(args):
    nv, state, setup_s = setup(args.workload, args.seed)
    samples = [setup_s] + [child_setup_seconds(args.workload, args.seed)
                           for _ in range(SETUP_SAMPLES - 1)]
    run = Run(nv, state)
    times, elapsed, i = [], 0.0, 0
    while elapsed < args.seconds:
        ok, dt = run.op(i, _plain)
        elapsed += dt
        if ok:
            times.append(dt)
        i += 1
    if not times:
        raise SystemExit("error: no operation completed")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(samples),
        "op_s_p50": statistics.median(times),
        "ops_per_s": len(times) / elapsed,
        "peak_rss_mb": peak_kb / 1024,
    }
    units = {"setup_s": "s", "op_s_p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
    return run, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, None


def run_traced(args):
    import tracing

    nv = load_nilnov()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        state = tracer.span("setup", WORKLOADS[args.workload], nv, ROOT, args.seed)
    finally:
        tracer.uninstall()
    presentations_setup_s = tracer.setup_seconds(tracing.PRESENTATION_SETUP)
    tracer.reset_totals()

    def traced(fn, i):
        tracer.install()
        try:
            return tracer.span("op", fn, i)
        finally:
            tracer.uninstall()

    # each round runs the same input untraced, then traced
    run = Run(nv, state)
    plain_times, traced_times, elapsed, i = [], [], 0.0, 0
    while elapsed < args.seconds:
        for call, times in ((_plain, plain_times), (traced, traced_times)):
            ok, dt = run.op(i, call)
            elapsed += dt
            if ok:
                times.append(dt)
        i += 1
    if not traced_times or not plain_times:
        raise SystemExit("error: no operation completed")
    op_traced = statistics.fmean(traced_times)
    overhead = statistics.median(traced_times) / statistics.median(plain_times)
    metrics = tracing.layer_metrics(tracer, len(traced_times), op_traced, overhead,
                                    presentations_setup_s)
    trace = tracer.dump()
    trace.update({"workload": args.workload, "seed": args.seed,
                  "traced_op_s": traced_times, "untraced_op_s": plain_times})
    return run, metrics, trace


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this process, print its seconds and exit")
    args = ap.parse_args(argv)

    if args.setup_only:
        print(repr(setup(args.workload, args.seed)[2]))
        return 0

    run, metrics, trace = (run_traced if args.trace else run_untraced)(args)
    result = {"correct": run.correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    out = BENCH / "results"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if trace is not None:
        (out / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(trace) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
