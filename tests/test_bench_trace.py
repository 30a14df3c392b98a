"""The benchmark's per-layer tracer still sees inside nilnov.

bench/tracing.py wraps nilnov's public functions from outside; a refactor
that moves work away from them would leave the per-layer metrics at zero
without failing anything else.  One run goes untraced, as BENCHMARK.json's
command runs it, and must report every declared end-to-end metric.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parents[1]


def test_series_h3_trace_counts_the_series_loop():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "series-h3", "--seed", "1",
         "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["novikov.nov_invert.series_iters"]["value"] > 0
    assert metrics["novikov.truncate.terms_kept"]["value"] > 0


def test_criterion_corpus_trace_sees_the_degree_path():
    # free-word products no longer call FreeGroup.collect, and over the
    # class-1 quotients of this workload a word's degree is read off its
    # letters and _sweep_key reads no image: QuotientMap.apply_word sees
    # only the projection of each letter, once per context
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "criterion-corpus", "--seed", "1",
         "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"]["presentations.apply_word.calls"]["value"] > 0


def test_collect_f23_untraced_reports_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "collect-f23", "--seed", "1",
         "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {m["name"] for m in declared} <= set(result["metrics"])
