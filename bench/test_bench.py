"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench/test_bench.py -q

The traced-run tests start the benchmark as a subprocess, two runs per
workload, and take a few minutes in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path("bench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_tail_percentile_keeps_ten_samples_beyond():
    for jobs in (2, 7, 11):
        n = run.MIN_PASSES * jobs
        pct = run.tail_percentile(jobs)
        assert n * (1 - pct / 100) == pytest.approx(run.TAIL_BEYOND)
    xs = [float(i) for i in range(41)]
    assert run.percentile(xs, 50) == 20.0
    assert run.percentile(xs, 75) == 30.0
    assert run.percentile(xs, 76.25) == pytest.approx(30.5)


def test_to_reference_scales_by_host_speed():
    ref = run.CAL_REF_S
    assert run.to_reference(2.0, ref, ref) == pytest.approx(2.0)
    assert run.to_reference(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert run.calibration() > 0


def test_checker_fails_wrong_output_and_exit_code():
    job = Job("j", "dimfn", {})
    checker = run.Checker({"j": run.digest("right\n")})
    checker.check(job, 0, "right\n")
    checker.check(job, 0, "wrong\n")
    checker.check(job, 2, "right\n")
    checker.check(job, 0, "right\n", cold=run.digest("other\n"))
    assert (checker.attempted, checker.failed) == (4, 3)


def test_cache_miss_in_warm_pass_is_a_failure():
    checker = run.Checker(run.load_reference())
    setup = run.Setup("verify-warm", 1, 0, checker)
    try:
        assert checker.failed == 0, checker.reasons
        for entry in setup.cache.iterdir():
            entry.unlink()
        setup.cache_state = run._cache_state(setup.cache)
        cached = [i for i, job in enumerate(setup.jobs) if job.cached]
        run.run_pass(setup, checker, cached[:1])
    finally:
        setup.remove()
    assert checker.failed == 1
    assert "cache miss" in checker.reasons[0]


def test_timed_verify_warm_run_has_no_misses_or_failures():
    result = result_of(bench("--workload", "verify-warm", "--seed", "3",
                             "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_repeat_across_traced_runs(workload):
    counts = []
    for _ in range(2):
        result = result_of(bench("--workload", workload, "--seed", "2",
                                 "--seconds", "1", "--trace", "1"))
        assert result["correct"]
        metrics = result["metrics"]
        assert set(metrics) == {name for name, _ in run.PER_LAYER}
        counts.append({k: v["value"] for k, v in metrics.items()
                       if v["unit"] in ("count", "bits")})
    assert counts[0] == counts[1]
    if workload == "verify-warm":
        assert counts[0]["cli.GBCache.lookup.misses"] == 0
        assert counts[0]["cli.GBCache.lookup.hits"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "algebra", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
