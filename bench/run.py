"""pfcalc benchmark: CLI jobs end to end, per-layer numbers from a traced run.

Run from the repository root:

    python3 bench/run.py --workload closure-qq --seed 1 --seconds 28 --trace 0

Each job runs in this process through `pfcalc.cli.main([..., "--format",
"json"])` with stdout captured, as a closed loop with one client.  Module
level memo tables of pfcalc are emptied and the garbage collector is run
before every job, so each job starts from the state a fresh `pfcalc`
process would.  A pass runs every job of the workload once, in an order
shuffled from the seed; the run repeats passes for about `--seconds`,
between MIN_PASSES and MAX_PASSES of them.  Every output is checked
against the reference digest recorded by `record.py`.

With `--trace 0` the last stdout line reports the end-to-end metrics; with
`--trace 1` untraced and traced passes alternate and it reports the
per-layer metrics (see tracer.py).  The line before it holds the run's
details and provenance; both also go to `.bench_out/` with the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import heapq
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS, DATA_DIR, Job  # noqa: E402

MODULES = ("rings", "poly", "groebner", "linalg", "fpmod", "coordring",
           "functors", "schur", "geometry", "cli")
SETUP_REPEATS = 3
MIN_PASSES, MAX_PASSES = 7, 16
MIN_TRACE_PAIRS, MAX_TRACE_PAIRS = 2, 4
TAIL_BEYOND = 10   # samples beyond the tail percentile in the shortest run
# Seconds the calibration task takes on the reference machine (2-vCPU Intel
# Xeon VM at 2.1 GHz, unloaded); timings are scaled to that speed.
CAL_REF_S = 0.007

END_TO_END = (("wall_s", "s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))

_UNITS = {"calls": "count", "s": "s", "self_s": "s", "in_gens": "count",
          "out_gens": "count", "out_coeff_bits": "bits", "changed": "count",
          "verified": "count", "recomputed": "count", "hits": "count",
          "misses": "count"}
_LAYERS = (
    ("groebner.buchberger", ("calls", "s", "self_s", "in_gens", "out_gens",
                             "out_coeff_bits")),
    ("groebner.eliminate", ("calls", "s", "self_s")),
    ("groebner.normal_form", ("calls", "s")),
    ("groebner.verify_buchberger_criterion", ("calls", "s")),
    ("groebner.radical_membership", ("calls", "s")),
    ("groebner.ideal_dimension", ("calls", "s")),
    ("rings.is_field", ("calls", "s")),
    ("rings.ring_from_tag", ("calls", "s")),
    ("poly.parse_poly", ("calls", "s")),
    ("poly.format_poly", ("calls", "s")),
    ("geometry.rule", ("s",)),
    ("geometry.image_closure", ("calls", "s", "self_s")),
    ("geometry.closed_subset", ("calls", "s", "changed")),
    ("geometry.good_primes", ("calls", "s", "verified", "recomputed")),
    ("geometry.equivariance_check", ("calls", "s")),
    ("cli.main", ("calls", "self_s")),
    ("cli.GBCache.lookup", ("hits", "misses", "s")),
    ("cli.GBCache.store", ("calls", "s")),
    ("linalg.integer_echelon", ("calls", "s")),
    ("linalg.row_reduce", ("calls", "s")),
    ("linalg.rank_mod_p", ("calls", "s")),
    ("linalg.kernel_basis", ("calls", "s")),
    ("fpmod.fiber_dimension", ("calls", "s")),
    ("coordring.graded_piece", ("calls", "s")),
    ("functors.evaluate", ("calls", "s")),
    ("functors.shift_decompose", ("calls", "s")),
    ("schur.SchurAlgebra.structure_constants", ("calls", "s")),
)
PER_LAYER = tuple((f"{layer}.{field}", _UNITS[field])
                  for layer, fields in _LAYERS for field in fields) + \
    (("trace_overhead_s", "s"),)


class Refused(SystemExit):
    """The benchmark cannot run here; exit nonzero without a result."""

    def __init__(self, message: str):
        print(f"bench: {message}", file=sys.stderr)
        super().__init__(2)


# ---------------------------------------------------------------------------
# Host speed

_CAL_INTS = {(i, j, i * j % 4): (i * 7919 + j * 104729) ** 2
             for i in range(7) for j in range(7)}
_CAL_FRACS = {(i, (i + j) % 5, j): Fraction(i + 1, j + 2)
              for i in range(6) for j in range(6)}


def calibration() -> float:
    """Seconds for a fixed pure-Python task that mixes the operations of
    pfcalc's hot loops: tuple-keyed dicts, big integers, gcd, a heap and
    Fractions.  It shares no code with pfcalc, so it measures the host."""
    t0 = time.perf_counter()
    prod: dict = {}
    for e1, c1 in _CAL_INTS.items():
        for e2, c2 in _CAL_INTS.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            prod[e] = prod.get(e, 0) + c1 * c2
    g = 0
    for c in prod.values():
        g = gcd(g, c)
    heap = [(-sum(e), e) for e in prod]
    heapq.heapify(heap)
    while heap:
        heapq.heappop(heap)
    fracs: dict = {}
    for e1, c1 in _CAL_FRACS.items():
        for e2, c2 in _CAL_FRACS.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            fracs[e] = fracs.get(e, 0) + c1 * c2
    return time.perf_counter() - t0


def to_reference(seconds: float, cal_before: float, cal_after: float) -> float:
    """Scale a duration to the reference machine's speed, by the
    calibration task timed right before and right after it."""
    return seconds * 2 * CAL_REF_S / (cal_before + cal_after)


# ---------------------------------------------------------------------------
# The program under test


class Program:
    """pfcalc imported from the checkout's src/, reset between jobs."""

    def __init__(self):
        if not (SRC / "pfcalc" / "__init__.py").is_file():
            raise Refused(f"no pfcalc sources under {SRC}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        for name in [m for m in sys.modules
                     if m == "pfcalc" or m.startswith("pfcalc.")]:
            del sys.modules[name]
        self.modules = {m: importlib.import_module(f"pfcalc.{m}")
                        for m in MODULES}
        self.file = sys.modules["pfcalc"].__file__
        if SRC.resolve() not in Path(self.file).resolve().parents:
            raise Refused(f"pfcalc resolves to {self.file}, not to {SRC}")
        self.cli = self.modules["cli"]
        # Module-level containers that are empty right after import are
        # per-process memo tables; a CLI invocation starts with them empty.
        self._memos = [v for mod in self.modules.values()
                       for k, v in vars(mod).items()
                       if not k.startswith("__")
                       and type(v) in (dict, list, set) and not v]

    def run(self, argv: List[str]):
        """(seconds, exit code or error text, stdout) of one CLI call."""
        for memo in self._memos:
            memo.clear()
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except (Exception, SystemExit):
            dt = time.perf_counter() - t0
            return dt, "raised " + traceback.format_exc(), out.getvalue()
        return time.perf_counter() - t0, rc, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> Dict[str, str]:
    with open(DATA_DIR / "reference.json") as fh:
        return json.load(fh)


class Checker:
    """Counts jobs and failures; a job fails on a nonzero exit, an
    exception, a digest other than the reference, or (verify-warm) an
    output other than its cold one or a write to the cache."""

    def __init__(self, reference: Dict[str, str]):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, job: Job, rc, out: str, cold: Optional[str] = None) -> str:
        self.attempted += 1
        d = digest(out)
        reason = None
        if rc != 0:
            reason = f"exit {rc}"
        elif job.label not in self.reference:
            reason = "no reference digest"
        elif d != self.reference[job.label]:
            reason = "output differs from the reference"
        elif cold is not None and d != cold:
            reason = "warm output differs from the cold output"
        if reason is not None:
            self.fail(job, reason)
        return d

    def fail(self, job: Job, reason: str):
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(f"{job.label}: {reason}")
            print(f"bench: FAILED {job.label}: {reason}", file=sys.stderr)


def _cache_state(cache: Path):
    if not cache.is_dir():
        return ()
    return tuple(sorted((e.name, e.stat().st_size, e.stat().st_mtime_ns)
                        for e in os.scandir(cache)))


class Setup:
    """Import pfcalc, write the job configs and, for jobs that use the
    Groebner cache, fill a fresh cache cold and keep the cold outputs."""

    def __init__(self, workload: str, seed: int, rep: int, checker: Checker):
        cal = calibration()
        t0 = time.perf_counter()
        self.program = Program()
        rng = random.Random(seed)
        self.jobs = WORKLOADS[workload](lambda pool: [rng.choice(pool)])
        self.dir = WORK_DIR / f"{workload}-{os.getpid()}-{rep}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.cache = self.dir / "cache"
        self.argv = []
        for i, job in enumerate(self.jobs):
            path = self.dir / f"job{i}.json"
            path.write_text(json.dumps(job.config))
            argv = [job.command, "--config", str(path), "--format", "json"]
            if job.cached:
                argv += ["--cache-dir", str(self.cache)]
            self.argv.append(argv)
        self.cold: Dict[str, str] = {}
        for job, argv in zip(self.jobs, self.argv):
            if job.cached:
                _, rc, out = self.program.run(argv)
                self.cold[job.label] = checker.check(job, rc, out)
        self.cache_state = _cache_state(self.cache)
        self.raw_seconds = time.perf_counter() - t0
        self.seconds = to_reference(self.raw_seconds, cal, calibration())

    def remove(self):
        shutil.rmtree(self.dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Passes


def run_pass(setup: Setup, checker: Checker, order: List[int],
             tracer=None, pass_no: int = 0, job_table=None):
    """Run the jobs in `order`; return their latencies scaled to the
    reference machine and as measured, both keyed by job label."""
    latency, raw = {}, {}
    cal = calibration()
    for i in order:
        job = setup.jobs[i]
        if tracer is not None:
            tracer.job = len(job_table)
            job_table.append((pass_no, job.label))
        dt, rc, out = setup.program.run(setup.argv[i])
        checker.check(job, rc, out, setup.cold.get(job.label))
        if job.cached and _cache_state(setup.cache) != setup.cache_state:
            checker.fail(job, "cache miss: a new entry was stored")
            setup.cache_state = _cache_state(setup.cache)
        after = calibration()
        latency[job.label] = to_reference(dt, cal, after)
        raw[job.label] = dt
        cal = after
    return latency, raw


def percentile(samples: List[float], pct: float) -> float:
    """Linear-interpolated percentile, as numpy's default method."""
    xs = sorted(samples)
    h = (len(xs) - 1) * pct / 100
    lo = int(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def tail_percentile(jobs: int) -> float:
    """The highest percentile with TAIL_BEYOND samples beyond it in a run of
    MIN_PASSES passes.  Longer runs keep the same percentile, so that the
    tail does not move with the number of passes the time allows."""
    return 100.0 * (1 - TAIL_BEYOND / (MIN_PASSES * jobs))


def measure(setup: Setup, checker: Checker, seconds: float, rng):
    passes: List[Dict[str, float]] = []
    raw_passes: List[Dict[str, float]] = []
    t0 = time.perf_counter()
    while len(passes) < MAX_PASSES:
        order = list(range(len(setup.jobs)))
        rng.shuffle(order)
        latency, raw = run_pass(setup, checker, order)
        passes.append(latency)
        raw_passes.append(raw)
        elapsed = time.perf_counter() - t0
        typical = statistics.median(sum(p.values()) for p in raw_passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break
    samples = [dt for p in passes for dt in p.values()]
    tail_pct = tail_percentile(len(setup.jobs))
    metrics = {
        "wall_s": statistics.median(sum(p.values()) for p in passes),
        "job_p50_s": statistics.median(samples),
        "job_tail_s": percentile(samples, tail_pct),
    }
    detail = {"passes": len(passes), "samples": len(samples),
              "job_tail_percentile": tail_pct,
              "measured_s": time.perf_counter() - t0,
              "raw_wall_s": statistics.median(sum(p.values())
                                              for p in raw_passes),
              "job_samples_s": {label: [p[label] for p in passes]
                                for label in passes[0]},
              "job_raw_samples_s": {label: [p[label] for p in raw_passes]
                                    for label in raw_passes[0]}}
    return metrics, detail


def measure_traced(setup: Setup, checker: Checker, seconds: float, rng,
                   workload: str, seed: int):
    from tracer import Tracer
    tracer = Tracer()
    modules = setup.program.modules
    job_table: list = []
    plain, traced, summaries, counts, spans = [], [], [], [], []
    t0 = time.perf_counter()
    while len(traced) < MAX_TRACE_PAIRS:
        order = list(range(len(setup.jobs)))
        rng.shuffle(order)
        plain.append(sum(run_pass(setup, checker, order)[1].values()))
        tracer.reset()
        tracer.install(modules)
        try:
            _, raw = run_pass(setup, checker, order, tracer, len(traced),
                              job_table)
        finally:
            tracer.uninstall()
        traced.append(sum(raw.values()))
        summaries.append(tracer.summary())
        counts.append(dict(tracer.counts))
        spans.append(tracer.spans)
        elapsed = time.perf_counter() - t0
        pair = statistics.median(a + b for a, b in zip(plain, traced))
        if len(traced) >= MIN_TRACE_PAIRS and elapsed + pair > seconds:
            break
    if any(c != counts[0] for c in counts):
        print("bench: warning: counts differ between traced passes",
              file=sys.stderr)

    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace_overhead_s":
            value = statistics.median(traced) - statistics.median(plain)
        else:
            layer, _, field = name.rpartition(".")
            if field in ("calls", "s", "self_s"):
                vals = [s[layer][field] if layer in s else 0 for s in summaries]
                value = vals[0] if field == "calls" else statistics.median(vals)
            else:
                value = counts[0].get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
    with gzip.open(path, "wt") as fh:
        for job_id, (pass_no, label) in enumerate(job_table):
            fh.write(json.dumps({"job": job_id, "pass": pass_no,
                                 "label": label}) + "\n")
        for pass_no, pass_spans in enumerate(spans):
            for name, start, end, parent, job, _ in pass_spans:
                fh.write(json.dumps({"pass": pass_no, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
    detail = {"plain_pass_s": plain, "traced_pass_s": traced,
              "spans": sum(len(s) for s in spans), "spans_file": str(path)}
    return metrics, detail


# ---------------------------------------------------------------------------
# Entry point


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    checker = Checker(load_reference())
    setups = []
    try:
        for rep in range(SETUP_REPEATS):
            if setups:
                setups[-1].remove()
            setups.append(Setup(args.workload, args.seed, rep, checker))
        setup = setups[-1]
        rng = random.Random(f"order-{args.seed}")
        if args.trace:
            metrics, detail = measure_traced(setup, checker, args.seconds, rng,
                                             args.workload, args.seed)
        else:
            values, detail = measure(setup, checker, args.seconds, rng)
            values["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            values["setup_s"] = statistics.median(s.seconds for s in setups)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
    finally:
        for s in setups:
            s.remove()
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    detail.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": [j.label for j in setup.jobs],
        "setup_s": [s.seconds for s in setups],
        "raw_setup_s": [s.raw_seconds for s in setups],
        "failed_frac": checker.failed / checker.attempted,
        "failures": checker.reasons,
        "provenance": {"commit": git_commit(),
                       "python": platform.python_version(),
                       "nproc": os.cpu_count(),
                       "pfcalc": setup.program.file}})
    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
