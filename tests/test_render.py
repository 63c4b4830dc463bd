"""Output rendering: the JSON writer against json.dumps, and every benchmark
job's json stdout against the benchmark's reference digests."""

import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from pfcalc.cli import HANDLERS, build_parser, main
from pfcalc.render import render_json

BENCH = Path(__file__).resolve().parents[1] / "bench"

# one small config per command
CONFIGS = {
    "ring-of-module": {"ring": "QQ[t]/(t^2)",
                       "module": {"ngens": 2, "relations": [["t", "0"]]},
                       "max_degree": 3},
    "schur-table": {"n": 2, "d": 2, "ring": "Fp(3)[t]/(t^2+1)"},
    "dimfn": {"functor": "Sym(2) (+) Ext(3)", "primes": [2, 3], "window": 4},
    "image-closure": {"transformation": "cube-sum", "rank": 2, "field": "QQ"},
    "dim-per-prime": {"transformation": "cube-sum", "rank": 2,
                      "primes": [2, 3]},
    "good-primes": {"variables": ["x", "y"],
                    "generators": ["3*x^2 - y", "2*x*y - 5"],
                    "primes": [2, 3, 5, 7]},
    "equivariance": {"transformation": "cube-sum", "rank": 2,
                     "field": "Fp(3)"},
    "taylor": {"variables": ["x", "y"], "polynomial": "x^3*y + 2*x*y^3",
               "direction_count": 1, "field": "Fp(3)"},
}


def dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("command", sorted(HANDLERS))
def test_writer_matches_json_dumps_on_every_command(command):
    assert set(CONFIGS) == set(HANDLERS)
    args = build_parser().parse_args([command, "--config", "unused"])
    args.cache, args.elapsed_ms = None, lambda: 0
    doc = HANDLERS[command](CONFIGS[command], args)[0]
    assert render_json(doc) == dumps(doc)


STRINGS = ["", "plain", 'say "hi"', "back\\slash", "tab\there\nnewline",
           "Schur über ℚ", "x_1 ≤ d", "{not a dict}", "[not, a, list]",
           "\u0000\u001f\u007f", "😀"]


def random_scalar(rng):
    return rng.choice([
        lambda: rng.randrange(-10, 10),
        lambda: rng.randrange(-10 ** 30, 10 ** 30),
        lambda: -10 ** 29 - rng.randrange(10 ** 29),
        lambda: rng.choice([True, False, None]),
        lambda: rng.choice(STRINGS),
        lambda: rng.choice([0.5, -1e300, 0.0]),
    ])()


def random_doc(rng, depth):
    kind = rng.randrange(6) if depth else 5
    if kind == 0:
        return {rng.choice(STRINGS) + str(i): random_doc(rng, depth - 1)
                for i in range(rng.randrange(4))}
    if kind == 1:
        return [random_doc(rng, depth - 1) for _ in range(rng.randrange(4))]
    if kind == 2:  # flat int lists, often repeated at one level
        return [rng.choice([[], [0], [1, -2, 3], [10 ** 30, -7]])
                for _ in range(rng.randrange(4))]
    if kind == 3:  # ints mixed with bools are not flat int lists
        return [rng.choice([1, True, False, 0]) for _ in range(rng.randrange(4))]
    if kind == 4:
        return rng.choice([{}, [], {"": []}, [[]], [{}]])
    return random_scalar(rng)


@pytest.mark.parametrize("seed", range(20))
def test_writer_matches_json_dumps_on_random_documents(seed):
    rng = random.Random(seed)
    for _ in range(50):
        doc = random_doc(rng, rng.randrange(6))
        assert render_json(doc) == dumps(doc)


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_bench_jobs_match_reference_digests(capsys, tmp_path):
    # every job of every workload, with every prime of every pool, as
    # bench/record.py runs them; cached jobs run cold, then warm
    workloads = load_workloads()
    reference = json.loads((BENCH / "data" / "reference.json").read_text())
    seen = {}
    for name, build in workloads.WORKLOADS.items():
        cache = tmp_path / f"cache-{name}"
        for job in build(lambda pool: list(pool)):
            config = tmp_path / "job.json"
            config.write_text(json.dumps(job.config))
            argv = [job.command, "--config", str(config), "--format", "json"]
            if job.cached:
                argv += ["--cache-dir", str(cache)]
            for _ in range(2 if job.cached else 1):
                assert main(argv) == 0, job.label
                out = capsys.readouterr().out
                seen[job.label] = hashlib.sha256(out.encode()).hexdigest()
                assert seen[job.label] == reference[job.label], job.label
    assert set(seen) == set(reference)
