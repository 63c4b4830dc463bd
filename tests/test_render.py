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



# keys a record may have, with quotes, backslashes, non-ASCII and the format
# character %
RECORD_KEYS = ["alpha", "c", 'say "hi"', "back\\slash", "Schur über ℚ", "😀",
               "100%", "%s", ""]
INT_ARRAYS = [[0], [1, 0], [1, -2, 3], [10 ** 30, -7]]
# equal to an int array above, but not one: json writes true, 1.0 and null
NOT_INT_ARRAYS = [[True, 0], [1.0, 0], [1, -2.0, 3], [False], [0.0], [None],
                  [1, None, "1"]]


def random_record_value(rng, depth):
    kind = rng.randrange(7 if depth else 6)
    if kind == 0:
        return random_scalar(rng)
    if kind == 1:
        return rng.choice([{}, [], ()])
    if kind == 2:  # all-int arrays, often repeated, as lists or tuples
        return rng.choice([list, tuple])(rng.choice(INT_ARRAYS))
    if kind == 3:
        return [rng.choice(STRINGS) for _ in range(rng.randint(1, 3))]
    if kind == 4:
        return tuple(random_scalar(rng) for _ in range(rng.randint(1, 3)))
    if kind == 5:
        return rng.choice([list, tuple])(rng.choice(NOT_INT_ARRAYS))
    return random_record(rng, rng.sample(RECORD_KEYS, rng.randint(1, 3)), depth - 1)


def random_record(rng, keys, depth):
    return {k: random_record_value(rng, depth) for k in keys}


def random_records(rng, depth):
    """A list of records that share one key set, in one insertion order or
    in several."""
    keys = rng.sample(RECORD_KEYS, rng.randint(1, 5))
    records = []
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.3:
            keys = rng.sample(keys, len(keys))
        records.append(random_record(rng, keys, depth))
    return records


def wrapped(rng, doc, depth):
    """doc inside depth seeded containers, so its records sit at that indent."""
    for _ in range(depth):
        doc = rng.choice([lambda d: {"rows": d, "n": 1}, lambda d: [d],
                          lambda d: (0, d), lambda d: [d, {"a": (1, 0)}]])(doc)
    return doc


@pytest.mark.parametrize("seed", range(20))
def test_writer_matches_json_dumps_on_random_records(seed):
    rng = random.Random(4000 + seed)
    for depth in range(5):
        for _ in range(10):
            doc = wrapped(rng, random_records(rng, rng.randrange(3)), depth)
            assert render_json(doc) == dumps(doc)


@pytest.mark.parametrize("doc", [
    [{"b": [1, 0], "a": "x"}, {"a": "y", "b": [1, 0]}, {"b": (1, 0), "a": "z"}],
    {"rows": [{"%s": 1, "%%": (True, 0)}, {"%%": (1, 0), "%s": 2}]},
    (), [()], {"a": ()}, [{"a": (), "b": ((),)}], ((), [()]),
    [{"a": (1, 0)}, {"a": (True, 0)}, {"a": (1.0, 0)}, {"a": [1, 0]}],
    {"alpha": (0, 1), "beta": (0, 1), "c": "2", "gamma": (0, 2)},
], ids=["insertion-orders", "percent-keys", "0-tuple", "0-tuple-in-list",
        "0-tuple-in-record", "0-tuple-in-tuple", "0-tuples", "equal-arrays",
        "schur-triple"])
def test_writer_matches_json_dumps_on_records(doc):
    assert render_json(doc) == dumps(doc)


def random_scalar_keyed(rng, depth):
    """A seeded dict with non-str keys of one kind, so they sort: a record
    or, with a container value, one written recursively."""
    kind = rng.choice([[1, 0, -3, 10 ** 20], [1.5, 1.0, -0.25, float("inf"), 2],
                       [True, False], [None]])
    keys = rng.sample(kind, rng.randint(1, len(kind)))
    return {k: (random_scalar_keyed(rng, depth - 1) if depth and rng.random() < 0.3
                else random_record_value(rng, 0)) for k in keys}


@pytest.mark.parametrize("seed", range(10))
def test_writer_converts_keys_as_json_does(seed):
    # 1, 1.0 and True are one dict key but "1", "1.0" and "true": records
    # with equal keys of other types must not share a shape
    rng = random.Random(4100 + seed)
    for depth in range(3):
        for _ in range(10):
            doc = wrapped(rng, [random_scalar_keyed(rng, depth)
                                for _ in range(rng.randint(1, 4))], depth)
            assert render_json(doc) == dumps(doc)
    doc = [{1: 2}, {True: 2}, {1.0: 2}, {"1": 2}, {None: 1}, {1.5: 2}]
    assert render_json(doc) == dumps(doc)


def test_writer_refuses_keys_json_refuses():
    for doc in ({(1, 2): 3}, {"rows": [{frozenset(): 1}]}):
        with pytest.raises(TypeError, match="keys must be str, int, float, bool or None"):
            dumps(doc)
        with pytest.raises(TypeError, match="keys must be str, int, float, bool or None"):
            render_json(doc)


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
