"""Command-line front end: dispatch, validation, caching, determinism."""

import ast
import hashlib
import json
import re
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from pfcalc.cli import (DIMFN_RANK_LIMIT, MODULUS_DEGREE_LIMIT, GBCache,
                        build_parser, deserialize_basis, main, serialize_basis)
from pfcalc.functors import parse_functor, rank_at
from pfcalc.groebner import buchberger
from pfcalc.poly import Grevlex, VarSet, parse_poly
from pfcalc.rings import QQ, QuotientRing, ring_from_tag
from pfcalc.schur import SchurAlgebra


def run(capsys, tmp_path, command, config, *extra):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(config))
    code = main([command, "--config", str(path), *extra])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ring_of_module_table(capsys, tmp_path):
    cfg = {"ring": "QQ[t]/(t^2)",
           "module": {"ngens": 1, "relations": [["t"]]},
           "degrees": [0, 1, 2, 3, 4, 5]}
    code, out, _ = run(capsys, tmp_path, "ring-of-module", cfg)
    assert code == 0
    dims = [line.split()[1] for line in out.splitlines()[2:]]
    assert dims == ["2", "1", "1", "1", "1", "1"]


# sha256 of the json output of ring-of-module over QQ on R^n/(e_1) up to
# degree d, recorded before the law calculus used a sparse echelon
RING_OF_MODULE_PINS = {
    (4, 8): "b1c98bd293d56e98242f3c225dbf5925013bda9046101048299c0609853b2835",
    (5, 6): "69b30b708a01e25a0e8b2acd0e197f3eaf4da42caf203246c8aabf5dd753d2e7",
}


@pytest.mark.parametrize("n, d", list(RING_OF_MODULE_PINS))
def test_ring_of_module_free_quotient_pinned(capsys, tmp_path, n, d):
    cfg = {"ring": "QQ",
           "module": {"ngens": n, "relations": [[1] + [0] * (n - 1)]},
           "max_degree": d}
    code, out, _ = run(capsys, tmp_path, "ring-of-module", cfg, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RING_OF_MODULE_PINS[n, d]


# sha256 of the json output of image-closure over F_q = F_p[t]/(f), recorded
# while F_q arithmetic still went through schoolbook products and divisions
IMAGE_CLOSURE_FQ_PINS = {
    ("Fp(5)[t]/(t^2+2)", 2, 4, 1, 2):
        "afeb384bd39c6d4a9e5ba0d7ea2ecc2e7c9eda8e44037575b057cc7bcc19c302",
    ("Fp(3)[t]/(t^2+1)", 2, 2, 1, 3):
        "ee1b0295eba73914c189229de31b6c765012c7ee85a38e7ce4c3a47782496df8",
    ("Fp(2)[t]/(t^2+t+1)", 1, 3, 2, 2):
        "cf1cad9e324340629902b08dffe9a110c5ee2be6a0628498c41c3cc48fec2402",
}


@pytest.mark.parametrize("field, m, k, g, n", list(IMAGE_CLOSURE_FQ_PINS))
def test_image_closure_over_finite_fields_pinned(capsys, tmp_path, field, m, k, g, n):
    tr = {"template": "sum-of-powers", "num_forms": m, "power": k}
    if g != 1:
        tr["form_degree"] = g
    cfg = {"transformation": tr, "rank": n, "field": field}
    code, out, _ = run(capsys, tmp_path, "image-closure", cfg, "--format", "json")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == IMAGE_CLOSURE_FQ_PINS[field, m, k, g, n]


def test_dim_per_prime_text(capsys, tmp_path):
    cfg = {"transformation": "cube-sum", "rank": 2, "primes": [2, 3, 5]}
    code, out, _ = run(capsys, tmp_path, "dim-per-prime", cfg)
    assert code == 0
    got = {line.split()[0]: line.split()[1]
           for line in out.splitlines()[2:]}
    assert got == {"QQ": "4", "F2": "4", "F3": "2", "F5": "4"}


def test_dim_per_prime_csv_columns(capsys, tmp_path):
    cfg = {"transformation": "cube-sum", "rank": 2, "primes": [3]}
    code, out, _ = run(capsys, tmp_path, "dim-per-prime", cfg,
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "prime,dimension,basis_size,time_ms"
    assert len(lines) == 3  # header + QQ + F3


def test_good_primes_flags_three(capsys, tmp_path):
    cfg = {"variables": ["x"], "generators": ["3*x"], "primes": [2, 3, 5, 7]}
    code, out, _ = run(capsys, tmp_path, "good-primes", cfg)
    assert code == 0
    assert "p=3: BAD" in out
    assert out.count("good") >= 3


def test_unknown_config_key_exit_2(capsys, tmp_path):
    cfg = {"transformation": "cube-sum", "rank": 2, "primes": [2], "oops": 1}
    code, _, err = run(capsys, tmp_path, "dim-per-prime", cfg)
    assert code == 2
    assert "oops" in err


def test_missing_config_key_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, tmp_path, "dim-per-prime",
                       {"transformation": "cube-sum", "rank": 2})
    assert code == 2
    assert "primes" in err


def test_size_guard_exit_3(capsys, tmp_path):
    cfg = {"transformation": {"template": "sum-of-powers", "num_forms": 9,
                              "power": 3}, "rank": 4, "primes": [2]}
    code, _, err = run(capsys, tmp_path, "dim-per-prime", cfg)
    assert code == 3
    assert "variables" in err


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
@pytest.mark.parametrize("rank", [80, 10 ** 6])
def test_image_closure_variable_guard_exit_3(capsys, tmp_path, rank, cached):
    # the graph ideal's variables are counted from the functors before the
    # rule expands; with the rule first, rank 80 was refused after 16.8 s
    cfg = {"transformation": "cube-sum", "rank": rank, "field": "QQ"}
    extra = ("--cache-dir", str(tmp_path / "cache")) if cached else ()
    start = time.perf_counter()
    code, out, err = run(capsys, tmp_path, "image-closure", cfg, *extra)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("refused: too many variables for the graph ideal")


def test_invalid_json_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code = main(["dimfn", "--config", str(path)])
    assert code == 2
    assert "JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command,cfg,key", [
    ("good-primes", {"variables": ["x"], "generators": ["1/2*x"],
                     "primes": [2, 3]}, "generators"),
    ("ring-of-module", {"ring": "QQ[t]/(t^2)", "degrees": [0],
                        "module": {"ngens": 1, "relations": [["1/0"]]}}, "1/0"),
    ("taylor", {"variables": ["x", "y"], "polynomial": "1/0*x",
                "direction_count": 1}, "polynomial"),
    ("ring-of-module", {"ring": "ZZ", "degrees": [0],
                        "module": {"ngens": 1, "relations": [["1/2"]]}}, "1/2"),
    ("ring-of-module", {"ring": "Fp(5)", "degrees": [0],
                        "module": {"ngens": 1, "relations": [["1/5"]]}}, "1/5"),
    ("image-closure", {"transformation": "cube-sum", "rank": 2,
                       "field": "Fp(5)[t]/(t^2+1/0)"}, "field"),
], ids=["good-primes", "ring-of-module", "taylor", "ring-of-module-zz",
        "ring-of-module-fp", "field-tag"])
def test_non_unit_denominator_exit_2(capsys, tmp_path, command, cfg, key):
    # 1/2 is no integer, 1/5 no element of F5 and 1/0 no number: a
    # validation error, not a crash
    code, _, err = run(capsys, tmp_path, command, cfg)
    assert code == 2
    assert err.startswith("error:") and key in err


@pytest.mark.parametrize("ring,text,value", [("ZZ", "2", 2), ("Fp(5)", "1/2", 3)])
def test_string_scalar_matches_int(capsys, tmp_path, ring, text, value):
    # a module relation entry given as text means the same ring element
    tables = []
    for entry in (text, value):
        cfg = {"ring": ring, "module": {"ngens": 2, "relations": [[entry, 1]]},
               "degrees": [0, 1, 2]}
        code, out, _ = run(capsys, tmp_path, "ring-of-module", cfg)
        assert code == 0
        tables.append(out)
    assert tables[0] == tables[1]


@pytest.mark.parametrize("command,cfg", [
    ("dimfn", {"functor": "Sym(2)", "window": 3}),
    ("dim-per-prime", {"transformation": "cube-sum", "rank": 2}),
    ("good-primes", {"variables": ["x"], "generators": ["3*x"]}),
], ids=["dimfn", "dim-per-prime", "good-primes"])
def test_composite_prime_exit_2(capsys, tmp_path, command, cfg):
    code, _, err = run(capsys, tmp_path, command, dict(cfg, primes=[2, 4]))
    assert code == 2
    assert err.startswith("error:") and "primes" in err


def test_byte_identical_reruns(capsys, tmp_path):
    cfg = {"functor": "Sym(2) (+) Ext(3)", "primes": [2, 3, 5], "window": 6}
    code1, out1, _ = run(capsys, tmp_path, "dimfn", cfg, "--format", "json")
    code2, out2, _ = run(capsys, tmp_path, "dimfn", cfg, "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_out_directory(capsys, tmp_path):
    cfg = {"transformation": "cube-sum", "rank": 2, "primes": [3]}
    outdir = tmp_path / "results"
    code, out, _ = run(capsys, tmp_path, "dim-per-prime", cfg,
                       "--out", str(outdir))
    assert code == 0
    assert out == ""
    assert (outdir / "dim-per-prime.txt").exists()
    assert (outdir / "dim-per-prime.csv").exists()


def test_taylor_command(capsys, tmp_path):
    cfg = {"variables": ["x"], "polynomial": "x^2", "direction_count": 1,
           "field": "Fp(2)"}
    code, out, _ = run(capsys, tmp_path, "taylor", cfg)
    assert code == 0
    assert "t^2" in out


def test_taylor_no_dependence_exit_2(capsys, tmp_path):
    cfg = {"variables": ["x", "y"], "polynomial": "y^2", "direction_count": 1}
    code, _, err = run(capsys, tmp_path, "taylor", cfg)
    assert code == 2
    assert err.startswith("error:")
    assert "does not involve the first 1 variables" in err


def test_schur_table_rank_zero_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, tmp_path, "schur-table", {"n": 0, "d": 0})
    assert code == 2
    assert "'n' must be >= 1 and 'd' >= 0" in err


@pytest.mark.parametrize("n,d", [(3, 8), (4, 4), (4, 3), (6, 2)])
def test_schur_table_size_guard_exit_3(capsys, tmp_path, n, d):
    start = time.perf_counter()
    code, out, err = run(capsys, tmp_path, "schur-table", {"n": n, "d": d})
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("refused: Schur algebra table exceeds the size guard")


@pytest.mark.parametrize("n,d", [(3, 3), (3, 4), (2, 8), (5, 2)])
def test_schur_table_size_guard_admits(monkeypatch, capsys, tmp_path, n, d):
    # the guard alone is under test, so the table itself is not built
    monkeypatch.setattr(SchurAlgebra, "structure_constants", lambda self: [])
    code, out, _ = run(capsys, tmp_path, "schur-table", {"n": n, "d": d})
    assert code == 0
    assert out.startswith(f"structure constants of S_<={d}(U), dim U = {n}")


def _modulus_jobs(tag):
    return [("ring-of-module", {"ring": tag, "module": {"ngens": 1},
                                "max_degree": 1}),
            ("schur-table", {"n": 1, "d": 1, "ring": tag}),
            ("image-closure", {"transformation": "cube-sum", "rank": 2,
                               "field": tag}),
            ("taylor", {"variables": ["x"], "polynomial": "x^2",
                        "direction_count": 1, "field": tag})]


@pytest.mark.parametrize("command,cfg",
                         _modulus_jobs("Fp(5)[t]/(t^200+t+1)")
                         + _modulus_jobs("QQ[t]/(t^200+t+1)")
                         + _modulus_jobs(f"Fp(2)[t]/(t^{MODULUS_DEGREE_LIMIT + 1}+t+1)")
                         + _modulus_jobs("Fp(5)[t]/(t^1000000+1)")
                         + _modulus_jobs("QQ[t]/(3*t^1000000+t+1)")
                         + _modulus_jobs("Fp(65537)[t]/(t^64+t+1)")
                         + _modulus_jobs("Fp(2147483647)[t]/(t^64+t+1)")
                         + _modulus_jobs("Fp(5)[t]/(t^10000000+1)")
                         + _modulus_jobs("Fp(5)[t]/(t^1000000000000+1)"))
def test_modulus_degree_guard_exit_3(monkeypatch, capsys, tmp_path, command, cfg):
    # refused before is_field runs Rabin's test (18 s at degree 200 over F_5),
    # and with the degree read off the modulus's terms before its coefficient
    # list is laid out, a modulus of degree 10^7 or 10^12 is refused too
    calls = []
    is_field = QuotientRing.is_field
    monkeypatch.setattr(QuotientRing, "is_field",
                        lambda self: calls.append(self) or is_field(self))
    start = time.perf_counter()
    code, out, err = run(capsys, tmp_path, command, cfg)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == "" and calls == []
    assert err.startswith("refused: ring modulus degree exceeds the size guard")


@pytest.mark.parametrize("tag", ["Fp(5)[t]/(t^2+2)",
                                 f"Fp(2)[t]/(t^{MODULUS_DEGREE_LIMIT}+t+1)",
                                 f"Fp(31)[t]/(t^{MODULUS_DEGREE_LIMIT}+t+1)"])
def test_modulus_degree_guard_admits(capsys, tmp_path, tag):
    code, out, _ = run(capsys, tmp_path, "schur-table",
                       {"n": 1, "d": 2, "ring": tag})
    assert code == 0
    assert out.startswith("structure constants of S_<=2(U), dim U = 1")
    cfg = {"ring": tag, "module": {"ngens": 1, "relations": [["t"]]},
           "max_degree": 0}
    code, out, _ = run(capsys, tmp_path, "ring-of-module", cfg)
    assert code == 0
    assert out.startswith("coordinate ring of a module over "
                          + ring_from_tag(tag).tag())


@pytest.mark.parametrize("window", [15, 30, 10 ** 12])
def test_dimfn_window_guard_exit_3(capsys, tmp_path, window):
    # refused from the functor's rank at the window (40,920 at window 30),
    # before any evaluation
    start = time.perf_counter()
    code, out, err = run(capsys, tmp_path, "dimfn",
                         {"functor": "Sym(4)", "primes": [2], "window": window})
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("refused: functor rank at the window exceeds the size guard")


def test_dimfn_window_guard_admits(capsys, tmp_path):
    # Sym(4) runs at window 12, and it and every dimfn job of the benchmark
    # stay below the guard
    code, out, _ = run(capsys, tmp_path, "dimfn",
                       {"functor": "Sym(4)", "primes": [2], "window": 12},
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["table"]["2"][12] == rank_at(parse_functor("Sym(4)"), 12)
    jobs = [("Sym(4)", 14), ("Sym(4)", 7), ("Ext(4) (+) Sym(3)", 6),
            ("Shift(1, Sym(3))", 6), ("Sym(2) (+) Ext(3)", 7)]
    assert all(rank_at(parse_functor(f), w) <= DIMFN_RANK_LIMIT for f, w in jobs)


@pytest.mark.parametrize("degrees", [[3], [0, 1, 2, 3], [2]])
def test_module_piece_guard_exit_3(capsys, tmp_path, degrees):
    # t is a unit of the degree-64 field, so R/(t) is 0, but its invariance
    # system at degree 3 took 54 s; refused from the largest degree asked for
    cfg = {"ring": "Fp(2)[t]/(t^64+t+1)",
           "module": {"ngens": 1, "relations": [["t"]]}, "degrees": degrees}
    start = time.perf_counter()
    code, out, err = run(capsys, tmp_path, "ring-of-module", cfg)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("refused: module coordinate ring exceeds the size guard")


def test_module_piece_guard_admits(capsys, tmp_path):
    # the same zero module over a degree-16 field runs at degree 3
    cfg = {"ring": "Fp(2)[t]/(t^16+t+1)",
           "module": {"ngens": 1, "relations": [["t"]]}, "degrees": [3]}
    code, out, _ = run(capsys, tmp_path, "ring-of-module", cfg, "--format", "json")
    assert code == 0
    assert json.loads(out)["pieces"] == [{"basis": [], "degree": 3, "dimension": 0}]


@pytest.mark.parametrize("p, code", [(2 ** 61 - 1, 0), (2 ** 89 - 1, 2)],
                         ids=["2^61-1", "2^89-1"])
def test_large_prime_configs_answer_at_once(capsys, tmp_path, p, code):
    # is_prime decides 2^61 - 1 by Miller-Rabin; 2^89 - 1 is past the
    # limit of its bases, and the config is refused as naming no prime
    jobs = [("schur-table", {"n": 1, "d": 2, "ring": f"Fp({p})"}, "ring"),
            ("good-primes", {"variables": ["x"], "generators": ["3*x"],
                             "primes": [2, p]}, "primes")]
    for command, cfg, key in jobs:
        start = time.perf_counter()
        got, out, err = run(capsys, tmp_path, command, cfg)
        assert time.perf_counter() - start < 1.0
        assert got == code
        if code:
            assert out == "" and f"config key {key!r}" in err and str(p) in err


def test_equivariance_command(capsys, tmp_path):
    cfg = {"transformation": "cube-sum", "rank": 2, "field": "Fp(3)"}
    code, out, _ = run(capsys, tmp_path, "equivariance", cfg)
    assert code == 0
    assert "PASS" in out


def test_schur_table_command(capsys, tmp_path):
    code, out, _ = run(capsys, tmp_path, "schur-table", {"n": 1, "d": 2})
    assert code == 0
    assert "((1,), (1,), (1,)) -> 1" in out


# ---------------------------------------------------------------------------
# Cache behavior


def _sample_basis():
    vs = VarSet(("x", "y"))
    gens = [parse_poly("x^2 - y", QQ, vs), parse_poly("x*y - 1", QQ, vs)]
    return buchberger(gens, Grevlex())


def test_cache_round_trip(tmp_path):
    gb = _sample_basis()
    cache = GBCache(str(tmp_path))
    key = GBCache.key(["x^2 - y", "x*y - 1"], "grevlex", "QQ")
    cache.store(key, gb)
    back = cache.lookup(key)
    assert back is not None
    assert serialize_basis(back) == serialize_basis(gb)
    assert back.generators == gb.generators


def test_cache_unknown_key_misses(tmp_path):
    cache = GBCache(str(tmp_path))
    assert cache.lookup("0" * 64) is None


def test_cache_corrupt_entry_warns_and_misses(tmp_path, capsys):
    gb = _sample_basis()
    cache = GBCache(str(tmp_path))
    key = GBCache.key(["g"], "grevlex", "QQ")
    cache.store(key, gb)
    path = tmp_path / f"gb-{key}.json"
    path.write_text("not json at all")
    assert cache.lookup(key) is None
    assert "corrupt" in capsys.readouterr().err


def test_cache_version_bump_invalidates(tmp_path):
    gb = _sample_basis()
    cache = GBCache(str(tmp_path))
    key = GBCache.key(["g"], "grevlex", "QQ")
    cache.store(key, gb)
    path = tmp_path / f"gb-{key}.json"
    doc = json.loads(path.read_text())
    doc["version"] = "0-obsolete"
    path.write_text(json.dumps(doc))
    assert cache.lookup(key) is None


def test_serialize_round_trip_bytes():
    gb = _sample_basis()
    blob = serialize_basis(gb)
    assert serialize_basis(deserialize_basis(blob)) == blob


def test_cached_run_matches_uncached(capsys, tmp_path):
    cfg = {"transformation": "cube-sum", "rank": 2, "primes": [3]}
    code1, out1, _ = run(capsys, tmp_path, "dim-per-prime", cfg)
    cache_dir = tmp_path / "cache"
    code2, out2, _ = run(capsys, tmp_path, "dim-per-prime", cfg,
                         "--cache-dir", str(cache_dir))
    code3, out3, _ = run(capsys, tmp_path, "dim-per-prime", cfg,
                         "--cache-dir", str(cache_dir))
    assert code1 == code2 == code3 == 0
    assert out1 == out2 == out3
    assert any(p.name.startswith("gb-") for p in cache_dir.iterdir())


def test_cache_entry_with_zero_denominator_is_recomputed(capsys, tmp_path):
    cfg = {"transformation": "cube-sum", "rank": 2, "field": "Fp(3)"}
    code1, out1, _ = run(capsys, tmp_path, "image-closure", cfg)
    cache_dir = tmp_path / "cache"
    run(capsys, tmp_path, "image-closure", cfg, "--cache-dir", str(cache_dir))
    (entry,) = cache_dir.iterdir()
    doc = json.loads(entry.read_text())
    doc["generators"][0] = "1/0*" + doc["names"][0]
    entry.write_text(json.dumps(doc, sort_keys=True))
    code2, out2, err = run(capsys, tmp_path, "image-closure", cfg,
                           "--cache-dir", str(cache_dir))
    assert code1 == code2 == 0
    assert out2 == out1
    assert "corrupt cache entry" in err
    assert "1/0" not in entry.read_text()  # the recomputed basis replaced it


def test_cache_hit_obeys_max_basis(capsys, tmp_path):
    cfg = {"transformation": "cube-sum", "rank": 2, "field": "Fp(3)"}
    cache_dir = tmp_path / "cache"
    code, _, _ = run(capsys, tmp_path, "image-closure", cfg,
                     "--cache-dir", str(cache_dir))
    assert code == 0
    miss = run(capsys, tmp_path, "image-closure", cfg, "--max-basis", "1")
    hit = run(capsys, tmp_path, "image-closure", cfg, "--max-basis", "1",
              "--cache-dir", str(cache_dir))
    assert miss[0] == hit[0] == 3
    assert miss[2] == hit[2]
    assert "eliminated basis too large" in hit[2]


@pytest.mark.parametrize("field, value", [("order", "lex"), ("ring", "Fp(7)")])
def test_cache_mismatched_entry_is_recomputed(capsys, tmp_path, field, value):
    cfg = {"transformation": "cube-sum", "rank": 2, "field": "Fp(3)"}
    code1, out1, _ = run(capsys, tmp_path, "image-closure", cfg)
    cache_dir = tmp_path / "cache"
    run(capsys, tmp_path, "image-closure", cfg, "--cache-dir", str(cache_dir))
    (entry,) = cache_dir.iterdir()
    doc = json.loads(entry.read_text())
    doc[field] = value
    entry.write_text(json.dumps(doc, sort_keys=True))
    code2, out2, err = run(capsys, tmp_path, "image-closure", cfg,
                           "--cache-dir", str(cache_dir))
    assert code1 == code2 == 0
    assert out2 == out1
    assert "mismatched cache entry" in err
    doc = json.loads(entry.read_text())
    assert (doc["order"], doc["ring"]) == ("grevlex", "Fp(3)")


def test_readme_flags_match_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    flags = readme[readme.index("Flags:"):readme.index("Exit codes:")]
    documented = set(re.findall(r"`(--[a-z-]+)", flags))
    parsed = {opt for action in build_parser()._actions
              for opt in action.option_strings if opt.startswith("--")}
    assert documented == parsed - {"--help"}


def test_runtime_imports_are_stdlib():
    # the README promises no runtime dependencies beyond the standard
    # library; the one exception is local to the function named here
    allowed = {("rings.py", "_modulus_irreducible", "sympy")}
    outside = set()

    def visit(node, path, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module]
            else:
                names = []
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names:
                    outside.add((path.name, func, top))
            visit(child, path, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)

    src = Path(__file__).resolve().parents[1] / "src" / "pfcalc"
    for path in sorted(src.rglob("*.py")):
        visit(ast.parse(path.read_text()), path, None)
    assert outside <= allowed


def _referenced_names(tree) -> Counter:
    """How often each name occurs in tree as a name, an attribute or an import."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
    return out


def test_groebner_and_linalg_functions_are_used_in_src():
    # a public function of these modules that no other module calls is
    # test-only code: tests call the surviving API instead
    src = Path(__file__).resolve().parents[1] / "src" / "pfcalc"
    public = {}
    used = {}
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name in ("groebner.py", "linalg.py"):
            public.update({node.name: path.name for node in tree.body
                           if isinstance(node, ast.FunctionDef)
                           and not node.name.startswith("_")})
        for name in _referenced_names(tree):
            used.setdefault(name, set()).add(path.name)
    assert public
    unused = {name for name, home in public.items()
              if not used.get(name, set()) - {home}}
    assert unused == set()


def test_functors_functions_are_used_in_src():
    # a public function of functors.py that src/ names only inside its own
    # body is test-only code; functors.py itself calls some of them
    src = Path(__file__).resolve().parents[1] / "src" / "pfcalc"
    used = Counter()
    for path in sorted(src.rglob("*.py")):
        used += _referenced_names(ast.parse(path.read_text()))
    public = [node for node in ast.parse((src / "functors.py").read_text()).body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert public
    unused = {node.name for node in public
              if used[node.name] == _referenced_names(node)[node.name]}
    assert unused == set()


def test_groebner_defaulted_parameters_are_passed_in_src():
    # a defaulted parameter of a public function or method of groebner.py
    # that no call in src/ passes is an option that does nothing.
    # buchberger's weights is kept: tests/test_engine_pins.py pins weighted
    # new_poly_log runs through it
    allowed = {("buchberger", "weights")}
    src = Path(__file__).resolve().parents[1] / "src" / "pfcalc"
    defaulted = {}  # (function, parameter) -> positional index, None if keyword-only

    def collect(fn, skip):
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for k, a in enumerate(positional[first:], first):
            defaulted[(fn.name, a.arg)] = k - skip
        for a, d in zip(args.kwonlyargs, args.kw_defaults):
            if d is not None:
                defaulted[(fn.name, a.arg)] = None

    for node in ast.parse((src / "groebner.py").read_text()).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            collect(node, 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    collect(fn, 1)
    passed = set()
    for path in sorted(src.rglob("*.py")):
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            splat = any(isinstance(a, ast.Starred) for a in call.args)
            for (fn, param), pos in defaulted.items():
                if fn == name and (
                        splat or any(kw.arg in (param, None) for kw in call.keywords)
                        or (pos is not None and len(call.args) > pos)):
                    passed.add((fn, param))
    assert allowed <= set(defaulted)
    assert set(defaulted) - passed - allowed == set()


def test_ring_types_are_tested_only_in_rings():
    # rings own every coefficient conversion: no tag is compared with a
    # string literal, and outside rings.py a ring's class is tested only
    # where it picks an algorithm or a syntax (the Groebner kernel, the
    # parenthesized quotient-ring coefficient, the parser's t)
    classes = {"IntegerRing", "RationalField", "ModularIntegers", "QuotientRing"}
    allowed = {("groebner.py", "_reduced_basis"), ("poly.py", "_fmt_coeff"),
               ("poly.py", "parse_factor")}
    found = set()

    def is_tag(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "tag")

    def literals(node):
        nodes = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) \
            else [node]
        return any(isinstance(n, ast.Constant) and isinstance(n.value, str)
                   for n in nodes)

    def class_names(node):
        nodes = node.elts if isinstance(node, ast.Tuple) else [node]
        return {n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
                for n in nodes}

    def visit(node, path, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Compare):
                sides = [child.left, *child.comparators]
                if any(map(is_tag, sides)) and any(map(literals, sides)):
                    found.add((path.name, func, "tag"))
            elif isinstance(child, ast.Call):
                if (isinstance(child.func, ast.Attribute) and is_tag(child.func.value)
                        and any(map(literals, child.args))):
                    found.add((path.name, func, "tag"))
                if (isinstance(child.func, ast.Name) and child.func.id == "isinstance"
                        and len(child.args) == 2 and path.name != "rings.py"
                        and class_names(child.args[1]) & classes):
                    found.add((path.name, func, "isinstance"))
            visit(child, path, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)

    src = Path(__file__).resolve().parents[1] / "src" / "pfcalc"
    for path in sorted(src.rglob("*.py")):
        visit(ast.parse(path.read_text()), path, None)
    assert found <= {(name, func, "isinstance") for name, func in allowed}


def test_runtime_imports_are_used():
    # every name a module under src/pfcalc imports is referenced in it
    unused = set()
    src = Path(__file__).resolve().parents[1] / "src" / "pfcalc"
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                imported.update((a.asname or a.name).partition(".")[0]
                                for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.update((path.name, name) for name in imported - used)
    assert not unused


def test_private_module_names_are_used():
    # every module-level _name under src/pfcalc (function, class or
    # assignment) is referenced in src/pfcalc outside its own definition
    src = Path(__file__).resolve().parents[1] / "src" / "pfcalc"
    defined = set()
    used = set()
    for path in sorted(src.rglob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = {n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)}
            else:
                names = set()
            private = {(path.name, n) for n in names
                       if n.startswith("_") and not n.startswith("__")}
            defined |= private
            refs = {node.id for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            refs |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            refs |= {a.name for node in ast.walk(stmt)
                     if isinstance(node, ast.ImportFrom) for a in node.names}
            # a recursive helper's calls to itself do not count
            used |= refs - {n for _, n in private}
    assert {(f, n) for f, n in defined if n not in used} == set()


def test_dimfn_dual_of_ext_matches_ext(capsys, tmp_path):
    # Ext(2) has no basis at rank 1; its dual must still evaluate there
    tables = {}
    for functor in ("Ext(2)", "Dual(Ext(2))"):
        cfg = {"functor": functor, "primes": [2], "window": 3}
        code, out, _ = run(capsys, tmp_path, "dimfn", cfg, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        tables[functor] = (doc["table"], doc["coefficients"], doc["jumping_primes"])
    assert tables["Dual(Ext(2))"] == tables["Ext(2)"]
    assert tables["Ext(2)"][0] == {"0": [0, 0, 1, 3], "2": [0, 0, 1, 3]}
