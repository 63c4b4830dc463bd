"""Command-line front end: dispatch, validation, caching, determinism."""

import ast
import dataclasses
import hashlib
import json
import re
import sys
import time
from collections import Counter
from math import comb
from pathlib import Path

import pytest

from pfcalc import cli, geometry
from pfcalc.cli import (DIMFN_RANK_LIMIT, DIMFN_WINDOW_LIMIT, INT_DIGIT_LIMIT, GBCache,
                        build_parser, deserialize_basis, main, serialize_basis)
from pfcalc.coordring import check_system_size
from pfcalc.functors import Sym, parse_functor, rank_at
from pfcalc.groebner import buchberger
from pfcalc.poly import Grevlex, VarSet, parse_poly
from pfcalc.rings import MODULUS_DEGREE_LIMIT, QQ, QuotientRing, ring_from_tag
from pfcalc.schur import SchurAlgebra
from test_render import load_workloads


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


# sha256 of ring-of-module stdout for degrees 0-5 in each format, recorded
# while every characteristic still solved the parametric translation system
RING_OF_MODULE_FORMAT_PINS = {
    ("QQ[t]/(t^2+1)", (("1+t", "2"),)): (
        "7c509fa81bc9716e610bb53b9cd4842fe5cb6db72551c53b6ab055d7a5b9ce72",
        "cbd998948236efd832429c61338828c3dccfe018f309a37ee2862e3e3024e8c0",
        "e0e378b3b193d54a60e2ab95bef7a69485fc24a655f90456edfdd1ead3ed49ff"),
    ("QQ[t]/(t^3)", (("t", "t^2"),)): (
        "539f6f7ea703a54cdd3b9d79427db14436ff7c0606a452baf56ee5964565222e",
        "300f5b71908e267dbd3e4083abf6e221e4ce6b84b2de025ca0fa13ba0a486ebe",
        "358bc1ad29521f7ad34225a68178a6711844cff9c74ce43e72d1cc35a6140574"),
    ("ZZ", ((2, 4), (0, 6))): (
        "dac16cd4d01cc105df5fdaf4e5f81d654fce915de7b9450ad944cfed743974c2",
        "2dd2dd455ad62a2ae65fd3a5d150f2189939fea762a113d13262b98960589ec4",
        "2d269d81aa40da017ad94ea7aa003efbb33d03a6eb42b76690c65c56a3cc9720"),
    ("QQ", ((1, 2, 0), (0, 1, 3))): (
        "a97bd96fffa25f21ef910af1e75e6d2e93b2c10ee436b02fb02c236779e11333",
        "14fd7a0892d1362683e116a00ae321512e658a6498055873f8d751b4d3b44cff",
        "4a7eef3d9be5b289715f5717317b049f5fdfbb8c9ced6d1da8348dd1ee8166cf"),
    ("Fp(3)", ((1, 1),)): (
        "587572e3fa1b5164072f8ba5b39717bbad6141b5d408c1a2d967557a55c86171",
        "e26159eaa713861bf56937ac4c5a0079d3ad37bfe40f0e6c37e1962a49cc74c9",
        "4a7eef3d9be5b289715f5717317b049f5fdfbb8c9ced6d1da8348dd1ee8166cf"),
    ("Fp(2)[t]/(t^2)", (("t",),)): (
        "33e104a47df3ddfb4944fac00514d31e14db57e6bdedaaad1debd0cf4c1c14a5",
        "34fbb1d686b338620ebce0b90e740e0a93110b5c9e69adcd13121a65e3aef428",
        "612de8bfec9c520e32bdab9fd08ad4cbcb50bc75f0c0af6a51ca1642b41d8d63"),
}


@pytest.mark.parametrize("tag, relations", list(RING_OF_MODULE_FORMAT_PINS))
def test_ring_of_module_formats_pinned(capsys, tmp_path, tag, relations):
    cfg = {"ring": tag,
           "module": {"ngens": len(relations[0]),
                      "relations": [list(row) for row in relations]},
           "max_degree": 5}
    for fmt, want in zip(("text", "json", "csv"), RING_OF_MODULE_FORMAT_PINS[tag, relations]):
        code, out, _ = run(capsys, tmp_path, "ring-of-module", cfg, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, fmt


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


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_dim_per_prime_runs_a_repeated_prime_once(monkeypatch, capsys, tmp_path, fmt):
    fields = []
    own = cli._cached_image_closure

    def closure(alpha, n, ring, cache):
        fields.append(ring.tag())
        return own(alpha, n, ring, cache)

    monkeypatch.setattr(cli, "_cached_image_closure", closure)
    cfg = {"transformation": "cube-sum", "rank": 2, "primes": [3, 3]}
    code, out, _ = run(capsys, tmp_path, "dim-per-prime", cfg, "--format", fmt)
    assert code == 0
    assert fields == ["QQ", "Fp(3)"]
    if fmt == "text":
        assert [line.split()[0] for line in out.splitlines()[2:]] == ["QQ", "F3"]
    elif fmt == "csv":
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["0", "3"]
    else:
        assert list(json.loads(out)["dimensions"]) == ["0", "3"]


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


@pytest.mark.parametrize("command,cfg,message", [
    ("dim-per-prime", {"transformation": {"template": "sum-of-powers", "num_forms": 9,
                                          "power": 3}, "rank": 4, "primes": [2]},
     "too many variables for the graph ideal"),
    ("ring-of-module", {"ring": "QQ", "module": {"ngens": 1}, "max_degree": 9},
     "degree exceeds the size guard"),
    ("schur-table", {"n": 1, "d": 9}, "degree exceeds the size guard"),
    ("dimfn", {"functor": "Sym(9)", "primes": [2], "window": 10},
     "functor degree exceeds the size guard"),
    ("good-primes", {"variables": [f"x{i}" for i in range(41)],
                     "generators": ["x0"], "primes": [2]}, "too many variables"),
], ids=["dim-per-prime", "ring-of-module", "schur-table", "dimfn", "good-primes"])
def test_size_guard_exit_3(capsys, tmp_path, command, cfg, message):
    # degree 9 is one above MAX_DEGREE, and 41 variables one above MAX_VARIABLES
    start = time.perf_counter()
    code, out, err = run(capsys, tmp_path, command, cfg)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith(f"refused: {message}; measured ")


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


@pytest.mark.parametrize("ring,entry", [("QQ", "1e10000000"), ("QQ[t]/(t^2)", "1 + -t")])
def test_string_scalar_outside_the_parser_syntax_exit_2(capsys, tmp_path, ring, entry):
    # a text entry is read by parse_poly: exponent notation, which Fraction
    # read (1e10000000 in 11 s), and a sign after "+" are validation errors
    cfg = {"ring": ring, "module": {"ngens": 1, "relations": [[entry]]}, "degrees": [0]}
    start = time.perf_counter()
    code, out, err = run(capsys, tmp_path, "ring-of-module", cfg)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith(f"error: bad scalar {entry!r}")


@pytest.mark.parametrize("command,cfg,key", [
    ("image-closure", {"transformation": "cube-sum", "rank": True, "field": "QQ"},
     "rank"),
    ("schur-table", {"n": 2, "d": True}, "d"),
    ("dimfn", {"functor": "Const(ZZ/2)", "primes": [2], "window": True}, "window"),
    ("ring-of-module", {"ring": "ZZ", "module": {"ngens": True}, "degrees": [0]},
     "ngens"),
    ("ring-of-module", {"ring": "ZZ", "module": {"ngens": 1}, "degrees": [True]},
     "degrees"),
    ("ring-of-module", {"ring": "ZZ", "module": {"ngens": 1, "relations": [[True]]},
                        "degrees": [0]}, "scalar"),
    ("good-primes", {"variables": ["x"], "weights": [True], "generators": ["3*x"],
                     "primes": [2]}, "weights"),
], ids=["rank", "d", "window", "ngens", "degrees", "relations", "weights"])
def test_json_booleans_are_not_integers_exit_2(capsys, tmp_path, command, cfg, key):
    # JSON true is a Python bool, and so an int: it must not run as 1 (a
    # window of true printed "window 0..True")
    code, out, err = run(capsys, tmp_path, command, cfg)
    assert code == 2 and out == ""
    assert err.startswith("error:") and key in err


@pytest.mark.parametrize("command,cfg", [
    ("good-primes", {"variables": ["x", "x"], "generators": ["3*x"], "primes": [2]}),
    ("taylor", {"variables": ["x", "x"], "polynomial": "x^2", "direction_count": 1}),
], ids=["good-primes", "taylor"])
def test_repeated_variable_name_exit_2(capsys, tmp_path, command, cfg):
    code, out, err = run(capsys, tmp_path, command, cfg)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "variables" in err


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


@pytest.mark.parametrize("functor,position", [
    ("Sym(-1)", 4), ("Shift(-1, Id)", 6), ("Const(ZZ/-2)", 9), ("Sym(1-2)", 5)])
def test_dimfn_negative_integer_exit_2(capsys, tmp_path, functor, position):
    # refused by the parser, at the sign, before any evaluation
    cfg = {"functor": functor, "primes": [2], "window": 3}
    code, out, err = run(capsys, tmp_path, "dimfn", cfg)
    assert (code, out) == (2, "")
    assert err.startswith("error: config key 'functor': expected ")
    assert err.endswith(f" at position {position} in {functor!r}\n")
    assert functor[position] == "-"


def test_schur_table_rank_zero_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, tmp_path, "schur-table", {"n": 0, "d": 0})
    assert code == 2
    assert "'n' must be >= 1 and 'd' >= 0" in err


@pytest.mark.parametrize("n,d", [(3, 8), (4, 4), (4, 3), (6, 2), (60, 0), (12, 1)])
def test_schur_table_size_guard_exit_3(capsys, tmp_path, n, d):
    start = time.perf_counter()
    code, out, err = run(capsys, tmp_path, "schur-table", {"n": n, "d": d})
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("refused: Schur algebra table exceeds the size guard")


@pytest.mark.parametrize("n,d", [(3, 3), (3, 4), (2, 8), (5, 2), (12, 0), (11, 1)])
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


@pytest.mark.parametrize("command,cfg",
                         _modulus_jobs("QQ[t]/(t^64-2^300000*t^63-1)")
                         + _modulus_jobs("QQ[t]/(" + "+".join(f"{'9' * 301}*t^{i}"
                                                              for i in range(65)) + ")"))
def test_modulus_bits_guard_exit_3(capsys, tmp_path, command, cfg):
    # the fold of either modulus took 15 s to lay out; both are refused
    # from their parsed terms
    start = time.perf_counter()
    code, out, err = run(capsys, tmp_path, command, cfg)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("refused: ring modulus coefficients exceed the size guard")


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


@pytest.mark.parametrize("functor,primes,window", [
    ("Const(ZZ)", [2, 3], DIMFN_WINDOW_LIMIT + 1), ("Const(ZZ)", [2, 3], 20_000),
    ("Const(ZZ/2)", [2], 100_000)])
def test_dimfn_degree_zero_window_guard_exit_3(capsys, tmp_path, functor, primes, window):
    # a degree-0 functor's rank never grows, so its window has its own limit;
    # Const(ZZ) took 27 s at window 20,000 when the fit took every row
    cfg = {"functor": functor, "primes": primes, "window": window}
    start = time.perf_counter()
    code, out, err = run(capsys, tmp_path, "dimfn", cfg)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err == ("refused: dimfn window exceeds the size guard; measured "
                   f"limit={DIMFN_WINDOW_LIMIT}, window={window}\n")


def test_dimfn_degree_zero_window_guard_admits(capsys, tmp_path):
    cfg = {"functor": "Const(ZZ)", "primes": [2, 3], "window": DIMFN_WINDOW_LIMIT}
    code, out, _ = run(capsys, tmp_path, "dimfn", cfg, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["table"]["3"] == [1] * (DIMFN_WINDOW_LIMIT + 1)
    assert doc["coefficients"] == {"0": [1], "2": [1], "3": [1]}


def test_ring_of_module_computes_a_repeated_degree_once(capsys, tmp_path):
    # 20,000 listed copies of degree 8 took 44 s when each built its piece
    cfg = {"ring": "QQ[t]/(t^2)", "module": {"ngens": 2, "relations": [["t", 0]]},
           "degrees": [8]}
    code, once, _ = run(capsys, tmp_path, "ring-of-module", cfg)
    assert code == 0
    lines = once.splitlines(keepends=True)
    cfg["degrees"] = [8] * 20_000
    start = time.perf_counter()
    code, out, _ = run(capsys, tmp_path, "ring-of-module", cfg)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out == "".join(lines[:2]) + lines[2] * 20_000
    cfg["degrees"] = [2, 0, 2, 1, 0]
    code, out, _ = run(capsys, tmp_path, "ring-of-module", cfg, "--format", "json")
    pieces = json.loads(out)["pieces"]
    assert [p["degree"] for p in pieces] == [0, 0, 1, 2, 2]
    assert pieces[0] == pieces[1] and pieces[3] == pieces[4]


@pytest.mark.parametrize("degrees", [{"max_degree": 8}, {"degrees": [0, 1, 2, 3]},
                                     {"degrees": [8, 4]}])
def test_module_piece_guard_exit_3(capsys, tmp_path, degrees):
    # t is a unit of the degree-64 field, so R/(t) is 0, but its Hasse systems
    # over degrees 0-8 have 86,592 rows plus columns, 20,736 over 0-3 and
    # 28,800 over 4 and 8, though each degree alone is under the limit
    cfg = {"ring": "Fp(2)[t]/(t^64+t+1)",
           "module": {"ngens": 1, "relations": [["t"]]}, **degrees}
    start = time.perf_counter()
    code, out, err = run(capsys, tmp_path, "ring-of-module", cfg)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("refused: module coordinate ring exceeds the size guard")


EIGHT = "+".join(f"3^1000000*{v}" for v in "abcdefgh")


@pytest.mark.parametrize("command, cfg, measured", [
    ("taylor", {"variables": list("abcdef"), "polynomial": "(a+b+c+d+e+f)^15",
                "direction_count": 1}, "work=1042913"),
    ("good-primes", {"variables": ["x"], "generators": ["3^10000000*x"],
                     "primes": [2]}, "work=55365"),
    ("good-primes", {"variables": list("abcdefgh"), "generators": [f"({EIGHT})*({EIGHT})"],
                     "primes": [2]}, "work=83485"),
    ("taylor", {"variables": ["x"], "polynomial": "t^3000000*x", "direction_count": 1,
                "field": "QQ[t]/(t^3-5*t-7)"}, "work=62715"),
    ("ring-of-module", {"ring": "QQ[t]/(t^3-5*t-7)", "degrees": [1],
                        "module": {"ngens": 1, "relations": [["t^4000000"]]}}, "work=178965"),
    ("good-primes", {"variables": list("abcdefi"), "primes": [2],
                     "generators": ["(a+b+c+d+e+f)^10 + i"] * 20}, "work=59733"),
    ("ring-of-module", {"ring": "QQ", "degrees": [3], "module": {"ngens": 3, "relations": [
        ["3^150000", "7^90000", "5^100000"], ["11^80000", "3^150001", "2^300000"]]}},
     "work=51434"),
    ("ring-of-module", {"ring": "QQ", "degrees": [1, 2, 3, 4, 5],
                        "module": {"ngens": 2, "relations": [["3^200000", "7^100000"]]}},
     "work=64095"),
], ids=["taylor", "good-primes", "good-primes-product", "taylor-extension", "relation-entry",
        "good-primes-twenty-generators", "relation-rows", "relation-row"])
def test_parser_power_guard_exit_3(capsys, tmp_path, command, cfg, measured):
    # the parser expanded ^15 in 5.5 s and built 3^10000000 in 4.3 s; size
    # estimates admitted the product of the two sums of eight 3^1000000 (16.9 s
    # in parse_poly) and t^3000000*x (5.9 s), and no guard saw the relation
    # entry (5.8 s to read it); sympy, which tests the cubic field, is
    # imported before the clock starts.  Each text of the last three is
    # admitted alone, but the texts of one config share one budget: with a
    # budget per text the twenty generators took 1.5 s to read, the two rows
    # ran for more than 110 s and the one row 4.7 s
    ring_from_tag("QQ[t]/(t^3-5*t-7)").is_field()
    start = time.perf_counter()
    code, out, err = run(capsys, tmp_path, command, cfg)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("refused: polynomial expansion exceeds the size guard")
    assert measured in err


@pytest.mark.parametrize("command, cfg, code", [
    ("good-primes", {"variables": ["x", "y"], "generators": ["3^2000*x - y"], "primes": [2]}, 0),
    ("good-primes", {"variables": ["x", "y"], "generators": ["3^5000*x - y"], "primes": [2]}, 3),
    ("good-primes", {"variables": ["x"], "generators": ["2^100000*x"], "primes": [2]}, 3),
    ("taylor", {"variables": ["x"], "polynomial": "3^10000*x", "direction_count": 1}, 3),
    ("taylor", {"variables": ["x"], "polynomial": "2^100000*x", "direction_count": 1}, 3),
], ids=["3^2000", "3^5000", "2^100000", "taylor-3^10000", "taylor-2^100000"])
@pytest.mark.parametrize("caller_limit", [None, 0])
def test_printed_integer_digit_guard(capsys, tmp_path, command, cfg, code, caller_limit):
    # a printed integer above INT_DIGIT_LIMIT digits exits 3, whatever limit
    # the caller set (0 lifts it), instead of a ValueError traceback; with
    # the limit lifted, printing 2^4000000 (1.2M digits) took 25 s
    previous = sys.get_int_max_str_digits()
    if caller_limit is not None:
        sys.set_int_max_str_digits(caller_limit)
    try:
        start = time.perf_counter()
        got, out, err = run(capsys, tmp_path, command, cfg)
        assert time.perf_counter() - start < 1.0
    finally:
        sys.set_int_max_str_digits(previous)
    assert got == code
    if code:
        assert out == ""
        assert err == ("refused: printed integer exceeds the size guard; measured "
                       f"limit={INT_DIGIT_LIMIT}\n")


def test_config_integer_digit_guard(capsys, tmp_path):
    # a config integer literal above INT_DIGIT_LIMIT digits is a bad config
    path = tmp_path / "job.json"
    path.write_text('{"ring": "QQ", "module": {"ngens": 1, "relations": [[1%s]]}, '
                    '"degrees": [1]}' % ("0" * INT_DIGIT_LIMIT))
    assert main(["ring-of-module", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: config is not valid JSON: Exceeds the limit")


@pytest.mark.parametrize("n, d", [(10, 8), (12, 6)])
def test_module_piece_guard_refuses_a_large_free_part(capsys, tmp_path, n, d):
    # QQ^n/(e_1) up to degree d has C(n + d, d) columns in all: (10, 8) took
    # 4.5 s and (12, 6) 1.1 s
    cfg = {"ring": "QQ", "module": {"ngens": n, "relations": [[1] + [0] * (n - 1)]},
           "max_degree": d}
    start = time.perf_counter()
    code, out, err = run(capsys, tmp_path, "ring-of-module", cfg)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("refused: module coordinate ring exceeds the size guard")
    assert f"columns={comb(n + d, d)}," in err


def test_module_piece_guard_admits(capsys, tmp_path):
    # the same zero module runs at one degree: 528 rows plus columns over
    # the degree-16 field, 8,256 over the degree-64 one
    for tag, d in [("Fp(2)[t]/(t^16+t+1)", 3), ("Fp(2)[t]/(t^64+t+1)", 2),
                   ("Fp(2)[t]/(t^64+t+1)", 3)]:
        cfg = {"ring": tag, "module": {"ngens": 1, "relations": [["t"]]}, "degrees": [d]}
        code, out, _ = run(capsys, tmp_path, "ring-of-module", cfg, "--format", "json")
        assert code == 0
        assert json.loads(out)["pieces"] == [{"basis": [], "degree": d, "dimension": 0}]


def _module_guard_admits(cfg: dict) -> bool:
    ring = cli._ring_from_config(cfg)
    degrees = cfg.get("degrees", range(cfg.get("max_degree", 0) + 1))
    try:
        check_system_size(cli._module_from_config(cfg, ring), list(degrees))
    except geometry.SizeGuardExceeded:
        return False
    return True


def _free_quotient(n: int, tag: str, row: list, d: int) -> dict:
    return {"ring": tag, "module": {"ngens": n, "relations": [row]}, "max_degree": d}


def test_module_guard_table():
    # the guard alone, in milliseconds, on every ring-of-module job of the
    # benchmark, the pins and the degree-16 case above; in a fresh process on
    # a 2-vCPU Xeon VM each of them took 0.15-0.21 s
    jobs = [job.config for job in load_workloads().WORKLOADS["algebra"](list)
            if job.command == "ring-of-module"]
    assert len(jobs) == 5
    jobs += [_free_quotient(n, "QQ", [1] + [0] * (n - 1), d) for n, d in RING_OF_MODULE_PINS]
    jobs += [{"ring": tag, "module": {"ngens": len(rows[0]), "relations": [list(r) for r in rows]},
              "max_degree": 5} for tag, rows in RING_OF_MODULE_FORMAT_PINS]
    jobs += [{"ring": "Fp(2)[t]/(t^16+t+1)", "module": {"ngens": 1, "relations": [["t"]]},
              "degrees": [3]}]
    assert all(map(_module_guard_admits, jobs))
    # Fp(3)^8/(1, ..., 1) up to degree 8 has 20,592 rows plus columns and
    # took 3.9 s when it ran
    assert not _module_guard_admits(_free_quotient(8, "Fp(3)", [1] * 8, 8))


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


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_equivariance_reads_the_dimension_for_csv_alone(monkeypatch, capsys,
                                                        tmp_path, fmt):
    calls = []
    own = cli.ideal_dimension

    def counting(gb):
        calls.append(None)
        return own(gb)

    monkeypatch.setattr(cli, "ideal_dimension", counting)
    cfg = {"transformation": "cube-sum", "rank": 2, "field": "Fp(3)"}
    code, out, _ = run(capsys, tmp_path, "equivariance", cfg, "--format", fmt)
    assert code == 0
    assert len(calls) == (fmt == "csv")
    if fmt == "csv":
        assert out.splitlines()[1].startswith("3,2,")


def test_dimfn_reads_a_repeated_prime_once(capsys, tmp_path):
    cfg = {"functor": "Const(ZZ/2) (+) Id", "primes": [2, 3, 2], "window": 3}
    code, out, _ = run(capsys, tmp_path, "dimfn", cfg)
    assert code == 0
    assert out.splitlines()[-1] == "jumping primes: [2]"
    code, out, _ = run(capsys, tmp_path, "dimfn", cfg, "--format", "json")
    doc = json.loads(out)
    assert list(doc["table"]) == ["0", "2", "3"]
    assert doc["jumping_primes"] == [2]


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


def test_cache_entry_the_parser_refuses_is_recomputed(capsys, tmp_path):
    # a power past the parser's size guard is a corrupt entry, not a refusal
    cfg = {"transformation": "cube-sum", "rank": 2, "field": "Fp(3)"}
    code1, out1, _ = run(capsys, tmp_path, "image-closure", cfg)
    cache_dir = tmp_path / "cache"
    run(capsys, tmp_path, "image-closure", cfg, "--cache-dir", str(cache_dir))
    (entry,) = cache_dir.iterdir()
    doc = json.loads(entry.read_text())
    doc["generators"][0] = "({} + {} + {} + 1)^80".format(*doc["names"])
    entry.write_text(json.dumps(doc, sort_keys=True))
    code2, out2, err = run(capsys, tmp_path, "image-closure", cfg,
                           "--cache-dir", str(cache_dir))
    assert code1 == code2 == 0
    assert out2 == out1
    assert "corrupt cache entry" in err and "size guard" in err
    assert "^80" not in entry.read_text()


def _cache_entry_with_ring_is_recomputed(capsys, tmp_path, ring, refusal):
    # the reader checks the modulus of the entry's ring tag as a config's
    cfg = {"transformation": "cube-sum", "rank": 2, "field": "Fp(3)"}
    code1, out1, _ = run(capsys, tmp_path, "image-closure", cfg)
    cache_dir = tmp_path / "cache"
    run(capsys, tmp_path, "image-closure", cfg, "--cache-dir", str(cache_dir))
    (entry,) = cache_dir.iterdir()
    good = json.loads(entry.read_text())
    entry.write_text(json.dumps(dict(good, ring=ring), sort_keys=True))
    start = time.perf_counter()
    code2, out2, err = run(capsys, tmp_path, "image-closure", cfg,
                           "--cache-dir", str(cache_dir))
    assert time.perf_counter() - start < 1.0
    assert code1 == code2 == 0
    assert out2 == out1
    assert "corrupt cache entry" in err and refusal in err
    assert json.loads(entry.read_text()) == good


def test_cache_entry_ring_of_huge_degree_is_recomputed(capsys, tmp_path):
    # laying out the fold of this one took 45 s
    _cache_entry_with_ring_is_recomputed(capsys, tmp_path, "Fp(2)[t]/(t^30000+t+1)",
                                         "ring modulus degree exceeds")


def test_cache_entry_ring_of_huge_coefficients_is_recomputed(capsys, tmp_path):
    # laying out the fold of this one took 15 s
    _cache_entry_with_ring_is_recomputed(capsys, tmp_path, "QQ[t]/(t^64-2^300000*t^63-1)",
                                         "ring modulus coefficients exceed")


@pytest.mark.parametrize("entry", [
    [], "gb", None, {"names": 5}, {"generators": [5]}, {"ring": 5}, {"order": []},
], ids=["list", "string", "null", "names", "generators", "ring", "order"])
def test_cache_entry_of_the_wrong_shape_is_recomputed(capsys, tmp_path, entry):
    # valid JSON that is no cache document, or whose fields have the wrong
    # types, is a corrupt entry: warned about, recomputed and overwritten
    cfg = {"transformation": "cube-sum", "rank": 2, "field": "Fp(3)"}
    code1, out1, _ = run(capsys, tmp_path, "image-closure", cfg)
    cache_dir = tmp_path / "cache"
    run(capsys, tmp_path, "image-closure", cfg, "--cache-dir", str(cache_dir))
    (path,) = cache_dir.iterdir()
    good = json.loads(path.read_text())
    path.write_text(json.dumps(dict(good, **entry) if isinstance(entry, dict) else entry))
    code2, out2, err = run(capsys, tmp_path, "image-closure", cfg,
                           "--cache-dir", str(cache_dir))
    assert code1 == code2 == 0
    assert out2 == out1
    assert "corrupt cache entry" in err
    assert json.loads(path.read_text()) == good


def test_cache_hit_obeys_max_basis(monkeypatch, capsys, tmp_path):
    cfg = {"transformation": "cube-sum", "rank": 2, "field": "Fp(3)"}
    cache_dir = tmp_path / "cache"
    code, _, _ = run(capsys, tmp_path, "image-closure", cfg,
                     "--cache-dir", str(cache_dir))
    assert code == 0
    monkeypatch.setattr(geometry, "MAX_BASIS", 1)
    miss = run(capsys, tmp_path, "image-closure", cfg)
    hit = run(capsys, tmp_path, "image-closure", cfg,
              "--cache-dir", str(cache_dir))
    assert miss[0] == hit[0] == 3
    assert miss[2] == hit[2]
    assert "eliminated basis too large" in hit[2]


def test_cached_jobs_expand_the_rule_once_and_check_it(monkeypatch, capsys, tmp_path):
    # a cold job with --cache-dir runs the rule once, for the cache key and
    # the closure alike; a hit checks the rule's sizes against the functors
    calls = []
    source = []  # a source functor to put in place of the true one
    own = cli.sum_of_powers

    def counted(*args):
        alpha = own(*args)

        def rule(n, ring):
            calls.append(n)
            return alpha.rule(n, ring)

        return dataclasses.replace(alpha, rule=rule,
                                   source=source[0] if source else alpha.source)

    monkeypatch.setattr(cli, "sum_of_powers", counted)
    cfg = {"transformation": {"template": "sum-of-powers", "num_forms": 1, "power": 3},
           "rank": 3, "field": "QQ"}
    for command in ("image-closure", "equivariance"):
        calls.clear()
        code, _, _ = run(capsys, tmp_path, command, cfg,
                         "--cache-dir", str(tmp_path / command))
        assert code == 0 and calls == [3]
    # same rule, so same cache key, but a source functor of another rank
    source.append(Sym(2))
    with pytest.raises(AssertionError, match="rule output does not match"):
        run(capsys, tmp_path, "equivariance", cfg,
            "--cache-dir", str(tmp_path / "equivariance"))


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


def test_rings_do_not_copy_base_ring_methods():
    # a subclass of BaseRing in rings.py inherits a method whose body,
    # docstring aside, would repeat BaseRing's
    def bodies(cls):
        out = {}
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef):
                body = fn.body
                if ast.get_docstring(fn) is not None:
                    body = body[1:]
                out[fn.name] = [ast.dump(stmt) for stmt in body]
        return out

    src = Path(__file__).resolve().parents[1] / "src" / "pfcalc"
    rings, base, copies = {"BaseRing"}, None, set()
    for cls in ast.parse((src / "rings.py").read_text()).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        if cls.name == "BaseRing":
            base = bodies(cls)
        elif any(isinstance(b, ast.Name) and b.id in rings for b in cls.bases):
            rings.add(cls.name)
            copies |= {(cls.name, name) for name, body in bodies(cls).items()
                       if base.get(name) == body}
    assert base and len(rings) > 1
    assert copies == set()


def test_size_guard_limits_are_module_constants():
    # every limit= passed to SizeGuardExceeded under src/pfcalc names an
    # UPPER_CASE constant bound at the top level of its module, so that no
    # guard can come back as a flag or a field of args
    src = Path(__file__).resolve().parents[1] / "src" / "pfcalc"
    found, loose = 0, set()
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        constants = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                constants |= {t.id for t in stmt.targets if isinstance(t, ast.Name)}
            elif isinstance(stmt, ast.ImportFrom):
                constants |= {a.asname or a.name for a in stmt.names}
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "SizeGuardExceeded"):
                continue
            for kw in call.keywords:
                if kw.arg == "limit":
                    found += 1
                    value = kw.value
                    if not (isinstance(value, ast.Name) and value.id.isupper()
                            and value.id in constants):
                        loose.add((path.name, call.lineno, ast.unparse(value)))
    assert found >= 10
    assert loose == set()


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


def _functions_unused_in_src(module: str) -> set:
    """The public functions of module that src/ names only inside their own
    body; the module itself may call them."""
    src = Path(__file__).resolve().parents[1] / "src" / "pfcalc"
    used = Counter()
    for path in sorted(src.rglob("*.py")):
        used += _referenced_names(ast.parse(path.read_text()))
    public = [node for node in ast.parse((src / module).read_text()).body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert public
    return {node.name for node in public
            if used[node.name] == _referenced_names(node)[node.name]}


def test_functors_functions_are_used_in_src():
    # a public function of functors.py that src/ does not call is test-only
    # code
    assert _functions_unused_in_src("functors.py") == set()


# public functions that only tests call, each kept for what it backs
TEST_ONLY_FUNCTIONS = {
    # the law calculus of polynomial laws on a module
    ("coordring.py", "homogeneous_components"),
    ("coordring.py", "bihomogeneous_components"),
    ("coordring.py", "compose_laws"),
    # the paper's R[M (+) N] = R[M] (x) R[N], degree by degree
    ("coordring.py", "product_ring_check"),
    # acceptance criterion 10
    ("fpmod.py", "generic_freeness"),
    # the README's usage example
    ("geometry.py", "dimension_per_prime"),
    # acceptance criterion 6
    ("schur.py", "module_of_functor"),
    ("schur.py", "spin"),
    ("schur.py", "base_change_module"),
}


def test_public_functions_are_used_in_src_or_kept_by_name():
    # a public function of these modules that src/ does not call is
    # test-only code: it goes, or TEST_ONLY_FUNCTIONS says what it backs
    modules = ("coordring.py", "fpmod.py", "geometry.py", "poly.py", "rings.py",
               "schur.py")
    unused = {(module, name) for module in modules
              for name in _functions_unused_in_src(module)}
    assert unused == TEST_ONLY_FUNCTIONS


# public methods that only tests call, each kept for what it backs
TEST_ONLY_METHODS = {
    # the law pins
    ("functors.py", "FunctorEval", "law_at"),
    # acceptance criterion 5
    ("poly.py", "MultiPoly", "total_degree"),
    # acceptance criterion 11
    ("poly.py", "MultiPoly", "is_weighted_homogeneous"),
    # the brute-force oracle of acceptance criterion 13
    ("poly.py", "MultiPoly", "term_mul"),
    # the rule check of test_geometry.py
    ("poly.py", "MultiPoly", "evaluate"),
    # acceptance criterion 8
    ("schur.py", "SchurAlgebra", "element"),
    ("schur.py", "SchurAlgebra", "identity_element"),
    # test_schur.py
    ("schur.py", "SchurModule", "act"),
}


def test_public_methods_are_used_in_src_or_kept_by_name():
    # a public method of a public class under src/pfcalc whose name src/
    # reads as an attribute only inside its own body is test-only code: it
    # goes, or TEST_ONLY_METHODS says what it backs.  Names are matched
    # alone, so a method that shares its name with a used one passes, and
    # dunder methods are not seen
    src = Path(__file__).resolve().parents[1] / "src" / "pfcalc"

    def attributes(tree):
        return Counter(node.attr for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute))

    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.rglob("*.py"))}
    used = sum(map(attributes, trees.values()), Counter())
    unused = {(module, cls.name, fn.name)
              for module, tree in trees.items() for cls in tree.body
              if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
              for fn in cls.body
              if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
              and used[fn.name] == attributes(fn)[fn.name]}
    assert unused == TEST_ONLY_METHODS


# defaulted parameters that no call in src/ passes, each kept for a reason
UNPASSED_DEFAULTS = {
    # the console script calls main() bare; tests pass their own argv
    ("cli.py", "main", "argv"),
    # acceptance criterion 10 picks a submodule; the function is test-only
    ("fpmod.py", "generic_freeness", "submodule_gens"),
}


def test_groebner_defaulted_parameters_are_passed_in_src():
    # a defaulted parameter of a public function or method of any module
    # under src/pfcalc that no call in src/ passes is an option that does
    # nothing, unless UNPASSED_DEFAULTS says why it stays
    src = Path(__file__).resolve().parents[1] / "src" / "pfcalc"
    defaulted = {}  # (module, function, parameter) -> positional index, None if keyword-only

    def collect(module, fn, skip):
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for k, a in enumerate(positional[first:], first):
            defaulted[(module, fn.name, a.arg)] = k - skip
        for a, d in zip(args.kwonlyargs, args.kw_defaults):
            if d is not None:
                defaulted[(module, fn.name, a.arg)] = None

    for path in sorted(src.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                collect(path.name, node, 0)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                        collect(path.name, fn, 1)
    passed = set()
    for path in sorted(src.rglob("*.py")):
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            splat = any(isinstance(a, ast.Starred) for a in call.args)
            for (module, fn, param), pos in defaulted.items():
                if fn == name and (
                        splat or any(kw.arg in (param, None) for kw in call.keywords)
                        or (pos is not None and len(call.args) > pos)):
                    passed.add((module, fn, param))
    assert UNPASSED_DEFAULTS <= set(defaulted)
    assert set(defaulted) - passed == UNPASSED_DEFAULTS


def test_ring_types_are_tested_only_in_rings():
    # rings own every coefficient conversion: no tag is compared with a
    # string literal, and outside rings.py a ring's class is tested only
    # where it picks an algorithm or a syntax (the Groebner kernel, the
    # parenthesized quotient-ring coefficient, the parser's t)
    classes = {"IntegerRing", "RationalField", "ModularIntegers", "QuotientRing"}
    allowed = {("groebner.py", "_kernel"), ("poly.py", "_fmt_coeff"),
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
