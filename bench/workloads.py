"""Workload definitions: the CLI jobs each benchmark workload runs.

A job is one `pfcalc` command with one JSON config.  Each workload builder
takes a `draw` function that picks primes from a pool: `run.py` draws one
prime per pool job from the seeded generator, `record.py` asks for every
prime so that the reference digests cover the whole pool.

Notation in labels: `sop(m,k[,g])@n` is the sum-of-powers transformation
with m forms of degree g raised to the k-th power, at rank n.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence

DATA_DIR = Path(__file__).resolve().parent / "data"

# F_p jobs drawn from this pool cost about the same for every p in it.
POOL = (5, 7, 11, 13, 17)

GOOD_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


@dataclass(frozen=True)
class Job:
    label: str          # unique within a workload, key of the reference digest
    command: str
    config: dict
    cached: bool = False   # runs with --cache-dir (verify-warm only)


Draw = Callable[[Sequence[int]], List[int]]


def sop(m: int, k: int, g: int = 1) -> dict:
    tr = {"template": "sum-of-powers", "num_forms": m, "power": k}
    if g != 1:
        tr["form_degree"] = g
    return tr


def _tr_label(tr) -> str:
    if isinstance(tr, str):
        return tr
    parts = [tr["num_forms"], tr["power"]] + (
        [tr["form_degree"]] if "form_degree" in tr else [])
    return "sop(" + ",".join(map(str, parts)) + ")"


def closure(tr, n: int, field: str) -> Job:
    return Job(f"image-closure {_tr_label(tr)}@{n} {field}", "image-closure",
               {"transformation": tr, "rank": n, "field": field})


def dim_per_prime(tr, n: int, primes: List[int]) -> Job:
    return Job(f"dim-per-prime {_tr_label(tr)}@{n} {primes}", "dim-per-prime",
               {"transformation": tr, "rank": n, "primes": primes},
               cached=True)


def equivariance(tr, n: int, field: str) -> Job:
    return Job(f"equivariance {_tr_label(tr)}@{n} {field}", "equivariance",
               {"transformation": tr, "rank": n, "field": field}, cached=True)


def good_primes(ideal: str, ideals: Dict[str, dict]) -> Job:
    return Job(f"good-primes {ideal} p<=31", "good-primes",
               dict(ideals[ideal], primes=GOOD_PRIMES))


def dimfn(functor: str, window: int) -> Job:
    return Job(f"dimfn {functor} w{window}", "dimfn",
               {"functor": functor, "primes": [2, 3, 5, 7], "window": window})


def schur_table(n: int, d: int) -> Job:
    return Job(f"schur-table n{n} d{d}", "schur-table", {"n": n, "d": d})


def ring_of_module(ring: str, ngens: int, relations: list,
                   max_degree: int) -> Job:
    return Job(f"ring-of-module {ring} {relations} deg<={max_degree}",
               "ring-of-module",
               {"ring": ring, "module": {"ngens": ngens, "relations": relations},
                "max_degree": max_degree})


# Integer-cleared QQ image-closure ideals, written by record.py.
IDEAL_SOURCES = {"sop(1,3)@3": (sop(1, 3), 3), "sop(1,3,2)@2": (sop(1, 3, 2), 2)}


def load_ideals() -> Dict[str, dict]:
    with open(DATA_DIR / "ideals.json") as fh:
        return json.load(fh)


def _closure_qq(draw: Draw) -> List[Job]:
    return [closure(sop(2, 5), 2, "QQ"),       # pairs and reduction alike
            closure(sop(4, 2, 2), 2, "QQ"),    # reduction, coefficient growth
            closure(sop(1, 3, 2), 2, "QQ"),    # pair bookkeeping
            closure(sop(1, 3), 3, "QQ"),       # pair bookkeeping
            closure(sop(3, 3), 2, "QQ"),       # reduction
            closure(sop(3, 2), 3, "QQ"),       # reduction
            closure("cube-sum", 2, "QQ")]      # fixed per-job overhead


def _closure_fp(draw: Draw) -> List[Job]:
    jobs = [closure(sop(2, 4), 2, "Fp(5)[t]/(t^2+2)"),
            closure(sop(1, 3, 2), 2, "Fp(5)"),
            closure(sop(1, 3), 3, "Fp(2)"),
            # the same ideal over F_9, F_3 and a pool prime
            closure(sop(2, 2), 3, "Fp(3)[t]/(t^2+1)"),
            closure(sop(2, 2), 3, "Fp(3)")]
    for tr, n in ((sop(2, 2), 3), ("cube-sum", 2)):
        jobs.extend(closure(tr, n, f"Fp({p})") for p in draw(POOL))
    return jobs


def _verify_warm(draw: Draw) -> List[Job]:
    ideals = load_ideals()
    return [dim_per_prime("cube-sum", 2, [2, 3, 5, 7, 11, 13]),
            dim_per_prime(sop(1, 3), 3, [2, 3]),
            dim_per_prime(sop(1, 3, 2), 2, [3]),
            equivariance(sop(2, 2), 3, "QQ"),
            equivariance(sop(1, 4), 2, "QQ"),
            good_primes("sop(1,3)@3", ideals),
            good_primes("sop(1,3,2)@2", ideals)]


def _algebra(draw: Draw) -> List[Job]:
    return [dimfn("Sym(4)", 7),
            dimfn("Ext(4) (+) Sym(3)", 6),
            dimfn("Shift(1, Sym(3))", 6),
            dimfn("Sym(2) (+) Ext(3)", 7),
            schur_table(2, 4),
            schur_table(3, 2),
            ring_of_module("QQ[t]/(t^2)", 1, [["t"]], 8),
            ring_of_module("QQ[t]/(t^2)", 2, [["t", "0"]], 8),
            ring_of_module("Fp(2)[t]/(t^2)", 1, [["t"]], 8),
            ring_of_module("Fp(3)[t]/(t^3)", 1, [["t^2"]], 8),
            ring_of_module("ZZ", 3, [[2, 0, 0], [0, 3, 0]], 6)]


WORKLOADS: Dict[str, Callable[[Draw], List[Job]]] = {
    "closure-qq": _closure_qq,
    "closure-fp": _closure_fp,
    "verify-warm": _verify_warm,
    "algebra": _algebra,
}
