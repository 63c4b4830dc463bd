"""Finitely presented modules and fiber dimensions across primes.

A module is given as ring^n modulo the row span of a relation matrix.
Over the integers the per-prime fiber dimensions and the generic-freeness
certificate (invert one element r, get honest free bases) live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import List, Sequence, Tuple

from . import linalg
from .rings import QQ, ZZ, BaseRing, fraction_field_reduction


@dataclass(frozen=True)
class FPModule:
    """ring^ngens modulo the row span of `relations`."""
    ring: BaseRing
    ngens: int
    relations: Tuple[Tuple[object, ...], ...]

    def __post_init__(self):
        for row in self.relations:
            if len(row) != self.ngens:
                raise ValueError(
                    f"relation {row!r} has length {len(row)}, expected {self.ngens}")

    @classmethod
    def from_ints(cls, ring: BaseRing, ngens: int,
                  relations: Sequence[Sequence[int]]) -> "FPModule":
        rows = tuple(tuple(ring.from_int(x) for x in row) for row in relations)
        return cls(ring, ngens, rows)

    @classmethod
    def free(cls, ring: BaseRing, ngens: int) -> "FPModule":
        return cls(ring, ngens, ())

    def integer_relations(self) -> List[List[int]]:
        if self.ring != ZZ:
            raise ValueError(f"expected a ZZ-module, got ring {self.ring.tag()}")
        return [list(row) for row in self.relations]


def block_sum(ring: BaseRing, modules: Sequence[FPModule]) -> FPModule:
    """The direct sum of modules over ring: the generators of each module in
    turn, and the relations of each padded with zeros to a block-diagonal
    relation matrix."""
    ngens = sum(m.ngens for m in modules)
    rels = []
    offset = 0
    for m in modules:
        for row in m.relations:
            rels.append((ring.zero(),) * offset + tuple(row) +
                        (ring.zero(),) * (ngens - offset - m.ngens))
        offset += m.ngens
    return FPModule(ring, ngens, tuple(rels))


@dataclass(frozen=True)
class FreenessCertificate:
    """Bases of N <= M that become honest free bases after inverting r.

    basis_vectors[:k] generate N and basis_vectors[k:] complete them to a
    basis of M, all over ZZ[1/r]; r collects every pivot met on the way.
    """
    r: int
    k: int
    m: int
    basis_vectors: Tuple[Tuple[int, ...], ...]


def fiber_dimension(module: FPModule, p: int) -> int:
    """dim over K_p of K_p tensor M, i.e. ngens - rank of the relations mod p."""
    field = fraction_field_reduction(p)
    rows = module.integer_relations()
    if not rows:
        return module.ngens
    rk = len(linalg.Echelon.of([[field.coerce(x) for x in r] for r in rows], field))
    # elementary divisors give an independent rank count
    divisors = linalg.smith_normal_form(rows)
    snf_rk = len(divisors) if p == 0 else sum(1 for d in divisors if d % p)
    if rk != snf_rk:
        raise AssertionError(
            f"rank disagreement at p={p}: elimination {rk}, Smith form {snf_rk}")
    return module.ngens - rk


def generic_freeness(module: FPModule,
                     submodule_gens: Sequence[Sequence[int]] = None) -> FreenessCertificate:
    """Free bases for N <= M over ZZ[1/r], following the clearing construction.

    N is given by generating vectors in ZZ^ngens (taken mod relations);
    omitted, N = M.  The returned r is the product of all pivots met while
    echelonizing, so it is divisible by every prime where either rank drops.
    """
    n = module.ngens
    rel = module.integer_relations()
    if submodule_gens is None:
        submodule_gens = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    ngens_sub = [list(v) for v in submodule_gens]
    for v in ngens_sub:
        if len(v) != n:
            raise ValueError(f"submodule generator {v} has length {len(v)}, expected {n}")

    r = 1
    rel_ech, rel_pivots, rel_pvals = linalg.integer_echelon(rel)
    for pv in rel_pvals:
        r *= abs(pv)

    # quotient coordinates: columns without a relation pivot
    free_cols = [c for c in range(n) if c not in rel_pivots]

    def to_quotient(vec: List[int]) -> Tuple[List[int], int]:
        # reduce vec modulo the relation rows over QQ, clearing denominators
        v = [Fraction(x) for x in vec]
        for row, pc in zip(rel_ech, rel_pivots):
            if v[pc]:
                f = v[pc] / row[pc]
                v = [a - f * b for a, b in zip(v, row)]
        den = 1
        for a in v:
            den = den * a.denominator // gcd(den, a.denominator)
        return [int(a * den) for a in v], den

    quot_rows = []
    dens = []
    for v in ngens_sub:
        q, den = to_quotient(v)
        quot_rows.append([q[c] for c in free_cols])
        dens.append(den)
        r *= den

    sub_ech, sub_pivots, sub_pvals = linalg.integer_echelon(quot_rows)
    for pv in sub_pvals:
        r *= abs(pv)
    k = len(sub_pivots)

    # pick original generators greedily: keep each that enlarges the span
    chosen: List[Tuple[int, ...]] = []
    span = linalg.Echelon(QQ)
    for v, q in zip(ngens_sub, quot_rows):
        if span.insert([QQ.from_int(x) for x in q]):
            chosen.append(tuple(v))
        if len(chosen) == k:
            break

    # complete to a basis of M by unit vectors on quotient coordinates
    m = len(free_cols)
    for pos, c in enumerate(free_cols):
        if len(chosen) == m:
            break
        if span.insert({pos: QQ.one()}):
            chosen.append(tuple(int(i == c) for i in range(n)))
    if len(chosen) != m:
        raise AssertionError("failed to complete the generic basis")
    return FreenessCertificate(r=r, k=k, m=m, basis_vectors=tuple(chosen))
