"""Coordinate rings of finitely presented modules in bounded degree.

A polynomial law M -> R on M = R^n / O is a polynomial in the generator
coordinates x_1..x_n that is invariant under translation by every element
of O.  Each graded piece is cut out by a linear system over the scalar
field of R; this module builds and solves that system, and provides the
law calculus (homogeneous and bihomogeneous parts, products, composition).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

from . import linalg
from .fpmod import FPModule, block_sum
from .poly import MultiPoly, VarSet, degree_monomials, integer_primitive, substitute_all
from .rings import ZZ


def _reduce_parameter_exponents(f: MultiPoly, param_idx: List[int], p: int) -> MultiPoly:
    """Apply a^p = a to the parameter variables (their values range over F_p)."""
    ring = f.ring
    out: Dict[tuple, object] = {}
    for e, c in f.terms.items():
        e2 = list(e)
        for i in param_idx:
            if e2[i] > 0:
                e2[i] = (e2[i] - 1) % (p - 1) + 1
        key = tuple(e2)
        prev = out.get(key)
        c2 = c if prev is None else ring.add(prev, c)
        if ring.is_zero(c2):
            out.pop(key, None)
        else:
            out[key] = c2
    return MultiPoly(ring, f.varset, out)


@dataclass(frozen=True)
class GradedPieceBasis:
    """Scalar-field basis of one graded piece of R[M].

    dimension counts over the scalar field k of R (the QQ-rank of the
    integer solution lattice when R = ZZ).
    """
    module: FPModule
    degree: int
    dimension: int
    basis: Tuple[MultiPoly, ...]

    @cached_property
    def generator_count(self) -> int:
        """The size of a greedy R-module generating set inside basis: an
        element is redundant when it lies in the k-span of the ring-basis
        multiples of the elements already chosen."""
        ring = self.module.ring

        def coords(f: MultiPoly) -> Dict[tuple, object]:
            return {(exp, b): x for exp, c in f.terms.items()
                    for b, x in enumerate(ring.field_coords(c))}

        span = linalg.Echelon(ring.scalar_field())
        count = 0
        for f in self.basis:
            if coords(f) in span:
                continue
            count += 1
            for e in ring.field_basis():
                span.insert(coords(f.map_coefficients(lambda c: ring.mul(e, c), ring)))
        return count


def _invariance_system(module: FPModule, candidates: List[Tuple[Tuple[int, ...], int]],
                       x_vs: VarSet) -> List[Dict[int, object]]:
    """The translation-invariance system on the given candidates.

    Candidates are pairs (x-exponent, index into R's field basis).  Each
    row is a dict {candidate index: nonzero scalar-field coefficient}; a
    combination of candidates is translation invariant exactly when every
    row annihilates its coefficient vector.
    """
    ring = module.ring
    k = ring.scalar_field()
    rbasis = ring.field_basis()
    n = module.ngens
    s = len(module.relations)
    pnames = tuple(f"a_{j + 1}_{l + 1}" for j in range(s) for l in range(len(rbasis)))
    big_vs = VarSet(x_vs.names + pnames, x_vs.weights + (1,) * len(pnames))
    param_idx = [big_vs.index(nm) for nm in pnames]

    shifts = {}
    for i in range(n):
        sh = MultiPoly.variable(ring, big_vs, x_vs.names[i])
        for j, u in enumerate(module.relations):
            if ring.is_zero(u[i]):
                continue
            for l, e in enumerate(rbasis):
                coeff = ring.mul(e, u[i])
                if ring.is_zero(coeff):
                    continue
                exp = [0] * len(big_vs)
                exp[param_idx[j * len(rbasis) + l]] = 1
                sh = sh + MultiPoly(ring, big_vs, {tuple(exp): coeff})
        shifts[x_vs.names[i]] = sh

    p = ring.characteristic()
    rows: Dict[tuple, Dict[int, object]] = {}
    gs = [MultiPoly(ring, big_vs, {exp + (0,) * len(pnames): rbasis[bidx]})
          for exp, bidx in candidates]
    for col, (g, moved) in enumerate(zip(gs, substitute_all(gs, shifts))):
        delta = moved - g
        if p > 1:
            delta = _reduce_parameter_exponents(delta, param_idx, p)
        for e, c in delta.terms.items():
            for l, coord in enumerate(ring.field_coords(c)):
                if k.is_zero(coord):
                    continue
                rows.setdefault((e, l), {})[col] = coord
    return [rows[key] for key in sorted(rows)]


def _piece_from_candidates(module: FPModule,
                           candidates: List[Tuple[Tuple[int, ...], int]],
                           x_vs: VarSet, degree: int) -> GradedPieceBasis:
    ring = module.ring
    k = ring.scalar_field()
    rbasis = ring.field_basis()
    system = linalg.Echelon.of(_invariance_system(module, candidates, x_vs), k)
    kernel = system.kernel(len(candidates))
    if ring == ZZ:
        kernel = [dict(zip(v, integer_primitive(list(v.values())))) for v in kernel]

    polys = []
    for v in kernel:
        terms: Dict[tuple, object] = {}
        for col, c in v.items():
            exp, bidx = candidates[col]
            add = ring.scale_by_scalar(rbasis[bidx], c)
            prev = terms.get(exp, ring.zero())
            val = ring.add(prev, add)
            if ring.is_zero(val):
                terms.pop(exp, None)
            else:
                terms[exp] = val
        polys.append(MultiPoly(ring, x_vs, terms))
    return GradedPieceBasis(module, degree, len(kernel), tuple(polys))


def generator_varset(module: FPModule) -> VarSet:
    return VarSet(tuple(f"x{i + 1}" for i in range(module.ngens)))


def graded_piece(module: FPModule, d: int) -> GradedPieceBasis:
    """Basis of R[M]_d, the degree-d translation-invariant polynomials."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    x_vs = generator_varset(module)
    rbasis = module.ring.field_basis()
    candidates = [(exp, b) for exp in degree_monomials(module.ngens, d)
                  for b in range(len(rbasis))]
    return _piece_from_candidates(module, candidates, x_vs, d)


def is_translation_invariant(module: FPModule, f: MultiPoly) -> bool:
    """Check one polynomial against the full translation system."""
    ring = module.ring
    candidates = []
    coeffs = []
    k = ring.scalar_field()
    for exp, c in f.terms.items():
        for b, coord in enumerate(ring.field_coords(c)):
            candidates.append((exp, b))
            coeffs.append(coord)
    # f is invariant iff every row of the system annihilates its coefficients
    for row in _invariance_system(module, candidates, f.varset):
        acc = k.zero()
        for col, x in row.items():
            acc = k.add(acc, k.mul(x, coeffs[col]))
        if not k.is_zero(acc):
            return False
    return True


@dataclass(frozen=True)
class PolyLawRep:
    """A polynomial law M -> R^target, stored through its coordinate bodies."""
    source: FPModule
    bodies: Tuple[MultiPoly, ...]

    @property
    def target_rank(self) -> int:
        return len(self.bodies)


def homogeneous_components(law: PolyLawRep) -> Dict[int, PolyLawRep]:
    """Split a law into its weighted-degree-homogeneous components."""
    degrees = set()
    parts_per_body = []
    for b in law.bodies:
        parts = b.homogeneous_parts()
        parts_per_body.append(parts)
        degrees.update(parts)
    out = {}
    for d in sorted(degrees):
        bodies = tuple(parts.get(d, MultiPoly.zero(b.ring, b.varset))
                       for parts, b in zip(parts_per_body, law.bodies))
        out[d] = PolyLawRep(law.source, bodies)
    return out


def bihomogeneous_components(law: PolyLawRep, split: int) -> Dict[Tuple[int, int], PolyLawRep]:
    """Split by bidegree over a direct sum M + M' (first `split` variables are M's)."""
    out: Dict[Tuple[int, int], Dict[int, Dict[tuple, object]]] = {}
    buckets: Dict[Tuple[int, int], List[Dict[tuple, object]]] = {}
    for idx, b in enumerate(law.bodies):
        vs = b.varset
        for e, c in b.terms.items():
            i = sum(w * x for w, x in zip(vs.weights[:split], e[:split]))
            j = sum(w * x for w, x in zip(vs.weights[split:], e[split:]))
            bucket = buckets.setdefault((i, j), [dict() for _ in law.bodies])
            bucket[idx][e] = c
    result = {}
    for key in sorted(buckets):
        bodies = tuple(MultiPoly(b.ring, b.varset, terms)
                       for b, terms in zip(law.bodies, buckets[key]))
        result[key] = PolyLawRep(law.source, bodies)
    return result


def compose_laws(gamma: PolyLawRep, phi: PolyLawRep) -> PolyLawRep:
    """gamma after phi; substitutes phi's bodies for gamma's variables."""
    if gamma.source.ngens != phi.target_rank:
        raise ValueError(
            f"cannot compose: inner law has target rank {phi.target_rank}, "
            f"outer law expects {gamma.source.ngens} inputs")
    names = gamma.bodies[0].varset.names if gamma.bodies else ()
    mapping = {names[i]: phi.bodies[i] for i in range(len(phi.bodies))} if names else {}
    bodies = tuple(b.substitute(mapping) for b in gamma.bodies)
    return PolyLawRep(phi.source, bodies)


def direct_sum(m1: FPModule, m2: FPModule) -> FPModule:
    if m1.ring != m2.ring:
        raise ValueError("direct sum needs a common base ring")
    return block_sum(m1.ring, (m1, m2))


def product_ring_check(m1: FPModule, m2: FPModule, d: int, e: int):
    """Compare dim R[M+N]_(d,e) with dim R[M]_d * dim R[N]_e.

    Dimensions here are R-module generator counts, which agree with scalar
    dimensions over fields and stay multiplicative over rings like k[t]/(f).
    Returns (equal, direct count, product count).
    """
    both = direct_sum(m1, m2)
    ring = both.ring
    rbasis = ring.field_basis()
    x_vs = generator_varset(both)
    candidates = []
    for exp_d in degree_monomials(m1.ngens, d):
        for exp_e in degree_monomials(m2.ngens, e):
            for b in range(len(rbasis)):
                candidates.append((exp_d + exp_e, b))
    candidates.sort(reverse=True)
    direct = _piece_from_candidates(both, candidates, x_vs, d + e).generator_count
    product = graded_piece(m1, d).generator_count * graded_piece(m2, e).generator_count
    return direct == product, direct, product
