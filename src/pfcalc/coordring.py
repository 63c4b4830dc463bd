"""Coordinate rings of finitely presented modules in bounded degree.

A polynomial law M -> R on M = R^n / O is a polynomial in the generator
coordinates x_1..x_n that is invariant under translation by every element
of O.  In every characteristic a graded piece is cut out, over the scalar
field k of R, by the Hasse-derivative rows D_w^(m) f = 0 for the
directions w = e_l * u_j (u_j a relation row, e_l the field basis of R);
over any ring, f(x + a*w) = sum_m a^m * D_w^(m) f.  Translations compose,
and the k-span of the directions is their ZZ-span over F_p and has it
Zariski-dense over QQ, so f is invariant exactly when f(x + w) = f(x) for
each w.  As f(x + w) - f(x) = sum_{m >= 1} D_w^(m) f, with D_w^(m) f
homogeneous of degree d - m, that holds exactly when every D_w^(m) f is 0.
In characteristic 0, D^(m) = D^m / m!, so m = 1 suffices.  In
characteristic p, D^(a) D^(b) = C(a + b, a) D^(a + b) and Lucas's theorem
give D^(m) = prod_k (D^(p^k))^(m_k) / m_k! for m = sum_k m_k p^k, so the
orders p^k suffice.  Graded pieces solve these rows alone; the tests keep
the parametric translation system, which needs no density step, as their
oracle.  The law calculus (homogeneous and bihomogeneous parts, products,
composition) is here too.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from math import comb, prod
from typing import Dict, List, Tuple

from . import linalg
from .fpmod import FPModule, block_sum
from .poly import MultiPoly, SizeGuardExceeded, VarSet, degree_monomials, integer_primitive
from .rings import ZZ


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


def _orders(p: int, d: int) -> List[int]:
    """The orders m of the Hasse rows at degree d: 1, p, p^2, ... up to d in
    characteristic p, 1 alone in characteristic 0, none at d = 0."""
    return [p ** i for i in range(d.bit_length()) if p ** i <= d] if p else [1] if d else []


def _hasse_system(module: FPModule, candidates: List[Tuple[Tuple[int, ...], int]],
                  degree: int) -> List[Dict[int, object]]:
    """The rows D_w^(m) f = 0 on candidates of one degree (all of it, or one
    bidegree), for w = e_l * u_j and m = 1, p, p^2, ... up to degree (m = 1
    alone in characteristic 0).  D_w^(m) sends e_b * x^alpha to the sum over
    gamma <= alpha, |gamma| = m, of e_b * prod_i C(alpha_i, gamma_i) *
    w_i^gamma_i * x^(alpha - gamma).  A row, keyed (direction, beta,
    coordinate), holds the scalar-field coordinate at x^beta as a dict
    {candidate index: nonzero coefficient}; rows come in sorted key order."""
    ring = module.ring
    k = ring.scalar_field()
    rbasis = ring.field_basis()
    directions = [tuple(ring.mul(e, x) for x in u)
                  for u in module.relations for e in rbasis]
    column = {cand: col for col, cand in enumerate(candidates)}
    rows: Dict[tuple, Dict[int, object]] = {}
    for m in _orders(ring.characteristic(), degree):
        betas = degree_monomials(module.ngens, degree - m)
        for gamma in degree_monomials(module.ngens, m):
            # the nonzero w^gamma = prod_i w_i^gamma_i; a zero one writes no entry
            powers = [(dnum, wg) for dnum, w in enumerate(directions) if not ring.is_zero(
                wg := reduce(ring.mul, [ring.power(wi, g) for wi, g in zip(w, gamma) if g]))]
            # for each e_b, the nonzero (direction, coordinate, value) of e_b * w^gamma
            terms = [[(dnum, l, x) for dnum, wg in powers
                      for l, x in enumerate(ring.field_coords(ring.mul(e, wg)))
                      if not k.is_zero(x)] for e in rbasis]
            scaled: Dict[int, list] = {}  # c = prod_i C(alpha_i, gamma_i) -> c * terms
            for beta in betas if powers else ():
                alpha = tuple(map(operator.add, beta, gamma))
                c = prod(map(comb, alpha, gamma))
                if c not in scaled:
                    s = k.from_int(c)
                    scaled[c] = [] if k.is_zero(s) else [
                        [(dnum, l, k.mul(s, x)) for dnum, l, x in es] for es in terms]
                for b, entries in enumerate(scaled[c]):
                    col = column.get((alpha, b))
                    if col is not None:
                        for dnum, l, x in entries:
                            rows.setdefault((dnum, beta, l), {})[col] = x
    return [rows[key] for key in sorted(rows)]


def _piece_from_candidates(module: FPModule,
                           candidates: List[Tuple[Tuple[int, ...], int]],
                           x_vs: VarSet, degree: int) -> GradedPieceBasis:
    ring = module.ring
    k = ring.scalar_field()
    rbasis = ring.field_basis()
    system = linalg.Echelon.of(_hasse_system(module, candidates, degree), k)
    kernel = system.kernel(len(candidates))
    if ring == ZZ:
        kernel = [dict(zip(v, integer_primitive(list(v.values())))) for v in kernel]

    polys = []
    for v in kernel:
        terms: Dict[tuple, object] = {}
        for col, c in v.items():
            # the field basis is independent over k, so no sum comes out zero
            exp, b = candidates[col]
            terms[exp] = ring.add(terms.get(exp, ring.zero()), ring.scale_by_scalar(rbasis[b], c))
        polys.append(MultiPoly(ring, x_vs, terms))
    return GradedPieceBasis(module, degree, len(kernel), tuple(polys))


# ring-of-module refuses a job whose Hasse systems at the distinct degrees have
# more rows plus columns than this; a unit costs 20-70 us on a 2-vCPU Xeon VM,
# but fill-in is not counted: QQ^8/(1, ..., 1) up to degree 8 (19,305) takes 10 s
MODULE_SYSTEM_LIMIT = 20_000


def check_system_size(module: FPModule, degrees: List[int]) -> None:
    """Refuse a job whose Hasse systems have more rows, the keys (direction,
    beta, coordinate) of _hasse_system, plus columns than the limit."""
    n, s, k = module.ngens, len(module.relations), len(module.ring.field_basis())
    # C(n + e - 1, e) monomials of degree e; the max makes it 1 at n = e = 0
    rows = sum(s * k * comb(max(n + d - m - 1, 0), d - m) * k
               for d in set(degrees) for m in _orders(module.ring.characteristic(), d))
    columns = sum(comb(max(n + d - 1, 0), d) * k for d in set(degrees))
    if rows + columns > MODULE_SYSTEM_LIMIT:
        raise SizeGuardExceeded("module coordinate ring exceeds the size guard",
                                rows=rows, columns=columns, limit=MODULE_SYSTEM_LIMIT)


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
