"""Closed subsets of functor spaces at a fixed rank.

Image closures of polynomial transformations via graph-ideal elimination
(or a Jacobian certificate when the image is dense),
per-prime dimensions, good-prime detection by Groebner specialization,
vanishing transfer, equivariance checking on a generating set of matrix
substitutions, and the directional Taylor expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from random import Random
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .functors import (DirectSum, FunctorExpr, Id, Sym, evaluate, homogeneous_parts,
                       rank_at)
from .groebner import (GroebnerBasis, buchberger, eliminate, ideal_dimension,
                       radical_membership)
from .linalg import Echelon
from .poly import (Grevlex, MultiPoly, VarSet, degree_monomials, integer_primitive,
                   substitute_all)
from .rings import (ZZ, BaseRing, Fp, ModularIntegers, NotAUnit, QQ,
                    fraction_field_reduction, is_prime)


class SizeGuardExceeded(RuntimeError):
    def __init__(self, message: str, **measured):
        super().__init__(message + "; measured " +
                         ", ".join(f"{k}={v}" for k, v in sorted(measured.items())))
        self.measured = measured


@dataclass(frozen=True)
class SizeGuards:
    max_variables: int = 40
    max_basis: int = 5000

    def check_variables(self, alpha: "PolyTransformation", n: int):
        """Refuse a graph ideal of alpha at rank n in more than max_variables
        variables, counted from the functors before the rule runs."""
        total = rank_at(alpha.source, n) + rank_at(alpha.target, n)
        if total > self.max_variables:
            raise SizeGuardExceeded("too many variables for the graph ideal",
                                    variables=total, limit=self.max_variables)

    def check_basis(self, size: int):
        """Refuse an eliminated basis of more than max_basis generators."""
        if size > self.max_basis:
            raise SizeGuardExceeded("eliminated basis too large",
                                    basis_size=size, limit=self.max_basis)


DEFAULT_GUARDS = SizeGuards()


@dataclass(frozen=True)
class PolyTransformation:
    """A rank-uniform polynomial transformation between functor spaces.

    rule(n, ring) must return (source varset, target coordinate polys), the
    target coordinates written in the source coordinates at rank n.
    """
    source: FunctorExpr
    target: FunctorExpr
    name: str
    rule: Callable[[int, BaseRing], Tuple[VarSet, List[MultiPoly]]]


def sum_of_powers(num_forms: int, power: int, form_degree: int = 1) -> PolyTransformation:
    """(q_1, ..., q_m) |-> q_1^k + ... + q_m^k for degree-g forms q_j.

    The source is m copies of Sym(g) (Id when g = 1) and the target is
    Sym(g * k).  The source coordinates v_j_i are the coefficients of
    q_j = sum_i v_j_i x^(i-th degree-g monomial), and the target
    coordinates are the coefficients of sum_j q_j^k in the x variables, one
    per degree-gk monomial, each a polynomial in the v variables.
    """
    form = Id() if form_degree == 1 else Sym(form_degree)
    source = DirectSum(tuple(form for _ in range(num_forms)))
    target = Sym(power * form_degree)

    def rule(n: int, ring: BaseRing):
        fbasis = degree_monomials(n, form_degree)
        names = tuple(f"v{j + 1}_{i + 1}"
                      for j in range(num_forms) for i in range(len(fbasis)))
        vs = VarSet(names)
        # the v variables, then scratch variables x!1..x!n for the form's
        # arguments
        big = VarSet(names + tuple(f"x!{i + 1}" for i in range(n)))
        units = [(0,) * a + (1,) + (0,) * (len(names) - a - 1)
                 for a in range(len(names))]
        total = MultiPoly.zero(ring, big)
        for j in range(num_forms):
            q = MultiPoly(ring, big, {units[j * len(fbasis) + i] + exp: ring.one()
                                      for i, exp in enumerate(fbasis)})
            total = total + q ** power
        coords = total.by_trailing(vs)
        zero = MultiPoly.zero(ring, vs)
        return vs, [coords.get(exp, zero)
                    for exp in degree_monomials(n, power * form_degree)]

    label = f"sum-of-{num_forms}-{power}th-powers"
    if form_degree > 1:
        label += f"-of-degree-{form_degree}-forms"
    return PolyTransformation(source, target, label, rule)


cube_sum = sum_of_powers(2, 3)
four_squares = sum_of_powers(4, 2, form_degree=2)


@dataclass(frozen=True)
class ClosedSubsetAtRank:
    functor: FunctorExpr
    rank: int
    ring: BaseRing
    varset: VarSet
    generators: Tuple[MultiPoly, ...]
    gb: GroebnerBasis


def target_varset(target: FunctorExpr, n: int) -> VarSet:
    """y-variables for the coordinates of P(K^n), weighted by degree."""
    size = rank_at(target, n)
    parts = homogeneous_parts(target, n)
    weights = [1] * size
    for d, idxs in parts.items():
        for i in idxs:
            weights[i] = max(d, 1)
    return VarSet(tuple(f"y{i + 1}" for i in range(size)), tuple(weights))


def _jacobian_rank(coords: Sequence[MultiPoly], point: Sequence[int],
                   ring: BaseRing) -> int:
    """Rank over ring of the Jacobian (d coord_i / d v_j) at an integer point."""
    rows = []
    for coord in coords:
        row = [ring.zero()] * len(point)
        for e, c in coord.terms.items():
            for j, a in enumerate(e):
                if a:
                    # a * v^(e - unit_j) at the point, an integer
                    value = a
                    for u, (x, b) in enumerate(zip(point, e)):
                        value *= x ** (b - (u == j))
                    row[j] = ring.add(row[j], ring.mul(c, ring.from_int(value)))
        rows.append(row)
    return len(Echelon.of(rows, ring))


def _jacobian_points(m: int) -> List[List[int]]:
    """The three fixed points of the dense-image certificate: small integer
    coordinates drawn from fixed seeds."""
    return [[rng.randrange(-99, 100) for _ in range(m)]
            for rng in map(Random, (1, 2, 3))]


def _dense_image(coords: Sequence[MultiPoly], nsrc: int, ring: BaseRing) -> bool:
    """Does the Jacobian of coords reach full row rank at one of the fixed
    points?  Then the coordinates are algebraically independent."""
    return len(coords) <= nsrc and any(
        _jacobian_rank(coords, point, ring) == len(coords)
        for point in _jacobian_points(nsrc))


def image_closure(alpha: PolyTransformation, n: int, ring: BaseRing,
                  guards: SizeGuards = DEFAULT_GUARDS) -> ClosedSubsetAtRank:
    """Zariski closure of the image of alpha at rank n, over QQ or F_p.

    The closure ideal is the graph ideal <y_i - coord_i> eliminated of the
    source variables.  eliminate recognizes the graph ideal: when every
    coordinate is zero or homogeneous of positive degree, its run picks
    pairs by the weights that make the graph ideal homogeneous (the sugar
    strategy) and skips the pairs that reduce to zero; otherwise it takes
    unit weights.  The reduced basis is unique, so the output does not
    depend on the weights.

    Dense images skip elimination.  If the N x m Jacobian of the N
    coordinates has rank N at one point of k^m, the ideal is 0 and the empty
    basis is returned.  This certificate holds in every characteristic: for
    a relation P != 0 of least degree, the chain rule and the full rank make
    every dP/dy_i vanish at the coordinates, so by minimality every dP/dy_i
    is the zero polynomial.  Then P is constant (characteristic 0) or a p-th
    power Q^p (characteristic p, since QQ, F_p and k[t]/(f) are perfect
    fields), and Q would be a smaller relation.  A rank below N certifies
    nothing, and elimination runs.
    """
    guards.check_variables(alpha, n)
    if not ring.is_field():
        raise ValueError(f"image closure needs a field, got {ring.tag()}")
    src_vs, coords = alpha.rule(n, ring)
    y_vs = target_varset(alpha.target, n)
    if len(src_vs) != rank_at(alpha.source, n) or len(coords) != len(y_vs):
        raise AssertionError("rule output does not match the functor ranks")
    if _dense_image(coords, len(src_vs), ring):
        return ClosedSubsetAtRank(alpha.target, n, ring, y_vs, (),
                                  GroebnerBasis((), Grevlex(), ring, y_vs))
    big_vs = VarSet(src_vs.names + y_vs.names,
                    src_vs.weights + y_vs.weights)
    gens = []
    for yname, coord in zip(y_vs.names, coords):
        gens.append(MultiPoly.variable(ring, big_vs, yname) - coord.rename(big_vs))
    eliminated = eliminate(gens, set(src_vs.names))
    guards.check_basis(len(eliminated))
    kept = tuple(eliminated)
    # the tail block of the elimination order is grevlex on y_vs, so the
    # eliminated part of the reduced basis is already the reduced, monic,
    # sorted grevlex basis of the closure ideal
    gb = GroebnerBasis(kept, Grevlex(), ring, y_vs)
    return ClosedSubsetAtRank(alpha.target, n, ring, y_vs, kept, gb)


def dimension_per_prime(alpha: PolyTransformation, n: int,
                        primes: Sequence[int],
                        guards: SizeGuards = DEFAULT_GUARDS) -> Dict[int, int]:
    """Dimension of the image closure over QQ (key 0) and each F_p."""
    out = {}
    for p in [0] + [q for q in primes if q != 0]:
        ring = fraction_field_reduction(ZZ, p)
        subset = image_closure(alpha, n, ring, guards)
        out[p] = ideal_dimension(subset.gb)
    return out


@dataclass(frozen=True)
class PrimeVerdict:
    """One prime's verdict from good_primes.

    good: the Groebner basis over F_p has the generic staircase (the
    leading monomials of the generic basis).  recomputed: p divides r or
    the generic basis reduced mod p failed the check, so the verdict comes
    from the ideal over F_p itself; otherwise that reduced generic basis
    was verified.  dimension is the dimension over F_p.
    """
    prime: int
    good: bool
    dimension: int
    recomputed: bool


@dataclass(frozen=True)
class SpecializationReport:
    generic_basis: Tuple[MultiPoly, ...]   # integer-cleared, over ZZ payloads in QQ
    generic_dimension: int
    r: int
    verdicts: Tuple[PrimeVerdict, ...]


def _certified_primes(primes: Sequence[int], cleared: Sequence[MultiPoly],
                      generators: Sequence[MultiPoly], staircase: frozenset) -> Set[int]:
    """The primes, from a sorted list of distinct primes, at which cleared
    mod p passes the certificate: the generic staircase, Buchberger's
    criterion on the pairs of its own queue and membership of every
    generator.  This proves p good only when p does not divide
    good_primes' r.

    All primes are checked at once over ZZ/mZ, m their product (the field
    Fp(p) itself when there is one prime p).  Each step of a reduction mod
    m maps to the same step mod every p | m: the same term is popped, the
    same first divisor used, and a coefficient that is 0 mod p subtracts a
    zero multiple.  So a remainder is 0 mod m exactly when it is 0 mod every p.
    When the check fails, or a leading coefficient is not a unit mod m, the
    primes are split into halves and each half is checked again.
    """
    ring = ModularIntegers(primes)
    vs = generators[0].varset
    gb = GroebnerBasis(tuple(f.map_coefficients(ring.coerce, ring) for f in cleared),
                       Grevlex(), ring, vs)
    try:
        if (gb.leading_monomials == staircase and gb.satisfies_criterion()
                and all(gb.contains(g.map_coefficients(ring.coerce, ring))
                        for g in generators)):
            return set(primes)
    except NotAUnit:
        pass
    if len(primes) == 1:
        return set()
    half = len(primes) // 2
    return (_certified_primes(primes[:half], cleared, generators, staircase)
            | _certified_primes(primes[half:], cleared, generators, staircase))


def good_primes(generators: Sequence[MultiPoly], primes: Sequence[int]) -> SpecializationReport:
    """Groebner specialization: which primes keep the generic staircase.

    r is the product of the leading coefficients of every integer-cleared
    polynomial met during the generic run (inputs, intermediate basis
    elements, and the final basis); primes dividing r are recomputed from
    scratch.  The others are verified by reducing the generic basis mod p
    and checking the staircase, Buchberger's criterion and input
    membership.  They are all checked together over ZZ/mZ, m their
    product, and the set is halved only where that check fails (see
    _certified_primes); a single prime that fails is recomputed.  The
    certificate and the verdicts are those of checking each prime alone,
    in the order of primes, repeats included; a repeated prime is checked
    once.
    """
    if not generators:
        raise ValueError("good_primes needs at least one generator")
    ring = generators[0].ring
    if ring != ZZ:
        raise ValueError(f"good_primes expects integral generators, got {ring.tag()}")
    vs = generators[0].varset
    q_gens = [g.map_coefficients(QQ.coerce, QQ) for g in generators]
    log: List[MultiPoly] = []
    gb = buchberger(q_gens, Grevlex(), new_poly_log=log)
    cleared = tuple(
        MultiPoly(QQ, vs, dict(zip(g.terms, integer_primitive(list(g.terms.values())))))
        for g in gb.generators)
    generic_dim = ideal_dimension(gb)
    order = Grevlex()
    r = 1
    for f in list(log) + list(cleared):
        lc = f.leading(order)[1]
        r *= abs(int(lc))

    # p does not divide the leading coefficients of cleared, so no element
    # vanishes mod p and each keeps its leading monomial; an entry that is
    # not prime is left to Fp(p) below, which refuses it
    away = sorted({p for p in primes if is_prime(p) and r % p})
    verified = (_certified_primes(away, cleared, generators, gb.leading_monomials)
                if away else set())
    # one verdict per distinct prime, repeated in the order of primes
    verdict_of: Dict[int, PrimeVerdict] = {}
    for p in primes:
        if p in verdict_of:
            continue
        if p in verified:
            # cleared mod p is a Groebner basis with the generic staircase,
            # and the dimension depends on the staircase alone
            verdict_of[p] = PrimeVerdict(p, True, generic_dim, False)
            continue
        ring_p = Fp(p)
        inputs_p = [f for f in (g.map_coefficients(ring_p.coerce, ring_p)
                                for g in generators) if not f.is_zero()]
        if inputs_p:
            gb_p = buchberger(inputs_p, order)
            dim_p = ideal_dimension(gb_p)
            stairs_match = gb_p.leading_monomials == gb.leading_monomials
        else:
            dim_p = len(vs)
            stairs_match = not gb.generators
        verdict_of[p] = PrimeVerdict(p, stairs_match, dim_p, True)
    return SpecializationReport(cleared, generic_dim, r,
                                tuple(verdict_of[p] for p in primes))


def vanishing_transfer(f: MultiPoly, generators: Sequence[MultiPoly],
                       primes: Sequence[int]) -> Dict[int, bool]:
    """Does f vanish on V(I) over QQ and over each F_p?  Radical membership."""
    if f.ring != ZZ:
        raise ValueError("vanishing_transfer expects integral input")
    out = {}
    for p in [0, *primes]:
        field = fraction_field_reduction(ZZ, p)
        f_p, *gens_p = (g.map_coefficients(field.coerce, field)
                        for g in [f, *generators])
        out[p] = radical_membership(f_p, gens_p)
    return out


def default_generator_matrices(n: int, ring: BaseRing) -> List[List[List[int]]]:
    """Transpositions, transvections, one scaling per variable, diagonal idempotents."""
    mats = []

    def ident():
        return [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    for i in range(n):
        for j in range(i + 1, n):
            m = ident()
            m[i][i] = m[j][j] = 0
            m[i][j] = m[j][i] = 1
            mats.append(m)
    for i in range(n):
        for j in range(n):
            if i != j:
                m = ident()
                m[i][j] = 1
                mats.append(m)
    # a non-identity unit scaling when the field has one
    char = ring.characteristic()
    if char != 2:
        for i in range(n):
            m = ident()
            m[i][i] = 2
            mats.append(m)
    for bits in iproduct((0, 1), repeat=n):
        if all(bits):
            continue
        m = [[bits[i] if i == j else 0 for j in range(n)] for i in range(n)]
        mats.append(m)
    return mats


def equivariance_check(subset: ClosedSubsetAtRank,
                       matrices: Optional[Sequence[Sequence[Sequence[int]]]] = None) -> bool:
    """Is V(I) stable under the generator matrices?  True when g.f lies in
    rad(I) for every generator f of I and every matrix g (by default those
    of default_generator_matrices), acting through the law of the functor.

    Each moved generator is first tested for membership in I itself, by
    reduction against the reduced basis already in hand.  That test is
    exact: I is inside rad(I), so a member is a radical member.  Only a
    non-member needs the Rabinowitsch run of radical_membership, which
    answers True when I is not radical and g.f is a radical member
    without being a member.  Image closure ideals are prime, hence
    radical, and stable, so their checks run no Buchberger at all.
    """
    ring = subset.ring
    n = subset.rank
    if matrices is None:
        matrices = default_generator_matrices(n, ring)
    if not subset.generators:
        return True
    ev = evaluate(subset.functor, n)
    vs = subset.varset
    units = [tuple(int(i == j) for i in range(len(vs))) for j in range(len(vs))]
    gens = list(subset.generators)
    for g in matrices:
        act = ev.law_at(g)   # integer entries; the functor lives over ZZ
        mapping = {}
        for nm, row in zip(vs.names, act):
            terms = {}
            for unit, a in zip(units, row):
                c = ring.from_int(a)
                if not ring.is_zero(c):
                    terms[unit] = c
            mapping[nm] = MultiPoly(ring, vs, terms)
        for moved in substitute_all(gens, mapping):
            if moved.is_zero() or subset.gb.contains(moved):
                continue
            if not radical_membership(moved, gens):
                return False
    return True


class NoDependence(ValueError):
    pass


def taylor_directional(f: MultiPoly, m: int, p: int):
    """Lowest-order directional Taylor data of a homogeneous polynomial.

    Expands f(x_1 + t y_1, ..., x_m + t y_m, x_{m+1}, ...) and returns
    (e, [h_1..h_m]) where the t^q coefficient, q = p^e the smallest
    nonvanishing power, equals sum_i h_i(x) y_i^q.
    """
    ring = f.ring
    vs = f.varset
    degs = {f.varset.weighted_degree(e) for e in f.terms}
    if len(degs) > 1:
        raise ValueError("taylor_directional needs a homogeneous polynomial")
    if not any(e[i] for e in f.terms for i in range(m)):
        raise NoDependence(f"polynomial does not involve the first {m} variables")
    ynames = tuple(f"ydir{i + 1}" for i in range(m))
    xy = VarSet(vs.names + ynames, vs.weights + (1,) * m)
    big = VarSet(xy.names + ("tdir",), xy.weights + (1,))
    mapping = {}
    t = MultiPoly.variable(ring, big, "tdir")
    for i in range(m):
        mapping[vs.names[i]] = MultiPoly.variable(ring, big, vs.names[i]) + \
            t * MultiPoly.variable(ring, big, ynames[i])
    by_t = f.rename(big).substitute(mapping).by_trailing(xy)
    positive = sorted(q for (q,) in by_t if q > 0)
    if not positive:
        raise NoDependence("expansion has no t-dependence")
    q = positive[0]
    if p == 0:
        if q != 1:
            raise AssertionError("vanishing first derivative in characteristic 0")
        e_exp = 0
    else:
        e_exp = 0
        qq = q
        while qq % p == 0:
            qq //= p
            e_exp += 1
        if qq != 1:
            raise AssertionError(f"lowest t-power {q} is not a power of {p}")
    hs = [MultiPoly.zero(ring, vs) for _ in range(m)]
    for e, c in by_t[(q,)].terms.items():
        ys = [(i, a) for i, a in enumerate(e[len(vs):]) if a]
        if len(ys) != 1 or ys[0][1] != q:
            raise AssertionError("t^q coefficient is not of the form sum h_i y_i^q")
        i = ys[0][0]
        hs[i] = hs[i] + MultiPoly(ring, vs, {e[:len(vs)]: c})
    return e_exp, hs
