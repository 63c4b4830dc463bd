"""Buchberger's algorithm, normal forms, elimination, dimension, radicals.

Coefficients must lie in a field; reduction, and so the criterion check,
also runs over a product of fields such as ZZ/mZ (see _field_reducer), but
buchberger does not.  One S-pair queue serves both building and checking a
basis: the normal strategy (least weighted lcm degree, then the monomial
order on the lcm), skipping pairs with coprime leading monomials and pairs
caught by the chain criterion.  The weights are unit weights unless
buchberger or eliminate is given others: weights that make the input
homogeneous give the sugar strategy of Giovini et al. ("One sugar cube,
please", ISSAC 1991) in its homogeneous case.  buchberger adds each nonzero
remainder and ends with one minimalize/interreduce pass;
GroebnerBasis.satisfies_criterion stops at the first one.  A reduced basis is
unique, so the weights change which pairs get reduced but never the result.

Inside the engine a monomial is one int P (Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007); kernel.prepare and kernel.to_poly convert at the boundary, so every
MultiPoly keeps exponent tuples.  P has one digit per variable and one per
graded block holding its degree, least significant first: grevlex is one
block (e_1, ..., e_n, degree), elim(b) two with the second in the low digits,
and lex none, with e_1 in the top digit.  A product is P + Q; a tail entry
stores e - lm, which may have negative digits.  With M masking the exponent
digits of the graded blocks, the key P - 2*(P & M) compares exactly like
order.key.  Digits have 8 bits, the top one a guard: an exponent or block
degree is at most 127, so a sum of two never carries and P & GUARD finds an
overflow.  Inputs and lcms are checked when made, other terms when reduce
pops them; an overflow reruns the whole call at twice the digit width, and
buchberger first truncates what the abandoned run logged.

Reducer entries live in one divisor index, _Reducers.  For each digit k of P
(a byte of P.to_bytes at 8-bit digits) and value a it keeps a bitset (a
Python int, bit i for entry i) of the entries whose leading monomial has at
most a in digit k.  The entries whose leading monomial divides a monomial
are the AND of one such bitset per digit (degree digits only filter more),
and the first of them in list order is the lowest set bit.  The same AND
finds the entries k that may chain a pair (i, j) in the pair queue, which
then decides the chain criterion by queue order alone (see _s_pairs).

Coefficient arithmetic sits behind one of two kernels, picked once per run
from the ring:

- the field kernel works on ring payloads (F_p, k[t]/(f) and, for
  reduction only, ZZ/mZ) and keeps basis elements monic; every reduction
  outside buchberger (GroebnerBasis.reduce, .contains and
  .satisfies_criterion) runs it, QQ included;
- the QQ kernel works fraction-free on integers, keeps basis elements with
  content 1 and positive leading coefficient, and returns a positive
  rational multiple of the field remainder.

Both kernels reduce by one deterministic rule: the largest remaining term
first, by the first basis element in list order whose leading monomial
divides it.  So the two kernels meet the same leading monomials, and bases
are bit-stable.
Each interreduced final element becomes a monic MultiPoly in one pass,
kernel.to_monic: the QQ kernel divides by the leading coefficient as it
converts, and the field kernel's elements are monic already.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd
from operator import mul
from typing import List, Optional, Sequence, Set, Tuple

from .poly import Elimination, Grevlex, MonomialOrder, MultiPoly, VarSet
from .rings import BaseRing, RationalField


class NonFieldCoefficients(ValueError):
    pass


def _require_field(ring: BaseRing):
    if not ring.is_field():
        raise NonFieldCoefficients(
            f"Groebner engine needs field coefficients, got {ring.tag()}")


class _Overflow(Exception):
    """A packed exponent or block degree reached its digit's guard bit."""


class _Packing:
    """Packed monomials of one order in nvars variables, with digits of
    width bits (see the module docstring)."""

    def __init__(self, order: MonomialOrder, nvars: int, width: int = 8):
        self.width, self.blocks = width, order.graded_blocks(nvars)
        # what each digit holds, least significant first: a variable, or a
        # graded block (a range of variables) whose degree it holds
        slots = ([s for b in reversed(self.blocks) for s in (*b, b)] if self.blocks
                 else list(reversed(range(nvars))))
        self.size = len(slots)
        self.pos = [slots.index(v) for v in range(nvars)]
        # packing is one dot product: variable v adds 1 to its own digit and
        # to its block's degree digit
        degree = {v: slots.index(b) for b in self.blocks for v in b}
        self.mults = [(1 << width * self.pos[v]) +
                      (1 << width * degree[v] if v in degree else 0)
                      for v in range(nvars)]
        self.sums = [(width * slots.index(b[0]),
                      sum(1 << width * k for k in range(len(b))),
                      width * (len(b) - 1), width * slots.index(b))
                     for b in self.blocks if b]  # for lcm: see there
        self.digit = (1 << width) - 1
        self.guard = sum(1 << width * (k + 1) - 1 for k in range(self.size))
        self.exps = sum(self.digit << width * k for k in self.pos)
        self.mask = self.exps if self.blocks else 0
        shifts = range(0, width * self.size, width)
        self.digits = ((lambda P: P.to_bytes(self.size, "little")) if width == 8 else
                       (lambda P: [P >> s & self.digit for s in shifts]))

    def pack(self, exp) -> int:
        top = self.width - 1
        if sum(exp) >> top and (max(exp) >> top or any(
                sum(exp[v] for v in b) >> top for b in self.blocks)):
            raise _Overflow
        return sum(map(mul, exp, self.mults))

    def unpack(self, P: int) -> tuple:
        return tuple(map(self.digits(P).__getitem__, self.pos))

    def key(self, P: int) -> int:
        return P - 2 * (P & self.mask)

    def lcm(self, a: int, b: int) -> int:
        guard = self.guard
        ge = ((a | guard) - b) & guard   # the guard bit of each digit a >= b
        x = (b ^ ((a ^ b) & (ge - (ge >> self.width - 1)))) & self.exps
        # per nonempty graded block: shifted to its first digit and
        # multiplied by ones, its digits sum into its last digit; that sum
        # is its degree digit
        for shift, ones, last, at in self.sums:
            x |= ((x >> shift) * ones >> last & self.digit) << at
        if x & guard:
            raise _Overflow
        return x


class _Reducers:
    """Reducer entries in list order, with the divisor index over them.

    below[k][a] is the bitset of the entries whose leading monomial has at
    most a in digit k.  Every column grows to the largest digit looked up so
    far, so a lookup is one index per digit; past the end of below[k], every
    entry is below.  Entries may be added at any time.
    """

    def __init__(self, pack: _Packing, entries=()):
        self.pack = pack
        self.digits = pack.digits
        self.entries: list = []
        self.below: List[list] = [[] for _ in range(pack.size)]
        self.all = 0
        for entry in entries:
            self.add(entry)

    def add(self, entry: tuple):
        bit = 1 << len(self.entries)
        for col, a in zip(self.below, self.digits(entry[0])):
            n = len(col)
            if a >= n:
                col.extend([self.all] * (a - n))
            else:
                for b in range(a, n):
                    col[b] |= bit
        self.entries.append(entry)
        self.all |= bit

    def dividing(self, exp: int, within: int = -1) -> int:
        """Bitset of the entries in within whose leading monomial divides exp."""
        d = self.all & within
        digits = self.digits(exp)
        try:
            for col, a in zip(self.below, digits):
                d &= col[a]
                if not d:
                    break
        except IndexError:
            top = max(digits) + 1
            for col in self.below:
                col.extend([self.all] * (top - len(col)))
            return self.dividing(exp, within)
        return d

    def first_divisor(self, exp: int, within: int = -1):
        """The first entry in within whose leading monomial divides exp, or None."""
        d = self.dividing(exp, within)
        return self.entries[(d & -d).bit_length() - 1] if d else None


class _Kernel:
    """Coefficient arithmetic on packed term dicts (monomial -> coefficient).

    A reducer entry is (leading monomial, leading factor, tail terms shifted
    by minus the leading monomial), built once per basis element.  The
    leading factor is the inverse leading coefficient in the field kernel
    and the leading coefficient itself in the QQ kernel.
    """

    def __init__(self, ring: BaseRing, vs: VarSet, order: MonomialOrder,
                 width: int = 8):
        self.ring = ring
        self.vs = vs
        self.order = order
        self.pack = _Packing(order, len(vs), width)

    def lead(self, terms: dict) -> int:
        return max(terms, key=self.pack.key)

    def entry(self, terms: dict, lm: int) -> tuple:
        tail = [(e - lm, c) for e, c in terms.items() if e != lm]
        return (lm, self.lead_factor(terms[lm]), tail)


class _FieldKernel(_Kernel):
    """Payload arithmetic of the ring; normalized means monic."""

    def prepare(self, f: MultiPoly) -> dict:
        pack = self.pack.pack
        return {pack(e): c for e, c in f.terms.items()}

    def normalize(self, terms: dict, lm: int) -> dict:
        ring = self.ring
        ilc = ring.inv(terms[lm])
        return {e: ring.mul(c, ilc) for e, c in terms.items()}

    def lead_factor(self, lc):
        return self.ring.inv(lc)

    def spoly(self, ef: tuple, eg: tuple, lcm: int) -> dict:
        """S-polynomial of two reducer entries whose leading monomials have
        lcm; the leading terms cancel, so it is made of the tails alone."""
        ring = self.ring
        zero = ring.zero()
        out = {e + lcm: ring.mul(c, ef[1]) for e, c in ef[2]}
        for e, c in eg[2]:
            e2 = e + lcm
            v = ring.sub(out.get(e2, zero), ring.mul(c, eg[1]))
            if ring.is_zero(v):
                out.pop(e2, None)
            else:
                out[e2] = v
        return out

    def reduce(self, terms: dict, reducers: _Reducers, within: int = -1) -> dict:
        """Remainder of terms modulo the reducer entries in within."""
        ring = self.ring
        mul, sub, is_zero = ring.mul, ring.sub, ring.is_zero
        zero = ring.zero()
        first_divisor = reducers.first_divisor
        mask, guard = self.pack.mask, self.pack.guard
        pending = dict(terms)
        result = {}
        heap = [(2 * (e & mask) - e, e) for e in pending]
        heapq.heapify(heap)
        while heap:
            _, exp = heapq.heappop(heap)
            if exp & guard:
                raise _Overflow
            c = pending.pop(exp, None)
            if c is None or is_zero(c):
                continue
            entry = first_divisor(exp, within)
            if entry is None:
                result[exp] = c
                continue
            _, ilc, tail = entry
            factor = mul(c, ilc)
            for e2, c2 in tail:
                e3 = e2 + exp
                prev = pending.get(e3)
                if prev is None:
                    heapq.heappush(heap, (2 * (e3 & mask) - e3, e3))
                    prev = zero
                val = sub(prev, mul(factor, c2))
                if is_zero(val):
                    pending.pop(e3, None)
                else:
                    pending[e3] = val
        return result

    def to_poly(self, terms: dict) -> MultiPoly:
        unpack = self.pack.unpack
        return MultiPoly(self.ring, self.vs, {unpack(e): c for e, c in terms.items()})

    def to_monic(self, terms: dict, lm: int) -> MultiPoly:
        """to_poly of a normalized element, which is monic already."""
        return self.to_poly(terms)


class _RationalKernel(_Kernel):
    """Fraction-free QQ arithmetic on integer coefficients; normalized
    means content 1 with a positive leading coefficient."""

    def prepare(self, f: MultiPoly) -> dict:
        """Clear denominators with their least common multiple."""
        den = 1
        for c in f.terms.values():
            den = den * c.denominator // gcd(den, c.denominator)
        pack = self.pack.pack
        return {pack(e): int(c * den) for e, c in f.terms.items()}

    def normalize(self, terms: dict, lm: int) -> dict:
        num = 0
        for v in terms.values():
            num = gcd(num, abs(v))
        if terms[lm] < 0:
            num = -num
        if num != 1:
            terms = {e: v // num for e, v in terms.items()}
        return terms

    def lead_factor(self, lc):
        return lc

    def spoly(self, ef: tuple, eg: tuple, lcm: int) -> dict:
        """As _FieldKernel.spoly, with the integer multipliers that cancel
        the leading coefficients."""
        cf, cg = ef[1], eg[1]
        d = gcd(cf, cg)
        mf, mg = cg // d, cf // d
        out = {e + lcm: mf * c for e, c in ef[2]}
        for e, c in eg[2]:
            e2 = e + lcm
            v = out.get(e2, 0) - mg * c
            if v:
                out[e2] = v
            else:
                out.pop(e2, None)
        return out

    def reduce(self, terms: dict, reducers: _Reducers, within: int = -1) -> dict:
        """Pseudo-remainder modulo the reducer entries in within, with
        integer arithmetic; the result is the true normal form times a
        positive rational, which normalize removes."""
        first_divisor = reducers.first_divisor
        mask, guard = self.pack.mask, self.pack.guard
        pending = dict(terms)
        result = {}
        heap = [(2 * (e & mask) - e, e) for e in pending]
        heapq.heapify(heap)
        swell = 1
        while heap:
            if swell.bit_length() > 256:
                # strip accumulated content so integers stay small
                g = 0
                for v in pending.values():
                    g = gcd(g, v)
                for v in result.values():
                    g = gcd(g, v)
                if g > 1:
                    pending = {e: v // g for e, v in pending.items()}
                    result = {e: v // g for e, v in result.items()}
                swell = 1
            _, exp = heapq.heappop(heap)
            if exp & guard:
                raise _Overflow
            c = pending.pop(exp, None)
            if not c:
                continue
            entry = first_divisor(exp, within)
            if entry is None:
                result[exp] = c
                continue
            _, lc, tail = entry
            d = gcd(c, lc)
            mult = abs(lc // d)
            if mult != 1:
                for e2 in pending:
                    pending[e2] *= mult
                for e2 in result:
                    result[e2] *= mult
                c *= mult
                swell *= mult
            factor = c // lc
            for e2, c2 in tail:
                e3 = e2 + exp
                prev = pending.get(e3)
                if prev is None:
                    heapq.heappush(heap, (2 * (e3 & mask) - e3, e3))
                    prev = 0
                val = prev - factor * c2
                if val:
                    pending[e3] = val
                else:
                    pending.pop(e3, None)
        return result

    def to_poly(self, terms: dict) -> MultiPoly:
        unpack = self.pack.unpack
        return MultiPoly(self.ring, self.vs,
                         {unpack(e): Fraction(c) for e, c in terms.items()})

    def to_monic(self, terms: dict, lm: int) -> MultiPoly:
        """terms divided by their coefficient at lm, as a MultiPoly."""
        unpack, lc = self.pack.unpack, terms[lm]
        return MultiPoly(self.ring, self.vs,
                         {unpack(e): Fraction(c, lc) for e, c in terms.items()})


def _widening(run, width: int = 8):
    """run(width), and again at twice the width after each overflow."""
    while True:
        try:
            return run(width)
        except _Overflow:
            width *= 2


def _field_reducer(ring: BaseRing, vs: VarSet, order: MonomialOrder,
                   G: Sequence[MultiPoly], width: int = 8) -> tuple:
    """Field kernel and the indexed reducer entries of the nonzero
    elements of G.  Reduction only inverts leading coefficients, so a
    product of fields such as ZZ/mZ (m squarefree) will do: there an
    element whose leading coefficient is not a unit raises NotAUnit."""
    if not ring.is_product_of_fields():
        raise NonFieldCoefficients(
            f"reduction needs coefficients in a product of fields, got {ring.tag()}")
    kernel = _FieldKernel(ring, vs, order, width)
    terms = [kernel.prepare(g) for g in G if not g.is_zero()]
    return kernel, _Reducers(kernel.pack, [kernel.entry(t, kernel.lead(t)) for t in terms])


@dataclass(frozen=True)
class GroebnerBasis:
    generators: Tuple[MultiPoly, ...]
    order: MonomialOrder
    ring: BaseRing
    varset: VarSet

    def contains_one(self) -> bool:
        return any(g.is_constant() and not g.is_zero() for g in self.generators)

    @cached_property
    def leading_monomials(self) -> frozenset:
        """The staircase: leading monomials of the generators."""
        return frozenset(g.leading(self.order)[0] for g in self.generators)

    @cached_property
    def _reducer(self) -> tuple:
        """Field kernel and indexed reducer entries of the nonzero
        generators, built once per basis at the narrowest width that packs
        them."""
        return _widening(lambda width: _field_reducer(
            self.ring, self.varset, self.order, self.generators, width))

    def _run(self, task):
        """task(kernel, reducers) on the cached reducer, or on a wider one
        after an overflow."""
        kernel, reducers = self._reducer

        def run(width):
            if width == kernel.pack.width:
                return task(kernel, reducers)
            return task(*_field_reducer(self.ring, self.varset, self.order,
                                        self.generators, width))

        return _widening(run, kernel.pack.width)

    def reduce(self, f: MultiPoly) -> MultiPoly:
        """Remainder of f modulo the generators: no term of the result is
        divisible by the leading monomial of a generator."""
        return self._run(lambda kernel, reducers: kernel.to_poly(
            kernel.reduce(kernel.prepare(f), reducers)))

    def contains(self, f: MultiPoly) -> bool:
        return self._run(lambda kernel, reducers: not kernel.reduce(
            kernel.prepare(f), reducers))

    def criterion_pairs(self) -> list:
        """The pairs (i, j) of nonzero generators that satisfies_criterion
        checks.  The queue reads leading monomials alone, so bases with the
        same ones in the same order share the list."""
        return self._run(lambda kernel, reducers: [
            (i, j) for i, j, _ in _s_pairs(reducers)])

    def satisfies_criterion(self, pairs: Optional[Sequence[tuple]] = None) -> bool:
        """Does every S-polynomial of the queue's pairs, or of pairs from
        criterion_pairs, reduce to zero?  The first nonzero remainder
        answers False."""
        def task(kernel, reducers):
            entries = reducers.entries
            lcm = reducers.pack.lcm
            queue = (_s_pairs(reducers) if pairs is None else
                     ((i, j, lcm(entries[i][0], entries[j][0])) for i, j in pairs))
            return not any(kernel.reduce(kernel.spoly(entries[i], entries[j], m),
                                         reducers)
                           for i, j, m in queue)

        return self._run(task)


def _s_pairs(reducers: _Reducers, weights: Optional[Sequence[int]] = None):
    """S-pairs (i, j, lcm), i < j, of indexed reducer entries in the normal
    strategy: least weighted lcm degree, then least lcm in the order, then
    (i, j).  weights holds one positive weight per variable; None means
    unit weights.  Entries the caller adds to reducers while iterating join
    the queue before the next pair.  Skipped: coprime leading monomials
    (their lcm is their product), and chained pairs (Buchberger's chain
    criterion: another LM(k) divides the lcm, and the pairs (i, k) and
    (j, k), yielded or skipped, both came before (i, j)).

    Key order alone decides the chain criterion.  Say LM(k) divides
    L = lcm(LM i, LM j).  Then lcm(i, k) and lcm(j, k) divide L; a proper
    divisor has a strictly smaller key, as the weights are positive, and
    an equal lcm falls to the index tie-break.  A pair of smaller key whose
    entries exist comes first; one of larger key holds j or a k > j, so it
    joins the queue no earlier than (i, j) and comes later.  So (i, k) and
    (j, k) both came first exactly when k < i, or [k < j or
    lcm(i, k) != L] and lcm(j, k) != L.  That needs no record of earlier
    pairs, and entries only join: a pair is tested when queued, against
    the n entries there are then, and not queued when coprime or chained.
    At its pop it is tested again only against the entries that joined
    since (within = -1 << n), and not at all when none did.
    """
    pack = reducers.pack
    lcm_of, mask, digits = pack.lcm, pack.mask, pack.digits
    dividing = reducers.dividing
    w = [0] * pack.size  # weights by digit
    for v, k in enumerate(pack.pos):
        w[k] = weights[v] if weights else 1
    entries = reducers.entries

    def chained(i, j, lcm, within):
        """Does an entry in within, which holds neither i nor j, chain (i, j)?"""
        d = dividing(lcm, within)
        if d & ((1 << i) - 1):
            return True
        lmi, lmj = entries[i][0], entries[j][0]
        while d:
            k = (d & -d).bit_length() - 1
            lmk = entries[k][0]
            if (k < j or lcm_of(lmi, lmk) != lcm) and lcm_of(lmj, lmk) != lcm:
                return True
            d &= d - 1
        return False

    heap: list = []
    queued = 0
    while True:
        n = len(entries)
        for j in range(queued, n):
            lmj = entries[j][0]
            for i in range(j):
                lmi = entries[i][0]
                lcm = lcm_of(lmi, lmj)
                if lcm != lmi + lmj and not chained(i, j, lcm, ~(1 << i | 1 << j)):
                    heapq.heappush(heap, (sum(map(mul, w, digits(lcm))),
                                          lcm - 2 * (lcm & mask), i, j, lcm, n))
        queued = n
        if not heap:
            return
        _, _, i, j, lcm, pushed = heapq.heappop(heap)
        if pushed == n or not chained(i, j, lcm, -1 << pushed):
            yield i, j, lcm


def buchberger(F: Sequence[MultiPoly], order: MonomialOrder,
               new_poly_log: Optional[list] = None,
               weights: Optional[Sequence[int]] = None) -> GroebnerBasis:
    """Reduced Groebner basis of <F>.  All-zero input yields the empty basis.

    Pairs come from the queue of _s_pairs under weights, one positive
    integer per variable (unit weights when None), and each nonzero
    remainder joins the basis.  The weights pick the pair sequence only;
    the reduced basis is the same for all of them, but weights that leave
    the input inhomogeneous can make the run much slower.  When
    new_poly_log is given, every polynomial entering the intermediate basis
    is appended to it before normalization: the inputs, each nonzero
    S-polynomial remainder and each interreduced final element.  Over QQ
    these are the integer forms before content removal, so every integer
    divided out during the run divides one of their leading coefficients;
    this supports prime specialisation.
    """
    inputs = [f for f in F if not f.is_zero()]
    if not inputs:
        if not F:
            raise ValueError("buchberger needs at least one polynomial")
        return GroebnerBasis((), order, F[0].ring, F[0].varset)
    ring, vs = inputs[0].ring, inputs[0].varset
    _require_field(ring)
    if weights is not None and (len(weights) != len(vs) or min(weights) < 1):
        raise ValueError("weights must give one positive integer per variable")
    kernel = _RationalKernel if isinstance(ring, RationalField) else _FieldKernel
    logged = 0 if new_poly_log is None else len(new_poly_log)

    def run(width):
        if new_poly_log is not None:
            del new_poly_log[logged:]  # what a narrower run logged
        return _complete(kernel(ring, vs, order, width), inputs, new_poly_log,
                         weights)

    return GroebnerBasis(_widening(run), order, ring, vs)


def _complete(kernel: _Kernel, inputs: Sequence[MultiPoly],
              new_poly_log: Optional[list], weights) -> tuple:
    """The generators of buchberger's reduced basis, computed by kernel."""
    key = kernel.pack.key

    def log(terms):
        if new_poly_log is not None:
            new_poly_log.append(kernel.to_poly(terms))

    basis: list = []
    reducers = _Reducers(kernel.pack)
    entries = reducers.entries

    def add(terms):
        log(terms)
        lm = kernel.lead(terms)
        terms = kernel.normalize(terms, lm)
        basis.append(terms)
        reducers.add(kernel.entry(terms, lm))

    for terms in sorted(map(kernel.prepare, inputs),
                        key=lambda t: key(kernel.lead(t))):
        add(terms)
    for i, j, lcm in _s_pairs(reducers, weights):
        r = kernel.reduce(kernel.spoly(entries[i], entries[j], lcm), reducers)
        if r:
            add(r)

    # minimalize: drop entry i when an earlier LM divides LM(i) or a later
    # LM divides it properly (of equal LMs the first is kept); then
    # interreduce each kept element against the others
    keep = []
    for i, (lm, *_) in enumerate(entries):
        d = reducers.dividing(lm) & ~(1 << i)
        if d & ((1 << i) - 1):
            continue
        while d and entries[(d & -d).bit_length() - 1][0] == lm:
            d &= d - 1
        if not d:
            keep.append(i)
    kept = _Reducers(kernel.pack, [entries[i] for i in keep])
    final = []
    # kept leading monomials divide no other kept one, so interreduction
    # changes tails only and entries[i][0] stays the leading monomial
    for pos, i in enumerate(keep):
        t = (kernel.reduce(basis[i], kept, ~(1 << pos)) if len(keep) > 1
             else basis[i])
        if t:
            log(t)
            lm = entries[i][0]
            final.append((key(lm), kernel.to_monic(t, lm)))
    final.sort(key=lambda kf: kf[0])
    return tuple(f for _, f in final)


def ideal_dimension(G: GroebnerBasis) -> int:
    """Krull dimension of the affine variety of <G> via the staircase."""
    if G.contains_one():
        return -1
    n = len(G.varset)
    if not G.generators:
        return n
    # the dimension is the size of the largest set of variables containing
    # the support of no leading monomial; supports and sets are bitmasks
    supports = [sum(1 << i for i, e in enumerate(lm) if e)
                for lm in G.leading_monomials]
    through = [[s for s in supports if s >> v & 1] for v in range(n)]

    def addable(chosen: int, v: int) -> bool:
        grown = chosen | 1 << v
        return all(s & grown != s for s in through[v])

    best = 0

    def search(chosen: int, size: int, free: List[int]):
        # depth-first: take free[0] or drop it; free lists the variables
        # that can still join chosen, so size + len(free) bounds the branch
        nonlocal best
        best = max(best, size)
        while free and size + len(free) > best:
            v, free = free[0], free[1:]
            grown = chosen | 1 << v
            search(grown, size + 1, [u for u in free if addable(grown, u)])

    search(0, 0, [v for v in range(n) if addable(0, v)])
    return best


def eliminate(G: Sequence[MultiPoly], drop: Set[str],
              weights: Optional[Sequence[int]] = None) -> List[MultiPoly]:
    """Generators of <G> intersected with the subring without the dropped vars.

    weights, one per variable of G's varset in its order, grade the pair
    selection of the Buchberger run (see buchberger); None means unit weights.
    """
    gens = [g for g in G if not g.is_zero()]
    if not gens:
        return []
    vs = gens[0].varset
    unknown = drop - set(vs.names)
    if unknown:
        raise ValueError(f"cannot drop undeclared variables {sorted(unknown)}")
    front = [n for n in vs.names if n in drop]
    back = [n for n in vs.names if n not in drop]
    block_vs = VarSet(tuple(front + back),
                      tuple(vs.weights[vs.index(n)] for n in front + back))
    order = Elimination(len(front)) if front else Grevlex()
    if weights is not None:
        weights = tuple(weights[vs.index(n)] for n in front + back)
    gb = buchberger([g.rename(block_vs) for g in gens], order, weights=weights)
    kept_vs = VarSet(tuple(back), tuple(vs.weights[vs.index(n)] for n in back))
    out = []
    for g in gb.generators:
        if not (g.variables_used() & drop):
            out.append(g.restrict(kept_vs))
    return out


def radical_membership(f: MultiPoly, G: Sequence[MultiPoly]) -> bool:
    """f in rad<G>, by the Rabinowitsch trick: 1 in <G, 1 - z*f>."""
    gens = [g for g in G if not g.is_zero()]
    vs = f.varset
    if f.is_zero():
        return True
    zname = "z_rad"
    while zname in vs.names:
        zname += "_"
    big_vs = VarSet(vs.names + (zname,), vs.weights + (1,))
    ring = f.ring
    one = MultiPoly.constant(ring, big_vs, ring.one())
    z = MultiPoly.variable(ring, big_vs, zname)
    system = [g.rename(big_vs) for g in gens] + [one - z * f.rename(big_vs)]
    gb = buchberger(system, Grevlex())
    return gb.contains_one()
