"""Buchberger's algorithm, normal forms, elimination, dimension, radicals.

Coefficients must lie in a field; reduction, and so the criterion check,
also runs over a product of fields such as ZZ/mZ (see _field_reducer), but
buchberger does not.  One S-pair queue serves both building and checking a
basis: the normal strategy (least weighted lcm degree, then the monomial
order on the lcm).  Every variable has weight 1, unless eliminate meets a
graph ideal: then _graph_grading gives the weights that make the input
homogeneous (see below), the sugar strategy of Giovini et al. ("One sugar
cube, please", ISSAC 1991) in its homogeneous case.  A reduced basis is
unique, so the weights change which pairs get reduced but never the
result.  buchberger adds each nonzero remainder and ends with one
minimalize/interreduce pass; eliminate interreduces only the elements it
returns, those free of the eliminated block.
GroebnerBasis.satisfies_criterion reduces each pair as its queue yields it
and stops at the first nonzero remainder.

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
and the first of them in list order is the lowest set bit.  The pair queue
skips coprime pairs and chained ones (see _s_pairs).  A joining entry with
leading monomial b keeps the pairs of the minimal generators of the colon
ideal <earlier LMs> : b: the ANDs at b's digits, each digit in turn raised
by one, find at once whether it is <1> and which variables generate it,
and only the entries that none of those variables catches get an lcm.
Pairs that later entries chain are found by the AND at their pop.

Coefficient arithmetic sits behind one of two kernels, which _kernel picks
from the ring for buchberger and for GroebnerBasis alike:

- the field kernel works on ring payloads (F_p, k[t]/(f) and, for
  reduction only, ZZ/mZ) and keeps basis elements monic;
- the QQ kernel works fraction-free on integers, keeps basis elements with
  content 1 and positive leading coefficient, and its reduce returns a
  positive rational multiple of the field remainder.  That is all a zero
  test needs (GroebnerBasis.contains and .satisfies_criterion);
  GroebnerBasis.reduce divides by the multiple, which the reduction
  tracks as it scales and strips its integers, so the remainder is exact.

Both kernels reduce by one deterministic rule: the largest remaining term
first, by the first basis element in list order whose leading monomial
divides it.  So the two kernels meet the same leading monomials, and bases
are bit-stable.
Each interreduced final element becomes a monic MultiPoly in one pass,
kernel.to_monic: the QQ kernel divides by the leading coefficient as it
converts, and the field kernel's elements are monic already.

A graph ideal skips the pairs that would reduce to zero (Traverso, "Hilbert
functions and the Buchberger algorithm", JSC 22, 1996).  Under elim(b),
inputs c*y_j - f_j, each y_j a variable after the block that no other input
holds and f_j a polynomial in the block's variables, zero or homogeneous of
positive degree, form a graph ideal.  Under the weights w of _graph_grading
(w(y_j) = deg f_j, 1 when f_j = 0, and 1 for every other variable) they are
a regular sequence of homogeneous elements, and the run takes w.  So over
every field S/I, and with it S/LT(I), has the Hilbert series
prod_j (1 - t^w(y_j)) / prod_v (1 - t^w_v).  The entries' leading monomials
generate an ideal J inside LT(I), so HF(S/J, d) >= HF(S/I, d), with
equality exactly when J and LT(I) agree in degree d; then every pair of
degree d reduces to zero, since its remainder lies in I, has degree d and
has a leading monomial outside J.  Pairs come in nondecreasing degree, and
each nonzero remainder of degree d lowers HF(S/J, d) by one.  So the excess
HF(S/J, d) - HF(S/I, d) is read once per degree, at its first pair, from
the numerator N(J) of the Hilbert series of S/J, and then counted down;
while it is 0, pairs are yielded but not reduced.  As an entry with leading
monomial m joins, N(J) gains -t^deg(m) N(J : m), from the minimal
generators of J : m that _s_pairs builds anyway.  Only zero reductions are
skipped, so bases are unchanged.  At the end N(J) = N(I), which together
with G in I proves G a Groebner basis; a mismatch, or a negative excess,
raises AssertionError.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from math import gcd, lcm
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
                     for b in self.blocks if b]  # for graded: see there
        self.digit = (1 << width) - 1
        self.guard = sum(1 << width * (k + 1) - 1 for k in range(self.size))
        self.exps = sum(self.digit << width * k for k in self.pos)
        self.mask = self.exps if self.blocks else 0
        shifts = range(0, width * self.size, width)
        self.digits = ((lambda P: P.to_bytes(self.size, "little")) if width == 8 else
                       (lambda P: [P >> s & self.digit for s in shifts]))
        self.tables: dict = {}  # weights -> memoized degree

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

    def maximum(self, a: int, b: int) -> int:
        """Digit-wise maximum of the exponent digits, degree digits 0."""
        ge = ((a | self.guard) - b) & self.guard   # guard bit where a >= b
        return (b ^ ((a ^ b) & (ge - (ge >> self.width - 1)))) & self.exps

    def degree(self, weights: Optional[Sequence[int]] = None):
        """The weighted degree of packed monomials, as a function; weights
        holds one per variable, None means unit weights.  Weighted degrees
        are memoized on the packing, which a run makes for itself, so its
        queue, _complete and _hilbert_numerator compute each once."""
        digits = self.digits
        if not weights:
            return lambda P: sum(digits(P & self.exps))
        if weights not in self.tables:
            w = [0] * self.size  # by digit
            for v, k in enumerate(self.pos):
                w[k] = weights[v]
            self.tables[weights] = cache(lambda P: sum(map(mul, w, digits(P))))
        return self.tables[weights]

    def graded(self, x: int) -> int:
        """x with each block's degree digit: the block, shifted to its first
        digit and times ones, sums its digits into its last one."""
        guard = self.guard
        for shift, ones, last, at in self.sums:
            x |= ((x >> shift) * ones >> last & self.digit) << at
        if x & guard:
            raise _Overflow
        return x


class _Reducers:
    """Reducer entries in list order, with the divisor index over them.

    below[k][a] is the bitset of the entries whose leading monomial has at
    most a in digit k.  Every column grows past each entry's digit plus one
    and the largest digit looked up, so a lookup is one index per digit;
    past the end of below[k], every entry is below.  Entries may be added
    at any time.
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
            col.extend([self.all] * (a + 2 - len(col)))
            for b in range(a, len(col)):
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

    def remainder(self, f: MultiPoly, reducers: _Reducers) -> MultiPoly:
        """The remainder of f modulo the reducer entries."""
        return self.to_poly(self.reduce(self.prepare(f), reducers))

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
        """Clear denominators with their least common multiple; integer
        coefficients, as of a polynomial over ZZ, pass unchanged."""
        den = _denominator(f)
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
        return self.pseudo_remainder(terms, reducers, within)[0]

    def remainder(self, f: MultiPoly, reducers: _Reducers) -> MultiPoly:
        """The remainder of f modulo the reducer entries, exactly: the
        pseudo-remainder of f's cleared form over the multiple it carries."""
        r, num, den = self.pseudo_remainder(self.prepare(f), reducers)
        den *= _denominator(f)
        unpack = self.pack.unpack
        return MultiPoly(self.ring, self.vs,
                         {unpack(e): Fraction(c * num, den) for e, c in r.items()})

    def pseudo_remainder(self, terms: dict, reducers: _Reducers,
                         within: int = -1) -> tuple:
        """(r, num, den): r is reduce's pseudo-remainder, and r * num / den
        the true normal form.  Each step multiplies every coefficient by the
        same positive integer, or divides them all by a common factor; den
        is the product of the multipliers and num that of the factors."""
        first_divisor = reducers.first_divisor
        mask, guard = self.pack.mask, self.pack.guard
        pending = dict(terms)
        result = {}
        heap = [(2 * (e & mask) - e, e) for e in pending]
        heapq.heapify(heap)
        swell = num = den = 1
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
                    num *= g
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
                den *= mult
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
        return result, num, den

    def to_poly(self, terms: dict) -> MultiPoly:
        unpack = self.pack.unpack
        return MultiPoly(self.ring, self.vs,
                         {unpack(e): Fraction(c) for e, c in terms.items()})

    def to_monic(self, terms: dict, lm: int) -> MultiPoly:
        """terms divided by their coefficient at lm, as a MultiPoly."""
        unpack, lc = self.pack.unpack, terms[lm]
        return MultiPoly(self.ring, self.vs,
                         {unpack(e): Fraction(c, lc) for e, c in terms.items()})


def _denominator(f: MultiPoly) -> int:
    """The least common multiple of the denominators of f's coefficients."""
    return lcm(*(c.denominator for c in f.terms.values()))


def _widening(run, width: int = 8):
    """run(width), and again at twice the width after each overflow."""
    while True:
        try:
            return run(width)
        except _Overflow:
            width *= 2


def _kernel(ring: BaseRing, vs: VarSet, order: MonomialOrder,
            width: int = 8) -> _Kernel:
    """The coefficient kernel of ring: fraction-free integers over QQ, the
    ring's own payloads otherwise."""
    kind = _RationalKernel if isinstance(ring, RationalField) else _FieldKernel
    return kind(ring, vs, order, width)


def _field_reducer(ring: BaseRing, vs: VarSet, order: MonomialOrder,
                   G: Sequence[MultiPoly], width: int = 8) -> tuple:
    """The kernel of ring and the indexed reducer entries of the nonzero
    elements of G.  Reduction only inverts leading coefficients, so a
    product of fields such as ZZ/mZ (m squarefree) will do: there an
    element whose leading coefficient is not a unit raises NotAUnit."""
    if not ring.is_product_of_fields():
        raise NonFieldCoefficients(
            f"reduction needs coefficients in a product of fields, got {ring.tag()}")
    kernel = _kernel(ring, vs, order, width)
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
        """The ring's kernel and the indexed reducer entries of the nonzero
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
        return self._run(lambda kernel, reducers: kernel.remainder(f, reducers))

    def contains(self, f: MultiPoly) -> bool:
        """Is the remainder of f zero?  Over QQ the test runs on integers,
        so f may also be given over ZZ."""
        return self._run(lambda kernel, reducers: not kernel.reduce(
            kernel.prepare(f), reducers))

    def satisfies_criterion(self) -> bool:
        """Does the S-polynomial of every pair of the generators' queue
        (_s_pairs, unit weights) reduce to zero?  Each pair is reduced as the
        queue yields it, and the first nonzero remainder answers False."""
        def task(kernel, reducers):
            entries = reducers.entries
            return not any(kernel.reduce(kernel.spoly(entries[i], entries[j], lcm),
                                         reducers)
                           for i, j, lcm in _s_pairs(reducers))

        return self._run(task)


def _s_pairs(reducers: _Reducers, weights: Optional[Sequence[int]] = None,
             joined=None):
    """S-pairs (i, j, lcm), i < j, of indexed reducer entries in the normal
    strategy: least weighted lcm degree, then least lcm in the order, then
    (i, j).  weights holds one positive weight per variable; None means
    unit weights.  Entries the caller adds to reducers while iterating join
    the queue before the next pair.  When entry j joins, joined(b, minimal),
    if given, gets its leading monomial b and the exponent digits of the
    divisibility-minimal lcm(LM i, b), i < j, coprime ones included: divided
    by b, these are the minimal generators of the colon ideal
    <LM i : i < j> : b, which is <1> when an earlier LM divides b (then
    minimal is b's exponent digits alone).  Skipped: coprime leading monomials
    (their lcm is their product), and chained pairs (Buchberger's chain
    criterion: another LM(k) divides the lcm, and the pairs (i, k) and
    (j, k), yielded or skipped, both came before (i, j)).

    Key order alone decides the chain criterion.  Say LM(k) divides
    L = lcm(LM i, LM j), so lcm(i, k) and lcm(j, k) divide L: a proper
    divisor has a smaller key, as the weights are positive, and an equal
    lcm falls to the index tie-break.  So k < j chains (i, j) exactly when
    lcm(k, j) != L or k < i, and as LM(k) | L exactly when lcm(k, j) | L,
    (i, j) escapes every k < j exactly when L is divisibility-minimal among
    the lcm(k, j), k < j, ties going to the lowest k (Gebauer and Moeller,
    JSC 6, 1988); with b = LM(j), L / b is then a minimal generator of the
    colon ideal.  The divisor index finds these without an lcm per earlier
    entry.  Let at[v] hold the entries i < j whose LM is at most b in
    variable v.  An entry in every at[v] has an LM dividing b: the colon
    ideal is <1>, and the lowest such entry is paired.  Otherwise x_v is a
    generator exactly when some LM divides b x_v, which is then their lcm:
    when the other at[u] (prefix and suffix ANDs) and the entries at most
    one above b in v leave an entry, the lowest of which is paired.  Any
    other lcm that such a b x_v divides is not minimal or loses the tie, so
    only the entries in at[v] for every generator x_v get an lcm.  Those
    lcms are sorted, a proper divisor being a smaller int, and each is kept
    when no kept one divides it.  Coprime pairs take part but are not
    pushed, and only pushed pairs get degree digits.  A k > j with
    LM(k) | L chains (i, j) exactly when lcm(i, k) != L and
    lcm(j, k) != L; such entries, of the first batch or joined later, are
    tested at the pop.
    """
    pack = reducers.pack
    maximum, graded, degree = pack.maximum, pack.graded, pack.degree(weights)
    guard, mask, exps, digits = pack.guard, pack.mask, pack.exps, pack.digits
    dividing = reducers.dividing
    entries = reducers.entries
    # by variable: its digit, x_v packed, and the divisor index's column
    pos = pack.pos
    ones = [1 << pack.width * k for k in pos]
    columns = [reducers.below[k] for k in pos]
    lms: list = []  # leading monomials of the queued entries
    heap: list = []

    def push(i, j, x):
        if x != (lms[i] + entries[j][0]) & exps:  # not coprime
            lcm = graded(x)
            heapq.heappush(heap, (degree(lcm), lcm - 2 * (lcm & mask), i, j, lcm))

    while True:
        n = len(entries)
        for j in range(len(lms), n):
            b = entries[j][0]
            x, bd = b & exps, digits(b)
            at = [columns[v][bd[k]] for v, k in enumerate(pos)]
            pre = [(1 << j) - 1]  # pre[v]: the AND of at[u], u < v
            for c in at:
                pre.append(pre[-1] & c)
            if pre[-1]:  # an earlier LM divides b
                minimal = [x]
                push((pre[-1] & -pre[-1]).bit_length() - 1, j, x)
            else:
                minimal, left, after = [], pre[0], -1
                for v in reversed(range(len(pos))):
                    d = pre[v] & after & columns[v][bd[pos[v]] + 1]
                    if d:  # x_v generates the colon ideal
                        minimal.append(x + ones[v])
                        push((d & -d).bit_length() - 1, j, x + ones[v])
                        left &= at[v]
                    after &= at[v]
                rest = []
                while left:
                    i = (left & -left).bit_length() - 1
                    rest.append((maximum(lms[i], b), i))
                    left &= left - 1
                kept = []
                for y, i in sorted(rest):
                    yg = y | guard
                    if all((yg - m) & guard != guard for m in kept):  # none divides y
                        kept.append(y)
                        push(i, j, y)
                minimal += kept
            if joined:
                joined(b, minimal)
            lms.append(b)
        if not heap:
            return
        _, _, i, j, lcm = heapq.heappop(heap)
        d = dividing(lcm, -2 << j) if n > j + 1 else 0
        x = lcm & exps
        while d:  # is (i, j) chained by an entry k > j?
            lmk = entries[(d & -d).bit_length() - 1][0]
            if maximum(lms[i], lmk) != x and maximum(lms[j], lmk) != x:
                break
            d &= d - 1
        else:
            yield i, j, lcm


def buchberger(F: Sequence[MultiPoly], order: MonomialOrder,
               new_poly_log: Optional[list] = None) -> GroebnerBasis:
    """Reduced Groebner basis of <F>.  All-zero input yields the empty basis.

    Pairs come from the queue of _s_pairs under unit weights, and each
    nonzero remainder joins the basis; only a graph ideal that eliminate
    meets takes other weights (_graph_grading).  When new_poly_log is
    given, every polynomial entering the intermediate basis is appended to
    it before normalization: the inputs, each nonzero S-polynomial
    remainder and each interreduced final element.  Over QQ
    these are the integer forms before content removal, so every integer
    divided out during the run divides one of their leading coefficients;
    this supports prime specialisation.
    """
    gens = _reduced_basis(F, order, new_poly_log)
    return GroebnerBasis(gens, order, F[0].ring, F[0].varset)


def _reduced_basis(F: Sequence[MultiPoly], order: MonomialOrder,
                   new_poly_log=None, front: int = 0) -> tuple:
    """buchberger's generators; with front > 0, under elim(front), only
    those free of the front block's variables."""
    inputs = [f for f in F if not f.is_zero()]
    if not inputs:
        if not F:
            raise ValueError("buchberger needs at least one polynomial")
        return ()
    ring, vs = inputs[0].ring, inputs[0].varset
    _require_field(ring)
    logged = 0 if new_poly_log is None else len(new_poly_log)

    def run(width):
        if new_poly_log is not None:
            del new_poly_log[logged:]  # what a narrower run logged
        return _complete(_kernel(ring, vs, order, width), inputs, new_poly_log,
                         front)

    return _widening(run)


def _complete(kernel: _Kernel, inputs: Sequence[MultiPoly],
              new_poly_log: Optional[list], front: int = 0) -> tuple:
    """The generators of _reduced_basis, computed by kernel."""
    pack = kernel.pack
    key = pack.key

    def log(terms):
        if new_poly_log is not None:
            new_poly_log.append(kernel.to_poly(terms))

    basis: list = []
    reducers = _Reducers(pack)
    entries = reducers.entries

    def add(terms):
        log(terms)
        lm = kernel.lead(terms)
        terms = kernel.normalize(terms, lm)
        basis.append(terms)
        reducers.add(kernel.entry(terms, lm))

    # a graph ideal takes its own weights, and skips the pairs of degree d
    # while need, the excess of HF(S/J) over HF(S/I) at d, is 0 (see the
    # module docstring)
    graph = _graph_grading(inputs, front)
    weights = joined = None
    if graph:
        weights, target = graph
        degree, exps = pack.degree(weights), pack.exps
        excess = _minus_shifted({0: 1}, target, 0)  # N(J) - N(I), J = <LM>

        def joined(b, minimal):
            colon = _hilbert_numerator([x - (b & exps) for x in minimal], pack, degree)
            _minus_shifted(excess, colon, degree(b))

    for terms in sorted(map(kernel.prepare, inputs),
                        key=lambda t: key(kernel.lead(t))):
        add(terms)
    top = need = 0
    for i, j, lcm in _s_pairs(reducers, weights, joined):
        if joined:
            d = degree(lcm)
            if d > top:
                top, need = d, _hilbert_function(excess, weights, d)
                if need < 0:
                    raise AssertionError(f"staircase below HF(S/I) at degree {d}")
            if not need:
                continue
        r = kernel.reduce(kernel.spoly(entries[i], entries[j], lcm), reducers)
        if r:
            add(r)
            need -= 1
    if joined and any(excess.values()):
        raise AssertionError("staircase numerator is not the graph ideal's")

    # minimalize: drop entry i when an earlier LM divides LM(i) or a later
    # LM divides it properly (of equal LMs the first is kept), and under
    # elim(front) when LM(i) reaches the front block's top digits; then
    # interreduce each kept element against the others
    bound = 1 << pack.width * min(pack.pos[:front], default=pack.size)
    keep = []
    for i, (lm, *_) in enumerate(entries):
        if lm >= bound:
            continue
        d = reducers.dividing(lm) & ~(1 << i)
        if d & ((1 << i) - 1):
            continue
        while d and entries[(d & -d).bit_length() - 1][0] == lm:
            d &= d - 1
        if not d:
            keep.append(i)
    kept = _Reducers(pack, [entries[i] for i in keep])
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


def _graph_grading(inputs: Sequence[MultiPoly], front: int):
    """(w, prod_j (1 - t^w(y_j))), the numerator as {exponent:
    coefficient}, when under elim(front) the inputs are c*y_j - f_j: y_j a
    variable after the front block, of exponent 1, in no other input, and
    f_j in the front block's variables, zero or homogeneous of positive
    degree.  w, one weight per variable, makes every input homogeneous:
    deg f_j for y_j (1 when f_j = 0), 1 for every other variable.
    Otherwise None."""
    if not front:
        return None
    weights = [1] * len(inputs[0].varset)
    seen = set()
    numerator = {0: 1}
    for f in inputs:
        ys = [e for e in f.terms if any(e[front:])]
        if len(ys) != 1 or any(ys[0][:front]) or sum(ys[0]) != 1:
            return None
        y = ys[0].index(1)
        degrees = {sum(e) for e in f.terms if e != ys[0]} or {1}
        if y in seen or len(degrees) > 1 or 0 in degrees:
            return None
        seen.add(y)
        weights[y] = degrees.pop()
        numerator = _minus_shifted(numerator, dict(numerator), weights[y])
    return tuple(weights), numerator


def _minus_shifted(p: dict, q: dict, s: int) -> dict:
    """p - t^s * q, for polynomials in t held as {exponent: coefficient},
    written into p, which is returned; q must not be p."""
    for a, c in q.items():
        p[a + s] = p.get(a + s, 0) - c
    return p


def _hilbert_numerator(gens: Sequence[int], pack: _Packing, degree) -> dict:
    """The numerator N of the Hilbert series N(t) / prod_v (1 - t^w_v) of
    S/<gens>, as {exponent: coefficient}.  gens are packed monomials of
    pack, none dividing another, with zero degree digits; degree gives the
    weighted degree of one.  A generator g coprime to the others gives a
    factor 1 - t^deg g.  For the rest take a variable v in two generators
    and its least positive exponent e among them: with M' the generators
    free of v, N(M) = (1 - t^s) N(M') + t^s N(M : x_v^e), s = e w_v (the
    pivot recursion of Bigatti, JPAA 117, 1997).  The recursion works on
    N(2^K): by Taylor's resolution no coefficient of N exceeds
    2^len(gens) in size, so K = len(gens) + 2 reads them back exactly."""
    guard, width, digit = pack.guard, pack.width, pack.digit
    ones = guard >> width - 1
    K = len(gens) + 2

    def numerator(gens):
        seen = twice = 0  # guard bits of the digits in one, in two generators
        for g in gens:
            s = ((g | guard) - ones) & guard
            twice |= seen & s
            seen |= s
        n, core = 1, []
        for g in gens:  # one coprime to the others factors out
            if ((g | guard) - ones) & twice:
                core.append(g)
            else:  # a unit generator makes N zero
                n -= n << K * degree(g)
        if not core:
            return n
        shift = (twice & -twice).bit_length() - width  # v's digit
        e = min(g >> shift & digit for g in core if g >> shift & digit)
        rest = [g for g in core if not g >> shift & digit]
        cut = [g - (e << shift) for g in core if g >> shift & digit]
        # cutting keeps divisibility among the cut generators, and only those
        # now free of v can divide one of rest: both lists stay minimal
        free = [g for g in cut if not g >> shift & digit]
        colon = cut + [h for h in rest
                       if not any(((h | guard) - g) & guard == guard for g in free)]
        rest = numerator(rest)
        return n * (rest - (rest - numerator(colon) << K * degree(e << shift)))

    x, out, k = numerator(gens), {}, 0
    while x:  # the signed base-2^K digits of x
        c = x & (1 << K) - 1
        x >>= K
        if c >> K - 1:
            c -= 1 << K
            x += 1
        if c:
            out[k] = c
        k += 1
    return out


def _hilbert_function(numerator: dict, degrees: Sequence[int], d: int) -> int:
    """The coefficient of t^d in numerator / prod_v (1 - t^degrees[v]),
    degrees[v] being the degree of variable v."""
    counts = [1] + [0] * d  # monomials of each weighted degree up to d
    for wv in degrees:
        for k in range(wv, d + 1):
            counts[k] += counts[k - wv]
    return sum(c * counts[d - k] for k, c in numerator.items() if k <= d)


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


def eliminate(G: Sequence[MultiPoly], drop: Set[str]) -> List[MultiPoly]:
    """Generators of <G> intersected with the subring without the dropped vars.

    The run is under elim(b), the dropped variables in the front block.  A
    graph ideal there (see _graph_grading) picks its pairs by its own
    weights and skips its zero reductions; any other input takes unit
    weights.
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
    kept_vs = VarSet(tuple(back), tuple(vs.weights[vs.index(n)] for n in back))
    return [g.restrict(kept_vs) for g in _reduced_basis(
        [g.rename(block_vs) for g in gens], order, front=len(front))]


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
