"""The Groebner engine on exponent tuples, as it was before monomials were
packed into ints: a differential oracle for pfcalc.groebner.

The two engines must agree exactly on bases, new_poly_log entries and
criterion verdicts (see test_packed.py).
"""

import heapq
from fractions import Fraction
from math import gcd
from operator import mul, neg, sub
from typing import List, Optional, Sequence

from pfcalc.groebner import GroebnerBasis, _require_field
from pfcalc.poly import MonomialOrder, MultiPoly, VarSet, _exp_add
from pfcalc.rings import BaseRing, RationalField


def _exp_sub(a, b):
    return tuple(map(sub, a, b))


def _exp_lcm(a, b):
    return tuple([x if x > y else y for x, y in zip(a, b)])  # faster than map(max, a, b)


def s_polynomial(f: MultiPoly, g: MultiPoly, order: MonomialOrder) -> MultiPoly:
    """lcm/LT(f) * f - lcm/LT(g) * g for lcm the lcm of the two leading
    monomials: the leading terms cancel."""
    ring = f.ring
    lf, cf = f.leading(order)
    lg, cg = g.leading(order)
    lcm = _exp_lcm(lf, lg)
    a = f.term_mul(_exp_sub(lcm, lf), ring.inv(cf))
    b = g.term_mul(_exp_sub(lcm, lg), ring.inv(cg))
    return a - b


class _Reducers:
    """Reducer entries in list order, with the divisor index over them.

    below[v][a] is the bitset of the entries whose leading exponent is at
    most a in variable v.  Every column grows to the largest exponent looked
    up so far, so a lookup is one index per variable; past the end of
    below[v], every entry is below.  Entries may be added at any time.
    """

    def __init__(self, nvars: int, entries=()):
        self.entries: list = []
        self.below: List[list] = [[] for _ in range(nvars)]
        self.all = 0
        for entry in entries:
            self.add(entry)

    def add(self, entry: tuple):
        bit = 1 << len(self.entries)
        for col, a in zip(self.below, entry[0]):
            n = len(col)
            if a >= n:
                col.extend([self.all] * (a - n))
            else:
                for b in range(a, n):
                    col[b] |= bit
        self.entries.append(entry)
        self.all |= bit

    def dividing(self, exp, within: int = -1) -> int:
        """Bitset of the entries in within whose leading exponent divides exp."""
        d = self.all & within
        try:
            for col, a in zip(self.below, exp):
                d &= col[a]
                if not d:
                    break
        except IndexError:
            top = max(exp) + 1
            for col in self.below:
                col.extend([self.all] * (top - len(col)))
            return self.dividing(exp, within)
        return d

    def first_divisor(self, exp, within: int = -1):
        """The first entry in within whose leading exponent divides exp, or None."""
        d = self.dividing(exp, within)
        return self.entries[(d & -d).bit_length() - 1] if d else None


class _Kernel:
    """Coefficient arithmetic on term dicts (exponent -> coefficient).

    A reducer entry is (leading exponent, leading factor, tail terms shifted
    by minus the leading exponent), built once per basis element.  The
    leading factor is the inverse leading coefficient in the field kernel
    and the leading coefficient itself in the QQ kernel.
    """

    def __init__(self, ring: BaseRing, vs: VarSet, order: MonomialOrder):
        self.ring = ring
        self.vs = vs
        self.order = order

    def heap_key(self, nkey: dict):
        """Negated order key of an exponent, cached in nkey, so that the
        largest term comes first off a reduction heap."""
        okey = self.order.key

        def heapkey(e):
            k = nkey.get(e)
            if k is None:
                k = tuple(map(neg, okey(e)))
                nkey[e] = k
            return k

        return heapkey

    def entry(self, terms: dict, lm) -> tuple:
        tail = [(_exp_sub(e, lm), c) for e, c in terms.items() if e != lm]
        return (lm, self.lead_factor(terms[lm]), tail)


class _FieldKernel(_Kernel):
    """Payload arithmetic of the ring; normalized means monic."""

    def prepare(self, f: MultiPoly) -> dict:
        return dict(f.terms)

    def normalize(self, terms: dict, lm) -> dict:
        ring = self.ring
        ilc = ring.inv(terms[lm])
        return {e: ring.mul(c, ilc) for e, c in terms.items()}

    def lead_factor(self, lc):
        return self.ring.inv(lc)

    def spoly(self, f: dict, ef: tuple, g: dict, eg: tuple, lcm) -> dict:
        ring = self.ring
        zero = ring.zero()
        sf, sg = _exp_sub(lcm, ef[0]), _exp_sub(lcm, eg[0])
        out = {_exp_add(e, sf): ring.mul(c, ef[1]) for e, c in f.items()}
        for e, c in g.items():
            e2 = _exp_add(e, sg)
            v = ring.sub(out.get(e2, zero), ring.mul(c, eg[1]))
            if ring.is_zero(v):
                out.pop(e2, None)
            else:
                out[e2] = v
        return out

    def reduce(self, terms: dict, reducers: _Reducers,
               nkey: Optional[dict] = None, within: int = -1) -> dict:
        """Remainder of terms modulo the reducer entries in within.  nkey
        caches negated order keys across calls."""
        ring = self.ring
        mul, sub, is_zero = ring.mul, ring.sub, ring.is_zero
        zero = ring.zero()
        first_divisor = reducers.first_divisor
        heapkey = self.heap_key({} if nkey is None else nkey)
        pending = dict(terms)
        result = {}
        heap = [(heapkey(e), e) for e in pending]
        heapq.heapify(heap)
        while heap:
            _, exp = heapq.heappop(heap)
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
                e3 = _exp_add(e2, exp)
                prev = pending.get(e3)
                if prev is None:
                    heapq.heappush(heap, (heapkey(e3), e3))
                    prev = zero
                val = sub(prev, mul(factor, c2))
                if is_zero(val):
                    pending.pop(e3, None)
                else:
                    pending[e3] = val
        return result

    def to_poly(self, terms: dict) -> MultiPoly:
        return MultiPoly(self.ring, self.vs, terms)


class _RationalKernel(_Kernel):
    """Fraction-free QQ arithmetic on integer coefficients; normalized
    means content 1 with a positive leading coefficient."""

    def prepare(self, f: MultiPoly) -> dict:
        """Clear denominators with their least common multiple."""
        den = 1
        for c in f.terms.values():
            den = den * c.denominator // gcd(den, c.denominator)
        return {e: int(c * den) for e, c in f.terms.items()}

    def normalize(self, terms: dict, lm) -> dict:
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

    def spoly(self, f: dict, ef: tuple, g: dict, eg: tuple, lcm) -> dict:
        cf, cg = ef[1], eg[1]
        d = gcd(cf, cg)
        mf, mg = cg // d, cf // d
        sf, sg = _exp_sub(lcm, ef[0]), _exp_sub(lcm, eg[0])
        out = {_exp_add(e, sf): mf * c for e, c in f.items()}
        for e, c in g.items():
            e2 = _exp_add(e, sg)
            v = out.get(e2, 0) - mg * c
            if v:
                out[e2] = v
            else:
                out.pop(e2, None)
        return out

    def reduce(self, terms: dict, reducers: _Reducers,
               nkey: Optional[dict] = None, within: int = -1) -> dict:
        """Pseudo-remainder modulo the reducer entries in within, with
        integer arithmetic; the result is the true normal form times a
        positive rational, which normalize removes.  nkey caches negated
        order keys across calls."""
        first_divisor = reducers.first_divisor
        heapkey = self.heap_key({} if nkey is None else nkey)
        pending = dict(terms)
        result = {}
        heap = [(heapkey(e), e) for e in pending]
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
                e3 = _exp_add(e2, exp)
                prev = pending.get(e3)
                if prev is None:
                    heapq.heappush(heap, (heapkey(e3), e3))
                    prev = 0
                val = prev - factor * c2
                if val:
                    pending[e3] = val
                else:
                    pending.pop(e3, None)
        return result

    def to_poly(self, terms: dict) -> MultiPoly:
        return MultiPoly(self.ring, self.vs,
                         {e: Fraction(c) for e, c in terms.items()})


def _field_reducer(ring: BaseRing, vs: VarSet, order: MonomialOrder,
                   G: Sequence[MultiPoly]) -> tuple:
    """Field kernel and the indexed reducer entries of the nonzero
    elements of G."""
    _require_field(ring)
    kernel = _FieldKernel(ring, vs, order)
    return kernel, _Reducers(len(vs), [kernel.entry(g.terms, g.leading(order)[0])
                                       for g in G if not g.is_zero()])


def _s_pairs(reducers: _Reducers, keyof, weights: Optional[Sequence[int]] = None):
    """S-pairs (i, j, lcm), i < j, of indexed reducer entries in the normal
    strategy: least weighted lcm degree, then least lcm by keyof, then (i, j).
    weights holds one positive weight per variable; None means unit weights.
    Entries the caller adds to reducers while iterating join the queue
    before the next pair.  Skipped: coprime leading monomials (the weighted
    lcm degree is the sum of their weighted degrees, which positive weights
    make exact), and chained pairs (another LM(k) divides the lcm and the
    pairs (i, k) and (j, k) are both done).

    done[i] is the bitset of the k whose pair with i has been popped, so the
    chain test is one index lookup: the entries dividing the lcm within
    done[i] & done[j], which holds neither i nor j.
    """
    wdeg = sum if weights is None else (lambda e: sum(map(mul, weights, e)))
    entries = reducers.entries
    heap: list = []
    done: List[int] = []
    degree: List[int] = []
    while True:
        for j in range(len(done), len(entries)):
            lmj = entries[j][0]
            for i in range(j):
                lcm = _exp_lcm(entries[i][0], lmj)
                heapq.heappush(heap, (wdeg(lcm), keyof(lcm), i, j, lcm))
            done.append(0)
            degree.append(wdeg(lmj))
        if not heap:
            return
        deg, _, i, j, lcm = heapq.heappop(heap)
        done[i] |= 1 << j
        done[j] |= 1 << i
        if deg == degree[i] + degree[j]:
            continue  # no variable in both leading monomials
        if not reducers.dividing(lcm, done[i] & done[j]):
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
    kernel = (_RationalKernel if isinstance(ring, RationalField)
              else _FieldKernel)(ring, vs, order)
    # two caches: order keys (leading monomials, pair lcms) and the negated
    # keys of every exponent the reductions push on their heaps
    kcache: dict = {}
    nkey: dict = {}
    okey = order.key

    def keyof(e):
        k = kcache.get(e)
        if k is None:
            k = okey(e)
            kcache[e] = k
        return k

    def lead(terms):
        return max(terms, key=keyof)

    def log(terms):
        if new_poly_log is not None:
            new_poly_log.append(kernel.to_poly(terms))

    basis: list = []
    reducers = _Reducers(len(vs))
    entries = reducers.entries

    def add(terms):
        log(terms)
        lm = lead(terms)
        terms = kernel.normalize(terms, lm)
        basis.append(terms)
        reducers.add(kernel.entry(terms, lm))

    for terms in sorted((kernel.prepare(f) for f in inputs),
                        key=lambda t: keyof(lead(t))):
        add(terms)
    for i, j, lcm in _s_pairs(reducers, keyof, weights):
        r = kernel.reduce(kernel.spoly(basis[i], entries[i], basis[j], entries[j], lcm),
                          reducers, nkey)
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
    kept = _Reducers(len(vs), [entries[i] for i in keep])
    final = []
    for pos, i in enumerate(keep):
        t = (kernel.reduce(basis[i], kept, nkey, ~(1 << pos)) if len(keep) > 1
             else basis[i])
        if t:
            log(t)
            lm = lead(t)
            final.append((keyof(lm), kernel.to_poly(t).scale(ring.inv(t[lm]))))
    final.sort(key=lambda kf: kf[0])
    return GroebnerBasis(tuple(f for _, f in final), order, ring, vs)


def verify_buchberger_criterion(G: Sequence[MultiPoly], order: MonomialOrder) -> bool:
    """Is G a Groebner basis: does every S-polynomial reduce to zero modulo G?

    Pairs come from the same queue as in buchberger (_s_pairs), so pairs
    with coprime leading monomials and pairs caught by the chain criterion
    are skipped; the first nonzero remainder answers False.
    """
    gens = [g for g in G if not g.is_zero()]
    if len(gens) < 2:
        return True
    kernel, reducers = _field_reducer(gens[0].ring, gens[0].varset, order, gens)
    entries = reducers.entries
    nkey: dict = {}
    return not any(kernel.reduce(kernel.spoly(gens[i].terms, entries[i],
                                              gens[j].terms, entries[j], lcm),
                                 reducers, nkey)
                   for i, j, lcm in _s_pairs(reducers, order.key))
