"""The packed-monomial Groebner engine against the tuple engine it replaced
(tuple_engine.py): bases, logged polynomials and criterion verdicts; packed
order keys against order.key; re-packing at wider digits after an overflow;
and the pair schedule that good_primes shares between primes."""

import json
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest

import tuple_engine
from pfcalc import groebner
from pfcalc.geometry import PrimeVerdict, good_primes
from pfcalc.groebner import GroebnerBasis, _Overflow, _Packing, buchberger
from pfcalc.poly import (Elimination, Grevlex, Lex, MultiPoly, VarSet,
                         degree_monomials, parse_poly)
from pfcalc.rings import Fp, ModularIntegers, QQ, ZZ, ring_from_tag

RINGS = [Fp(2), Fp(5), QQ, ring_from_tag("Fp(3)[t]/(t^2+1)")]
RING_IDS = ["F2", "F5", "QQ", "F9"]
ORDERS = [Lex(), Grevlex(), Elimination(1), Elimination(2), Elimination(3)]
ORDER_IDS = ["lex", "grevlex", "elim1", "elim2", "elim3"]
VS4 = VarSet(("w", "x", "y", "z"))
IDEALS = Path(__file__).resolve().parents[1] / "bench" / "data" / "ideals.json"


def _terms(polys):
    """Each polynomial's terms in dict order: the engines must agree even on
    the order in which terms were inserted."""
    return [list(f.terms.items()) for f in polys]


def _tuple_buchberger(F, order, weights=None):
    log = []
    gb = tuple_engine.buchberger(F, order, new_poly_log=log, weights=weights)
    return gb, log


def _assert_same_run(F, order, weights=None):
    log = []
    gb = buchberger(F, order, new_poly_log=log, weights=weights)
    want, want_log = _tuple_buchberger(F, order, weights)
    assert _terms(gb.generators) == _terms(want.generators)
    assert _terms(log) == _terms(want_log)
    return gb, log


def _random_ideals(ring, rng, count):
    """2-3 generators in w, x, y, z, each homogeneous of degree 2 or 3 with
    2-4 terms; in every third ideal, two generators that each have one more
    term of lower degree (with more, lex bases often take seconds)."""
    monomials = {d: degree_monomials(len(VS4), d) for d in (1, 2, 3)}
    for n in range(count):
        homogeneous = n % 3 != 2
        gens = []
        for _ in range(rng.randrange(2, 4) if homogeneous else 2):
            d = rng.randrange(2, 4)
            support = rng.sample(monomials[d], rng.randrange(2, 5))
            if not homogeneous:
                support.append(rng.choice(monomials[rng.randrange(1, d)]))
            terms = {e: ring.from_int(rng.randrange(1, 5)) for e in support}
            gens.append(MultiPoly(ring, VS4, {e: c for e, c in terms.items()
                                              if not ring.is_zero(c)}))
        yield [g for g in gens if not g.is_zero()] or gens[:1]


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
def test_packed_engine_matches_tuple_engine(ring, order):
    rng = random.Random(f"{ring.tag()} {order.tag()}")
    verdicts = []
    for gens in _random_ideals(ring, rng, 15):
        weights = None if rng.random() < 0.5 else tuple(
            rng.randrange(1, 4) for _ in VS4.names)
        gb, _ = _assert_same_run(gens, order, weights)
        for G in (gens, list(gb.generators), list(gb.generators) + gens,
                  list(gb.generators)[1:] + gens[:1]):
            got = GroebnerBasis(tuple(G), order, ring, VS4).satisfies_criterion()
            assert got == tuple_engine.verify_buchberger_criterion(G, order)
            verdicts.append(got)
        f = gens[0] * gens[-1] + gens[-1]
        kernel, reducers = tuple_engine._field_reducer(ring, VS4, order, gb.generators)
        want = kernel.to_poly(kernel.reduce(f.terms, reducers))
        assert _terms([gb.reduce(f)]) == _terms([want])
        assert gb.contains(f - want)
    # both verdicts occur
    assert True in verdicts and False in verdicts


def _sign(a, b):
    return (a > b) - (a < b)


@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
def test_packed_keys_compare_like_order_keys(order):
    rng = random.Random(order.tag())
    low = order.block_size if isinstance(order, Elimination) else 1
    packs = {(n, width): _Packing(order, n, width)
             for n in range(low, 8) for width in (8, 16)}
    pairs = overflows = 0
    while pairs < 20000:
        n = rng.randrange(low, 8)
        width = 8 if rng.random() < 0.8 else 16
        pack = packs[n, width]
        top = rng.choice([2, 4, 20, 128, 1000])
        a, b = (tuple(rng.randrange(top) for _ in range(n)) for _ in range(2))
        try:
            pa, pb = pack.pack(a), pack.pack(b)
        except _Overflow:
            overflows += 1
            continue
        pairs += 1
        assert (pack.unpack(pa), pack.unpack(pb)) == (a, b)
        assert _sign(pack.key(pa), pack.key(pb)) == _sign(order.key(a), order.key(b))
        # the product is the sum and the lcm the digit-wise maximum, each
        # with its block degrees; or the guard bit, and an overflow of lcm,
        # exactly where the exponent tuple does not pack
        s = tuple(map(operator.add, a, b))
        try:
            assert pa + pb == pack.pack(s)
        except _Overflow:
            assert (pa + pb) & pack.guard
        try:
            want = pack.pack(tuple_engine._exp_lcm(a, b))
        except _Overflow:
            with pytest.raises(_Overflow):
                pack.lcm(pa, pb)
        else:
            assert pack.lcm(pa, pb) == want
    assert overflows > 1000


def test_repack_after_an_input_overflow():
    # 130 does not fit an 8-bit digit: the run re-packs before logging
    vs = VarSet(("x", "y"))
    for ring in (QQ, Fp(5)):
        F = [parse_poly(t, ring, vs) for t in ("x^130 - y", "x*y - 1")]
        _assert_same_run(F, Grevlex())
        _assert_same_run(F[:1], Grevlex())
        # a grevlex degree past 127 from exponents that fit
        _assert_same_run([parse_poly("x^100*y^30 - 1", ring, vs),
                          parse_poly("x^2 - y", ring, vs)], Grevlex())


@pytest.mark.parametrize("gens", [["x - y^100", "x*y^30 - 1"],   # S-polynomial
                                  ["x - y^70", "x^2 - y"]],      # reduction
                         ids=["spoly", "reduction"])
@pytest.mark.parametrize("ring", [QQ, Fp(7)], ids=["QQ", "F7"])
def test_repack_after_a_lex_overflow_keeps_the_log_clean(gens, ring):
    vs = VarSet(("x", "y"))
    F = [parse_poly(t, ring, vs) for t in gens]
    # the 8-bit run logs its inputs, then overflows
    kernel = (groebner._RationalKernel if ring == QQ else groebner._FieldKernel)(
        ring, vs, Lex())
    early = []
    with pytest.raises(_Overflow):
        groebner._complete(kernel, F, early, None)
    assert len(early) == 2
    # the whole run re-packs at 16 bits; its log is the tuple engine's, so
    # the inputs the 8-bit run logged are not left in it a second time
    gb, log = _assert_same_run(F, Lex())
    assert max(max(e) for g in gb.generators for e in g.terms) > 127
    assert _terms(log[:2]) == _terms(early)
    assert len(log) == len(_tuple_buchberger(F, Lex())[1])
    # the criterion check and the cached reducer re-pack too
    for G in (F, list(gb.generators)):
        assert GroebnerBasis(tuple(G), Lex(), ring, vs).satisfies_criterion() == \
            tuple_engine.verify_buchberger_criterion(G, Lex())
    basis = GroebnerBasis(tuple(F), Lex(), ring, vs)
    f = parse_poly("x^200*y^3 + x", ring, vs)
    kernel, reducers = tuple_engine._field_reducer(ring, vs, Lex(), F)
    want = kernel.to_poly(kernel.reduce(f.terms, reducers))
    assert _terms([basis.reduce(f)]) == _terms([want])
    one = MultiPoly.constant(ring, vs, 1)
    assert basis.contains(f - want) and not basis.contains(f - want + one)


def _bench_ideals():
    for name, spec in json.loads(IDEALS.read_text()).items():
        vs = VarSet(tuple(spec["variables"]), tuple(spec["weights"]))
        yield name, [parse_poly(g, ZZ, vs) for g in spec["generators"]]


PRIMES_BELOW_100 = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
# r and the recomputed primes below 100 (every other prime is verified with
# dimension 3), as the criterion check of each prime's own queue gave them
# when each prime was checked alone
GOOD_PRIMES_PINS = {
    "sop(1,3)@3": (1259712, {2: PrimeVerdict(2, False, 3, True),
                             3: PrimeVerdict(3, False, 3, True)}),
    "sop(1,3,2)@2": (1953125, {5: PrimeVerdict(5, False, 3, True)}),
}


def test_good_primes_share_one_pair_schedule(monkeypatch):
    # the primes away from r are checked together over ZZ/mZ, m their
    # product: one criterion call per ideal, on the batch's own queue; and
    # every verified prime's generators mod p pass the tuple engine's
    # criterion over F_p itself, a check that skips the batch
    checked = []
    own = GroebnerBasis.satisfies_criterion

    def satisfies(self):
        got = own(self)
        checked.append((self.ring, got))
        return got

    monkeypatch.setattr(GroebnerBasis, "satisfies_criterion", satisfies)
    for name, gens in _bench_ideals():
        checked.clear()
        report = good_primes(gens, PRIMES_BELOW_100)
        r, recomputed = GOOD_PRIMES_PINS[name]
        assert report.r == r
        assert list(report.verdicts) == [
            recomputed.get(p, PrimeVerdict(p, True, 3, False))
            for p in PRIMES_BELOW_100]
        verified = [p for p in PRIMES_BELOW_100 if p not in recomputed]
        assert checked == [(ModularIntegers(verified), True)]
        for p in verified:
            ring_p = Fp(p)
            gens_p = [f.map_coefficients(ring_p.coerce, ring_p)
                      for f in report.generic_basis]
            assert tuple_engine.verify_buchberger_criterion(gens_p, Grevlex())


def _combination(rng, gens):
    """A random member of <gens>: each generator times a term of degree at
    most 2 with a small rational coefficient."""
    out = MultiPoly.zero(QQ, gens[0].varset)
    for g in gens:
        e = rng.choice([m for d in range(3) for m in degree_monomials(len(VS4), d)])
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        out = out + g * MultiPoly(QQ, VS4, {e: c} if c else {})
    return out


def _fraction_free(monkeypatch):
    """Make any reduction through the field kernel fail."""
    def refused(*args):
        raise AssertionError("QQ membership ran the field kernel")

    monkeypatch.setattr(groebner._FieldKernel, "reduce", refused)


@pytest.mark.parametrize("order", [Grevlex(), Elimination(1), Elimination(2)],
                         ids=["grevlex", "elim1", "elim2"])
def test_qq_membership_is_fraction_free(monkeypatch, order):
    # contains over QQ reduces on integers, and its verdict is that of the
    # tuple engine's Fraction remainder, on members and on non-members;
    # reduce divides out the multiple and returns that remainder exactly
    _fraction_free(monkeypatch)
    rng = random.Random(f"membership {order.tag()}")
    verdicts = set()
    for gens in _random_ideals(QQ, rng, 12):
        gb = buchberger(gens, order)
        kernel, reducers = tuple_engine._field_reducer(QQ, VS4, order, gb.generators)
        for _ in range(4):
            member = _combination(rng, gens)
            term = MultiPoly(QQ, VS4, {rng.choice(degree_monomials(len(VS4), 2)):
                                       Fraction(rng.randint(1, 9), rng.randint(1, 9))})
            for f in (member, member + term):
                want = kernel.to_poly(kernel.reduce(f.terms, reducers))
                assert gb.contains(f) == want.is_zero()
                assert _terms([gb.reduce(f)]) == _terms([want])
                verdicts.add(want.is_zero())
    assert verdicts == {True, False}


def test_qq_membership_reruns_at_16_bits(monkeypatch):
    # a basis whose exponents need 16-bit digits, and a member whose
    # exponents overflow the 8-bit reducer of a basis that fits in it:
    # both take the wider re-run of _widening, still on integers
    _fraction_free(monkeypatch)
    rebuilt = []  # the width of each reducer built
    own = groebner._field_reducer
    monkeypatch.setattr(groebner, "_field_reducer",
                        lambda *args: rebuilt.append(args[-1]) or own(*args))
    vs = VarSet(("x", "y"))
    x = MultiPoly.variable(QQ, vs, "x")
    for text, width in (("3*x^130 - 2*y^2 + x", 16), ("2*x^3*y - 3*y^2 + 1", 8)):
        gb = buchberger([parse_poly(text, QQ, vs)], Grevlex())
        kernel, reducers = tuple_engine._field_reducer(QQ, vs, Grevlex(), gb.generators)
        rebuilt.clear()
        member = gb.generators[0] * (x ** 200 * Fraction(-4, 9) + x)
        for f in (member, member + x ** 201):
            want = kernel.to_poly(kernel.reduce(f.terms, reducers))
            assert gb.contains(f) == want.is_zero() == (f is member)
            assert _terms([gb.reduce(f)]) == _terms([want])
        # the cached reducer is tried at 8 bits first and kept at width;
        # an 8-bit one is rebuilt at 16 bits for each of the four calls
        assert rebuilt == {16: [8, 16], 8: [8] + [16] * 4}[width]
