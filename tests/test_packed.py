"""The packed-monomial Groebner engine: packed order keys against
order.key; re-packing at wider digits after an overflow; fraction-free QQ
membership; and the pair schedule that good_primes shares between primes.

The engine replaced one on exponent tuples, which served as its
differential oracle until the pins below and those of test_engine_pins.py
held what it returned on every input here: bases, logged polynomials,
criterion verdicts and remainders.
"""

import hashlib
import json
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest

from pfcalc import groebner
from pfcalc.geometry import PrimeVerdict, good_primes
from pfcalc.groebner import GroebnerBasis, _Overflow, _Packing, buchberger
from pfcalc.poly import (Elimination, Grevlex, Lex, MultiPoly, VarSet,
                         degree_monomials, parse_poly)
from pfcalc.rings import Fp, ModularIntegers, QQ, ZZ, ring_from_tag
from test_groebner import _exp_lcm

RINGS = [Fp(2), Fp(5), QQ, ring_from_tag("Fp(3)[t]/(t^2+1)")]
RING_IDS = ["F2", "F5", "QQ", "F9"]
ORDERS = [Lex(), Grevlex(), Elimination(1), Elimination(2), Elimination(3)]
ORDER_IDS = ["lex", "grevlex", "elim1", "elim2", "elim3"]
VS4 = VarSet(("w", "x", "y", "z"))
IDEALS = Path(__file__).resolve().parents[1] / "bench" / "data" / "ideals.json"


def _terms(polys):
    """Each polynomial's terms in dict order: the pins hold even the order in
    which terms were inserted."""
    return [list(f.terms.items()) for f in polys]


def _digest(runs) -> str:
    """sha256 of the repr of each run, one per line."""
    return hashlib.sha256("\n".join(map(repr, runs)).encode()).hexdigest()


def _skip_weight_draws(rng):
    """Consume the draws that once chose each ideal's pair weights, so that
    the seeded ideals stay the ones the pins were recorded on."""
    if rng.random() >= 0.5:
        for _ in VS4.names:
            rng.randrange(1, 4)


def _run(F, order):
    """buchberger's basis of F and the polynomials it logged."""
    log = []
    return buchberger(F, order, new_poly_log=log), log


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
    # the seeded ideals of test_engine_pins, which pins the tuple engine's
    # bases, logs and criterion verdicts on them: both verdicts occur, and a
    # member reduces to zero, as it did there
    rng = random.Random(f"{ring.tag()} {order.tag()}")
    verdicts = set()
    for gens in _random_ideals(ring, rng, 15):
        _skip_weight_draws(rng)
        gb = buchberger(gens, order)
        for G in (gens, list(gb.generators), list(gb.generators) + gens,
                  list(gb.generators)[1:] + gens[:1]):
            verdicts.add(GroebnerBasis(tuple(G), order, ring, VS4).satisfies_criterion())
        f = gens[0] * gens[-1] + gens[-1]
        assert gb.reduce(f).is_zero() and gb.contains(f)
    assert verdicts == {True, False}


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
            want = pack.pack(_exp_lcm(a, b))
        except _Overflow:
            with pytest.raises(_Overflow):
                pack.graded(pack.maximum(pa, pb))
        else:
            assert pack.graded(pack.maximum(pa, pb)) == want
    assert overflows > 1000


def test_repack_after_an_input_overflow():
    # 130 does not fit an 8-bit digit: the run re-packs before logging, so
    # its bases and logs are the tuple engine's, as pinned
    vs = VarSet(("x", "y"))
    runs = []
    for ring in (QQ, Fp(5)):
        F = [parse_poly(t, ring, vs) for t in ("x^130 - y", "x*y - 1")]
        # the last: a grevlex degree past 127 from exponents that fit
        for G in (F, F[:1], [parse_poly("x^100*y^30 - 1", ring, vs),
                             parse_poly("x^2 - y", ring, vs)]):
            gb, log = _run(G, Grevlex())
            runs += [_terms(gb.generators), _terms(log)]
    assert _digest(runs) == INPUT_OVERFLOW_PIN


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
        groebner._complete(kernel, F, early)
    assert len(early) == 2
    # the whole run re-packs at 16 bits, and the inputs the 8-bit run logged
    # are not left in its log a second time
    gb, log = _run(F, Lex())
    assert max(max(e) for g in gb.generators for e in g.terms) > 127
    assert _terms(log[:2]) == _terms(early)
    # the criterion check and the cached reducer re-pack too
    verdicts = [GroebnerBasis(tuple(G), Lex(), ring, vs).satisfies_criterion()
                for G in (F, list(gb.generators))]
    basis = GroebnerBasis(tuple(F), Lex(), ring, vs)
    f = parse_poly("x^200*y^3 + x", ring, vs)
    r = basis.reduce(f)
    one = MultiPoly.constant(ring, vs, 1)
    assert basis.contains(f - r) and not basis.contains(f - r + one)
    # all of it as the tuple engine gave it
    assert _digest([_terms(gb.generators), _terms(log), verdicts, _terms([r])]) == \
        LEX_OVERFLOW_PINS[(ring.tag(), *gens)]


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
    # every verified prime's generators mod p pass the criterion over F_p
    # itself, a check that skips the batch, as they passed the tuple
    # engine's
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
            gens_p = tuple(f.map_coefficients(ring_p.coerce, ring_p)
                           for f in report.generic_basis)
            assert own(GroebnerBasis(gens_p, Grevlex(), ring_p, gens_p[0].varset))


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
    # remainder, on members and on non-members; reduce divides out the
    # multiple and returns the tuple engine's Fraction remainder exactly
    _fraction_free(monkeypatch)
    rng = random.Random(f"membership {order.tag()}")
    verdicts = set()
    remainders = []
    for gens in _random_ideals(QQ, rng, 12):
        gb = buchberger(gens, order)
        for _ in range(4):
            member = _combination(rng, gens)
            term = MultiPoly(QQ, VS4, {rng.choice(degree_monomials(len(VS4), 2)):
                                       Fraction(rng.randint(1, 9), rng.randint(1, 9))})
            for f in (member, member + term):
                r = gb.reduce(f)
                assert gb.contains(f) == r.is_zero()
                verdicts.add(r.is_zero())
                remainders.append(_terms([r]))
    assert verdicts == {True, False}
    assert _digest(remainders) == QQ_MEMBERSHIP_PINS[order.tag()]


def test_qq_membership_reruns_at_16_bits(monkeypatch):
    # a basis whose exponents need 16-bit digits, and a member whose
    # exponents overflow the 8-bit reducer of a basis that fits in it:
    # both take the wider re-run of _widening, still on integers, and the
    # remainders are the tuple engine's, as pinned
    _fraction_free(monkeypatch)
    rebuilt = []  # the width of each reducer built
    own = groebner._field_reducer
    monkeypatch.setattr(groebner, "_field_reducer",
                        lambda *args: rebuilt.append(args[-1]) or own(*args))
    vs = VarSet(("x", "y"))
    x = MultiPoly.variable(QQ, vs, "x")
    remainders = []
    for text, width in (("3*x^130 - 2*y^2 + x", 16), ("2*x^3*y - 3*y^2 + 1", 8)):
        gb = buchberger([parse_poly(text, QQ, vs)], Grevlex())
        rebuilt.clear()
        member = gb.generators[0] * (x ** 200 * Fraction(-4, 9) + x)
        for f in (member, member + x ** 201):
            r = gb.reduce(f)
            assert gb.contains(f) == r.is_zero() == (f is member)
            remainders.append(_terms([r]))
        # the cached reducer is tried at 8 bits first and kept at width;
        # an 8-bit one is rebuilt at 16 bits for each of the four calls
        assert rebuilt == {16: [8, 16], 8: [8] + [16] * 4}[width]
    assert _digest(remainders) == WIDE_MEMBERSHIP_PIN


# sha256 pins (_digest) of what the tuple engine gave on the inputs above:
# the bases and logged polynomials of the overflow runs with the criterion
# verdicts and remainder of the lex one, and the remainders of the QQ
# membership tests
INPUT_OVERFLOW_PIN = \
    "ef126fbab2fa107bbe7382dbe019c63b680698794b04a49f3b0bd2bfad305848"
LEX_OVERFLOW_PINS = {
    ("QQ", "x - y^100", "x*y^30 - 1"):
        "6545ee95747f6255bfbc60699c01a97501fcfd3bb027b2be2b504c85bfccdc70",
    ("QQ", "x - y^70", "x^2 - y"):
        "c7733e316b03a0e8da1d50c445c061156bf902720d46e050856a68dabb3beb7c",
    ("Fp(7)", "x - y^100", "x*y^30 - 1"):
        "acfca8e97f0c2f08047c2dd2465b4f5c237fac7b61cc1aaf0c3bea0cf49d98cf",
    ("Fp(7)", "x - y^70", "x^2 - y"):
        "a3643e64a46e1efa4dac5b203ede7b68a1b4d5e45f8adb2b3ad4c6920f7d7e55",
}
QQ_MEMBERSHIP_PINS = {
    "grevlex": "cc4388a81d214f6d997b4f3fba4640f7cd2bb36ad0fd8f86c257d068782d9804",
    "elim(1)": "c3877f1da8f6bbe8bc595f05566bfc735beff81232e3d258a877be91275d15af",
    "elim(2)": "4af36ef9ec1c2144c6addd73f4100cc65113edb4dfc4d8f85768c04c6b204e2c",
}
WIDE_MEMBERSHIP_PIN = \
    "ce1450025a36aea27bbb198884e22fae1fda137e4e0257588116a6aa694861b4"
