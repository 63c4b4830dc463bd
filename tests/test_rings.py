"""Exact coefficient rings: arithmetic, tags, scalar-field structure."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from pfcalc import rings
from pfcalc.groebner import NonFieldCoefficients, buchberger
from pfcalc.linalg import Echelon
from pfcalc.poly import Grevlex, VarSet, parse_poly
from pfcalc.rings import (PRIME_TEST_LIMIT, Fp, ModularIntegers, NotAUnit, QQ,
                          QuotientRing, SizeGuardExceeded, ZZ, _poly_divmod,
                          fraction_field_reduction, is_prime, ring_from_tag)


def test_integer_arithmetic():
    assert ZZ.add(2, 3) == 5
    assert ZZ.mul(-4, 6) == -24
    assert ZZ.sub(1, 7) == -6
    assert not ZZ.is_field()
    assert ZZ.characteristic() == 0
    assert ZZ.tag() == "ZZ"


def test_integer_units():
    assert ZZ.is_unit(-1)
    assert not ZZ.is_unit(2)
    with pytest.raises(NotAUnit):
        ZZ.inv(2)


def test_rational_field():
    half = QQ.coerce(Fraction(1, 2))
    assert QQ.mul(half, QQ.from_int(4)) == Fraction(2)
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.is_field()
    assert QQ.tag() == "QQ"


def test_rational_inverse_is_a_fraction():
    # an int payload must not fall into float division
    assert type(QQ.inv(2)) is Fraction and QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.inv(Fraction(-2, 3))) is Fraction and QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    rows = Echelon.of([[2, 1]], QQ).dense(2)
    assert rows == [[1, Fraction(1, 2)]]
    assert all(type(x) is Fraction for row in rows for x in row)


def test_prime_field():
    F7 = Fp(7)
    assert F7.add(5, 4) == 2
    assert F7.mul(3, 5) == 1
    assert F7.inv(3) == 5
    assert F7.characteristic() == 7
    assert F7.tag() == "Fp(7)"


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        Fp(6)


def test_quotient_ring_dual_numbers():
    R = ring_from_tag("QQ[t]/(t^2)")
    t = R.gen()
    assert R.mul(t, t) == R.zero()
    assert not R.is_field()
    # 1 + t is a unit with inverse 1 - t
    u = R.add(R.one(), t)
    v = R.inv(u)
    assert R.mul(u, v) == R.one()


def test_quotient_field_f4():
    # F_2[t]/(t^2+t+1) is the field with four elements
    R = ring_from_tag("Fp(2)[t]/(t^2+t+1)")
    assert R.is_field()
    t = R.gen()
    assert R.mul(t, R.inv(t)) == R.one()
    # multiplicative order of t is 3
    t3 = R.mul(t, R.mul(t, t))
    assert t3 == R.one()


def test_tag_round_trip():
    # tags print a normalized modulus, so check the parse/print fixed point
    for tag in ("ZZ", "QQ", "Fp(5)", "QQ[t]/(t^2)", "Fp(2)[t]/(t^2+t+1)"):
        once = ring_from_tag(tag).tag()
        assert ring_from_tag(once).tag() == once


def test_scalar_field_of_zz_is_qq():
    assert ZZ.scalar_field().tag() == "QQ"
    assert ZZ.field_basis() == (1,)


def test_scalar_field_of_quotient():
    R = ring_from_tag("QQ[t]/(t^2)")
    k = R.scalar_field()
    assert k.tag() == "QQ"
    basis = R.field_basis()
    assert len(basis) == 2
    t = R.gen()
    coords = R.field_coords(R.add(R.from_int(3), t))
    assert list(coords) == [Fraction(3), Fraction(1)]


def test_scale_by_scalar():
    R = ring_from_tag("Fp(3)[t]/(t^2)")
    t = R.gen()
    assert R.scale_by_scalar(t, 2) == R.mul(R.from_int(2), t)


@pytest.mark.parametrize("tag", ["ZZ", "QQ", "Fp(5)", "Fp(3)[t]/(t^2+1)",
                                 "QQ[t]/(t^2)"])
def test_coerce_is_numerator_times_inverse_denominator(tag):
    # rational text is read by parse_poly, as a constant; coerce takes none
    R = ring_from_tag(tag)

    def read(text):
        return parse_poly(text, R, VarSet(())).terms.get((), R.zero())

    with pytest.raises(TypeError):
        R.coerce("1/2")
    for n, d in [(0, 1), (3, 1), (-4, 1), (1, 2), (-3, 4), (2, 3), (7, 5),
                 (1, 3), (-6, 5)]:
        try:
            want = R.mul(R.from_int(n), R.inv(R.from_int(d)))
        except NotAUnit:
            with pytest.raises(NotAUnit):
                R.coerce(Fraction(n, d))
            with pytest.raises(NotAUnit):
                read(f"{n}/{d}")
            continue
        assert R.coerce(Fraction(n, d)) == want
        assert read(f"{n}/{d}") == want
        if d == 1:
            assert R.coerce(n) == want
            assert read(str(n)) == want


# ring_from_tag on these tags, pinned at the last commit that still carried
# the reader it replaced (a provisional QuotientRing.__new__ ring of larger
# degree with its own term reader), where both agreed on every tag: the
# resulting tag(), or the kind of exception raised.
RING_TAGS = {
    "QQ": "QQ",
    "Fp(7)": "Fp(7)",
    "QQ[t]/(t^2+1)": "QQ[t]/(1 + t^2)",
    "QQ[t]/(t^4+t)": "QQ[t]/(t + t^4)",
    "QQ[t]/(2*t^2-3)": "QQ[t]/(-3/2 + t^2)",
    "QQ[t]/(1/2*t^2+t-3/4)": "QQ[t]/(-3/2 + 2*t + t^2)",
    "QQ[t]/(t)": "QQ[t]/(t)",
    "QQ[t]/(3*t-1/2)": "QQ[t]/(-1/6 + t)",
    "QQ[t]/( t^2 - t )": "QQ[t]/(-1*t + t^2)",
    "QQ[t]/(t^2+t^2+1)": "QQ[t]/(1/2 + t^2)",
    "Fp(5)[t]/(5*t^2+t)": "Fp(5)[t]/(t)",
    "Fp(2)[t]/(t^2+t+1)": "Fp(2)[t]/(1 + t + t^2)",
    "Fp(3)[t]/(t^5-t+2)": "Fp(3)[t]/(2 + 2*t + t^5)",
    "Fp(7)[t]/(-t^2-1)": "Fp(7)[t]/(1 + t^2)",
    "Fp(5)[t]/(1/2*t^2+1)": "Fp(5)[t]/(2 + t^2)",
    "Fp(3)[t]/(t-1)": "Fp(3)[t]/(2 + t)",
    "Fp(5)[t]/(2+t^3)": "Fp(5)[t]/(2 + t^3)",
    "Fp(5)[t]/(t^3+4*t^3)": ValueError,
    "Fp(5)[t]/(5*t^2+5*t)": ValueError,
    "QQ[t]/(7)": ValueError,
    "ZZ[t]/(t^2)": ValueError,
    "Fp(4)": ValueError,
    "Fp(5)[t]/(t^2+1/5)": ArithmeticError,
    "QQ[t]/(t^2+1/0)": ArithmeticError,
    "QQ[t]/(t^2+x)": ValueError,
    # added when parse_poly became the modulus reader: the printed form of a
    # QQ modulus reads back through "+-", a product the old reader refused,
    # and a parenthesized modulus, which the tag grammar still refuses
    "QQ[t]/(t^3-5*t-7)": "QQ[t]/(-7 + -5*t + t^3)",
    "Fp(5)[t]/(t*t+2)": "Fp(5)[t]/(2 + t^2)",
    "QQ[t]/((t^2+1))": ValueError,
    # a power of a number in a QQ modulus is read, and its size is guarded
    "QQ[t]/(t^64-2^300000*t^63-1)": SizeGuardExceeded,
    "QQ[t]/(t^2-2^100*t-3^100)": "QQ[t]/(-515377520732011331036461129765621272702107522001 "
                                 "+ -1267650600228229401496703205376*t + t^2)",
}


@pytest.mark.parametrize("tag", list(RING_TAGS))
def test_ring_from_tag_matches_scratch_ring_reader(tag):
    want = RING_TAGS[tag]
    if isinstance(want, type):
        with pytest.raises(want):
            ring_from_tag(tag)
        return
    got = ring_from_tag(tag)
    assert got.tag() == want
    # the tag reads back as the same ring
    assert ring_from_tag(want) == got


def test_fraction_field_reduction():
    assert fraction_field_reduction(0).tag() == "QQ"
    assert fraction_field_reduction(5).tag() == "Fp(5)"
    with pytest.raises(ValueError):
        fraction_field_reduction(4)


def _trial_division_irreducible(field, modulus):
    """Irreducibility by trial division with every monic polynomial of
    degree at most deg // 2: p^d candidates per degree d."""
    p, deg = field.characteristic(), len(modulus) - 1
    for d in range(1, deg // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            if not _poly_divmod(modulus, low + (1,), field)[1]:
                return False
    return True


@pytest.mark.parametrize("p", [2, 3])
def test_rabin_matches_trial_division(p):
    field = Fp(p)
    verdicts = []
    for deg in range(1, 5):
        for low in itertools.product(range(p), repeat=deg):
            modulus = low + (1,)
            R = QuotientRing(field, modulus)
            assert R.is_field() == _trial_division_irreducible(field, modulus), modulus
            verdicts.append(R.is_field())
    # the irreducible monic polynomials of degree 1..4: 2+1+2+3 over F2
    # and 3+3+8+18 over F3
    assert sum(verdicts) == {2: 8, 3: 32}[p]


def test_is_field_of_large_prime_quartic_is_fast():
    # trial division would try about 32003^2 monic quadratics here
    cases = {"t^4+t+6": True,                # irreducible
             "t^4+1": False,                  # reducible over every F_p
             "t^4+31996*t^2+10": False}      # (t^2-2)(t^2-5): no roots
    for modulus, expected in cases.items():
        start = time.perf_counter()
        R = ring_from_tag(f"Fp(32003)[t]/({modulus})")
        assert R.is_field() is expected
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("modulus, degree, bits", [
    ("t^8-2^8191*t^7-1", 8, 8191),     # 8^2 * 8191 <= 2^19
    ("t^8-2^8192*t^7-1", 8, 8192),     # 8^2 * 8192 == 2^19
    ("t^8-2^8193*t^7-1", 8, 8193),     # one bit above
    ("2^8193*t^8-t^7-1", 8, 8193),     # the leading coefficient counts too
    ("t^2-2^131072", 2, 131072),       # 2^2 * 131072 == 2^19
    ("t^2-2^131073", 2, 131073),
    ("t^64-" + "*".join(["9" * 4300] * 12) + "*t^63-1", 64, 171412),
    ("+".join(f"{'9' * 301}*t^{i}" for i in range(65)), 64, 1000),
])
def test_modulus_bits_guard(modulus, degree, bits):
    # laying out the fold of a dense degree-64 QQ modulus with 1,000-bit
    # coefficients took 15 s, and of t^64-2^300000*t^63-1 15 s too; the
    # guard refuses both from the parsed terms, before the fold is made
    start = time.perf_counter()
    if degree ** 2 * bits <= rings.MODULUS_BITS_LIMIT:
        assert ring_from_tag(f"QQ[t]/({modulus})").deg == degree
    else:
        with pytest.raises(SizeGuardExceeded, match="coefficients exceed") as exc:
            ring_from_tag(f"QQ[t]/({modulus})")
        assert exc.value.measured == {"coefficient_bits": bits, "degree": degree,
                                      "limit": rings.MODULUS_BITS_LIMIT}
    assert time.perf_counter() - start < 1.0


def test_is_field_is_memoized_per_ring(monkeypatch):
    calls = []
    irreducible = rings._modulus_irreducible

    def counted(ring):
        calls.append(ring)
        return irreducible(ring)

    monkeypatch.setattr(rings, "_modulus_irreducible", counted)
    R = ring_from_tag("Fp(101)[t]/(t^4+t+3)")
    verdict = R.is_field()
    assert all(R.is_field() == verdict for _ in range(3))
    assert calls == [R]


def _dense_reference(ring, text):
    """The payload of a text c_0*t^k_0 - c_1*t^k_1 - ..., each c an integer
    or a fraction a/b: its dense coefficient list, reduced once."""
    base = ring.base
    terms = [piece.split("*t^") for piece in text.split(" - ")]
    cs = [base.zero()] * (1 + max(int(k) for _, k in terms))
    for i, (c, k) in enumerate(terms):
        c = base.coerce(Fraction(c))
        cs[int(k)] = base.add(cs[int(k)], c if i == 0 else base.neg(c))
    return ring._reduce(tuple(cs))


def test_huge_t_powers_are_reduced_by_squaring():
    # a dense coefficient list as long as the exponent took 23.7 s here;
    # parse_poly squares t in the ring, each product charged to its meter
    def read(ring, text):
        return parse_poly(text, ring, VarSet(())).terms.get((), ring.zero())

    R = ring_from_tag("QQ[t]/(t^2+1)")
    start = time.perf_counter()
    assert read(R, "t^1000000") == R.one()
    assert time.perf_counter() - start < 1.0
    S = ring_from_tag("Fp(5)[t]/(t^2+2)")
    assert read(S, "t^100001") == S.gen()
    # in the cubic field the coordinates of t^300000 have 437,409 bits
    cubic = ring_from_tag("QQ[t]/(t^3-5*t-7)")
    start = time.perf_counter()
    with pytest.raises(SizeGuardExceeded, match="polynomial expansion"):
        read(cubic, "t^300000")
    assert time.perf_counter() - start < 1.0
    # moderate powers: the payload of the dense list reduced once
    rng = random.Random(5160)
    for ring in (R, S, ring_from_tag("Fp(3)[t]/(t^3+2*t+1)"),
                 ring_from_tag("QQ[t]/(t - 2)")):
        for _ in range(50):
            text = " - ".join(f"{rng.randrange(1, 9)}/{rng.randrange(1, 4)}*t^"
                              f"{rng.randrange(0, 40)}"
                              for _ in range(rng.randrange(1, 5)))
            if ring.characteristic():
                text = text.replace("/3", "")
            assert read(ring, text) == _dense_reference(ring, text)


def test_is_zero_overrides_agree_with_equality():
    rng = random.Random(3)
    rings_under_test = [ZZ, QQ, Fp(2), Fp(7), ring_from_tag("QQ[t]/(t^2)"),
                        ring_from_tag("Fp(3)[t]/(t^2+1)"),
                        ring_from_tag("Fp(5)[t]/(t^3+t+1)")]
    for ring in rings_under_test:
        # ZZ, QQ and ZZ/mZ take BaseRing's `not a`; k[t]/(f) overrides it
        assert (type(ring).is_zero is rings.BaseRing.is_zero) == \
            (not isinstance(ring, QuotientRing))
        seen = set()
        for _ in range(200):
            x = rng.randint(-3, 3)
            if ring.characteristic() == 0 and ring != ZZ:
                x = Fraction(x, rng.randint(1, 3))
            a = ring.mul(ring.coerce(x), ring.coerce(rng.randint(-2, 2)))
            if isinstance(ring, QuotientRing):
                a = ring.add(a, ring.mul(ring.gen(), ring.coerce(rng.randint(-1, 1))))
            assert ring.is_zero(a) == (a == ring.zero()), (ring, a)
            seen.add(ring.is_zero(a))
        assert seen == {True, False}, ring


# Fields with Zech tables, against a second instance of the same ring whose
# is_field() is never called, so that it keeps the schoolbook arithmetic.
ZECH_FIELDS = ["Fp(2)[t]/(t^2+t+1)", "Fp(2)[t]/(t^3+t+1)", "Fp(3)[t]/(t^2+1)",
               "Fp(5)[t]/(t^2+2)", "Fp(3)[t]/(t^3+2*t+1)", "Fp(7)[t]/(t^2+1)",
               "Fp(5)[t]/(t+1)"]


@pytest.mark.parametrize("tag", ZECH_FIELDS)
def test_zech_tables_match_schoolbook_on_every_pair(tag):
    R, S = ring_from_tag(tag), ring_from_tag(tag)
    assert R.is_field() and R._tables is not None
    elements = list(itertools.product(range(R.characteristic()), repeat=R.deg))
    for a in elements:
        assert R.neg(a) == S.neg(a)
        for e in (0, 1, 2, 3, 7, len(elements), 10 ** 6 + 3):
            assert R.power(a, e) == S.power(a, e), (a, e)
        if any(a):
            assert R.inv(a) == S.inv(a)
        for b in elements:
            assert R.add(a, b) == S.add(a, b), (a, b)
            assert R.sub(a, b) == S.sub(a, b), (a, b)
            assert R.mul(a, b) == S.mul(a, b), (a, b)
    for ring in (R, S):
        with pytest.raises(NotAUnit):
            ring.inv(ring.zero())
    assert S._tables is None


@pytest.mark.parametrize("tag", ["Fp(2)[t]/(t^2)", "Fp(3)[t]/(t^3)",
                                 "QQ[t]/(t^2+1)"])
def test_no_zech_tables_off_finite_fields(tag):
    R = ring_from_tag(tag)
    R.is_field()
    assert R._tables is None
    assert not {"add", "sub", "mul", "neg", "inv", "power"} & set(vars(R))
    with pytest.raises(NotAUnit):
        R.inv(R.zero())
    if not R.is_field():
        # t is a zero divisor
        with pytest.raises(NotAUnit):
            R.inv(R.gen())


@pytest.mark.parametrize("payload", [(1,), (0,), (1, 0, 0), (3, 0), (0, 3),
                                     [1, 0]])
def test_zech_tables_reject_payloads_that_are_not_canonical(payload):
    # the table path raises on these, as the schoolbook add and sub raise on
    # a payload of the wrong length
    R = ring_from_tag("Fp(3)[t]/(t^2+1)")
    assert R.is_field()
    one = R.one()
    calls = [lambda: R.add(payload, one), lambda: R.add(one, payload),
             lambda: R.sub(payload, one), lambda: R.sub(one, payload),
             lambda: R.mul(payload, one), lambda: R.mul(R.zero(), payload),
             lambda: R.neg(payload), lambda: R.inv(payload),
             lambda: R.power(payload, 2)]
    # a list is unhashable, a tuple that is not canonical is no key of log
    error = TypeError if isinstance(payload, list) else KeyError
    for call in calls:
        with pytest.raises(error):
            call()


def test_zech_tables_stop_at_the_order_bound():
    assert 127 ** 2 <= rings.ZECH_MAX_ORDER < 131 ** 2
    small = ring_from_tag("Fp(127)[t]/(t^2+1)")
    assert small.is_field() and small._tables is not None
    rng = random.Random(17)
    for tag in ("Fp(131)[t]/(t^2+1)", "Fp(2)[t]/(t^17+t^3+1)"):
        R, S = ring_from_tag(tag), ring_from_tag(tag)
        assert R.is_field() and R._tables is None
        for _ in range(50):
            a, b = (tuple(rng.randrange(R.characteristic()) for _ in range(R.deg))
                    for _ in range(2))
            assert R.mul(a, b) == S.mul(a, b)
            assert R.add(a, b) == S.add(a, b)


@pytest.mark.parametrize("op", ["add", "sub"])
def test_schoolbook_add_and_sub_refuse_payloads_of_the_wrong_length(op):
    # Fp(2)[t]/(t^2) is no field, so it keeps the schoolbook arithmetic; a
    # plain zip read add((1,), (1, 0)) as (0,)
    R = ring_from_tag("Fp(2)[t]/(t^2)")
    assert not R.is_field()
    for a, b in (((1,), (1, 0)), ((1, 0), (1,)), ((1, 0, 0), (1, 0))):
        with pytest.raises(ValueError):
            getattr(R, op)(a, b)
    assert getattr(R, op)((1, 1), (1, 0)) == (0, 1)


def test_schoolbook_negative_powers_match_the_tables():
    R, S = ring_from_tag("Fp(3)[t]/(t^2+1)"), ring_from_tag("Fp(3)[t]/(t^2+1)")
    assert R.is_field() and R._tables is not None and S._tables is None
    for a in itertools.product(range(3), repeat=2):
        for e in (-1, -2, -5, -8, -9, -(10 ** 6 + 3)):
            if any(a):
                assert S.power(a, e) == R.power(a, e), (a, e)
                assert S.mul(S.power(a, e), S.power(a, -e)) == S.one()
            else:
                for ring in (R, S):
                    with pytest.raises(NotAUnit):
                        ring.power(a, e)


def test_schoolbook_negative_power_of_a_non_unit_raises_promptly():
    R = ring_from_tag("Fp(2)[t]/(t^2)")
    assert not R.is_field()
    start = time.perf_counter()
    with pytest.raises(NotAUnit):
        R.power(R.gen(), -1)
    assert time.perf_counter() - start < 1.0
    u = R.add(R.one(), R.gen())   # 1 + t, its own inverse
    assert R.power(u, -3) == R.inv(u)


MODULI = [(2, 3), (2, 3, 5, 7), (5, 13, 97), (3, 7, 11, 19, 23, 29, 31)]


@pytest.mark.parametrize("primes", MODULI, ids=str)
def test_modular_integers_agree_with_every_prime_field(primes):
    R = ModularIntegers(primes)
    m = R.m
    assert m == math.prod(primes) and R.primes == tuple(primes)
    assert not R.is_field() and R.is_product_of_fields()
    assert R.characteristic() == m and R.tag() == f"ZZ/({m})"
    rng = random.Random(m)
    for _ in range(200):
        a, b = rng.randrange(-m, 2 * m), rng.randrange(-m, 2 * m)
        x, y = R.from_int(a), R.from_int(b)
        assert 0 <= x < m and 0 <= y < m
        units = all(x % p for p in primes)
        for p in primes:
            # Fp(p) is ModularIntegers((p,)) itself, so the oracle is plain
            # arithmetic mod p, with Fermat's inverse
            assert R.add(x, y) % p == (a + b) % p
            assert R.sub(x, y) % p == (a - b) % p
            assert R.mul(x, y) % p == a * b % p
            assert R.neg(x) % p == -a % p
            if units:
                assert R.inv(x) % p == pow(a, p - 2, p)
        if not units:
            # zero mod some p: a zero divisor, or 0 itself
            with pytest.raises(NotAUnit):
                R.inv(x)
            assert not R.is_unit(x)
    assert R.mul(R.coerce(Fraction(1, 101)), 101) == 1
    for p in primes:
        with pytest.raises(NotAUnit):
            R.inv(p)
        with pytest.raises(NotAUnit):
            R.coerce(Fraction(1, p))


def test_modular_integers_of_one_prime_is_that_field():
    R = ModularIntegers([7])
    assert R.is_field() and R.m == 7 and R.inv(3) == 5
    assert R == Fp(7) and hash(R) == hash(Fp(7))
    assert Fp(7).tag() == "Fp(7)" and ring_from_tag(Fp(7).tag()) == Fp(7)
    with pytest.raises(ValueError):
        QuotientRing(ModularIntegers((2, 3)), (1, 0, 1))
    assert ModularIntegers((5, 3, 5)) == ModularIntegers((3, 5))
    for bad in ((), (4,), (2, 9)):
        with pytest.raises(ValueError):
            ModularIntegers(bad)


def test_buchberger_refuses_modular_integers():
    R = ModularIntegers((2, 3, 5))
    vs = VarSet(("x", "y"))
    gens = [parse_poly("x^2 + y", ZZ, vs), parse_poly("x*y + 1", ZZ, vs)]
    with pytest.raises(NonFieldCoefficients):
        buchberger([g.map_coefficients(R.coerce, R) for g in gens], Grevlex())


def test_is_prime_matches_trial_division():
    sieve = [False, False] + [True] * (10 ** 5 - 2)
    for q in range(2, 317):
        if sieve[q]:
            sieve[q * q::q] = [False] * len(range(q * q, 10 ** 5, q))
    assert [n for n in range(-3, 10 ** 5) if is_prime(n)] == \
        [n for n in range(10 ** 5) if sieve[n]]


def test_is_prime_on_large_numbers():
    start = time.perf_counter()
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 31 - 1)
    assert is_prime(10 ** 24 + 7)  # the least prime above 10^24
    assert PRIME_TEST_LIMIT == 1287836182261 * 2575672364521
    # strong pseudoprimes to the bases 2..7, 2..23 and 2..37: composite
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert not is_prime(2 ** 61 + 1) and not is_prime(1000003 * (2 ** 61 - 1))
    assert time.perf_counter() - start < 1.0
    for n in (PRIME_TEST_LIMIT, 2 ** 89 - 1):
        with pytest.raises(ValueError):
            is_prime(n)


POWER_RINGS = [(Fp(7), 3), (QQ, Fraction(-3, 2)),
               (ring_from_tag("Fp(101)[t]/(t^3+t+1)"), (2, 5, 1))]


@pytest.mark.parametrize("ring, a", POWER_RINGS, ids=["F7", "QQ", "F101^3"])
def test_power_matches_repeated_multiplication(ring, a, monkeypatch):
    # the k[t]/(f) ring multiplies by schoolbook, not by Zech tables
    a = ring.coerce(a)
    assert getattr(ring, "_tables", None) is None
    products = []
    mul = ring.mul

    def counted(x, y):
        products.append(x is y)
        return mul(x, y)

    monkeypatch.setattr(ring, "mul", counted)
    want = ring.one()
    for e in range(201):
        products.clear()
        assert ring.power(a, e) == want, e
        # left to right: a square per bit after the top one, and a product
        # with a per further set bit; never a product with one
        assert len(products) == max(e.bit_length() - 1, 0) + max(bin(e).count("1") - 1, 0)
        if ring is not POWER_RINGS[0][0]:  # Fp payloads are shared small ints
            assert sum(products) <= max(e.bit_length() - 1, 0)
        want = mul(want, a)
    assert ring.power(a, -3) == ring.inv(mul(mul(a, a), a))


# QQ and F_p moduli, low-to-high, fields and not: a non-monic dense one, a
# sparse one and a power of t among them
FOLD_MODULI = [
    (QQ, (1, 0, 1)),                 # t^2 + 1, a field
    (QQ, (1, 2, 0, 3)),              # 3t^3 + 2t + 1, a field
    (QQ, (0, 0, 1)),                 # t^2
    (QQ, (0, -1, 0, 1)),             # t^3 - t
    (Fp(5), (2, 0, 1)),              # t^2 + 2 over F5, a field
    (Fp(2), (1, 1, 0, 0, 1)),        # t^4 + t + 1 over F2, a field
    (Fp(3), (0, 0, 0, 1)),           # t^3 over F3
    (Fp(7), (6, 0, 3, 0, 0, 2)),     # 2t^5 + 3t^2 + 6 over F7, reducible
]


@pytest.mark.parametrize("base, modulus", FOLD_MODULI,
                         ids=[f"{b.tag()}{m}" for b, m in FOLD_MODULI])
def test_folded_mul_matches_long_division(base, modulus):
    # mul folds the high half of a product back through precomputed rows;
    # the reference reduces the full product by long division.  Both must
    # give the same payload, entry by entry and type by type
    R = QuotientRing(base, modulus)
    assert R._tables is None
    rng = random.Random(repr(modulus))

    def coefficient():
        if rng.random() < 0.35:
            return base.zero()
        if base == QQ:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return base.from_int(rng.randrange(base.characteristic()))

    for _ in range(300):
        a, b = (tuple(coefficient() for _ in range(R.deg)) for _ in range(2))
        got, want = R.mul(a, b), R._reduce(R._poly_mul(a, b))
        assert got == want, (a, b)
        assert [type(x) for x in got] == [type(x) for x in want], (a, b)
