"""Sparse multivariate polynomials: arithmetic, orders, parsing, grading."""

import random
import time
from fractions import Fraction

import pytest

from pfcalc.poly import (PARSE_WORK_LIMIT, Elimination, Grevlex, Lex, MultiPoly,
                         SizeGuardExceeded, VarSet, _Parser, format_poly,
                         order_from_tag, parse_poly, parse_polys, substitute_all)
from pfcalc.rings import Fp, QQ, ZZ, ring_from_tag

VS = VarSet(("x", "y", "z"))


def P(text, ring=QQ, vs=VS):
    return parse_poly(text, ring, vs)


def test_arithmetic():
    f = P("x + y")
    g = P("x - y")
    assert f * g == P("x^2 - y^2")
    assert f + g == P("2*x")
    assert f - f == MultiPoly.zero(QQ, VS)


def test_power_via_repeated_product():
    f = P("x + 1")
    cube = f * f * f
    assert cube == P("x^3 + 3*x^2 + 3*x + 1")


def test_modular_coefficients_collapse():
    f = parse_poly("x + y", Fp(2), VS)
    assert (f * f) == parse_poly("x^2 + y^2", Fp(2), VS)


def test_lex_vs_grevlex_leading():
    f = P("x*y^2 + x^2")
    assert f.leading(Lex())[0] == (2, 0, 0)
    assert f.leading(Grevlex())[0] == (1, 2, 0)


def test_grevlex_ties_break_by_last_variable():
    # same total degree: x*z vs y^2; grevlex prefers smaller last exponent
    f = P("x*z + y^2")
    assert f.leading(Grevlex())[0] == (0, 2, 0)


def test_elimination_order_blocks():
    order = Elimination(1)
    f = P("x + y^5")
    # any monomial containing x beats any x-free monomial
    assert f.leading(order)[0] == (1, 0, 0)


def test_order_tags():
    for tag in ("lex", "grevlex", "elim(2)"):
        assert order_from_tag(tag).tag() == tag


def test_parse_format_round_trip():
    texts = ("3*x^2*y - 1/2*z", "x", "-x + y - 1", "2/3", "x^3*y^3*z^3")
    for t in texts:
        f = P(t)
        assert parse_poly(format_poly(f), QQ, VS) == f


@pytest.mark.parametrize("tag", ["ZZ", "QQ", "Fp(7)", "Fp(3)[t]/(t^2+1)", "QQ[t]/(t^2-2)"])
def test_parse_format_round_trip_random(tag):
    # random terms with exponents up to 12; the payload types must survive
    ring = ring_from_tag(tag)
    rng = random.Random(tag)
    dens = range(1, 10) if ring.scalar_field() == QQ and ring != ZZ else (1,)

    def coefficient():
        c = ring.zero()
        for b in ring.field_basis():
            k = Fraction(rng.randint(-20, 20), rng.choice(dens))
            c = ring.add(c, ring.mul(b, ring.coerce(k)))
        return c

    for _ in range(80):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            c = coefficient()
            if not ring.is_zero(c):
                terms[tuple(rng.randint(0, 12) for _ in VS.names)] = c
        f = MultiPoly(ring, VS, terms)
        g = parse_poly(format_poly(f), ring, VS)
        assert g == f
        assert repr(sorted(g.terms.items())) == repr(sorted(f.terms.items()))


def test_parse_rejects_unknown_variable():
    with pytest.raises(ValueError):
        P("x + w")


def test_substitute():
    f = P("x^2 + y")
    g = f.substitute({"x": P("y + 1")})
    assert g == P("y^2 + 3*y + 1")


def test_substitute_leaves_unmapped_variables():
    f = P("x*z")
    assert f.substitute({"x": P("y")}) == P("y*z")


def test_substitute_all_shares_one_mapping():
    mapping = {"x": P("y + 1")}
    fs = [P("x^2 + y"), P("x^2*z - x"), P("3")]
    assert substitute_all(fs, mapping) == [
        P("y^2 + 3*y + 1"), P("y^2*z + 2*y*z + z - y - 1"), P("3")]
    assert substitute_all(fs, {}) == fs
    with pytest.raises(ValueError):
        substitute_all([P("x", Fp(5))], mapping)


def test_rename_and_restrict():
    small = VarSet(("x", "y"))
    f = parse_poly("x + y", QQ, small)
    big = f.rename(VS)
    assert big.varset == VS
    back = big.restrict(small)
    assert back == f


def test_restrict_refuses_used_variable():
    with pytest.raises(ValueError):
        P("x + z").restrict(VarSet(("x", "y")))


def test_weighted_homogeneity():
    wvs = VarSet(("a", "b"), (1, 3))
    f = parse_poly("a^3 + b", QQ, wvs)
    assert f.is_weighted_homogeneous()
    assert {wvs.weighted_degree(e) for e in f.terms} == {3}
    assert not parse_poly("a + b", QQ, wvs).is_weighted_homogeneous()


def test_homogeneous_parts():
    f = P("x^2 + x*y + z + 1")
    parts = f.homogeneous_parts()
    assert sorted(parts) == [0, 1, 2]
    assert parts[2] == P("x^2 + x*y")
    assert sum(parts.values(), MultiPoly.zero(QQ, VS)) == f


def test_map_coefficients_to_fp():
    f = P("2*x + 3")
    g = f.map_coefficients(lambda c: int(c) % 3, Fp(3))
    assert g == parse_poly("2*x", Fp(3), VS)


def test_evaluate():
    f = P("x^2*y - z")
    val = f.evaluate((Fraction(2), Fraction(3), Fraction(5)))
    assert val == Fraction(7)


def test_integer_polynomials():
    f = parse_poly("2*x - 4*y", ZZ, VS)
    assert f.terms[(1, 0, 0)] == 2
    assert (f + f) == parse_poly("4*x - 8*y", ZZ, VS)


@pytest.mark.parametrize("ring", [QQ, Fp(3)], ids=str)
def test_by_trailing_round_trip(ring):
    big = VarSet(("x", "y", "z", "s", "t"))
    lead = VarSet(("x", "y", "z"))
    f = P("3*x^2*s - x*y*s*t + 2*t^3 + z*t^3 + y - 4 + x*y*s", ring, big)
    parts = f.by_trailing(lead)
    assert set(parts) == {(1, 0), (1, 1), (0, 3), (0, 0)}
    total = MultiPoly.zero(ring, big)
    for trailing, coeff in parts.items():
        assert coeff.varset == lead and not coeff.is_zero()
        total = total + coeff.rename(big) * MultiPoly(ring, big, {(0, 0, 0) + trailing: ring.one()})
    assert total == f
    assert MultiPoly.zero(ring, big).by_trailing(lead) == {}
    # an empty trailing block keeps the polynomial whole
    assert f.by_trailing(big) == {(): f}
    with pytest.raises(ValueError):
        f.by_trailing(VarSet(("y", "x")))


SIX = VarSet(tuple("abcdefxy"))
EIGHT = "+".join(f"3^1000000*{v}" for v in SIX.names)


@pytest.mark.parametrize("text, tag, terms", [
    ("(a+b+c+d+e+f)^10", "QQ", 3003),
    ("(a+b+c+d+e+f)^15", "Fp(7)", 126),  # most multinomials vanish mod 7
    ("(x+1)^630", "Fp(2)", 64),  # 2^6 of its binomials are odd (Lucas)
    ("(x+1)^1000", "Fp(3)", 16),
    ("2^100000*x", "QQ", 1),
    ("3^200000*x", "ZZ", 1),
    ("3^10000000*x", "Fp(7)", 1),
    ("(x)^100000000 + (1)^100000000", "QQ", 2),
    ("(t+x)^300", "Fp(3)[t]/(t^2+1)", 12),
    ("(t+x)^60", "QQ[t]/(t^3-5*t-7)", 61),
])
def test_parser_expands_what_the_size_guard_admits(text, tag, terms):
    assert len(parse_poly(text, ring_from_tag(tag), SIX).terms) == terms


@pytest.mark.parametrize("text, tag, work", [
    ("(a+b+c+d+e+f)^11", "QQ", 88552),
    ("(a+b+c+d+e+f)^20", "Fp(7)", 73215),
    ("(x+1)^631", "QQ", 95196),
    ("(a+b+c+d+e+f)^5*(a+b+c+d+e+f)^6", "QQ", 120783),
    # two factors that are admitted alone
    pytest.param("(a+b+c+d+e+f)^5*(a+b+c+d+e+f)^5", "Fp(7)", 65970,
                 id="two-6-variable-fifth-powers-Fp(7)"),
    ("(x+1)^200*(x+1)^200", "QQ", 72697),
    # d(2d - 1) = 15 units per coefficient product over a cubic extension
    ("(t+x)^300", "QQ[t]/(t^3-5*t-7)", 93405),
    # in characteristic 0 a product is charged by its operands' bits too
    ("3^10000000*x", "QQ", 55365),
    ("2^4000000*x", "QQ", 104507),
    ("(3^1000*x+1)^300", "ZZ", 148320),
    ("3^1000000*3^1000000*x", "ZZ", 83485),
    # refused at the first 3^1300000, before any product
    ("3^1300000*3^1300000*x", "QQ", 62106),
    ("3^1300000*(x)*3^1300000", "QQ", 62106),
    ("(3^1300000*x+1)*(3^1300000*x+1)", "QQ", 62106),
    pytest.param(f"({EIGHT})*({EIGHT})", "ZZ", 83485, id="eight-3^1000000-squared"),
    # each squaring of t^(2^j) is charged from the coordinates it holds
    ("t^100000*x", "QQ[t]/(t^2-18446744073709551616)", 135702),
    ("t^1000000*x", "QQ[t]/(t^2-18446744073709551616)", 131346),
    ("t^3000000*x", "QQ[t]/(t^3-5*t-7)", 62715),
])
def test_parser_refuses_a_large_expansion_before_making_it(text, tag, work):
    with pytest.raises(SizeGuardExceeded, match="polynomial expansion exceeds") as exc:
        parse_poly(text, ring_from_tag(tag), SIX)
    assert exc.value.measured == {"work": work, "limit": PARSE_WORK_LIMIT}


def test_parser_charges_add_up_over_the_polynomial():
    # each 2^100000 costs 3,593 units, so thirteen fit in one budget and
    # fourteen do not, although each power is admitted alone
    parser = _Parser(QQ, SIX)
    f = parser.read(" + ".join(["2^100000*x"] * 13))
    assert f.terms == {(0,) * 6 + (1, 0): Fraction(13 << 100000)}
    assert parser.work == 46709
    with pytest.raises(SizeGuardExceeded) as exc:
        parse_poly(" + ".join(["2^100000*x"] * 14), QQ, SIX)
    assert exc.value.measured["work"] == 50302


@pytest.mark.parametrize("texts, work", [
    (["2^100000*x"] * 14, 50302),
    (["3^200000", "7^100000"], 64095),
    (["3^150000", "7^90000", "5^100000"], 51434),
    (["(a+b+c+d+e+f)^10 + 1"] * 2, 59733),
], ids=["fourteen-powers", "two-entries", "three-entries", "two-sums"])
def test_parse_polys_charges_all_its_texts_to_one_budget(texts, work):
    # each text is admitted alone, and a fresh reader reads it as parse_poly
    # does; one reader for all of them passes the limit, at the text that
    # passes it
    assert [parse_polys(QQ, SIX)(t) for t in texts] == \
        [parse_poly(t, QQ, SIX) for t in texts]
    read = parse_polys(QQ, SIX)
    with pytest.raises(SizeGuardExceeded) as exc:
        for t in texts:
            read(t)
    assert exc.value.measured == {"work": work, "limit": PARSE_WORK_LIMIT}


SWEEP_TAGS = ("QQ", "ZZ", "Fp(7)", "QQ[t]/(t^3-5*t-7)", "Fp(3)[t]/(t^2+1)")


def _sweep_expression(rng: random.Random, names: list) -> str:
    """A product of 1-8 factors, each a sum of 1-6 monomials with
    coefficients up to 3^200000, raised to a power up to 10^7 or not."""
    def monomial():
        coeff = (f"3^{int(200_000 ** rng.random())}" if rng.random() < 0.6
                 else str(rng.randint(1, 9)))
        return "*".join([coeff] + [f"{n}^{rng.randint(1, 3)}"
                                   for n in rng.sample(names, rng.randint(0, 2))])

    def factor():
        body = " + ".join(monomial() for _ in range(rng.randint(1, 6)))
        return f"({body})^{int(10 ** (7 * rng.random()))}" if rng.random() < 0.7 \
            else f"({body})"

    return "*".join(factor() for _ in range(rng.randint(1, 8)))


def test_parser_sweep_finishes_within_a_second():
    # seeded expressions, each admitted or refused within 1 s; seed 3 gives
    # 20 cases, 5 admitted, and the slowest, (8*y^3 + 3^9)^2143273 over QQ,
    # was refused after 0.2 s on a 2-vCPU VM (0.75 s for all 20)
    rng = random.Random(3)
    vs = VarSet(("x", "y", "z"))
    total = 0.0
    for _ in range(20):
        tag = rng.choice(SWEEP_TAGS)
        text = _sweep_expression(rng, list(vs.names) + ["t"] * ("[t]" in tag))
        start = time.perf_counter()
        try:
            parse_poly(text, ring_from_tag(tag), vs)
        except SizeGuardExceeded:
            pass
        took = time.perf_counter() - start
        assert took < 1.0, (tag, text)
        total += took
    assert total < 5.0
