"""Sparse multivariate polynomials: arithmetic, orders, parsing, grading."""

import random
from fractions import Fraction

import pytest

from pfcalc.poly import (Elimination, Grevlex, Lex, MultiPoly, VarSet,
                         format_poly, order_from_tag, parse_poly, substitute_all)
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
    assert f.weighted_degree() == 3
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
    assert f.coeff((1, 0, 0)) == 2
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
