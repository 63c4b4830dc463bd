"""Coordinate rings of modules: graded pieces, invariance, law calculus."""

import random
from math import comb
from typing import Dict, List, Tuple

import pytest

from pfcalc import coordring, poly
from pfcalc.coordring import (PolyLawRep, bihomogeneous_components,
                              compose_laws, direct_sum, generator_varset,
                              graded_piece, homogeneous_components,
                              product_ring_check)
from pfcalc.fpmod import FPModule
from pfcalc.poly import (MultiPoly, VarSet, degree_monomials, format_poly, parse_poly,
                         substitute_all)
from pfcalc.rings import Fp, QQ, ZZ, ring_from_tag
from test_linalg import _reference_row_reduce


# The parametric translation system: f is invariant exactly when
# f(x + sum_j a_j u_j) - f(x) vanishes as a polynomial in the parameters a
# (reduced by a^p = a in characteristic p).  It does not use the density
# step of coordring's Hasse rows, so it is their independent oracle.


def _reduce_parameter_exponents(f: MultiPoly, param_idx: List[int], p: int) -> MultiPoly:
    """Apply a^p = a to the parameter variables (their values range over F_p)."""
    ring = f.ring
    out: Dict[tuple, object] = {}
    for e, c in f.terms.items():
        e2 = list(e)
        for i in param_idx:
            if e2[i] > 0:
                e2[i] = (e2[i] - 1) % (p - 1) + 1
        key = tuple(e2)
        prev = out.get(key)
        c2 = c if prev is None else ring.add(prev, c)
        if ring.is_zero(c2):
            out.pop(key, None)
        else:
            out[key] = c2
    return MultiPoly(ring, f.varset, out)


def _invariance_system(module: FPModule, candidates: List[Tuple[Tuple[int, ...], int]],
                       x_vs: VarSet) -> List[Dict[int, object]]:
    """The translation-invariance system on the given candidates.

    Candidates are pairs (x-exponent, index into R's field basis).  Each
    row is a dict {candidate index: nonzero scalar-field coefficient}; a
    combination of candidates is translation invariant exactly when every
    row annihilates its coefficient vector.  It is the oracle for
    coordring._hasse_system, which graded pieces solve.
    """
    ring = module.ring
    k = ring.scalar_field()
    rbasis = ring.field_basis()
    n = module.ngens
    s = len(module.relations)
    pnames = tuple(f"a_{j + 1}_{l + 1}" for j in range(s) for l in range(len(rbasis)))
    big_vs = VarSet(x_vs.names + pnames, x_vs.weights + (1,) * len(pnames))
    param_idx = [big_vs.index(nm) for nm in pnames]

    shifts = {}
    for i in range(n):
        sh = MultiPoly.variable(ring, big_vs, x_vs.names[i])
        for j, u in enumerate(module.relations):
            if ring.is_zero(u[i]):
                continue
            for l, e in enumerate(rbasis):
                coeff = ring.mul(e, u[i])
                if ring.is_zero(coeff):
                    continue
                exp = [0] * len(big_vs)
                exp[param_idx[j * len(rbasis) + l]] = 1
                sh = sh + MultiPoly(ring, big_vs, {tuple(exp): coeff})
        shifts[x_vs.names[i]] = sh

    p = ring.characteristic()
    rows: Dict[tuple, Dict[int, object]] = {}
    gs = [MultiPoly(ring, big_vs, {exp + (0,) * len(pnames): rbasis[bidx]})
          for exp, bidx in candidates]
    for col, (g, moved) in enumerate(zip(gs, substitute_all(gs, shifts))):
        delta = moved - g
        if p > 1:
            delta = _reduce_parameter_exponents(delta, param_idx, p)
        for e, c in delta.terms.items():
            for l, coord in enumerate(ring.field_coords(c)):
                if k.is_zero(coord):
                    continue
                rows.setdefault((e, l), {})[col] = coord
    return [rows[key] for key in sorted(rows)]


def _is_translation_invariant(module: FPModule, f: MultiPoly) -> bool:
    """Check one polynomial against the full translation system."""
    ring = module.ring
    candidates = []
    coeffs = []
    k = ring.scalar_field()
    for exp, c in f.terms.items():
        for b, coord in enumerate(ring.field_coords(c)):
            candidates.append((exp, b))
            coeffs.append(coord)
    # f is invariant iff every row of the system annihilates its coefficients
    for row in _invariance_system(module, candidates, f.varset):
        acc = k.zero()
        for col, x in row.items():
            acc = k.add(acc, k.mul(x, coeffs[col]))
        if not k.is_zero(acc):
            return False
    return True


def test_free_module_gives_full_polynomial_ring():
    M = FPModule.free(QQ, 2)
    for d in range(5):
        assert graded_piece(M, d).dimension == comb(2 + d - 1, d)


def test_dual_numbers_quotient_module():
    # R = QQ[t]/(t^2), M = R/(t): dims 2,1,1,1,1,1,1
    R = ring_from_tag("QQ[t]/(t^2)")
    t = R.gen()
    M = FPModule(R, 1, ((t,),))
    dims = [graded_piece(M, d).dimension for d in range(7)]
    assert dims == [2, 1, 1, 1, 1, 1, 1]


def test_char_two_quotient_module():
    R = ring_from_tag("Fp(2)[t]/(t^2)")
    t = R.gen()
    M = FPModule(R, 1, ((t,),))
    dims = [graded_piece(M, d).dimension for d in range(7)]
    assert dims == [2, 1, 2, 1, 2, 1, 2]


def test_z_torsion_module_collapses():
    M = FPModule.from_ints(ZZ, 1, [[2]])
    assert graded_piece(M, 0).dimension == 1
    for d in range(1, 6):
        assert graded_piece(M, d).dimension == 0


def test_basis_elements_are_invariant():
    R = ring_from_tag("QQ[t]/(t^2)")
    t = R.gen()
    M = FPModule(R, 1, ((t,),))
    piece = graded_piece(M, 3)
    for b in piece.basis:
        assert _is_translation_invariant(M, b)


def test_non_invariant_polynomial_rejected():
    R = ring_from_tag("QQ[t]/(t^2)")
    t = R.gen()
    M = FPModule(R, 1, ((t,),))
    vs = generator_varset(M)
    x = MultiPoly.variable(R, vs, "x1")
    assert not _is_translation_invariant(M, x)


def test_invariance_over_prime_field_module():
    M = FPModule.from_ints(Fp(2), 1, [[0]])
    vs = generator_varset(M)
    f = parse_poly("x1", Fp(2), vs)
    assert _is_translation_invariant(M, f)


def _coefficient_vector(f, ring, monomials):
    return [x for exp in monomials
            for x in ring.field_coords(f.terms.get(exp, ring.zero()))]


def test_translation_invariance_matches_piece_span():
    # f is invariant iff its coefficient vector lies in the scalar span of
    # the graded piece's basis, decided here by the reference row reduction
    rng = random.Random(4)
    dual = ring_from_tag("QQ[t]/(t^2)")
    f4 = ring_from_tag("Fp(2)[t]/(t^2)")
    modules = [FPModule.from_ints(QQ, 3, [[1, 2, 0]]),
               FPModule.from_ints(Fp(3), 2, [[1, 1]]),
               FPModule.from_ints(ZZ, 2, [[2, 0]]),
               FPModule(dual, 2, ((dual.gen(), dual.zero()),)),
               FPModule(f4, 1, ((f4.gen(),),))]
    verdicts = []
    for M in modules:
        ring, k = M.ring, M.ring.scalar_field()
        vs = generator_varset(M)
        for d in (2, 3):
            piece = graded_piece(M, d)
            monomials = degree_monomials(M.ngens, d)
            span = [_coefficient_vector(b, ring, monomials) for b in piece.basis]
            for _ in range(6):
                f = MultiPoly.zero(ring, vs)
                for b in piece.basis:
                    f = f + b * ring.coerce(rng.randint(-2, 2))
                if rng.random() < 0.7:
                    exp = rng.choice(monomials)
                    f = f + MultiPoly(ring, vs, {exp: ring.coerce(rng.randint(1, 2))})
                vec = _coefficient_vector(f, ring, monomials)
                want = (len(_reference_row_reduce(span + [vec], k)[1])
                        == len(_reference_row_reduce(span, k)[1]))
                assert _is_translation_invariant(M, f) == want, (M, f)
                verdicts.append(want)
    assert 10 < sum(verdicts) < len(verdicts) - 10


@pytest.mark.parametrize("p", [2, 3, 5])
def test_prime_field_line_has_no_invariants_through_degree_p_squared_plus_one(p):
    # x^p has D^(1) = 0, and x^(p^2) has D^(1) = D^(p) = 0, yet
    # (x + a)^(p^2) - x^(p^2) = a^(p^2) = a: only the order p^2 refuses it
    M = FPModule.from_ints(Fp(p), 1, [[1]])
    assert [graded_piece(M, d).dimension for d in range(p * p + 2)] == [1] + [0] * (p * p + 1)


@pytest.mark.parametrize("tag", ["QQ", "Fp(3)", "Fp(2)[t]/(t^2)"])
def test_module_without_generators(tag):
    # R[0] = R: its degree-0 piece is R, dim_k R over k, one generator
    R = ring_from_tag(tag)
    pieces = [graded_piece(FPModule.free(R, 0), d) for d in range(3)]
    assert [p.dimension for p in pieces] == [len(R.field_basis()), 0, 0]
    assert [p.generator_count for p in pieces] == [1, 0, 0]


CHAR_ZERO_TAGS = ["QQ", "ZZ", "QQ[t]/(t^2)", "QQ[t]/(t^2+1)", "QQ[t]/(t^3)",
                  "QQ[t]/(t^3-2)"]
CHAR_P_TAGS = ["Fp(2)", "Fp(3)", "Fp(5)", "Fp(7)", "Fp(2)[t]/(t^2)", "Fp(3)[t]/(t^3)",
               "Fp(3)[t]/(t^2+1)", "Fp(2)[t]/(t^3+t+1)", "Fp(5)[t]/(t^2+2)"]


def _random_module(rng, ring):
    k = ring.scalar_field()
    n = rng.randint(1, 3)

    def scalar():
        out = ring.zero()
        for e in ring.field_basis():
            out = ring.add(out, ring.scale_by_scalar(e, k.from_int(rng.randint(-2, 2))))
        return out

    rows = tuple(tuple(scalar() for _ in range(n)) for _ in range(rng.randint(0, 2)))
    return FPModule(ring, n, rows)


def test_hasse_rows_match_translation_system(monkeypatch):
    # both systems have the same kernel in every characteristic, so every
    # piece prints the same basis; over F_2 and F_3 the degrees reach p^2
    rng = random.Random(35)
    cases = []
    while len(cases) < 160:
        ring = ring_from_tag(rng.choice(CHAR_ZERO_TAGS + CHAR_P_TAGS))
        p = ring.characteristic()
        M, d = _random_module(rng, ring), rng.randint(0, p * p if p in (2, 3) else 5)
        # a bound on the oracle's own cost alone, which keeps the parametric
        # substitution quick; ring-of-module sizes the Hasse rows instead
        k = len(M.ring.field_basis())
        if comb(M.ngens + d - 1, d) * k * k * comb(len(M.relations) * k + d, d) <= 3000:
            cases.append((M, d))

    def show(piece):
        return piece.dimension, [format_poly(b) for b in piece.basis]

    fast = [show(graded_piece(M, d)) for M, d in cases]
    monkeypatch.setattr(coordring, "_hasse_system", lambda M, cands, degree:
                        _invariance_system(M, cands, generator_varset(M)))
    assert [show(graded_piece(M, d)) for M, d in cases] == fast
    for char_p in (False, True):
        assert any(M.relations and dim for (M, _), (dim, _) in zip(cases, fast)
                   if (M.ring.characteristic() > 0) == char_p)
    assert {(M.ring.characteristic(), d) for M, d in cases} >= {(2, 4), (3, 9)}


def test_graded_piece_substitutes_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("substitute_all called")

    monkeypatch.setattr(poly, "substitute_all", refuse)
    dual = ring_from_tag("QQ[t]/(t^2)")
    f4 = ring_from_tag("Fp(2)[t]/(t^2)")
    f9 = ring_from_tag("Fp(3)[t]/(t^2+1)")
    for M in (FPModule.from_ints(QQ, 3, [[1, 2, 0], [0, 1, 3]]),
              FPModule.from_ints(ZZ, 2, [[2, 4], [0, 6]]),
              FPModule(dual, 2, ((dual.gen(), dual.one()),)),
              FPModule.from_ints(Fp(3), 2, [[1, 1]]),
              FPModule(f4, 1, ((f4.gen(),),)),
              FPModule(f9, 2, ((f9.gen(), f9.one()),))):
        for d in range(4):
            graded_piece(M, d)
    for field in (QQ, Fp(2)):
        assert product_ring_check(FPModule.from_ints(field, 2, [[1, 1]]),
                                  FPModule.free(field, 1), 2, 1)[0]


# (dimension, generator_count) of degrees 0..4, recorded before the greedy
# generating set used the sparse echelon
GENERATOR_COUNTS = {
    ("QQ[t]/(t^2)", ("t", "0")): [(2, 1), (3, 2), (4, 3), (5, 4), (6, 5)],
    ("Fp(2)[t]/(t^2)", ("t",)): [(2, 1), (1, 1), (2, 1), (1, 1), (2, 1)],
    ("Fp(3)[t]/(t^3)", ("t^2",)): [(3, 1), (2, 1), (2, 1), (3, 1), (2, 1)],
    ("QQ[t]/(t^2)", ()): [(2, 1), (2, 1), (2, 1), (2, 1), (2, 1)],
}


@pytest.mark.parametrize("tag, relation", list(GENERATOR_COUNTS))
def test_generator_counts_pinned(tag, relation):
    R = ring_from_tag(tag)
    row = tuple(parse_poly(x, R, VarSet(())).terms.get((), R.zero()) for x in relation)
    M = FPModule(R, max(len(relation), 1), (row,) if relation else ())
    got = [(graded_piece(M, d).dimension, graded_piece(M, d).generator_count)
           for d in range(5)]
    assert got == GENERATOR_COUNTS[tag, relation]


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        graded_piece(FPModule.free(QQ, 1), -1)


def test_homogeneous_components_of_law():
    M = FPModule.free(QQ, 2)
    vs = generator_varset(M)
    law = PolyLawRep(M, (parse_poly("x1^2 + x2", QQ, vs),))
    parts = homogeneous_components(law)
    assert sorted(parts) == [1, 2]
    assert parts[2].bodies[0] == parse_poly("x1^2", QQ, vs)


def test_bihomogeneous_components():
    M = FPModule.free(QQ, 2)
    vs = generator_varset(M)
    law = PolyLawRep(M, (parse_poly("x1^2*x2 + x1*x2", QQ, vs),))
    parts = bihomogeneous_components(law, 1)
    assert set(parts) == {(2, 1), (1, 1)}


def test_compose_laws():
    M = FPModule.free(QQ, 1)
    vs = generator_varset(M)
    sq = PolyLawRep(M, (parse_poly("x1^2", QQ, vs),))
    shift = PolyLawRep(M, (parse_poly("x1 + 1", QQ, vs),))
    comp = compose_laws(sq, shift)
    assert comp.bodies[0] == parse_poly("x1^2 + 2*x1 + 1", QQ, vs)


def test_compose_rank_mismatch():
    M1 = FPModule.free(QQ, 1)
    M2 = FPModule.free(QQ, 2)
    law1 = PolyLawRep(M1, (MultiPoly.variable(QQ, generator_varset(M1), "x1"),))
    law2 = PolyLawRep(M2, tuple(
        MultiPoly.variable(QQ, generator_varset(M2), n) for n in ("x1", "x2")))
    with pytest.raises(ValueError):
        compose_laws(law2, law1)


def test_direct_sum_shapes():
    M = FPModule.from_ints(ZZ, 1, [[2]])
    N = FPModule.free(ZZ, 2)
    S = direct_sum(M, N)
    assert S.ngens == 3
    assert S.relations == ((2, 0, 0),)
    assert direct_sum(N, M).relations == ((0, 0, 2),)
    with pytest.raises(ValueError, match="common base ring"):
        direct_sum(M, FPModule.free(QQ, 1))


def test_product_ring_multiplicativity_over_field():
    M = FPModule.free(QQ, 1)
    N = FPModule.free(QQ, 2)
    ok, direct, product = product_ring_check(M, N, 2, 1)
    assert ok
    assert direct == product == 2


def test_product_ring_multiplicativity_dual_numbers():
    R = ring_from_tag("QQ[t]/(t^2)")
    t = R.gen()
    M = FPModule(R, 1, ((t,),))
    ok, direct, product = product_ring_check(M, M, 1, 1)
    assert ok
    assert direct == product == 1
