"""Polynomial functor expressions: evaluation, laws, shifts, dimensions."""

import random
import re
from collections import Counter
from itertools import combinations, permutations
from math import comb

import pytest

from pfcalc import functors, linalg
from pfcalc.fpmod import FPModule
from pfcalc.functors import (Compose, Const, DirectSum, Dual, Ext, Id, Shift,
                             Sym, Tensor, dimension_function, evaluate,
                             homogeneous_parts, parse_functor, hom_varset,
                             rank_at, shift_decompose)
from pfcalc.poly import MultiPoly, VarSet
from pfcalc.rings import Fp, QQ, ZZ


def test_evaluation_ranks():
    assert evaluate(Id(), 4).module.ngens == 4
    assert evaluate(Sym(2), 3).module.ngens == comb(3 + 1, 2)
    assert evaluate(Ext(3), 5).module.ngens == comb(5, 3)
    assert evaluate(Ext(3), 2).module.ngens == 0
    assert evaluate(Tensor((Id(), Id())), 3).module.ngens == 9


def test_const_evaluation():
    c = Const(FPModule.from_ints(ZZ, 1, [[2]]))
    ev = evaluate(c, 7)
    assert ev.module.ngens == 1
    assert len(ev.module.relations) == 1
    # a Shift below rank 0 is refused, also when its child ignores the rank
    with pytest.raises(ValueError, match="rank must be nonnegative"):
        evaluate(Shift(-5, c), 1)


@pytest.mark.parametrize("ring", [Fp(3), QQ], ids=str)
def test_const_needs_a_module_over_zz(ring):
    # a functor lives over ZZ: a constant over another ring would make its
    # direct sums evaluate over ZZ with a summand over that ring
    with pytest.raises(ValueError, match=re.escape(f"got one over {ring.tag()}")):
        Const(FPModule.free(ring, 1))


def test_degrees():
    assert Sym(4).degree() == 4
    assert Tensor((Id(), Id(), Id())).degree() == 3
    assert DirectSum((Sym(2), Ext(3))).degree() == 3
    assert Compose(Sym(2), Sym(3)).degree() == 6
    assert Const(FPModule.free(ZZ, 2)).degree() == 0
    assert Shift(1, Sym(2)).degree() == 2
    assert Dual(Sym(2)).degree() == 2


def test_law_functoriality_sym2():
    # law(g h) = law(g) law(h) for Sym(2) on random integer matrices
    ev = evaluate(Sym(2), 2)
    g = [[1, 2], [0, 1]]
    h = [[3, 1], [1, 1]]
    gh = [[sum(g[i][k] * h[k][j] for k in range(2)) for j in range(2)]
          for i in range(2)]
    lg, lh, lgh = ev.law_at(g), ev.law_at(h), ev.law_at(gh)
    size = ev.module.ngens
    prod = [[sum(lg[i][k] * lh[k][j] for k in range(size))
             for j in range(size)] for i in range(size)]
    assert prod == lgh


def test_law_of_identity_matrix_is_identity():
    for expr in (Sym(3), Ext(2), Tensor((Id(), Id()))):
        ev = evaluate(expr, 3)
        ident = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        law = ev.law_at(ident)
        size = ev.module.ngens
        assert law == [[1 if i == j else 0 for j in range(size)]
                       for i in range(size)]


def test_ext_law_is_determinantal():
    ev = evaluate(Ext(2), 2)
    law = ev.law_at([[1, 2], [3, 4]])
    assert law == [[-2]]


def test_dual_law_is_transpose_inverse_free():
    ev = evaluate(Dual(Sym(2)), 2)
    base = evaluate(Sym(2), 2)
    g = [[2, 1], [1, 1]]
    dual_law = ev.law_at(g)
    ref = base.law_at([[g[j][i] for j in range(2)] for i in range(2)])
    size = base.module.ngens
    assert dual_law == [[ref[j][i] for j in range(size)] for i in range(size)]


def test_homogeneous_parts_partition():
    parts = homogeneous_parts(DirectSum((Sym(2), Ext(3))), 3)
    assert sorted(parts) == [2, 3]
    assert len(parts[2]) == 6
    assert len(parts[3]) == 1


def _law_degrees(expr, m, n):
    """The oracle for functors._diagonal_degrees: the pairs (a_j, b_j) read
    off the law of expr that _law_matrix builds at diag(s*I_m, t*I_n).  The
    law must be square of the evaluated size and hold in row j exactly its
    diagonal entry, one monomial s^a_j t^b_j with coefficient 1."""
    size = evaluate(expr, m + n).module.ngens
    vs = VarSet(("s!", "t!"))
    s = MultiPoly.variable(ZZ, vs, "s!")
    t = MultiPoly.variable(ZZ, vs, "t!")
    h = [{i: s} for i in range(m)] + [{m + i: t} for i in range(n)]
    rows = functors._law_matrix(expr, m + n, m + n, h, ZZ, vs)
    assert len(rows) == size and all(0 <= j < size for row in rows for j in row), \
        f"the law of {expr} at rank {m + n} is not {size} x {size}"
    out = []
    for j, row in enumerate(rows):
        terms = list(row[j].terms.items()) if list(row) == [j] else []
        if len(terms) != 1 or terms[0][1] != 1:
            raise AssertionError(
                f"basis vector {j} of {expr} is not homogeneous: its law at "
                f"diag(s*I_{m}, t*I_{n}) is not one monomial on the diagonal")
        out.append(terms[0][0])
    return out


# every combinator, Const in and out of a Tensor, Compose both ways, Dual
# of a Tensor and nested Shifts
DEGREE_EXPRS = ("Id", "Sym(0)", "Sym(3)", "Ext(0)", "Ext(2)", "Tensor(Id, Sym(2))",
                "Tensor(Const(ZZ^2), Ext(2))", "Compose(Sym(2), Ext(2))",
                "Compose(Ext(2), Sym(2))", "Dual(Sym(2))", "Dual(Tensor(Id, Sym(2)))",
                "Const(ZZ^2) (+) Sym(2)", "Const(ZZ/2) (+) Id", "Tensor()",
                "Shift(1, Shift(2, Sym(2)))", "Shift(2, Tensor(Id, Shift(1, Ext(2))))",
                "Shift(1, Dual(Shift(1, Ext(3) (+) Id)))")


def _check_degrees(expr):
    for m in range(3):
        for n in range(5):
            want = _law_degrees(expr, m, n)
            assert functors._diagonal_degrees(expr, m, n) == want, (m, n)
            if m == 0:
                parts = {}
                for j, (_, b) in enumerate(want):
                    parts.setdefault(b, []).append(j)
                assert homogeneous_parts(expr, n) == parts, n
            top = expr.degree()
            if any(a and b >= top > 0 for a, b in want):
                with pytest.raises(AssertionError, match="top-degree"):
                    shift_decompose(expr, m, n)
            else:
                assert shift_decompose(expr, m, n) == (
                    [j for j, (a, _) in enumerate(want) if not a],
                    [j for j, (a, _) in enumerate(want) if a]), (m, n)


@pytest.mark.parametrize("text", DEGREE_EXPRS)
def test_diagonal_degrees_match_the_law(text):
    # "Tensor()" has no parse; it is the empty tensor product, rank 1
    _check_degrees(Tensor(()) if text == "Tensor()" else parse_functor(text))


def _random_functor(rng, depth):
    """A free functor expression of depth at most depth."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(4)
        if kind == 0:
            return Id()
        if kind == 1:
            return Const(FPModule.free(ZZ, rng.randrange(3)))
        return (Sym if kind == 2 else Ext)(rng.randrange(4))
    kind = rng.randrange(5)
    child = _random_functor(rng, depth - 1)
    if kind == 0:
        return Tensor((child, _random_functor(rng, depth - 1)))
    if kind == 1:
        return DirectSum((child, _random_functor(rng, depth - 1)))
    if kind == 2:
        return Compose(child, _random_functor(rng, depth - 1))
    if kind == 3:
        return Shift(rng.randrange(3), child)
    return Dual(child)


def test_diagonal_degrees_match_the_law_on_random_functors():
    # the symbolic law costs about the square of the basis, so trees whose
    # rank at 6 exceeds 400 are drawn again
    rng = random.Random(20)
    checked = []
    while len(checked) < 60:
        expr = _random_functor(rng, 3)
        if rank_at(expr, 6) <= 400:
            _check_degrees(expr)
            checked.append(type(expr).__name__)
    assert {"Tensor", "DirectSum", "Compose", "Shift", "Dual"} <= set(checked)


@pytest.mark.parametrize("text", ["Tensor(Const(ZZ/2), Id)", "Compose(Sym(2), Const(ZZ/2) (+) Id)",
                                  "Compose(Const(ZZ/3), Const(ZZ/2))", "Dual(Const(ZZ/2))",
                                  "Id (+) Shift(1, Dual(Tensor(Sym(2), Const(ZZ/2))))",
                                  "Tensor(Const(ZZ/1), Id)"])
def test_diagonal_degrees_refuse_torsion_as_evaluate_does(text):
    # torsion under Tensor, Compose or Dual, with evaluate's message
    expr = parse_functor(text)
    with pytest.raises(ValueError, match="requires free evaluations") as want:
        evaluate(expr, 3)
    for call in (lambda: homogeneous_parts(expr, 3), lambda: shift_decompose(expr, 1, 2)):
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("text", ["Tensor(Const({}), Id)", "Dual(Const({}))"])
def test_zero_relation_is_not_torsion(text):
    # Const(ZZ/0) is ZZ with a zero relation row, so it passes where
    # Const(ZZ) does and gives the same answers
    zero_row, free = parse_functor(text.format("ZZ/0")), parse_functor(text.format("ZZ"))
    for n in range(4):
        assert evaluate(zero_row, n).module == evaluate(free, n).module
        assert homogeneous_parts(zero_row, n) == homogeneous_parts(free, n)
        assert shift_decompose(zero_row, 1, n) == shift_decompose(free, 1, n)
    assert dimension_function(zero_row, [2, 3], 4).table == \
        dimension_function(free, [2, 3], 4).table


@pytest.mark.parametrize("call", [
    lambda: homogeneous_parts(Id(), -1),
    lambda: homogeneous_parts(Shift(-5, Const(FPModule.free(ZZ, 2))), 1),
    lambda: homogeneous_parts(Shift(-1, Id()), 2),
    lambda: shift_decompose(Id(), 1, -2),
    lambda: shift_decompose(Sym(2), -1, 2),
    lambda: shift_decompose(Tensor((Id(), Shift(-1, Sym(2)))), 1, 1),
    lambda: homogeneous_parts(Sym(-1), 2),
    lambda: shift_decompose(Compose(Ext(-1), Id()), 1, 1),
], ids=["rank", "shift below 0", "negative shift", "n", "m", "under Tensor",
        "Sym degree", "Ext degree"])
def test_diagonal_degrees_refuse_a_negative_rank_or_degree(call):
    with pytest.raises(ValueError, match="(rank|degree) must be nonnegative"):
        call()


@pytest.mark.parametrize("fault", ["off-diagonal", "zero diagonal", "mixed degrees"])
def test_homogeneous_parts_rejects_a_law_that_is_not_diagonal(monkeypatch, fault):
    # homogeneous_parts reads its degrees by a recursion, checked against
    # the oracle _law_degrees; the oracle must reject a faulty law of Id at
    # t*id in rank 2
    def faulty(expr, n_from, n_to, h, ring, vs):
        t = h[0][0]
        rows = [{0: t}, {1: t}]
        if fault == "off-diagonal":
            rows[0][1] = t
        elif fault == "zero diagonal":
            del rows[1][1]
        else:
            rows[1][1] = t + t * t
        return rows

    monkeypatch.setattr(functors, "_law_matrix", faulty)
    with pytest.raises(AssertionError, match="not homogeneous"):
        _law_degrees(Id(), 0, 2)


def test_shift_decompose_multiplies_only_nonzero_entries(monkeypatch):
    # the degrees come from a recursion on exponent pairs, so no polynomial
    # is multiplied
    calls = []
    own = MultiPoly.__mul__

    def counting(self, other):
        calls.append(None)
        return own(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counting)
    shift_decompose(DirectSum((Sym(2), Ext(3))), 1, 7)
    assert calls == []


def test_shift_decompose_runs_no_integer_echelon(monkeypatch):
    # the law at diag(s*I_m, t*I_n) is diagonal, so both bases are read off
    # its diagonal
    calls = []
    own = linalg.integer_echelon

    def counting(rows):
        calls.append(None)
        return own(rows)

    monkeypatch.setattr(linalg, "integer_echelon", counting)
    dimension_function(DirectSum((Sym(2), Ext(3))), [2], 7)
    assert calls == []


@pytest.mark.parametrize("fault", ["off-diagonal", "diagonal-2"])
def test_shift_decompose_rejects_a_law_off_diagonal_monomials(monkeypatch, fault):
    # the oracle _law_degrees, which the recursion of shift_decompose is
    # checked against, must reject a faulty law of Sym(2) at diag(s, t, t)
    own = functors._law_matrix

    def faulty(expr, n_from, n_to, h, ring, vs):
        rows = own(expr, n_from, n_to, h, ring, vs)
        t = h[-1][n_from - 1]
        if fault == "off-diagonal":
            rows[1][0] = t
        else:
            rows[1][1] = t + t
        return rows

    monkeypatch.setattr(functors, "_law_matrix", faulty)
    with pytest.raises(AssertionError, match="not homogeneous"):
        _law_degrees(Sym(2), 1, 2)


def test_shift_decompose_and_homogeneous_parts_build_no_law(monkeypatch):
    # the degrees and both bases come from the recursion on exponent pairs:
    # no law is built, symbolic or at an integer matrix
    calls = Counter()
    own_law = functors._law_matrix
    own_shift = functors.shift_decompose
    own_rows_at = functors.FunctorEval._law_rows_at

    def law(*args):
        calls["law"] += 1
        return own_law(*args)

    def shift(*args):
        calls["shift"] += 1
        return own_shift(*args)

    def rows_at(self, matrix):
        calls["rows_at"] += 1
        return own_rows_at(self, matrix)

    monkeypatch.setattr(functors, "_law_matrix", law)
    monkeypatch.setattr(functors, "shift_decompose", shift)
    monkeypatch.setattr(functors.FunctorEval, "_law_rows_at", rows_at)
    dimension_function(DirectSum((Sym(2), Ext(3))), [2], 7)
    assert calls == {"shift": 7}
    homogeneous_parts(DirectSum((Sym(2), Ext(3))), 3)
    assert calls == {"shift": 7}


def test_shift_decompose_sizes():
    # two sorted index lists that split the shifted evaluation's basis
    p_basis, q_basis = shift_decompose(Sym(2), 1, 2)
    total = evaluate(Sym(2), 3).module.ngens
    assert sorted(p_basis + q_basis) == list(range(total))
    assert p_basis == sorted(p_basis) and q_basis == sorted(q_basis)
    assert len(p_basis) == evaluate(Sym(2), 2).module.ngens


def test_dimension_function_sym2():
    report = dimension_function(Sym(2), [2, 3], 5)
    assert report.table[0] == tuple(comb(n + 1, 2) for n in range(6))
    assert report.jumping_primes == ()
    for p, coeffs in report.coefficients.items():
        assert sum(a * comb(4, i) for i, a in enumerate(coeffs)) == report.table[p][4]


def test_dimension_function_jumping_prime():
    expr = DirectSum((Const(FPModule.from_ints(ZZ, 1, [[2]])), Id()))
    report = dimension_function(expr, [2, 3, 5], 3)
    assert report.jumping_primes == (2,)
    assert report.table[2][0] == 1
    assert report.table[0][0] == 0


def test_dimension_function_window_validation():
    with pytest.raises(ValueError):
        dimension_function(Sym(2), [2], 1)


def _binomial_fit_of_every_row(values, max_degree):
    """The fit as it was before a zero row past max_degree ended it: every
    row of differences is built.  The oracle of the test below."""
    diffs = list(values)
    coeffs = []
    for _ in range(len(values)):
        coeffs.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) - 1 > max_degree:
        raise AssertionError(
            f"dimension data needs degree {len(coeffs) - 1}, expected <= {max_degree}")
    return coeffs


def test_binomial_fit_matches_the_fit_of_every_row():
    # polynomial data, some of it with one value moved off, so that the fit
    # fails; the coefficients and the error text must both agree
    def fit(f, values, max_degree):
        try:
            return f(values, max_degree)
        except AssertionError as exc:
            return str(exc)

    rng = random.Random(20261019)
    failures = 0
    for _ in range(3000):
        coeffs = [rng.randrange(-5, 6) for _ in range(rng.randrange(8))]
        values = [sum(a * comb(n, i) for i, a in enumerate(coeffs))
                  for n in range(rng.randrange(12))]
        if values and rng.random() < 0.3:
            values[rng.randrange(len(values))] += rng.choice((-1, 1))
        max_degree = rng.randrange(6)
        want = fit(_binomial_fit_of_every_row, values, max_degree)
        assert fit(functors._binomial_fit, values, max_degree) == want
        failures += isinstance(want, str)
    assert 500 < failures < 2500


def test_parse_functor_round_trip():
    texts = ("Sym(2)", "Ext(3)", "Sym(2) (+) Ext(3)", "Tensor(Id, Id)",
             "Shift(1, Sym(2))", "Dual(Sym(2))", "Compose(Sym(2), Sym(2))")
    for t in texts:
        expr = parse_functor(t)
        assert parse_functor(str(expr)) == expr


def test_parse_functor_const():
    expr = parse_functor("Const(ZZ/2) (+) Id")
    assert isinstance(expr, DirectSum)
    assert expr.children[0].module.relations == ((2,),)


@pytest.mark.parametrize("build", [lambda: Sym(-1), lambda: Ext(-1),
                                   lambda: Shift(-1, Id())], ids=["Sym", "Ext", "Shift"])
def test_negative_degree_or_shift_is_refused_when_built(build):
    with pytest.raises(ValueError, match="(rank|degree) must be nonnegative"):
        build()


@pytest.mark.parametrize("text,position", [
    ("Sym(-1)", 4), ("Ext( -3)", 5), ("Shift(-1, Id)", 6), ("Const(ZZ/-2)", 9),
    ("Const(ZZ^-1)", 9), ("Sym(1-2)", 5), ("Sym(+1)", 4)])
def test_parse_functor_reads_digits_only(text, position):
    with pytest.raises(ValueError, match=f"at position {position} in ") as err:
        parse_functor(text)
    assert text[position] in "-+"
    assert str(err.value).startswith(("expected a nonnegative integer", "expected ')'"))


def test_parse_functor_rejects_garbage():
    with pytest.raises(ValueError):
        parse_functor("Sym(2) + + Ext(3)")
    with pytest.raises(ValueError):
        parse_functor("Frob(2)")


def _matmul(a, b, inner):
    """Product of an r x inner and an inner x c matrix given as row lists."""
    cols = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(len(a))]


def _sign(perm):
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def _leibniz(entry, rows, cols, one):
    """Determinant of the rows x cols submatrix by the Leibniz formula."""
    total = one - one
    for perm in permutations(range(len(rows))):
        term = one
        for r, p in zip(rows, perm):
            term = term * entry(r, cols[p])
        total = total + term if _sign(perm) > 0 else total - term
    return total


LAW_EXPRS = ("Id", "Sym(2)", "Sym(3)", "Ext(2)", "Ext(3)", "Sym(2) (+) Ext(2)",
             "Ext(3) (+) Id", "Dual(Ext(2))", "Dual(Sym(2) (+) Ext(3))",
             "Tensor(Id, Ext(2))", "Shift(1, Ext(2))", "Compose(Sym(2), Ext(2))",
             "Const(ZZ/2) (+) Id")


# evaluate(expr, n).module.ngens at n = 0..6, recorded while evaluate still
# counted its basis in a recursion of its own.  Every one of these modules
# is free except that of Const(ZZ/2) (+) Id, whose one relation is twice its
# first generator.
EVALUATED_RANKS = {
    "Id": (0, 1, 2, 3, 4, 5, 6),
    "Sym(2)": (0, 1, 3, 6, 10, 15, 21),
    "Sym(3)": (0, 1, 4, 10, 20, 35, 56),
    "Ext(2)": (0, 0, 1, 3, 6, 10, 15),
    "Ext(3)": (0, 0, 0, 1, 4, 10, 20),
    "Sym(2) (+) Ext(2)": (0, 1, 4, 9, 16, 25, 36),
    "Ext(3) (+) Id": (0, 1, 2, 4, 8, 15, 26),
    "Dual(Ext(2))": (0, 0, 1, 3, 6, 10, 15),
    "Dual(Sym(2) (+) Ext(3))": (0, 1, 3, 7, 14, 25, 41),
    "Tensor(Id, Ext(2))": (0, 0, 2, 9, 24, 50, 90),
    "Shift(1, Ext(2))": (0, 1, 3, 6, 10, 15, 21),
    "Compose(Sym(2), Ext(2))": (0, 0, 1, 6, 21, 55, 120),
    "Const(ZZ/2) (+) Id": (1, 2, 3, 4, 5, 6, 7),
    "Sym(0)": (1, 1, 1, 1, 1, 1, 1),
    "Ext(0)": (1, 1, 1, 1, 1, 1, 1),
    "Const(ZZ^3)": (3, 3, 3, 3, 3, 3, 3),
    "Compose(Ext(2), Sym(2))": (0, 0, 3, 15, 45, 105, 210),
    "Shift(2, Tensor(Sym(2), Ext(2)))": (3, 18, 60, 150, 315, 588, 1008),
}


@pytest.mark.parametrize("text", LAW_EXPRS + ("Sym(0)", "Ext(0)", "Const(ZZ^3)",
                                             "Compose(Ext(2), Sym(2))",
                                             "Shift(2, Tensor(Sym(2), Ext(2)))"))
def test_rank_at_is_the_evaluated_rank(text):
    expr = parse_functor(text)
    for n, ngens in enumerate(EVALUATED_RANKS[text]):
        relations = ((2,) + (0,) * n,) if text == "Const(ZZ/2) (+) Id" else ()
        assert rank_at(expr, n) == ngens
        module = evaluate(expr, n).module
        assert (module.ngens, module.relations) == (ngens, relations)
    with pytest.raises(ValueError):
        rank_at(expr, -1)


@pytest.mark.parametrize("text", LAW_EXPRS)
def test_law_at_shape_is_target_by_source(text):
    # a law from rank n to rank m is ngens(m) x ngens(n), also when a
    # summand or the dualized functor has no basis at one of the ranks
    expr = parse_functor(text)
    for n in range(4):
        for m in range(4):
            law = evaluate(expr, n).law_at([[1 + i + 2 * j for j in range(n)]
                                            for i in range(m)])
            assert len(law) == evaluate(expr, m).module.ngens, (n, m)
            assert all(len(row) == evaluate(expr, n).module.ngens for row in law), (n, m)


def test_direct_sum_law_keeps_columns_of_an_empty_block():
    law = evaluate(DirectSum((Sym(2), Ext(2))), 2).law_at([[1, 2]])
    assert law == [[1, 2, 4, 0]]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_ext_law_at_is_leibniz_minors(d):
    a = [[3, -1, 2, 0, 1], [1, 4, -2, 5, 2], [0, 2, 1, -3, 1],
         [2, -2, 3, 1, 4], [-1, 1, 0, 2, 3]]
    for n, m in ((d, d + 1), (d + 1, d), (5, 4)):
        h = [row[:n] for row in a[:m]]
        law = evaluate(Ext(d), n).law_at(h)
        want = [[_leibniz(lambda i, j: h[i][j], rows, cols, 1)
                 for cols in combinations(range(n), d)]
                for rows in combinations(range(m), d)]
        assert law == want, (d, n, m)


@pytest.mark.parametrize("text", ["Ext(3)", "Sym(3)", "Dual(Ext(2))",
                                  "Shift(1, Ext(2))", "Sym(2) (+) Ext(2)"])
def test_law_at_is_functorial_on_non_square_maps(text):
    expr = parse_functor(text)
    for n, m, p in ((3, 4, 3), (2, 3, 4), (4, 3, 5)):
        h = [[(3 * i + 5 * j) % 7 - 3 for j in range(n)] for i in range(m)]
        g = [[(2 * i + 3 * j + 1) % 5 - 2 for j in range(m)] for i in range(p)]
        lg = evaluate(expr, m).law_at(g)
        lh = evaluate(expr, n).law_at(h)
        lgh = evaluate(expr, n).law_at(_matmul(g, h, m))
        assert lgh == _matmul(lg, lh, evaluate(expr, m).module.ngens), (n, m, p)


def test_symbolic_ext3_law_is_leibniz_expansion():
    law = evaluate(Ext(3), 3).law(4)
    vs = hom_varset(4, 3)
    one = MultiPoly.constant(ZZ, vs, 1)

    def entry(i, j):
        return MultiPoly.variable(ZZ, vs, f"h_{i + 1}_{j + 1}")

    want = [[_leibniz(entry, rows, (0, 1, 2), one)]
            for rows in combinations(range(4), 3)]
    assert law == want
    assert all(len(row[0].terms) == 6 for row in law)
