"""Exact linear algebra: reduction, kernels, integer echelon, Smith form."""

import random
from fractions import Fraction

from pfcalc.linalg import (integer_echelon, integer_rank, kernel_basis, rank,
                           row_reduce, smith_normal_form)
from pfcalc.rings import Fp, QQ


def F(x):
    return Fraction(x)


def test_row_reduce_identifies_pivots():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(7)]]
    rref, pivots = row_reduce(rows, QQ)
    assert pivots == [0, 2]
    assert rref[0] == [F(1), F(2), F(0)]
    assert rref[1] == [F(0), F(0), F(1)]


def test_rank_over_fp():
    rows = [[1, 2], [2, 4]]
    assert rank(rows, Fp(5)) == 1
    assert rank(rows, Fp(2)) == 1
    assert rank([[1, 0], [0, 1]], Fp(2)) == 2


def test_kernel_basis_annihilates():
    rows = [[F(1), F(2), F(3)], [F(4), F(5), F(6)]]
    ker = kernel_basis(rows, QQ)
    assert len(ker) == 1
    v = ker[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, v)) == 0


def test_kernel_of_full_rank_map_is_trivial():
    assert kernel_basis([[F(1), F(0)], [F(0), F(1)]], QQ) == []


def test_integer_echelon_pivots():
    rows = [[2, 4], [1, 3]]
    ech, cols, pivots = integer_echelon(rows)
    assert cols == [0, 1]
    assert len(pivots) == 2
    assert integer_rank(rows) == 2


def test_rank_mod_p_drops():
    rows = [[2, 4]]
    assert integer_rank(rows) == 1
    for p, expected in ((2, 0), (3, 1)):
        assert rank([[Fp(p).coerce(x) for x in r] for r in rows], Fp(p)) == expected


def test_smith_normal_form_divisibility():
    rows = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    divisors = smith_normal_form(rows)
    assert all(divisors[i] % divisors[i - 1] == 0
               for i in range(1, len(divisors)))
    # product of divisors = |det| for a square nonsingular matrix
    prod = 1
    for d in divisors:
        prod *= d
    assert prod == 144


def test_smith_normal_form_of_single_relation():
    assert smith_normal_form([[2, 4]]) == [2]


def _reference_echelon(rows, stats):
    """The Bareiss loop as it was before rows that cannot change were
    skipped: every row below the pivot is rewritten in every column.
    stats counts the updates with a zero factor and piv != prev, the one
    case where a zero factor still rescales the row."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], [], []
    ncols = len(mat[0])
    pivots = []
    pivot_vals = []
    row = 0
    prev = 1
    for col in range(ncols):
        sel = None
        for i in range(row, len(mat)):
            if mat[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        mat[row], mat[sel] = mat[sel], mat[row]
        piv = mat[row][col]
        for i in range(row + 1, len(mat)):
            f = mat[i][col]
            if f == 0 and piv != prev:
                stats["rescaled"] += 1
            mat[i] = [(piv * mat[i][c] - f * mat[row][c]) // prev for c in range(ncols)]
        pivots.append(col)
        pivot_vals.append(piv)
        prev = piv
        row += 1
        if row == len(mat):
            break
    return mat[:row], pivots, pivot_vals


def _echelon_inputs():
    rng = random.Random(7)
    for _ in range(60):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        # dense
        yield [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        # sparse
        yield [[rng.choice((0, 0, 0, 0, rng.randint(-5, 5))) for _ in range(nc)]
               for _ in range(nr)]
        # rank-deficient: products of thin factors
        k = rng.randint(1, min(nr, nc))
        a = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(nr)]
        b = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(k)]
        yield [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(nc)]
               for i in range(nr)]
        # diagonal 0/1 idempotents and their complements, as shift_decompose
        # feeds them
        n = rng.randint(1, 8)
        d = [rng.randint(0, 1) for _ in range(n)]
        yield [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
        yield [[(1 - d[i]) if i == j else 0 for j in range(n)] for i in range(n)]


def test_integer_echelon_matches_reference_bareiss():
    stats = {"rescaled": 0}
    count = 0
    for rows in _echelon_inputs():
        assert integer_echelon(rows) == _reference_echelon(rows, stats), rows
        count += 1
    assert count == 300
    # the inputs reach a zero factor under a pivot that differs from the
    # previous one, where the row must still be rescaled
    assert stats["rescaled"] > 50


def test_integer_echelon_rescales_zero_factor_rows():
    # second row has a zero under the pivot 2 != 1: Bareiss rescales it
    assert integer_echelon([[2, 0], [0, 1]]) == ([[2, 0], [0, 2]], [0, 1], [2, 2])


def test_integer_echelon_leaves_its_input_alone():
    # rows are updated in place, so they must be copies of the input's
    rows = [[2, 1, 3], [4, 3, 1], [1, 0, 2]]
    integer_echelon(rows)
    assert rows == [[2, 1, 3], [4, 3, 1], [1, 0, 2]]
