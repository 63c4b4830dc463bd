"""Exact linear algebra: reduction, kernels, integer echelon, Smith form."""

import random
from fractions import Fraction

import pytest

from pfcalc.linalg import Echelon, integer_echelon, smith_normal_form
from pfcalc.rings import Fp, QQ, ZZ, ring_from_tag


def F(x):
    return Fraction(x)


def test_row_reduce_identifies_pivots():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(7)]]
    ech = Echelon.of(rows, QQ)
    rref = ech.dense(3)
    assert ech.pivots() == [0, 2]
    assert rref[0] == [F(1), F(2), F(0)]
    assert rref[1] == [F(0), F(0), F(1)]


def test_rank_over_fp():
    rows = [[1, 2], [2, 4]]
    assert len(Echelon.of(rows, Fp(5))) == 1
    assert len(Echelon.of(rows, Fp(2))) == 1
    assert len(Echelon.of([[1, 0], [0, 1]], Fp(2))) == 2


def test_kernel_basis_annihilates():
    rows = [[F(1), F(2), F(3)], [F(4), F(5), F(6)]]
    ker = Echelon.of(rows, QQ).kernel(3)
    assert len(ker) == 1
    v = ker[0]
    for row in rows:
        assert sum(a * v.get(j, 0) for j, a in enumerate(row)) == 0


def test_kernel_of_full_rank_map_is_trivial():
    assert Echelon.of([[F(1), F(0)], [F(0), F(1)]], QQ).kernel(2) == []


def test_integer_echelon_pivots():
    rows = [[2, 4], [1, 3]]
    ech, cols, pivots = integer_echelon(rows)
    assert cols == [0, 1]
    assert len(pivots) == 2
    assert len(ech) == 2


def test_rank_mod_p_drops():
    rows = [[2, 4]]
    assert len(integer_echelon(rows)[1]) == 1
    for p, expected in ((2, 0), (3, 1)):
        assert len(Echelon.of([[Fp(p).coerce(x) for x in r] for r in rows],
                              Fp(p))) == expected


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


def test_smith_normal_form_fixes_a_pivot_that_divides_no_entry():
    # 2 does not divide 3: the fix-up adds the row of 3 to the pivot row,
    # and the chain becomes 1 | 6
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]


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


def _reference_row_reduce(rows, ring):
    """The dense Gauss-Jordan loop that pfcalc ran before the sparse
    echelon: every row is rewritten in every column, pivots chosen top down.
    Entries are compared with zero() so that the oracle does not go through
    the rings' is_zero."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    row = 0
    for col in range(ncols):
        sel = None
        for i in range(row, len(mat)):
            if mat[i][col] != ring.zero():
                sel = i
                break
        if sel is None:
            continue
        mat[row], mat[sel] = mat[sel], mat[row]
        inv = ring.inv(mat[row][col])
        mat[row] = [ring.mul(inv, x) for x in mat[row]]
        for i in range(len(mat)):
            if i == row or mat[i][col] == ring.zero():
                continue
            f = mat[i][col]
            mat[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(mat[i], mat[row])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return mat[:row], pivots


def _reference_kernel(rows, ring):
    """Kernel basis read off the reference rref, as dense vectors."""
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots = _reference_row_reduce(rows, ring)
    basis = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        v = [ring.zero()] * ncols
        v[fc] = ring.one()
        for r, pc in zip(rref, pivots):
            v[pc] = ring.neg(r[fc])
        basis.append(v)
    return basis


F9 = ring_from_tag("Fp(3)[t]/(t^2+1)")
FIELDS = [QQ, Fp(5), F9]


def _random_element(ring, rng):
    if ring == QQ:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    if ring == F9:
        return ring.coerce((rng.randrange(3), rng.randrange(3)))
    return ring.from_int(rng.randrange(5))


def _field_inputs(ring):
    rng = random.Random(11)
    zero = ring.zero()
    yield []
    for _ in range(25):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        # dense
        yield [[_random_element(ring, rng) for _ in range(nc)] for _ in range(nr)]
        # sparse
        yield [[_random_element(ring, rng) if rng.random() < 0.25 else zero
                for _ in range(nc)] for _ in range(nr)]
        # rank-deficient: products of thin factors
        k = rng.randint(1, min(nr, nc))
        a = [[_random_element(ring, rng) for _ in range(k)] for _ in range(nr)]
        b = [[_random_element(ring, rng) for _ in range(nc)] for _ in range(k)]
        prod = []
        for i in range(nr):
            row = []
            for j in range(nc):
                acc = zero
                for t in range(k):
                    acc = ring.add(acc, ring.mul(a[i][t], b[t][j]))
                row.append(acc)
            prod.append(row)
        yield prod
        # zero rows mixed in, and an all-zero matrix
        yield [r if rng.random() < 0.5 else [zero] * nc for r in prod]
        yield [[zero] * nc for _ in range(nr)]


@pytest.mark.parametrize("ring", FIELDS, ids=lambda r: r.tag())
def test_echelon_matches_reference_row_reduce(ring):
    count = 0
    deficient = 0
    for rows in _field_inputs(ring):
        want_rref, want_pivots = _reference_row_reduce(rows, ring)
        ncols = len(rows[0]) if rows else 0
        dense = Echelon.of(rows, ring)
        assert (dense.dense(ncols), dense.pivots()) == (want_rref, want_pivots), rows
        assert len(dense) == len(want_pivots)
        assert [[v.get(j, ring.zero()) for j in range(ncols)]
                for v in dense.kernel(ncols)] == _reference_kernel(rows, ring), rows
        # the same rows as dicts, the form the law calculus builds
        sparse = [{j: x for j, x in enumerate(r) if x != ring.zero()} for r in rows]
        ech = Echelon.of(sparse, ring)
        assert len(ech) == len(want_pivots)
        assert ech.dense(ncols) == want_rref
        assert [[v.get(j, ring.zero()) for j in range(ncols)]
                for v in ech.kernel(ncols)] == _reference_kernel(rows, ring)
        deficient += len(want_pivots) < len(rows)
        count += 1
    assert count == 126
    assert deficient > 50


@pytest.mark.parametrize("ring", FIELDS, ids=lambda r: r.tag())
def test_echelon_insert_reports_span_membership(ring):
    rng = random.Random(5)
    for rows in _field_inputs(ring):
        ech = Echelon(ring)
        for i, r in enumerate(rows):
            before = len(Echelon.of(rows[:i], ring))
            assert ech.insert(r) == (len(Echelon.of(rows[:i + 1], ring)) > before)
            assert r in ech
            assert not ech.reduce(r)
        assert len(ech) == len(Echelon.of(rows, ring))
    # a vector off the span leaves a nonzero remainder and is not inserted twice
    ech = Echelon(ring)
    one, zero = ring.one(), ring.zero()
    assert ech.insert([one, one, zero])
    assert [one, zero, zero] not in ech
    assert ech.insert({0: one})
    assert not ech.insert([_random_element(ring, rng), zero, zero])
    assert ech.dense(3) == [[one, zero, zero], [zero, one, zero]]


def test_echelon_kernel_of_no_rows_is_the_identity_in_ncols():
    assert Echelon(QQ).kernel(2) == [{0: F(1)}, {1: F(1)}]
    assert Echelon(QQ).kernel(0) == []
    assert Echelon.of([], QQ).kernel(0) == []


def test_echelon_needs_a_field():
    with pytest.raises(ValueError):
        Echelon(ZZ)
    with pytest.raises(ValueError):
        Echelon(ring_from_tag("QQ[t]/(t^2)"))
