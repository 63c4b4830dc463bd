"""Exact linear algebra helpers: field row reduction, integer echelon
forms with pivot tracking, and Smith normal form over the integers.

Matrices are lists of rows; entries are ring payloads (see rings.py) for
the field routines and plain Python ints for the integer routines.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .rings import BaseRing


def row_reduce(rows: Sequence[Sequence], ring: BaseRing) -> Tuple[List[list], List[int]]:
    """Reduced row echelon form over a field; returns (rref, pivot columns)."""
    if not ring.is_field():
        raise ValueError(f"row_reduce needs a field, got {ring.tag()}")
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    row = 0
    for col in range(ncols):
        sel = None
        for i in range(row, len(mat)):
            if not ring.is_zero(mat[i][col]):
                sel = i
                break
        if sel is None:
            continue
        mat[row], mat[sel] = mat[sel], mat[row]
        inv = ring.inv(mat[row][col])
        mat[row] = [ring.mul(inv, x) for x in mat[row]]
        for i in range(len(mat)):
            if i == row or ring.is_zero(mat[i][col]):
                continue
            f = mat[i][col]
            mat[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(mat[i], mat[row])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return mat[:row], pivots


def rank(rows: Sequence[Sequence], ring: BaseRing) -> int:
    return len(row_reduce(rows, ring)[1])


def kernel_basis(rows: Sequence[Sequence], ring: BaseRing) -> List[list]:
    """Basis of the right kernel {v : rows · v = 0} over a field."""
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots = row_reduce(rows, ring)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ring.zero()] * ncols
        v[fc] = ring.one()
        for r, pc in zip(rref, pivots):
            v[pc] = ring.neg(r[fc])
        basis.append(v)
    return basis


def integer_echelon(rows: Sequence[Sequence[int]]) -> Tuple[List[List[int]], List[int], List[int]]:
    """Fraction-free (Bareiss) row echelon form of an integer matrix.

    Returns (echelon rows, pivot columns, pivot values).  Each pivot value
    is a minor of the input, so any prime dividing none of them preserves
    the rank under reduction mod p.

    A row below the pivot with a zero in the pivot column is skipped when
    the pivot equals the previous one: its Bareiss update (piv*x - 0*y) //
    prev returns x unchanged.  Only columns from the pivot column on are
    updated, because left of it the pivot row and every row below it are
    already zero.
    """
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
        tail = mat[row][col:]
        for i in range(row + 1, len(mat)):
            # Bareiss step: exact division by the previous pivot
            r = mat[i]
            f = r[col]
            if f == 0 and piv == prev:
                continue
            r[col:] = [(piv * x - f * y) // prev for x, y in zip(r[col:], tail)]
        pivots.append(col)
        pivot_vals.append(piv)
        prev = piv
        row += 1
        if row == len(mat):
            break
    return mat[:row], pivots, pivot_vals


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    return len(integer_echelon(rows)[1])


def smith_normal_form(rows: Sequence[Sequence[int]]) -> List[int]:
    """Elementary divisors d_1 | d_2 | ... of an integer matrix (zeros omitted)."""
    mat = [list(r) for r in rows]
    if not mat or not mat[0]:
        return []
    nrows, ncols = len(mat), len(mat[0])
    divisors = []
    top = 0
    while top < min(nrows, ncols):
        # find the entry of least nonzero absolute value in the working block
        best = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                if mat[i][j] and (best is None or abs(mat[i][j]) < abs(mat[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        mat[top], mat[bi] = mat[bi], mat[top]
        for r in mat:
            r[top], r[bj] = r[bj], r[top]
        piv = mat[top][top]
        dirty = False
        for i in range(top + 1, nrows):
            q = mat[i][top] // piv
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[top])]
            if mat[i][top]:
                dirty = True
        for j in range(top + 1, ncols):
            q = mat[top][j] // piv
            if q:
                for r in mat:
                    r[j] -= q * r[top]
            if mat[top][j]:
                dirty = True
        if dirty:
            continue
        # pivot must divide every remaining entry for the divisor chain
        fix = None
        for i in range(top + 1, nrows):
            for j in range(top + 1, ncols):
                if mat[i][j] % piv:
                    fix = i
                    break
            if fix is not None:
                break
        if fix is not None:
            mat[top] = [a + b for a, b in zip(mat[top], mat[fix])]
            continue
        divisors.append(abs(piv))
        top += 1
    return divisors
