"""Exact linear algebra helpers: a sparse incremental row echelon over a
field, integer echelon forms with pivot tracking, and Smith normal form
over the integers.

`Echelon` keeps the reduced row echelon form of the rows inserted so far,
each row a dict from column to nonzero payload; `insert` reduces a row
against it and reports whether the row enlarged the span; its length is
the rank, and `dense`, `pivots` and `kernel` read the rest off it.  The
reduced row echelon form of a span is unique, so the order of insertion
never changes what they return.

Matrices are lists of rows.  Field rows are dense sequences of ring
payloads (see rings.py), which `Echelon` also takes as dicts {column:
payload}; the integer routines take dense rows of plain Python ints.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

from .rings import BaseRing

Row = Union[Sequence, Dict[int, object]]


class Echelon:
    """Reduced row echelon form over a field, built one row at a time.

    Each stored row is a dict {column: nonzero payload} whose least
    column is its pivot, with payload one there; no other stored row has
    an entry in a pivot column.
    """

    def __init__(self, ring: BaseRing):
        if not ring.is_field():
            raise ValueError(f"row reduction needs a field, got {ring.tag()}")
        self.ring = ring
        self._zero = ring.zero()
        self._rows: Dict[int, Dict[int, object]] = {}  # pivot column -> row

    @classmethod
    def of(cls, rows: Sequence[Row], ring: BaseRing) -> "Echelon":
        """The echelon of the span of rows."""
        ech = cls(ring)
        for r in rows:
            ech.insert(r)
        return ech

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, row: Row) -> bool:
        return not self.reduce(row)

    def _subtract(self, v: Dict[int, object], f, row: Dict[int, object]):
        """v -= f * row in place, dropping entries that become zero."""
        sub, mul, is_zero = self.ring.sub, self.ring.mul, self.ring.is_zero
        zero = self._zero
        for j, x in row.items():
            y = sub(v.get(j, zero), mul(f, x))
            if is_zero(y):
                del v[j]
            else:
                v[j] = y

    def reduce(self, row: Row) -> Dict[int, object]:
        """What is left of row after subtracting its pivot components: an
        empty dict exactly when row lies in the span."""
        is_zero = self.ring.is_zero
        items = row.items() if isinstance(row, dict) else enumerate(row)
        v = {j: x for j, x in items if not is_zero(x)}
        # a stored row is zero in every other pivot column, so eliminating
        # one pivot leaves the entries of v in the others as they were
        for p in [j for j in v if j in self._rows]:
            self._subtract(v, v[p], self._rows[p])
        return v

    def insert(self, row: Row) -> bool:
        """Add row to the span; False when it was already there."""
        v = self.reduce(row)
        if not v:
            return False
        p = min(v)
        inv = self.ring.inv(v[p])
        v = {j: self.ring.mul(inv, x) for j, x in v.items()}
        # clear the new pivot column from the stored rows
        for r in self._rows.values():
            if p in r:
                self._subtract(r, r[p], v)
        self._rows[p] = v
        return True

    def pivots(self) -> List[int]:
        return sorted(self._rows)

    def dense(self, ncols: int) -> List[list]:
        """The stored rows as dense lists, in pivot order."""
        return [[self._rows[p].get(j, self._zero) for j in range(ncols)]
                for p in self.pivots()]

    def kernel(self, ncols: int) -> List[Dict[int, object]]:
        """Basis of {v : row · v = 0 for every stored row} in ncols columns,
        one sparse vector per non-pivot column fc in increasing order: 1 at
        fc and minus column fc of each stored row at its pivot.  Keys come
        in increasing order, since a pivot lies left of its row's entries."""
        ring = self.ring
        basis: Dict[int, Dict[int, object]] = {
            fc: {} for fc in range(ncols) if fc not in self._rows}
        for p in self.pivots():
            for j, x in self._rows[p].items():
                if j != p:
                    basis[j][p] = ring.neg(x)
        one = ring.one()
        for fc, v in basis.items():
            v[fc] = one
        return list(basis.values())


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
