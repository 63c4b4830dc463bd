"""Polynomial functors as combinator trees with concrete evaluations.

A functor expression is built from Const, Id, Sym(d), Ext(d), Tensor,
DirectSum, Compose, Shift and Dual.  Evaluating at rank n yields the
module P(R^n) plus symbolic law matrices: for a map R^n -> R^m given by an
m x n matrix of indeterminates h_i_j, the law matrix expresses the induced
map P(R^n) -> P(R^m) in the chosen bases.  rank_at gives the size of that
basis from the expression alone; the module is free of that rank except
where Const summands carry relations.

Laws are built as sparse rows (Rows): row i is a dict {column j: entry
(i, j)} that holds the nonzero entries only, so the work follows the
nonzero entries.  The entries are polynomials in the h_i_j for a
symbolic map and plain ints at a concrete integer matrix: the combinators
need only *, +, - and a zero test, so one _law_matrix builds both.
The law of P at diag(s*I_m, t*I_n) is diagonal, one monomial s^a t^b per
basis vector; homogeneous_parts and shift_decompose read the degrees b
and the shift split (a = 0) off it.  They never build that law:
_diagonal_degrees computes the pairs (a, b) by a recursion over the
expression, since each combinator's law at a diagonal matrix of
monomials is again one, whose exponents are sums of the input's.
FunctorEval.law and FunctorEval.law_at are dense views of those rows,
with the zeros filled in once, at the end.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from math import comb, prod
from typing import Dict, List, Optional, Sequence, Tuple

from .fpmod import FPModule, block_sum, fiber_dimension
from .poly import MultiPoly, VarSet, degree_monomials
from .rings import ZZ, BaseRing

# A sparse matrix: row i is {column j: entry (i, j)}, nonzero entries only;
# the entries are MultiPolys or ints (see _law_matrix).
Rows = List[Dict[int, object]]


class FunctorExpr:
    def degree(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(FunctorExpr):
    module: FPModule

    def __post_init__(self):
        ring = self.module.ring
        if ring != ZZ:
            raise ValueError(f"Const needs a module over ZZ, got one over {ring.tag()}")

    def degree(self):
        return 0

    def __str__(self):
        rel = self.module.relations
        if self.module.ngens == 1 and len(rel) == 1:
            return f"Const(ZZ/{rel[0][0]})"
        if not rel:
            return f"Const(ZZ^{self.module.ngens})"
        return f"Const({self.module.ngens} gens, {len(rel)} relations)"


@dataclass(frozen=True)
class Id(FunctorExpr):
    def degree(self):
        return 1

    def __str__(self):
        return "Id"


@dataclass(frozen=True)
class Sym(FunctorExpr):
    d: int

    def __post_init__(self):
        if self.d < 0:
            raise ValueError(f"degree must be nonnegative, got Sym({self.d})")

    def degree(self):
        return self.d

    def __str__(self):
        return f"Sym({self.d})"


@dataclass(frozen=True)
class Ext(FunctorExpr):
    d: int

    def __post_init__(self):
        if self.d < 0:
            raise ValueError(f"degree must be nonnegative, got Ext({self.d})")

    def degree(self):
        return self.d

    def __str__(self):
        return f"Ext({self.d})"


@dataclass(frozen=True)
class Tensor(FunctorExpr):
    children: Tuple[FunctorExpr, ...]

    def degree(self):
        return sum(c.degree() for c in self.children)

    def __str__(self):
        return "Tensor(" + ", ".join(str(c) for c in self.children) + ")"


@dataclass(frozen=True)
class DirectSum(FunctorExpr):
    children: Tuple[FunctorExpr, ...]

    def degree(self):
        return max(c.degree() for c in self.children)

    def __str__(self):
        return " (+) ".join(str(c) for c in self.children)


@dataclass(frozen=True)
class Compose(FunctorExpr):
    outer: FunctorExpr
    inner: FunctorExpr

    def degree(self):
        return self.outer.degree() * self.inner.degree()

    def __str__(self):
        return f"Compose({self.outer}, {self.inner})"


@dataclass(frozen=True)
class Shift(FunctorExpr):
    m: int
    child: FunctorExpr

    def __post_init__(self):
        if self.m < 0:
            raise ValueError(f"rank must be nonnegative, got a shift by {self.m}")

    def degree(self):
        return self.child.degree()

    def __str__(self):
        return f"Shift({self.m}, {self.child})"


@dataclass(frozen=True)
class Dual(FunctorExpr):
    child: FunctorExpr

    def degree(self):
        return self.child.degree()

    def __str__(self):
        return f"Dual({self.child})"


def hom_varset(m: int, n: int) -> VarSet:
    """Variables h_i_j for the entries of an m x n matrix."""
    return VarSet(tuple(f"h_{i + 1}_{j + 1}" for i in range(m) for j in range(n)))


@dataclass(frozen=True)
class FunctorEval:
    """One functor evaluated at one rank: the module P(R^rank) and its laws."""
    expr: FunctorExpr
    rank: int
    module: FPModule

    def law(self, target_rank: int) -> List[List[MultiPoly]]:
        """Matrix of P applied to a generic map R^rank -> R^target_rank.

        A dense view: the law is built as sparse rows (see _law_matrix)
        and its zero entries are filled in once, at the end.
        """
        ring = self.module.ring
        vs = hom_varset(target_rank, self.rank)
        h = [{j: MultiPoly.variable(ring, vs, f"h_{i + 1}_{j + 1}")
              for j in range(self.rank)} for i in range(target_rank)]
        rows = _law_matrix(self.expr, self.rank, target_rank, h, ring, vs)
        return _dense(rows, self.module.ngens, MultiPoly.zero(ring, vs))

    def law_at(self, matrix: Sequence[Sequence[int]]) -> List[List[int]]:
        """Law matrix at a concrete integer matrix; entries are ints, the
        payloads of ZZ, over which the functor lives.

        A dense view of _law_rows_at, with 0 filled in.
        """
        return _dense(self._law_rows_at(matrix), self.module.ngens, 0)

    def _law_rows_at(self, matrix: Sequence[Sequence[int]]) -> List[Dict[int, int]]:
        """Sparse rows {column: nonzero int} of the law at a concrete
        integer matrix.

        The entries of a concrete matrix are constants, so the combinators
        multiply and add ints; only the Sym node expands polynomials, in
        the scratch variables of the target basis alone.
        """
        h = [{j: row[j] for j in range(self.rank) if row[j]} for row in matrix]
        return _law_matrix(self.expr, self.rank, len(matrix), h, ZZ, None)


def _dense(rows: List[dict], width: int, zero) -> list:
    """Sparse rows of the given width as lists, zero where an entry is absent."""
    return [[row.get(j, zero) for j in range(width)] for row in rows]


def _check_free(expr: FunctorExpr, why: str):
    if isinstance(expr, Const) and any(any(row) for row in expr.module.relations):
        raise ValueError(f"{why} requires free evaluations, got torsion in {expr}")
    for attr in ("children", "child", "outer", "inner"):
        sub = getattr(expr, attr, None)
        if sub is None:
            continue
        for c in sub if isinstance(sub, tuple) else (sub,):
            _check_free(c, why)


def evaluate(expr: FunctorExpr, n: int) -> FunctorEval:
    """P(R^n).  Its module is free of rank rank_at(expr, n), except that a
    Const node gives its own module, a DirectSum the block sum of its
    children's and a Shift its child's at the shifted rank, so the relations
    of Const summands are kept."""
    if n < 0:
        raise ValueError("rank must be nonnegative")
    if isinstance(expr, Const):
        mod = expr.module
    elif isinstance(expr, DirectSum):
        mod = block_sum(ZZ, [evaluate(c, n).module for c in expr.children])
    elif isinstance(expr, Shift):
        mod = evaluate(expr.child, expr.m + n).module
    else:
        if isinstance(expr, (Tensor, Compose, Dual)):
            _check_free(expr, type(expr).__name__)
        mod = FPModule.free(ZZ, rank_at(expr, n))
    return FunctorEval(expr, n, mod)


def rank_at(expr: FunctorExpr, n: int) -> int:
    """The number of basis elements of P(R^n), from the expression alone."""
    if n < 0:
        raise ValueError("rank must be nonnegative")
    if isinstance(expr, Const):
        return expr.module.ngens
    if isinstance(expr, Id):
        return n
    if isinstance(expr, Sym):
        return comb(n + expr.d - 1, expr.d) if n else int(expr.d == 0)
    if isinstance(expr, Ext):
        return comb(n, expr.d)
    if isinstance(expr, Tensor):
        return prod(rank_at(c, n) for c in expr.children)
    if isinstance(expr, DirectSum):
        return sum(rank_at(c, n) for c in expr.children)
    if isinstance(expr, Compose):
        return rank_at(expr.outer, rank_at(expr.inner, n))
    if isinstance(expr, Shift):
        return rank_at(expr.child, expr.m + n)
    if isinstance(expr, Dual):
        return rank_at(expr.child, n)
    raise TypeError(f"unknown functor node {expr!r}")


def _law_matrix(expr: FunctorExpr, n_from: int, n_to: int,
                h: Rows, ring: BaseRing, vs: Optional[VarSet]) -> Rows:
    """Law matrix of expr at the n_to x n_from matrix h.

    The entries of h are MultiPolys over ring and vs (a symbolic matrix),
    or, when vs is None, payloads of ring that *, + and - act on: ints of
    ZZ for a concrete integer matrix.  Both h and the result are sparse
    rows: row i is a dict {column j: entry (i, j)} holding the nonzero
    entries only, so every combinator touches nonzero entries alone.  The
    result has one row per basis vector of expr at n_to; its width, the
    basis size at n_from, is not stored.
    """
    scalar = vs is None
    one = ring.one() if scalar else MultiPoly.constant(ring, vs, ring.one())
    if isinstance(expr, Const):
        return [{i: one} for i in range(expr.module.ngens)]
    if isinstance(expr, Id):
        return h
    if isinstance(expr, Sym):
        src = degree_monomials(n_from, expr.d)
        tgt = src if n_to == n_from else degree_monomials(n_to, expr.d)
        tgt_index = {e: i for i, e in enumerate(tgt)}
        # expand in scratch variables f!1..f!n_to, the basis of the target,
        # after the h block (none for scalar entries); the f-exponent of a
        # term names its row
        head = VarSet(()) if scalar else vs
        big = VarSet(head.names + tuple(f"f!{i + 1}" for i in range(n_to)),
                     head.weights + (1,) * n_to)
        # image of e_j: the linear form sum_i h_i_j f_i, None when it is zero
        lin: List[Optional[MultiPoly]] = [None] * n_from
        for i, row in enumerate(h):
            f_i = MultiPoly.variable(ring, big, f"f!{i + 1}")
            for j, x in row.items():
                term = f_i.scale(x) if scalar else x.rename(big) * f_i
                lin[j] = term if lin[j] is None else lin[j] + term
        out: Rows = [{} for _ in tgt_index]
        for c, exp in enumerate(src):
            if any(e and lin[j] is None for j, e in enumerate(exp)):
                continue
            img = None
            for j, e in enumerate(exp):
                if e:
                    img = lin[j] ** e if img is None else img * lin[j] ** e
            if img is None:
                img = MultiPoly.constant(ring, big, ring.one())
            for fexp, entry in (img.terms if scalar else img.by_trailing(vs)).items():
                out[tgt_index[fexp]][c] = entry
        return out
    if isinstance(expr, Ext):
        col_index = {c: k for k, c in enumerate(combinations(range(n_from), expr.d))}
        memo: Dict[tuple, Dict[tuple, object]] = {(): {(): one}}
        is_zero = ring.is_zero if scalar else MultiPoly.is_zero
        return [{col_index[cols]: x
                 for cols, x in _minors(h, rows, memo, is_zero).items()}
                for rows in combinations(range(n_to), expr.d)]
    if isinstance(expr, Tensor):
        out = None
        for c in expr.children:
            m = _law_matrix(c, n_from, n_to, h, ring, vs)
            out = m if out is None else _kron(out, m, rank_at(c, n_from))
        return out if out is not None else [{0: one}]
    if isinstance(expr, DirectSum):
        out = []
        co = 0
        for c in expr.children:
            m = _law_matrix(c, n_from, n_to, h, ring, vs)
            out.extend({co + j: x for j, x in row.items()} for row in m)
            # a child's law may have no rows, so take its width from its rank
            co += rank_at(c, n_from)
        return out
    if isinstance(expr, Compose):
        inner = _law_matrix(expr.inner, n_from, n_to, h, ring, vs)
        q_from = rank_at(expr.inner, n_from)
        q_to = len(inner)
        return _law_matrix(expr.outer, q_from, q_to, inner, ring, vs)
    if isinstance(expr, Shift):
        m = expr.m
        big = [{i: one} for i in range(m)]
        big.extend({m + j: x for j, x in row.items()} for row in h)
        return _law_matrix(expr.child, m + n_from, m + n_to, big, ring, vs)
    if isinstance(expr, Dual):
        inner = _law_matrix(expr.child, n_to, n_from, _transpose(h, n_from), ring, vs)
        return _transpose(inner, rank_at(expr.child, n_to))
    raise TypeError(f"unknown functor node {expr!r}")


def _transpose(rows: Rows, width: int) -> Rows:
    """The width x len(rows) transpose of sparse rows of the given width."""
    out: Rows = [{} for _ in range(width)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


def _minors(h: Rows, rows: tuple, memo: Dict[tuple, Dict[tuple, object]],
            is_zero) -> Dict[tuple, object]:
    """{cols: determinant of h restricted to rows x cols}, nonzero ones only.

    Laplace expansion along the first row, over its nonzero entries: entry
    (rows[0], c) times each minor of rows[1:] on columns without c, with
    the sign of c's position in the merged columns.  The minors of each
    row tuple are memoized in memo (seeded with {(): {(): one}}), so the
    Ext law builds each one once; a minor that cancels, as is_zero tells,
    is left out.
    """
    out = memo.get(rows)
    if out is not None:
        return out
    first = h[rows[0]]
    if len(rows) == 1:
        out = {(c,): x for c, x in first.items()}
    else:
        out = {}
        for sub, minor in _minors(h, rows[1:], memo, is_zero).items():
            for c, x in first.items():
                pos = bisect_left(sub, c)
                if pos < len(sub) and sub[pos] == c:
                    continue
                cols = sub[:pos] + (c,) + sub[pos:]
                term = x * minor
                prev = out.get(cols)
                if pos % 2:
                    out[cols] = -term if prev is None else prev - term
                else:
                    out[cols] = term if prev is None else prev + term
        out = {cols: x for cols, x in out.items() if not is_zero(x)}
    memo[rows] = out
    return out


def _kron(a: Rows, b: Rows, cb: int) -> Rows:
    """Kronecker product of sparse rows; b has cb columns."""
    return [{j * cb + l: x * y for j, x in ra.items() for l, y in rb.items()}
            for ra in a for rb in b]


def _diagonal_degrees(expr: FunctorExpr, m: int, n: int) -> List[Tuple[int, int]]:
    """The pairs (a_j, b_j), one per basis vector e_j of P(R^(m+n)), with
    P(diag(s*I_m, t*I_n)) e_j = s^a_j * t^b_j * e_j.

    The law is not built.  By induction on expr, the law of every
    combinator sends a diagonal matrix D of monomials with coefficient 1,
    given by the exponent pairs of its diagonal, to another, whose pairs
    are sums of D's (see _degrees): Const is the identity and Id returns D;
    Sym and Ext multiply the diagonal entries over each monomial and each
    wedge of their basis; Tensor is a Kronecker product and DirectSum a
    block sum; Compose applies the outer law to the inner one; Shift(k, P)
    applies P to I_k (+) D, and Dual transposes, which leaves a diagonal
    matrix as it is.  As evaluate does, it refuses a negative rank and
    torsion under Tensor, Compose or Dual.
    """
    if m < 0 or n < 0:
        raise ValueError("rank must be nonnegative")
    return _degrees(expr, [(1, 0)] * m + [(0, 1)] * n)


def _degrees(expr: FunctorExpr, diag: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """The exponent pairs of the diagonal of expr's law at the diagonal
    matrix whose pairs are diag, in the law's basis order."""
    if isinstance(expr, Const):
        return [(0, 0)] * expr.module.ngens
    if isinstance(expr, Id):
        return diag
    if isinstance(expr, Sym):
        return _combination_sums(diag, expr.d, True)
    if isinstance(expr, Ext):
        return _combination_sums(diag, expr.d, False)
    if isinstance(expr, (Tensor, Compose, Dual)):
        _check_free(expr, type(expr).__name__)
    if isinstance(expr, Tensor):
        out = [(0, 0)]
        for c in expr.children:
            out = [(a + x, b + y) for a, b in out for x, y in _degrees(c, diag)]
        return out
    if isinstance(expr, DirectSum):
        return [p for c in expr.children for p in _degrees(c, diag)]
    if isinstance(expr, Compose):
        return _degrees(expr.outer, _degrees(expr.inner, diag))
    if isinstance(expr, Shift):
        return _degrees(expr.child, [(0, 0)] * expr.m + diag)
    if isinstance(expr, Dual):
        return _degrees(expr.child, diag)
    raise TypeError(f"unknown functor node {expr!r}")


def _combination_sums(pairs: List[Tuple[int, int]], d: int,
                      repeat: bool) -> List[Tuple[int, int]]:
    """The sums of the pairs over each combinations_with_replacement(pairs,
    d) when repeat, else over each combinations(pairs, d), in that order.

    These are the Sym(d) and Ext(d) bases: degree_monomials lists its
    exponents in the order of combinations_with_replacement.  Built one
    degree at a time: sums[i] holds the sums over the combinations of
    pairs[i:], which are pairs[i] plus those of one degree less over
    pairs[i:] (repeat) or pairs[i + 1:], then the sums of pairs[i + 1:].
    """
    n = len(pairs)
    sums = [[(0, 0)]] * (n + 1)
    for _ in range(d):
        nxt: List[List[Tuple[int, int]]] = [[]] * (n + 1)
        for i in range(n - 1, -1, -1):
            a, b = pairs[i]
            nxt[i] = [(a + x, b + y) for x, y in sums[i + (not repeat)]] + nxt[i + 1]
        sums = nxt
    return sums[0]


def homogeneous_parts(expr: FunctorExpr, n: int) -> Dict[int, List[int]]:
    """Partition of basis indices by degree, read off the law at t*id."""
    parts: Dict[int, List[int]] = {}
    for j, (_, b) in enumerate(_diagonal_degrees(expr, 0, n)):
        parts.setdefault(b, []).append(j)
    return parts


def shift_decompose(expr: FunctorExpr, m: int, n: int):
    """Split Sh_m(P)(R^n) into P(R^n) and a lower-degree complement.

    Returns (P-part basis, Q-part basis) as the sorted indices j of the
    unit vectors e_j, in the shifted evaluation's coordinates, that span
    them, read off the law of P at diag(s*I_m, t*I_n): e_j lies in P(R^n)
    exactly when its entry has no s.
    """
    pairs = _diagonal_degrees(expr, m, n)
    # the complement must have strictly smaller degree
    top = expr.degree()
    if any(a and b >= top > 0 for a, b in pairs):
        raise AssertionError("shift complement touches top-degree part")
    return ([j for j, (a, _) in enumerate(pairs) if not a],
            [j for j, (a, _) in enumerate(pairs) if a])


def _binomial_fit(values: List[int], max_degree: int) -> List[int]:
    """Coefficients a_i with f(n) = sum a_i * C(n, i), from finite differences.

    A row of zeros past row max_degree ends the fit: every row after it is
    zero, and so is every coefficient that it and they would add."""
    diffs = list(values)
    coeffs = []
    for i in range(len(values)):
        if i > max_degree and not any(diffs):
            break
        coeffs.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) - 1 > max_degree:
        raise AssertionError(
            f"dimension data needs degree {len(coeffs) - 1}, expected <= {max_degree}")
    return coeffs


@dataclass(frozen=True)
class DimReport:
    expr: FunctorExpr
    window: int
    table: Dict[int, Tuple[int, ...]]          # prime -> (f_p(0), ..., f_p(window))
    coefficients: Dict[int, Tuple[int, ...]]   # prime -> binomial-basis coefficients
    jumping_primes: Tuple[int, ...]


def dimension_function(expr: FunctorExpr, primes: Sequence[int], window: int) -> DimReport:
    """Fiber dimensions of P(R^n) per distinct prime, cross-checked two ways.

    Direct fiber dimensions must satisfy f_p(n+1) = f_p(n) + g_p(n) where
    g_p(n) is the rank of the shift complement; the fitted interpolating
    polynomials (binomial basis, integer coefficients) are returned.
    """
    if window < expr.degree() + 1:
        raise ValueError("window must exceed the functor degree")
    plist = list(dict.fromkeys([0, *primes]))
    table = {}
    for p in plist:
        table[p] = tuple(fiber_dimension(evaluate(expr, n).module, p)
                         for n in range(window + 1))
    for n in range(window):
        g = len(shift_decompose(expr, 1, n)[1])
        for p in plist:
            if table[p][n + 1] != table[p][n] + g:
                raise AssertionError(
                    f"shift recursion failed for {expr} at p={p}, n={n}: "
                    f"{table[p][n + 1]} != {table[p][n]} + {g}")
    coeffs = {p: tuple(_binomial_fit(list(v), expr.degree())) for p, v in table.items()}
    jumping = tuple(p for p in plist[1:] if coeffs[p] != coeffs[0])
    return DimReport(expr, window, table, coeffs, jumping)


def parse_functor(text: str) -> FunctorExpr:
    """Parse `Sym(2) (+) Ext(3)`, `Shift(1, Sym(2))`, `Const(ZZ/2)` etc."""
    pos = 0
    s = text

    def skip():
        nonlocal pos
        while pos < len(s) and s[pos].isspace():
            pos += 1

    def expect(tok: str):
        nonlocal pos
        skip()
        if not s.startswith(tok, pos):
            raise ValueError(f"expected {tok!r} at position {pos} in {text!r}")
        pos += len(tok)

    def parse_int() -> int:
        nonlocal pos
        skip()
        start = pos
        while pos < len(s) and s[pos] in "0123456789":
            pos += 1
        if start == pos:
            raise ValueError(f"expected a nonnegative integer at position {start} in {text!r}")
        return int(s[start:pos])

    def atom() -> FunctorExpr:
        nonlocal pos
        skip()
        for name in ("Sym", "Ext", "Shift", "Dual", "Tensor", "Compose", "Const", "Id"):
            if s.startswith(name, pos):
                pos += len(name)
                if name == "Id":
                    return Id()
                expect("(")
                if name in ("Sym", "Ext"):
                    d = parse_int()
                    expect(")")
                    return Sym(d) if name == "Sym" else Ext(d)
                if name == "Shift":
                    m = parse_int()
                    expect(",")
                    child = expr_()
                    expect(")")
                    return Shift(m, child)
                if name == "Dual":
                    child = expr_()
                    expect(")")
                    return Dual(child)
                if name in ("Tensor", "Compose"):
                    parts = [expr_()]
                    skip()
                    while pos < len(s) and s[pos] == ",":
                        pos += 1
                        parts.append(expr_())
                        skip()
                    expect(")")
                    if name == "Compose":
                        if len(parts) != 2:
                            raise ValueError("Compose takes exactly two functors")
                        return Compose(parts[0], parts[1])
                    return Tensor(tuple(parts))
                if name == "Const":
                    skip()
                    if s.startswith("ZZ/", pos):
                        pos += 3
                        k = parse_int()
                        expect(")")
                        return Const(FPModule.from_ints(ZZ, 1, [[k]]))
                    if s.startswith("ZZ^", pos):
                        pos += 3
                        r = parse_int()
                        expect(")")
                        return Const(FPModule.free(ZZ, r))
                    if s.startswith("ZZ", pos):
                        pos += 2
                        expect(")")
                        return Const(FPModule.free(ZZ, 1))
                    raise ValueError(f"unsupported Const argument in {text!r}")
        raise ValueError(f"cannot parse functor at position {pos} in {text!r}")

    def expr_() -> FunctorExpr:
        nonlocal pos
        first = atom()
        parts = [first]
        while True:
            skip()
            if s.startswith("(+)", pos):
                pos += 3
                parts.append(atom())
            else:
                break
        return parts[0] if len(parts) == 1 else DirectSum(tuple(parts))

    out = expr_()
    skip()
    if pos != len(s):
        raise ValueError(f"trailing input at position {pos} in {text!r}")
    return out
