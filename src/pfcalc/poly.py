"""Sparse multivariate polynomials over an exact base ring.

Exponent vectors are dense tuples (the variable count stays small at desk
scale).  Terms map exponent tuples to nonzero coefficient payloads of the
base ring; the ring itself is carried on the polynomial.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, Dict, List, Sequence, Tuple

from .rings import QQ, BaseRing, QuotientRing, SizeGuardExceeded


@dataclass(frozen=True)
class VarSet:
    names: Tuple[str, ...]
    weights: Tuple[int, ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.weights is None:
            object.__setattr__(self, "weights", (1,) * len(self.names))
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be distinct")
        if len(self.weights) != len(self.names):
            raise ValueError("one weight per variable required")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be >= 1")

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def weighted_degree(self, exp: Tuple[int, ...]) -> int:
        return sum(w * e for w, e in zip(self.weights, exp))


# ---------------------------------------------------------------------------
# Monomial orders


class MonomialOrder:
    """Total order on exponent tuples, compatible with multiplication."""

    def key(self, exp: Tuple[int, ...]):
        raise NotImplementedError

    def leading(self, exps):
        return max(exps, key=self.key)

    def graded_blocks(self, n: int) -> Tuple[range, ...]:
        """The blocks of the n variables, most significant first, that the
        key compares by degree and then by -e_last, ..., -e_first; the
        empty tuple when the key is the exponent itself (lex)."""
        raise NotImplementedError

    def tag(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return self.tag()

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and other.tag() == self.tag()

    def __hash__(self):
        return hash(self.tag())


class Lex(MonomialOrder):
    def key(self, exp):
        return exp

    def graded_blocks(self, n):
        return ()

    def tag(self):
        return "lex"


def _grevlex_key(exp):
    """(degree, -e_n, ..., -e_1) as one flat tuple."""
    return (sum(exp), *map(operator.neg, reversed(exp)))


class Grevlex(MonomialOrder):
    def key(self, exp):
        return _grevlex_key(exp)

    def graded_blocks(self, n):
        return (range(n),)

    def tag(self):
        return "grevlex"


class Elimination(MonomialOrder):
    """Block order: first block by grevlex, ties broken by grevlex on the rest.
    The key concatenates the two grevlex keys; the first has a fixed length,
    so the blocks never mix in a comparison."""

    def __init__(self, block_size: int):
        if block_size < 1:
            raise ValueError("block size must be >= 1")
        self.block_size = block_size

    def key(self, exp):
        b = self.block_size
        return _grevlex_key(exp[:b]) + _grevlex_key(exp[b:])

    def graded_blocks(self, n):
        b = min(self.block_size, n)
        return (range(b), range(b, n))

    def tag(self):
        return f"elim({self.block_size})"


def order_from_tag(tag: str) -> MonomialOrder:
    tag = tag.strip()
    if tag == "lex":
        return Lex()
    if tag == "grevlex":
        return Grevlex()
    m = re.fullmatch(r"elim\((\d+)\)", tag)
    if m:
        return Elimination(int(m.group(1)))
    raise ValueError(f"unknown monomial order {tag!r}")


# ---------------------------------------------------------------------------
# Polynomials


def _exp_add(a, b):
    return tuple(map(operator.add, a, b))


def degree_monomials(n: int, d: int) -> List[Tuple[int, ...]]:
    """Exponent tuples in n variables of total degree d, in decreasing
    lexicographic order ([()] for n = d = 0, [] for n = 0 < d)."""
    out = []
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    out.sort(reverse=True)
    return out


def integer_primitive(values: Sequence[Fraction]) -> List[Fraction]:
    """The positive rational multiple of values that is integral with
    content 1 (see RationalField.primitive).  An all-zero sequence comes
    back unchanged."""
    return list(map(Fraction, QQ.primitive(values)[1]))


def _accumulate(ring: BaseRing, terms: dict, other: dict, combine) -> dict:
    """terms with combine(terms[e], c) in place for each term e, c of other
    (the ring's zero for a missing e), zero results dropped."""
    zero = ring.zero()
    for e, c in other.items():
        s = combine(terms.get(e, zero), c)
        if ring.is_zero(s):
            terms.pop(e, None)
        else:
            terms[e] = s
    return terms


def _square_and_multiply(f, k: int, mul):
    """f^k for k >= 1 from the low bit up: out times f at each set bit, f
    squared between bits, every product made by mul."""
    out = None
    while k:
        if k & 1:
            out = f if out is None else mul(out, f)
        k >>= 1
        if k:
            f = mul(f, f)
    return out


class MultiPoly:
    __slots__ = ("ring", "varset", "terms")

    def __init__(self, ring: BaseRing, vs: VarSet, terms: Dict[tuple, object]):
        self.ring = ring
        self.varset = vs
        self.terms = terms

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, ring, vs) -> "MultiPoly":
        return cls(ring, vs, {})

    @classmethod
    def constant(cls, ring, vs, c) -> "MultiPoly":
        c = ring.coerce(c)
        if ring.is_zero(c):
            return cls.zero(ring, vs)
        return cls(ring, vs, {(0,) * len(vs): c})

    @classmethod
    def variable(cls, ring, vs, name: str) -> "MultiPoly":
        exp = [0] * len(vs)
        exp[vs.index(name)] = 1
        return cls(ring, vs, {tuple(exp): ring.one()})

    # -- basic queries -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def is_weighted_homogeneous(self) -> bool:
        degs = {self.varset.weighted_degree(e) for e in self.terms}
        return len(degs) <= 1

    def leading(self, order: MonomialOrder):
        """(exponent, coefficient payload) of the leading term."""
        exp = order.leading(self.terms.keys())
        return exp, self.terms[exp]

    # -- arithmetic ----------------------------------------------------------
    def _assert_compat(self, other: "MultiPoly"):
        if self.ring is other.ring and self.varset is other.varset:
            return
        if self.ring != other.ring or self.varset != other.varset:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other):
        self._assert_compat(other)
        return MultiPoly(self.ring, self.varset, _accumulate(
            self.ring, dict(self.terms), other.terms, self.ring.add))

    def __sub__(self, other):
        self._assert_compat(other)
        return MultiPoly(self.ring, self.varset, _accumulate(
            self.ring, dict(self.terms), other.terms, self.ring.sub))

    def __neg__(self):
        ring = self.ring
        return MultiPoly(ring, self.varset, {e: ring.neg(c) for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._assert_compat(other)
        ring = self.ring
        out: Dict[tuple, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = _exp_add(e1, e2)
                c = ring.mul(c1, c2)
                if e in out:
                    c = ring.add(out[e], c)
                if ring.is_zero(c):
                    out.pop(e, None)
                else:
                    out[e] = c
        return MultiPoly(ring, self.varset, out)

    def scale(self, c) -> "MultiPoly":
        ring = self.ring
        c = ring.coerce(c)
        if ring.is_zero(c):
            return MultiPoly.zero(ring, self.varset)
        return MultiPoly(ring, self.varset,
                         {e: ring.mul(v, c) for e, v in self.terms.items()})

    def term_mul(self, exp: tuple, c) -> "MultiPoly":
        ring = self.ring
        return MultiPoly(ring, self.varset,
                         {_exp_add(e, exp): ring.mul(v, c) for e, v in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        if n == 0:
            return MultiPoly.constant(self.ring, self.varset, self.ring.one())
        return _square_and_multiply(self, n, operator.mul)

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.ring == other.ring
                and self.varset == other.varset and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, self.varset, frozenset(self.terms.items())))

    # -- structure -----------------------------------------------------------
    def homogeneous_parts(self) -> Dict[int, "MultiPoly"]:
        """Split by weighted degree."""
        out: Dict[int, Dict[tuple, object]] = {}
        for e, c in self.terms.items():
            out.setdefault(self.varset.weighted_degree(e), {})[e] = c
        return {d: MultiPoly(self.ring, self.varset, t) for d, t in sorted(out.items())}

    def by_trailing(self, vs: VarSet) -> Dict[tuple, "MultiPoly"]:
        """Split by the trailing block of variables: {exponent of the
        trailing block: its coefficient, a polynomial over vs}.

        vs must be the leading block of self.varset: its names, in the same
        order, come first, and the variables after them form the trailing
        block.  Zero splits to {}.
        """
        k = len(vs)
        if self.varset.names[:k] != vs.names:
            raise ValueError("vs is not the leading block of the varset")
        parts: Dict[tuple, Dict[tuple, object]] = {}
        for e, c in self.terms.items():
            parts.setdefault(e[k:], {})[e[:k]] = c
        return {t: MultiPoly(self.ring, vs, terms) for t, terms in parts.items()}

    def substitute(self, mapping: Dict[str, "MultiPoly"]) -> "MultiPoly":
        """Substitute polynomials for variables; unmapped variables persist."""
        return substitute_all([self], mapping)[0]

    def evaluate(self, point) -> object:
        """Evaluate at a tuple of ring payloads; returns a payload."""
        ring = self.ring
        acc = ring.zero()
        for e, c in self.terms.items():
            v = c
            for x, n in zip(point, e):
                for _ in range(n):
                    v = ring.mul(v, x)
            acc = ring.add(acc, v)
        return acc

    def map_coefficients(self, func, new_ring: BaseRing) -> "MultiPoly":
        out = {}
        for e, c in self.terms.items():
            nc = func(c)
            if not new_ring.is_zero(nc):
                out[e] = nc
        return MultiPoly(new_ring, self.varset, out)

    def rename(self, new_vs: VarSet) -> "MultiPoly":
        """Reinterpret over a varset containing all current variables."""
        idx = [new_vs.index(n) for n in self.varset.names]
        out = {}
        for e, c in self.terms.items():
            ne = [0] * len(new_vs)
            for i, v in zip(idx, e):
                ne[i] = v
            out[tuple(ne)] = c
        return MultiPoly(self.ring, new_vs, out)

    def restrict(self, new_vs: VarSet) -> "MultiPoly":
        """Project onto a smaller varset; fails if other variables occur."""
        idx = [self.varset.index(n) for n in new_vs.names]
        keep = set(idx)
        out = {}
        for e, c in self.terms.items():
            if any(v and i not in keep for i, v in enumerate(e)):
                raise ValueError("polynomial involves dropped variables")
            out[tuple(e[i] for i in idx)] = c
        return MultiPoly(self.ring, new_vs, out)

    # -- printing ------------------------------------------------------------
    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"MultiPoly({format_poly(self)})"


def substitute_all(polys: Sequence[MultiPoly],
                   mapping: Dict[str, MultiPoly]) -> List[MultiPoly]:
    """[f.substitute(mapping) for f in polys], sharing one table of the
    powers of the substituted variables across the whole batch."""
    if not mapping:
        return list(polys)
    some = next(iter(mapping.values()))
    ring, vs = some.ring, some.varset
    one = MultiPoly.constant(ring, vs, ring.one())
    powers: Dict[Tuple[str, int], MultiPoly] = {}

    def power(name: str, n: int) -> MultiPoly:
        key = (name, n)
        if key not in powers:
            base = mapping[name] if name in mapping else \
                MultiPoly.variable(ring, vs, name)
            powers[key] = base ** n
        return powers[key]

    out = []
    for f in polys:
        if f.ring != ring:
            raise ValueError("substitution requires matching coefficient rings")
        terms: Dict[tuple, object] = {}
        for e, c in f.terms.items():
            factors = [power(name, n) for name, n in zip(f.varset.names, e) if n]
            image = factors[0] if factors else one
            for factor in factors[1:]:
                image = image * factor
            for e2, c2 in image.terms.items():
                s = ring.mul(c, c2)
                if e2 in terms:
                    s = ring.add(terms[e2], s)
                if ring.is_zero(s):
                    terms.pop(e2, None)
                else:
                    terms[e2] = s
        out.append(MultiPoly(ring, vs, terms))
    return out


# ---------------------------------------------------------------------------
# Printer / parser (round-trips exactly)


def _fmt_coeff(ring: BaseRing, c) -> str:
    s = ring.fmt(c)
    if isinstance(ring, QuotientRing) and ("+" in s or "*" in s or "^" in s):
        return f"({s.replace(' + -', ' - ')})"  # parse_poly reads no "+ -"
    return s


def format_poly(p: MultiPoly) -> str:
    if p.is_zero():
        return "0"
    ring = p.ring
    pieces = []
    for exp in sorted(p.terms, key=lambda e: (sum(e), e), reverse=True):
        c = p.terms[exp]
        mono = "*".join(
            (name if k == 1 else f"{name}^{k}")
            for name, k in zip(p.varset.names, exp) if k)
        cs = _fmt_coeff(ring, c)
        if not mono:
            body = cs
        elif cs == "1":
            body = mono
        elif cs == "-1":
            body = f"-{mono}"
        else:
            body = f"{cs}*{mono}"
        pieces.append(body)
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            out += f" - {piece[1:]}"
        else:
            out += f" + {piece}"
    return out


# the parser refuses its texts once the multiplications it makes for them
# would pass this much work.  A product of two coefficients costs d * (2d - 1)
# units over R of dimension d over its scalar field: d^2 scalar products and
# the d(d - 1) more with which k[t]/(f) folds the top half back.  In
# characteristic 0 it costs 1 + bits(a) * bits(b) / 2^20 times that, as one
# product of two 4,096-bit integers (18 us) takes as long as about 16 small
# coefficient products.  A power is charged step by step as it is squared,
# and the charges add up over all the texts.  In process on a 2-vCPU Xeon VM,
# (a+b+c+d+e+f)^10 over QQ (43,380 units) took 0.18-0.25 s, ^15 over F_7
# (23,751) 0.03 s and 2^100000*x (3,593) 1 ms.  A unit of QQ arithmetic
# takes up to about 5 us, so a refusal comes within about 0.3 s:
# (x + y + 1)^60 over QQ after 0.18-0.28 s, (x+1)^631 after 0.12-0.2 s,
# (t+x)^300 over QQ[t]/(t^3-5*t-7) after 0.08 s and t^3000000*x there after
# 0.01 s.
PARSE_WORK_LIMIT = 50_000


def _bits(ring: BaseRing, c) -> int:
    """ceil(log2) of the largest numerator or denominator among the
    coordinates of c (characteristic 0)."""
    top = max(max(abs(x.numerator), x.denominator)
              for x in map(Fraction, ring.field_coords(c)))
    return (top - 1).bit_length()


_TOKEN_RE = re.compile(
    r"\s*(?:(\d+)\s*/\s*(\d+)|(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\)))"
    r"(?:\s*\^\s*(\d+))?|([-+*/^(]))")


class _Parser:
    """Recursive descent on term dicts: a product of atoms folds into one
    term; only a parenthesized factor is multiplied as a MultiPoly.  A token
    (kind, value, power or None) is an operator, a fraction "q" a/b (no
    power), an integer "n", a name "v" or ")"; kind None ends the list.
    Every multiplication goes through mul, which charges it to self.work,
    one budget for all the texts the parser reads."""

    def __init__(self, ring: BaseRing, vs: VarSet):
        self.ring, self.vs, self.work = ring, vs, 0
        self.index = {name: i for i, name in enumerate(vs.names)}

    def read(self, text: str) -> MultiPoly:
        self.toks, pos = [], 0
        for m in _TOKEN_RE.finditer(text):
            if m.start() != pos:
                break
            pos = m.end()
            num, den, n, name, close, k, op = m.groups()
            k = None if k is None else int(k)
            self.toks.append(("q", (int(num), int(den)), None) if den else
                             ("n", int(n), k) if n else ("v", name, k) if name else
                             (")", None, k) if close else (op, None, None))
        if pos != len(text):
            raise ValueError(f"cannot tokenize polynomial at {text[pos:]!r}")
        self.toks.append((None, None, None))
        self.i = 0
        terms = self.parse_sum()
        if self.toks[self.i][0] is not None:
            raise ValueError("trailing input in polynomial")
        return MultiPoly(self.ring, self.vs, terms)

    def mul(self, a, b):
        """a * b for two polynomials or two coefficients, charged to
        self.work before it is made (see PARSE_WORK_LIMIT)."""
        ring = self.ring
        poly = isinstance(a, MultiPoly)
        xs, ys = (a.terms.values(), b.terms.values()) if poly else ((a,), (b,))
        work = len(xs) * len(ys)
        if ring.characteristic() == 0:
            work += (sum(_bits(ring, x) for x in xs)
                     * sum(_bits(ring, y) for y in ys)) >> 20
        d = len(ring.field_basis())
        self.work += d * (2 * d - 1) * work
        if self.work > PARSE_WORK_LIMIT:
            raise SizeGuardExceeded("polynomial expansion exceeds the size guard",
                                    work=self.work, limit=PARSE_WORK_LIMIT)
        return a * b if poly else ring.mul(a, b)

    def power(self, f, k: int):
        """f^k for a polynomial or a coefficient f, by the square-and-multiply
        of MultiPoly.__pow__ with each product charged by mul."""
        if k == 0:
            one = self.ring.one()
            return MultiPoly.constant(self.ring, self.vs, one) \
                if isinstance(f, MultiPoly) else one
        return _square_and_multiply(f, k, self.mul)

    def parse_sum(self) -> dict:
        ring, toks = self.ring, self.toks
        sign = toks[self.i][0]
        if sign == "+" or sign == "-":
            self.i += 1
        terms = self.parse_product()
        if sign == "-":
            terms = {e: ring.neg(c) for e, c in terms.items()}
        while True:
            op = toks[self.i][0]
            if op != "+" and op != "-":
                return terms
            self.i += 1
            _accumulate(ring, terms, self.parse_product(),
                        ring.add if op == "+" else ring.sub)

    def parse_product(self) -> dict:
        """The factors multiplied left to right; the atoms since the last
        parenthesized factor fold into one term exp * coeff (1 when None)."""
        ring, vs, toks = self.ring, self.vs, self.toks
        poly, exp, coeff, folded = None, [0] * len(vs), None, False

        def joined():  # poly times the folded term
            c = ring.one() if coeff is None else coeff
            mono = MultiPoly(ring, vs, {} if ring.is_zero(c) else {tuple(exp): c})
            return mono if poly is None else self.mul(poly, mono)

        while True:
            f = self.parse_factor(exp)
            if isinstance(f, MultiPoly):
                if folded:
                    poly = joined()
                poly = f if poly is None else self.mul(poly, f)
                exp, coeff, folded = [0] * len(vs), None, False
            else:
                folded = True
                if f is not None:
                    coeff = f if coeff is None else self.mul(coeff, f)
            kind = toks[self.i][0]
            if kind == "*":
                self.i += 1
            elif kind != "v" and kind != "(":
                return (joined() if folded else poly).terms

    def parse_factor(self, exp: list):
        """One factor with its power: a parenthesized one as a MultiPoly, an
        atom folded into exp with its coefficient (None for a variable)."""
        ring = self.ring
        kind, val, k = self.toks[self.i]
        self.i += 1
        if kind == "q":
            return ring.coerce(Fraction(*val))
        if kind == "n":
            f = ring.coerce(val)
            if k is None and self.toks[self.i][0] == "/":
                raise ValueError("expected denominator")
        elif kind == "v":
            if val == "t" and isinstance(ring, QuotientRing) and "t" not in self.index:
                f = ring.gen()
            elif val not in self.index:
                raise ValueError(f"undeclared variable {val!r}")
            else:
                f = None
                exp[self.index[val]] += 1 if k is None else k
        elif kind == "(":
            f = MultiPoly(ring, self.vs, self.parse_sum())
            kind, _, k = self.toks[self.i]
            if kind != ")":
                raise ValueError("expected ')'")
            self.i += 1
        else:
            raise ValueError(f"unexpected token {kind!r}")
        if k is None:
            if self.toks[self.i][0] == "^":
                raise ValueError("expected integer exponent")
            return f
        return None if f is None else self.power(f, k)


def parse_polys(ring: BaseRing, vs: VarSet) -> Callable[[str], MultiPoly]:
    """A reader of the texts of one config: read(text) parses text as
    parse_poly does, and the multiplications of all the texts it reads are
    charged to one PARSE_WORK_LIMIT."""
    return _Parser(ring, vs).read


def parse_poly(text: str, ring: BaseRing, vs: VarSet) -> MultiPoly:
    """Parse syntax like '3*x^2*y - 1/2*z' under a work budget of its own."""
    return _Parser(ring, vs).read(text)
