"""The Schur algebra S_{<=d}(U) in its distinguished basis.

Basis elements s_alpha are indexed by n x n exponent matrices alpha with
|alpha| <= d (dual to the monomials x^alpha on End(U)).  The coefficient
of s_gamma in s_alpha * s_beta is the coefficient of x^alpha y^beta in
z^gamma where z_il = sum_j x_ij y_jl.  Modules come from polynomial
functors via the coefficients phi_alpha of the symbolic law matrix.
`structure_constants` reads the integer table directly, and `multiply` is
the general product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Dict, List, Sequence, Tuple

from . import linalg
from .functors import FunctorEval
from .poly import MultiPoly, VarSet, degree_monomials
from .rings import ZZ, BaseRing, fraction_field_reduction

Index = Tuple[int, ...]  # flattened n x n exponent matrix, row-major


def basis_indices(n: int, d: int) -> List[Index]:
    """All alpha in Z_{>=0}^{n x n} with |alpha| <= d, sorted."""
    return sorted(e for k in range(d + 1) for e in degree_monomials(n * n, k))


_TABLE_CACHE: Dict[Tuple[int, int], Dict[Tuple[Index, Index], List[Tuple[Index, int]]]] = {}


def _integer_table(n: int, d: int) -> Dict[Tuple[Index, Index], List[Tuple[Index, int]]]:
    """(alpha, beta) -> [(gamma, c)], the integer structure constants."""
    key = (n, d)
    if key in _TABLE_CACHE:
        return _TABLE_CACHE[key]
    nn = n * n
    vs = VarSet(tuple(f"x{k}" for k in range(nn)) + tuple(f"y{k}" for k in range(nn)))
    x = [MultiPoly.variable(ZZ, vs, f"x{k}") for k in range(nn)]
    y = [MultiPoly.variable(ZZ, vs, f"y{k}") for k in range(nn)]
    z = []
    for i in range(n):
        for l in range(n):
            zil = MultiPoly.zero(ZZ, vs)
            for j in range(n):
                zil = zil + x[i * n + j] * y[j * n + l]
            z.append(zil)
    table: Dict[Tuple[Index, Index], Dict[Index, int]] = {}
    powers: Dict[Index, MultiPoly] = {}
    for gamma in basis_indices(n, d):
        # z^gamma = z^gamma' * z_k for the last k with gamma_k > 0, and
        # gamma' comes earlier in the sorted basis
        ks = [k for k in range(nn) if gamma[k]]
        if ks:
            k = ks[-1]
            zg = powers[gamma[:k] + (gamma[k] - 1,) + gamma[k + 1:]] * z[k]
        else:
            zg = MultiPoly.constant(ZZ, vs, 1)
        powers[gamma] = zg
        # every term of z^gamma has x- and y-degree |gamma| <= d
        for e, c in zg.terms.items():
            table.setdefault((e[:nn], e[nn:]), {})[gamma] = c
    out = {k: sorted(v.items()) for k, v in table.items()}
    _TABLE_CACHE[key] = out
    return out


@dataclass(frozen=True)
class SchurAlgebra:
    n: int
    d: int
    ring: BaseRing

    @cached_property
    def basis(self) -> Tuple[Index, ...]:
        return tuple(basis_indices(self.n, self.d))

    @cached_property
    def _basis_set(self) -> frozenset:
        return frozenset(self.basis)

    def dimension(self) -> int:
        return comb(self.n * self.n + self.d, self.d)

    def element(self, coeffs: Dict[Index, object]) -> "SchurElem":
        clean = {}
        for a, c in coeffs.items():
            if a not in self._basis_set:
                raise ValueError(f"index {a} out of range for S_<={self.d}(U), n={self.n}")
            c = self.ring.coerce(c)
            if not self.ring.is_zero(c):
                clean[a] = c
        return SchurElem(self, clean)

    def multiply(self, a: "SchurElem", b: "SchurElem") -> "SchurElem":
        table = _integer_table(self.n, self.d)
        ring = self.ring
        out: Dict[Index, object] = {}
        for alpha, ca in a.coeffs.items():
            for beta, cb in b.coeffs.items():
                pairs = table.get((alpha, beta))
                if not pairs:
                    continue
                cab = ring.mul(ca, cb)
                for gamma, c in pairs:
                    add = ring.mul(cab, ring.from_int(c))
                    cur = ring.add(out.get(gamma, ring.zero()), add)
                    if ring.is_zero(cur):
                        out.pop(gamma, None)
                    else:
                        out[gamma] = cur
        return SchurElem(self, out)

    def structure_constants(self) -> List[Tuple[Index, Index, Index, object]]:
        """Every (alpha, beta, gamma, c) with c != 0 the coefficient of
        s_gamma in s_alpha * s_beta, sorted by alpha, then beta, then gamma.

        The integer constants are mapped into the ring, and those that vanish
        there (2 over F_2) are left out.  It returns a list, not a generator,
        so that all the work happens inside this call, which bench/tracer.py
        times.
        """
        ring = self.ring
        out = []
        for (alpha, beta), pairs in sorted(_integer_table(self.n, self.d).items()):
            for gamma, c in pairs:
                c = ring.from_int(c)
                if not ring.is_zero(c):
                    out.append((alpha, beta, gamma, c))
        return out

    def evaluation_embed(self, phi: Sequence[Sequence[object]]) -> "SchurElem":
        """ev_phi, the image of phi in End(U): coefficient x^alpha(phi) at alpha."""
        ring = self.ring
        entries = [[ring.coerce(x) for x in row] for row in phi]
        out = {}
        for alpha in self.basis:
            val = ring.one()
            for i in range(self.n):
                for j in range(self.n):
                    e = alpha[i * self.n + j]
                    for _ in range(e):
                        val = ring.mul(val, entries[i][j])
            if not ring.is_zero(val):
                out[alpha] = val
        return SchurElem(self, out)

    def identity_element(self) -> "SchurElem":
        ident = [[self.ring.one() if i == j else self.ring.zero()
                  for j in range(self.n)] for i in range(self.n)]
        return self.evaluation_embed(ident)


@dataclass(frozen=True)
class SchurElem:
    algebra: SchurAlgebra
    coeffs: Dict[Index, object]

    def __mul__(self, other: "SchurElem") -> "SchurElem":
        return self.algebra.multiply(self, other)


@dataclass(frozen=True)
class SchurModule:
    """An S_{<=d}(U)-module through its action matrices phi_alpha."""
    algebra: SchurAlgebra
    rank: int
    action: Dict[Index, Tuple[Tuple[object, ...], ...]]

    def act(self, elem: SchurElem):
        """Matrix by which elem acts."""
        ring = self.algebra.ring
        out = [[ring.zero()] * self.rank for _ in range(self.rank)]
        for a, c in elem.coeffs.items():
            mat = self.action.get(a)
            if mat is None:
                continue
            for i in range(self.rank):
                for j in range(self.rank):
                    out[i][j] = ring.add(out[i][j], ring.mul(c, mat[i][j]))
        return out


def module_of_functor(ev: FunctorEval, d: int) -> SchurModule:
    """Extract the phi_alpha action matrices from the symbolic law of P at U."""
    n = ev.rank
    ring = ev.module.ring
    if ev.expr.degree() > d:
        raise ValueError(
            f"functor degree {ev.expr.degree()} exceeds the bound d={d}")
    algebra = SchurAlgebra(n, d, ring)
    law = ev.law(n)
    m = ev.module.ngens
    action: Dict[Index, List[List[object]]] = {}
    for i in range(m):
        for j in range(m):
            for exp, c in law[i][j].terms.items():
                mat = action.get(exp)
                if mat is None:
                    if sum(exp) > d:
                        raise ValueError(f"law exponent {exp} exceeds degree bound {d}")
                    mat = [[ring.zero()] * m for _ in range(m)]
                    action[exp] = mat
                mat[i][j] = c
    frozen = {a: tuple(tuple(row) for row in mat) for a, mat in action.items()}
    return SchurModule(algebra, m, frozen)


def spin(module: SchurModule, v: Sequence[object]) -> List[list]:
    """Smallest action-stable subspace containing v, as an echelonized basis."""
    ring = module.algebra.ring
    if not ring.is_field():
        raise ValueError("spin needs field coefficients")
    span = linalg.Echelon(ring)
    vec = [ring.coerce(x) for x in v]
    # every vector that enlarged the span has its images inserted in turn,
    # so the span is stable once the queue is empty
    todo = [vec] if span.insert(vec) else []
    while todo:
        w = todo.pop()
        for mat in module.action.values():
            img = []
            for row in mat:
                acc = ring.zero()
                for x, y in zip(row, w):
                    acc = ring.add(acc, ring.mul(x, y))
                img.append(acc)
            if span.insert(img):
                todo.append(img)
    return span.dense(module.rank)


def base_change_module(module: SchurModule, p: int) -> SchurModule:
    """Reduce an integral SchurModule into K_p (QQ for p = 0, F_p otherwise)."""
    if module.algebra.ring != ZZ:
        raise ValueError("base change starts from an integral module")
    target = fraction_field_reduction(p)
    algebra = SchurAlgebra(module.algebra.n, module.algebra.d, target)
    action = {a: tuple(tuple(target.from_int(x) for x in row) for row in mat)
              for a, mat in module.action.items()}
    return SchurModule(algebra, module.rank, action)
