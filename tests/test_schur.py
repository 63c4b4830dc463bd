"""Schur algebras: dimensions, associativity, evaluation maps, spinning."""

import hashlib
import random
from math import comb

import pytest

from pfcalc import schur
from pfcalc.functors import DirectSum, Ext, Id, Sym, evaluate
from pfcalc.rings import Fp, QQ, ZZ
from pfcalc.schur import (SchurAlgebra, SchurModule, base_change_module,
                          basis_indices, module_of_functor, spin)
from test_linalg import _reference_row_reduce


def test_basis_count():
    for n, d in ((1, 3), (2, 2), (2, 3)):
        algebra = SchurAlgebra(n, d, QQ)
        assert len(algebra.basis) == algebra.dimension() == comb(n * n + d, d)
        # built once per algebra, not on every access
        assert algebra.basis is algebra.basis


def test_basis_indices_bound():
    for alpha in basis_indices(2, 2):
        assert sum(alpha) <= 2
        assert len(alpha) == 4


def test_identity_two_sided():
    algebra = SchurAlgebra(2, 2, QQ)
    e = algebra.identity_element()
    for alpha in algebra.basis:
        s = algebra.element({alpha: QQ.one()})
        assert e * s == s
        assert s * e == s


def test_full_associativity_n1():
    algebra = SchurAlgebra(1, 3, QQ)
    basis = [algebra.element({a: QQ.one()}) for a in algebra.basis]
    for x in basis:
        for y in basis:
            for z in basis:
                assert (x * y) * z == x * (y * z)


def test_random_associativity_n2():
    rng = random.Random(7)
    for d in (2, 3):
        algebra = SchurAlgebra(2, d, QQ)
        basis = algebra.basis
        for _ in range(60):
            x, y, z = (algebra.element({rng.choice(basis): QQ.from_int(
                rng.randrange(1, 5))}) for _ in range(3))
            assert (x * y) * z == x * (y * z)


def test_evaluation_embed_multiplicative():
    rng = random.Random(11)
    F5 = Fp(5)
    algebra = SchurAlgebra(2, 2, F5)
    for _ in range(25):
        phi = [[rng.randrange(5) for _ in range(2)] for _ in range(2)]
        psi = [[rng.randrange(5) for _ in range(2)] for _ in range(2)]
        prod = [[sum(phi[i][k] * psi[k][j] for k in range(2)) % 5
                 for j in range(2)] for i in range(2)]
        assert algebra.evaluation_embed(phi) * algebra.evaluation_embed(psi) \
            == algebra.evaluation_embed(prod)


def test_element_rejects_out_of_range_index():
    algebra = SchurAlgebra(1, 1, QQ)
    with pytest.raises(ValueError):
        algebra.element({(5,): QQ.one()})


def test_module_of_functor_action_consistent_with_law():
    # acting by ev_phi on the module recovers the law matrix at phi
    ev = evaluate(Sym(2), 2)
    module = module_of_functor(ev, 2)
    algebra = module.algebra
    phi = [[1, 2], [1, 1]]
    acted = module.act(algebra.evaluation_embed(phi))
    assert acted == ev.law_at(phi)


def test_module_of_functor_degree_bound():
    ev = evaluate(Sym(3), 2)
    with pytest.raises(ValueError):
        module_of_functor(ev, 2)


def test_frobenius_subfunctor_spin():
    for p in (2, 3):
        ev = evaluate(Sym(p), 2)
        module = base_change_module(module_of_functor(ev, p), p)
        size = module.rank
        ring = module.algebra.ring
        # basis of S^p(F_p^2) is x^p, x^(p-1)y, ..., y^p (reverse sorted)
        xp = [ring.one()] + [ring.zero()] * (size - 1)
        span = spin(module, xp)
        assert len(span) == 2
        # the span is exactly the p-th power monomials x^p and y^p
        for v in span:
            for i in range(size):
                exp_is_power = i in (0, size - 1)
                if not exp_is_power:
                    assert ring.is_zero(v[i])


def test_non_power_vector_spins_full_module():
    p = 3
    ev = evaluate(Sym(p), 2)
    module = base_change_module(module_of_functor(ev, p), p)
    ring = module.algebra.ring
    v = [ring.one() for _ in range(module.rank)]
    span = spin(module, v)
    assert len(span) == module.rank


def _reference_spin(module, v):
    """spin as it was before the sparse echelon: the dense row reduction of
    the basis plus each image, repeated until a full sweep adds nothing."""
    ring = module.algebra.ring
    vec = [ring.coerce(x) for x in v]
    if all(x == ring.zero() for x in vec):
        return []
    basis, _ = _reference_row_reduce([vec], ring)
    changed = True
    while changed:
        changed = False
        for mat in module.action.values():
            for w in list(basis):
                img = [ring.zero()] * module.rank
                for i in range(module.rank):
                    acc = ring.zero()
                    for j in range(module.rank):
                        acc = ring.add(acc, ring.mul(mat[i][j], w[j]))
                    img[i] = acc
                new_basis, _ = _reference_row_reduce(basis + [img], ring)
                if len(new_basis) > len(basis):
                    basis = new_basis
                    changed = True
    return basis


def test_spin_matches_reference_spin():
    rng = random.Random(2)
    cases = [(Sym(2), 2, 2), (Sym(3), 2, 3), (Sym(2), 2, 0), (Ext(2), 3, 2),
             (DirectSum((Sym(2), Id())), 2, 5)]
    sizes = set()
    for expr, n, p in cases:
        module = base_change_module(module_of_functor(evaluate(expr, n), expr.degree()), p)
        ring = module.algebra.ring
        vectors = [[ring.zero()] * module.rank]
        vectors += [[ring.one() if j == i else ring.zero() for j in range(module.rank)]
                    for i in range(module.rank)]
        vectors += [[ring.from_int(rng.choice((0, 0, 1, 2))) for _ in range(module.rank)]
                    for _ in range(4)]
        for v in vectors:
            got = spin(module, v)
            assert got == _reference_spin(module, v), (expr, p, v)
            sizes.add(len(got))
    # an action that is not closed under products: one shift e_i -> e_(i+1),
    # whose span from e_1 needs three rounds of images
    one, zero = QQ.one(), QQ.zero()
    shift = tuple(tuple(one if i == j + 1 else zero for j in range(4)) for i in range(4))
    module = SchurModule(SchurAlgebra(1, 1, QQ), 4, {(1,): shift})
    for v in ([one, zero, zero, zero], [zero, one, one, zero], [zero] * 3 + [one]):
        got = spin(module, v)
        assert got == _reference_spin(module, v)
        sizes.add(len(got))
    # proper, full and zero spans all occur
    assert len(sizes) > 3 and {0, 1, 3, 4} <= sizes


def test_spin_requires_field():
    ev = evaluate(Sym(2), 2)
    module = module_of_functor(ev, 2)  # over ZZ
    with pytest.raises(ValueError):
        spin(module, [1, 0, 0])


def test_base_change_to_qq():
    ev = evaluate(Sym(2), 2)
    module = base_change_module(module_of_functor(ev, 2), 0)
    assert module.algebra.ring.tag() == "QQ"


# sha256 of repr(sorted(_integer_table(n, d).items())), as the expansion of
# z^gamma by compositions and multinomial coefficients gave it
TABLE_SHA256 = {
    (2, 4): "ae49f4534e758076325600706b99d39ad7cf2d59c9cd0fdb0462f1bbdda06ae1",
    (3, 2): "a343e8d9861f0dcd1e80f94a5bee76f19c905028dd44ebe258bac0082dc89654",
    (1, 5): "d15577e68f680ab3af9ff3857b25f986941b3e8dfed3f51dbaeaeabe831a487a",
}


@pytest.mark.parametrize("n,d", sorted(TABLE_SHA256))
def test_integer_table_is_pinned(monkeypatch, n, d):
    monkeypatch.setattr(schur, "_TABLE_CACHE", {})
    table = schur._integer_table(n, d)
    digest = hashlib.sha256(repr(sorted(table.items())).encode()).hexdigest()
    assert digest == TABLE_SHA256[(n, d)]
