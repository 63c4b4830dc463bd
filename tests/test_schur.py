"""Schur algebras: dimensions, associativity, evaluation maps, spinning."""

import hashlib
import json
import random
from math import comb

import pytest

from pfcalc import schur
from pfcalc.cli import main
from pfcalc.functors import DirectSum, Ext, Id, Sym, evaluate
from pfcalc.rings import Fp, QQ, ZZ, ring_from_tag
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


# sha256 of the `schur-table` stdout per (n, d, ring, format), recorded when
# the CLI multiplied every ordered pair of basis elements through `multiply`;
# "ZZ" is the config without a `ring` key
SCHUR_TABLE_SHA256 = {
    (1, 3, "ZZ", "text"): "efef01c6077d4657b4bddcc958447df98c94646a1bd102c6e0d70fb859a3181e",
    (1, 3, "ZZ", "json"): "786b74815e3595de8627797bca696339d088a9bb9344db2abf452583d3f3fad6",
    (1, 3, "ZZ", "csv"): "73f389869a4b66fc9e031ac985f83c8d93252fd911f4960a07a79d0011fdf5de",
    (1, 3, "QQ", "text"): "f41a9643a8667b3d48f36c79af1bd658ae3dda6d6abbb1be33b7942d8a9f3292",
    (1, 3, "QQ", "json"): "6d0e66857b0b23c58519b5a374c4ab40f687bedd3da6609de5c433eeea3cca78",
    (1, 3, "QQ", "csv"): "73f389869a4b66fc9e031ac985f83c8d93252fd911f4960a07a79d0011fdf5de",
    (1, 3, "Fp(2)", "text"): "7601231ac9786d2df0e7a8f1ea578cf9e239b539640c617e7f070b39f3c855da",
    (1, 3, "Fp(2)", "json"): "d4dfb83b0de0af956f2c28bbaf25ab20f17c9366b2ef47135f7f2a35f832c47e",
    (1, 3, "Fp(2)", "csv"): "73f389869a4b66fc9e031ac985f83c8d93252fd911f4960a07a79d0011fdf5de",
    (1, 3, "Fp(3)", "text"): "1c00e89730d96dafc647e733b81e94a88bc0a174f540b834c10a6d2910b66889",
    (1, 3, "Fp(3)", "json"): "b026884400aea1f8740b6688c813427875fa418a37356882994fe5fde65ab5ad",
    (1, 3, "Fp(3)", "csv"): "73f389869a4b66fc9e031ac985f83c8d93252fd911f4960a07a79d0011fdf5de",
    (1, 3, "Fp(3)[t]/(t^2+1)", "text"):
        "089f800d65a5d639cc9cdd7665f746ac9656804482a7f4425ea7849a373704a1",
    (1, 3, "Fp(3)[t]/(t^2+1)", "json"):
        "0349aa6378a152a5372ae8cd20e76182d0f7021860c0cb9910b0fdcfe8786d4d",
    (1, 3, "Fp(3)[t]/(t^2+1)", "csv"):
        "73f389869a4b66fc9e031ac985f83c8d93252fd911f4960a07a79d0011fdf5de",
    (2, 2, "ZZ", "text"): "3c8d784de97fa8e7b1871f520f6800ed9bc0c6370b30e28722e4302135a1a9c0",
    (2, 2, "ZZ", "json"): "b26629d31a77cdc1c10de830f04913a0bf5b74a40549f1a7350d68d15600c74a",
    (2, 2, "ZZ", "csv"): "7347235ec295824a535453deaf247c00f3adf13c7e3b3ffa4ee015d2de760064",
    (2, 2, "QQ", "text"): "97603c67dac48de1fdb344aa56ec8186db07f2de0b7be4fc811f247d14a87d4a",
    (2, 2, "QQ", "json"): "7a7dd79187f240b02234c8b4a2dd8020096df9a63cf2644aa8b5c8220e05dfc4",
    (2, 2, "QQ", "csv"): "7347235ec295824a535453deaf247c00f3adf13c7e3b3ffa4ee015d2de760064",
    (2, 2, "Fp(2)", "text"): "c2bc6d8c1c304942ead37741d7fd09875d75553e22fac6d40bb16d81c67f2589",
    (2, 2, "Fp(2)", "json"): "4a5ab798e4d96ce67a1a9ba6a491175f41171070fce65418889038069cce3417",
    (2, 2, "Fp(2)", "csv"): "ee33d8cbe444574b0273cf236cc7ab33000d169b28d153c2392e1664888e29d3",
    (2, 2, "Fp(3)", "text"): "508792c0e07b6f0a82ce16eeacca9ddd2d66793930af1a7fb62d03f4d0b2a8f6",
    (2, 2, "Fp(3)", "json"): "ef75f75f2191786756d45447b09726dd2067bf506b27d961e637bec9b2cb84d8",
    (2, 2, "Fp(3)", "csv"): "7347235ec295824a535453deaf247c00f3adf13c7e3b3ffa4ee015d2de760064",
    (2, 2, "Fp(3)[t]/(t^2+1)", "text"):
        "68451dc42568a930d1a53d50131db33e7d4811530d6f05326d04b7cec15375c9",
    (2, 2, "Fp(3)[t]/(t^2+1)", "json"):
        "34896725be3f055306d442274ac21c383370207fcc8448f59297065f77857166",
    (2, 2, "Fp(3)[t]/(t^2+1)", "csv"):
        "7347235ec295824a535453deaf247c00f3adf13c7e3b3ffa4ee015d2de760064",
    (2, 4, "ZZ", "text"): "6b642c6c8678910e1bc5923a89d6bd8047d9ac90c81f510fa654662b98485bd5",
    (2, 4, "ZZ", "json"): "98338f1b52659696bfcdb9be7b53749a3d3c11bbbb4dbe158cbb544d6cc3337b",
    (2, 4, "ZZ", "csv"): "cb789be749b0efcc871ab979cc7bbc6ee49150698c9fc3e2bbf7e2982636f6e8",
    (2, 4, "QQ", "text"): "7d262556a22492692b631b6651a026f8cd97764575b1b2bf7d24c9e5ec7505b6",
    (2, 4, "QQ", "json"): "914c531c42da36ff53236e56eb059defb1f8093c70a5286efe4c5de4961ac4a7",
    (2, 4, "QQ", "csv"): "cb789be749b0efcc871ab979cc7bbc6ee49150698c9fc3e2bbf7e2982636f6e8",
    (2, 4, "Fp(2)", "text"): "03cb82f74500659ad1660890641365eaf56ad03807e8bc694424fa90ab25b690",
    (2, 4, "Fp(2)", "json"): "43747e884d8fb32c619896461bbfab5c209716bb48cf13b39c886e9219a95d6c",
    (2, 4, "Fp(2)", "csv"): "66723504e10cb3a46e6e297e249e5741ea30c44ff1b52051ee9af9b46aa72891",
    (2, 4, "Fp(3)", "text"): "04975b3f05a71f7795071815a33b5bf5b492d28c3b8d748cb635d9d4cb61507b",
    (2, 4, "Fp(3)", "json"): "9b60480f2fb25c1c3479e1a4716c9d7e89654c53d9269d87ab1e664b8fb4c796",
    (2, 4, "Fp(3)", "csv"): "e14961c7233911b3f9daec73fab178ff8292466350b015bc9356be1d15d1f8fc",
    (2, 4, "Fp(3)[t]/(t^2+1)", "text"):
        "fcdf96b2ac5071a76bfc7c5f8e056f35e6c265f08fa6a213718d3c770699b2dc",
    (2, 4, "Fp(3)[t]/(t^2+1)", "json"):
        "f3f3e5c7795a4a304f28263656845eb65c0dfcbae1bf96dac5aaedd76715b753",
    (2, 4, "Fp(3)[t]/(t^2+1)", "csv"):
        "e14961c7233911b3f9daec73fab178ff8292466350b015bc9356be1d15d1f8fc",
    (3, 2, "ZZ", "text"): "9a602f56ab3b2dbcf81ab20d85f6e94fa7475ec62c7205c4b5ae512098bfce47",
    (3, 2, "ZZ", "json"): "5aa06b686e8f93892b28abc740465943ee75c1868c81e87dd3264dc2d1d51c25",
    (3, 2, "ZZ", "csv"): "ec45e3ecf07c91df87a943c66186ebbc85d5c49806c113115635650c3ce9f5aa",
    (3, 2, "QQ", "text"): "bb1399b0ff89d25b62d4e2bd7a2f7868f0c6367cfb6f88b5c73fce0568190d5d",
    (3, 2, "QQ", "json"): "62657f8d8354856dbe92cddb51a903e3437bde5df59c61b1f1a6ce0d203a2818",
    (3, 2, "QQ", "csv"): "ec45e3ecf07c91df87a943c66186ebbc85d5c49806c113115635650c3ce9f5aa",
    (3, 2, "Fp(2)", "text"): "b9a5def6260e51726dbc468889b658acb0384f5413da6db13efce2080201e622",
    (3, 2, "Fp(2)", "json"): "5cb374a48abcdeb5bd58b39ee89735db6ed06b77d5ce6c5dcbfe53db88fed407",
    (3, 2, "Fp(2)", "csv"): "b40be86cd18118824d313c3af651e2efbca96613fd5f26001f421eec9aa2c1bd",
    (3, 2, "Fp(3)", "text"): "66595ea0d9e67726d909a339d3c40ded423c7baabab635f9f090a2d6ffce9365",
    (3, 2, "Fp(3)", "json"): "3f79abc684937f88c2115b95d97b1979021cf06fe5c49a26ec6f447825ee85f2",
    (3, 2, "Fp(3)", "csv"): "ec45e3ecf07c91df87a943c66186ebbc85d5c49806c113115635650c3ce9f5aa",
    (3, 2, "Fp(3)[t]/(t^2+1)", "text"):
        "ee1c5ab4f37398173846023e6960e62747afd91e801b8f26bf8d16232451b53f",
    (3, 2, "Fp(3)[t]/(t^2+1)", "json"):
        "b43774a07f64fab0c28a329e4c536e84b2eadfab114c63b7a5e56a071c2a9942",
    (3, 2, "Fp(3)[t]/(t^2+1)", "csv"):
        "ec45e3ecf07c91df87a943c66186ebbc85d5c49806c113115635650c3ce9f5aa",
}


@pytest.mark.parametrize("n,d,ring,fmt", sorted(SCHUR_TABLE_SHA256))
def test_schur_table_output_is_pinned(capsys, tmp_path, n, d, ring, fmt):
    cfg = {"n": n, "d": d}
    if ring != "ZZ":
        cfg["ring"] = ring
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert main(["schur-table", "--config", str(path), "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SCHUR_TABLE_SHA256[(n, d, ring, fmt)]


@pytest.mark.parametrize("n,d,ring,fmt", sorted(SCHUR_TABLE_SHA256))
def test_schur_table_out_files_are_pinned(capsys, tmp_path, n, d, ring, fmt):
    # --out writes the primary format and, for text and json, the csv file
    # too; each file holds the pinned stdout of its format
    cfg = {"n": n, "d": d}
    if ring != "ZZ":
        cfg["ring"] = ring
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    outdir = tmp_path / "results"
    assert main(["schur-table", "--config", str(path), "--format", fmt,
                 "--out", str(outdir)]) == 0
    assert capsys.readouterr().out == ""
    ext = {"text": "txt", "json": "json", "csv": "csv"}[fmt]
    files = {f"schur-table.{ext}": fmt, "schur-table.csv": "csv"}
    assert sorted(p.name for p in outdir.iterdir()) == sorted(files)
    for name, written in files.items():
        digest = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        assert digest == SCHUR_TABLE_SHA256[(n, d, ring, written)], name


@pytest.mark.parametrize("tag", ["ZZ", "QQ", "Fp(2)", "Fp(3)[t]/(t^2+1)"])
@pytest.mark.parametrize("n,d", [(2, 2), (1, 4), (2, 3)])
def test_structure_constants_match_multiply(n, d, tag):
    # multiply is the reference: every ordered pair of basis elements, its
    # product's nonzero coefficients in increasing gamma
    ring = ring_from_tag(tag)
    algebra = SchurAlgebra(n, d, ring)
    want = []
    for alpha in algebra.basis:
        for beta in algebra.basis:
            prod = algebra.multiply(algebra.element({alpha: ring.one()}),
                                    algebra.element({beta: ring.one()}))
            want += [(alpha, beta, gamma, prod.coeffs[gamma])
                     for gamma in sorted(prod.coeffs)]
    got = algebra.structure_constants()
    assert got == want
    assert all(not ring.is_zero(c) for *_, c in got)
    if tag == "Fp(2)" and n > 1:
        # the even multinomial constants vanish over F_2 and are dropped
        full = sum(len(pairs) for pairs in schur._integer_table(n, d).values())
        assert len(got) < full


def test_schur_table_reads_the_table_once(monkeypatch, capsys, tmp_path):
    calls = {"structure_constants": 0, "element": 0}

    def counted(name):
        original = getattr(SchurAlgebra, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(SchurAlgebra, name, wrapper)

    counted("structure_constants")
    counted("element")
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"n": 2, "d": 2, "ring": "QQ"}))
    assert main(["schur-table", "--config", str(path)]) == 0
    assert "structure constants of S_<=2(U)" in capsys.readouterr().out
    assert calls == {"structure_constants": 1, "element": 0}
