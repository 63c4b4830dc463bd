"""Pins of the law calculus: `law`, `law_at`, `homogeneous_parts` and
`shift_decompose` on a seeded set of functors and matrices.

The digests were recorded with the dense law calculus, before laws were
built as sparse rows, so the sparse code must reproduce every entry.  The
set covers all nine combinators, non-square maps, maps with zero rows and
columns, and rank-deficient maps whose Ext minors cancel to zero.  Each
digest is the sha256 of a text rendering: `law` entries through
`format_poly`, the other results through `repr`, and an exception by its
type and message.
"""

import hashlib
import random

import pytest

from pfcalc.functors import evaluate, homogeneous_parts, parse_functor, shift_decompose
from pfcalc.poly import format_poly

LAW_SHAPES = ((0, 1), (1, 2), (2, 2), (2, 3), (3, 2))
AT_SHAPES = ((0, 2), (2, 0), (1, 3), (3, 3), (3, 4), (4, 3))


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _matrices(rng, n, m):
    """m x n integer matrices: random small entries (zeros included), the
    same with a zero row and a zero column, rank at most 1 and at most 2,
    and a diagonal 0/1 idempotent when square."""
    def rand(r, c):
        return [[rng.randint(-2, 2) for _ in range(c)] for _ in range(r)]

    out = [rand(m, n)]
    holed = rand(m, n)
    if m and n:
        holed[rng.randrange(m)] = [0] * n
        j = rng.randrange(n)
        for row in holed:
            row[j] = 0
    out.append(holed)
    out.append(_product(rand(m, 1), rand(1, n)) if m and n else rand(m, n))
    out.append(_product(rand(m, 2), rand(2, n)) if m and n else rand(m, n))
    if m == n:
        out.append([[int(i == j and rng.random() < 0.6) for j in range(n)]
                    for i in range(n)])
    return out


def _guarded(fn, *args):
    try:
        return repr(fn(*args))
    except (ArithmeticError, AssertionError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _shift_units(expr, m, n):
    """shift_decompose's two index lists as the unit vectors they name, in
    the shifted evaluation's coordinates: the form the pins hash."""
    parts = shift_decompose(expr, m, n)
    size = evaluate(expr, m + n).module.ngens
    return tuple([[int(i == j) for i in range(size)] for j in part] for part in parts)


def _law_text(expr, n, m):
    law = evaluate(expr, n).law(m)
    return repr([[format_poly(e) for e in row] for row in law])


def _law_at_text(expr, rng):
    pieces = []
    for n, m in AT_SHAPES:
        for g in _matrices(rng, n, m):
            pieces.append(f"{g} -> {_guarded(evaluate(expr, n).law_at, g)}")
    return "\n".join(pieces)


def law_digests(text: str) -> dict:
    """{function name: sha256 of its rendered results} for one functor."""
    expr = parse_functor(text)
    seed = int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")
    texts = {
        "law": "\n".join(_law_text(expr, n, m) for n, m in LAW_SHAPES),
        "law_at": _law_at_text(expr, random.Random(seed)),
        "homogeneous_parts": "\n".join(
            _guarded(homogeneous_parts, expr, n) for n in range(4)),
        "shift_decompose": "\n".join(
            _guarded(_shift_units, expr, m, n) for m in (1, 2) for n in range(4)),
    }
    return {k: hashlib.sha256(v.encode()).hexdigest() for k, v in texts.items()}


PINS = {
    "Const(ZZ^2)": {
        "law":
            "487b7ae920bd5534c64c6ae47abac6b7ea2fd2e3baca1fb96dc1e6fe632ad180",
        "law_at":
            "74d02ccd6f6439a9bf6340847725aca08bd150efd1046b1ebb7bfe93c3d6fc21",
        "homogeneous_parts":
            "c4f97a04b30b2f5a60cf697ec767c6195292ab5a08032a15c775ce343b1de5f5",
        "shift_decompose":
            "3c7cd3b47b14843fdd531b1534ba2234977d944fea876692ebb3493159304133",
    },
    "Const(ZZ/2) (+) Id": {
        "law":
            "2a09c5f6259a08e52d2768a5c77ecd628276d6102e964e18b29cd261a73fbe86",
        "law_at":
            "149acc10efe65d3d7c1508e34f1e9cd5d1c1bf2377cc720b4d492057120447d4",
        "homogeneous_parts":
            "657c6939eb24cbcb745ad87365691316b5d599da8fd0faf15fc3134dc2ce963a",
        "shift_decompose":
            "3ac9f3879c0a3d9d34192171338c2c75cfc62098b53854c6a18483107195d64a",
    },
    "Id": {
        "law":
            "8716af5b9398f71f7f28f8fbc86fd1d8a86a474cd808a1bd5d0fe34cd6c57f21",
        "law_at":
            "0613c659209913e8727b240ec488bce8883ee8231c0e92c936f9284d37de9431",
        "homogeneous_parts":
            "dba2a6696497e63ec5de8a26aabc694e9bfb3c2a76b25881283b2a03953dda23",
        "shift_decompose":
            "34da8a3b590e9de6c4e99dc66951421df46a452c96e1cfef73e5fbdf1968d987",
    },
    "Sym(2)": {
        "law":
            "f4aabd4bf07bb9c9d186dd68b93e63413ae92a5ac4788535a0164f446edd135a",
        "law_at":
            "c41edf42e0f37260790e2a3ba3bb060e9b6c20b3d238f7e640c6eb67323e4afc",
        "homogeneous_parts":
            "2339bf25d712b72656fb578dc31b12134b6c69ef180638e61364b023aa7d3d0d",
        "shift_decompose":
            "2164f5037b6d92eeb34102e7f001704d07f27f0d205835b1a29446de9708bf44",
    },
    "Sym(3)": {
        "law":
            "fc7d1c28932a98655ec2b3346308ebbd48440c442577a2a9e3e64026c36794f2",
        "law_at":
            "75ceeb13e8397678c1c94779d34d00c42b5e9f21c3673ac315162934ef164197",
        "homogeneous_parts":
            "4402eb4db3627b123bdc098b171ff629c082d502ac5625945a590af86fef28d8",
        "shift_decompose":
            "9263ef2c8a6da0184e0044529e1f178e9eeb1a075b5a7526b31496295851d36f",
    },
    "Ext(2)": {
        "law":
            "57161b0a1b4a099252ea629805d5b07545b9bbf75ef20f6aa1cb0cd7ee76668f",
        "law_at":
            "f159ae85a8f7f34beec44c3a569883e40d84640d06087b26ce7d5b77176616eb",
        "homogeneous_parts":
            "34ea9d19dbfd330dbcc507b1d39c84aae92fa0116e1d568311dbde88bb00d104",
        "shift_decompose":
            "8cdcbe8a4ab0aeaa14d390bb36a5a90b0c98d411d0c24ecfa1317a88f55eb33f",
    },
    "Ext(3)": {
        "law":
            "f31a67371e74226d4dccf18e7634540116506eef3e31a68c6aecc0c724c3909e",
        "law_at":
            "3302daa0335d8bbe8e00498523433120ae05d924e58136378fefccb04448e924",
        "homogeneous_parts":
            "f3b0650d75c7990ee72cbdbf354337234412251aa5e335cf3bfa0720463debb4",
        "shift_decompose":
            "52e6b3b3bf6716ab59539b9595fcd666b618ea0e3b7ef677108540bf0d17f777",
    },
    "Tensor(Id, Ext(2))": {
        "law":
            "ed2572751872c231604a9bfac4f2743c4ca32c352384b30487c45adc448f9edf",
        "law_at":
            "06db133ffbdd1d4e4f383e2877ff0d335520a9ed43269f3c284f0b09397810d4",
        "homogeneous_parts":
            "75a70f964988ef77f3c08b38952cc3dfbaf24cb5e5a3a2ac30919081450f75ab",
        "shift_decompose":
            "63491a111ac159f4e38d81081bf8b5ca55e2250c25987b72cbec291e5f20adf4",
    },
    "Tensor(Sym(2), Id)": {
        "law":
            "eb6237521156eca5efd101f3647ba71a14a0508ee7052f0617f2cea78957f1f4",
        "law_at":
            "a42ba2113c8849192b66939fcce025357d15f4cb474517f586660009e0aa18ab",
        "homogeneous_parts":
            "aee96c78200b82511deca8e84374884d1b99f4706490d8e2faee3bf9801d5db9",
        "shift_decompose":
            "6811c8241dd5359dc0d4024962b0eddfd5aee5ae778462edb1492e79450868de",
    },
    "Sym(2) (+) Ext(3)": {
        "law":
            "9a622d8e0af4b2d65b3a051201928067ffd951ea003eb0828d603b1135011ab0",
        "law_at":
            "a22f15397fd5a26bcdb0e570c39a4ff52924a9b18adde310118e35f1f08e0fd0",
        "homogeneous_parts":
            "5ef0f3e3933ba52fc3eaa3b270569ca231ed293afab92005c6029b9478543ff4",
        "shift_decompose":
            "5c32fa55a5b779051f621f5630c50f6fc06ce28946e6a2059f770ca35b15fa41",
    },
    "Compose(Sym(2), Ext(2))": {
        "law":
            "200d08c3d7e6b5b08a137d1cc38ac7b20803fb9dd44116d83734e279bc00c3cc",
        "law_at":
            "8f07ccc6843d3027a7981711c1f826bc991d2ef1b1d971768f947d12e0232ee0",
        "homogeneous_parts":
            "b0e36c7c5cd3a58c6fdb1673b4dc01638c0de3f6ae7b1862c45c1d4664e1aaf1",
        "shift_decompose":
            "8a50d16f13150596d7d552b4307ba8c004edb80423fce1d33d78764879c287cf",
    },
    "Compose(Ext(2), Sym(2))": {
        "law":
            "ecb7c04821c5f7f297d06a7e80ba5e280c937ab080238b989e2da9aeb5e3dffd",
        "law_at":
            "ae08c50c12400c4fe8835ab70dea1b3428ef3969051becc24d36e6a9a4f33518",
        "homogeneous_parts":
            "fb6834405d4008da35073566eac8fcf4824cccc1d03585b018337a1dd2a26334",
        "shift_decompose":
            "f78ece73d7624fd39bc56e75cb0f531d6c11e81e361c73bc829794d669da30c3",
    },
    "Shift(1, Ext(2))": {
        "law":
            "4450458621763b87f375d1228893789daa5f052bc91cdce9f97543ae442bb53a",
        "law_at":
            "13ffc6cee1e96341a6fb37fd14303878289f1a5aca22f515a2d267e4b26516a5",
        "homogeneous_parts":
            "1815b8e072148755e23734283b0a6cf633fc4d2deece54c7e83bafe076a90766",
        "shift_decompose":
            "41af29e3f020034409646f090f1235c4036b4be1b81738396bd87bc3aedc7de8",
    },
    "Shift(2, Sym(2))": {
        "law":
            "50c65bb71ee4a64836c6f0b4fb303c4a817ad3f329e4cbc52b628905bad97852",
        "law_at":
            "fe05cc76062b18f97a9e4f505e682e31acb5ad9472eb00429efe353b7cd83db6",
        "homogeneous_parts":
            "e0d8337b7968f225ba1fe98e77214fcfc2a4cb1c82bd97674020bade2492b84e",
        "shift_decompose":
            "9d0f43989a79c0e42c565da1ed5751603317645520e3ee38641b311568a94e9b",
    },
    "Dual(Ext(2))": {
        "law":
            "57161b0a1b4a099252ea629805d5b07545b9bbf75ef20f6aa1cb0cd7ee76668f",
        "law_at":
            "baf6887a43085da49b5f8c8f8e62d88660c50defb004a066f7f10b2f1d54563d",
        "homogeneous_parts":
            "34ea9d19dbfd330dbcc507b1d39c84aae92fa0116e1d568311dbde88bb00d104",
        "shift_decompose":
            "8cdcbe8a4ab0aeaa14d390bb36a5a90b0c98d411d0c24ecfa1317a88f55eb33f",
    },
    "Dual(Sym(2) (+) Ext(3))": {
        "law":
            "dae1614e0c05acf51034ec73281d435ce28895ee4abb693c15f4664549528930",
        "law_at":
            "1e07c14edc0f3caa0933ba57b5f2e61caf02756d792c94801b8b8f963da63039",
        "homogeneous_parts":
            "5ef0f3e3933ba52fc3eaa3b270569ca231ed293afab92005c6029b9478543ff4",
        "shift_decompose":
            "5c32fa55a5b779051f621f5630c50f6fc06ce28946e6a2059f770ca35b15fa41",
    },
    "Tensor(Dual(Id), Shift(1, Ext(2)))": {
        "law":
            "3525d43173fbe58f5a0043e7912a91cd93db8dfce8e2210101515bc8119c09f5",
        "law_at":
            "a124b9d1eb3fbc899eefeff0880570da569fff1cf9ea13afee3fc34c81ddb37f",
        "homogeneous_parts":
            "4f99e4e2224e47e4b2d03ff3993e942c22855e20030c9014e4c6c15d5a1b4111",
        "shift_decompose":
            "17d2f3d5528c91c9a65b10127ec86b67132304aa0927f0c9b706370f4625eae9",
    },
}


@pytest.mark.parametrize("text", sorted(PINS))
def test_law_calculus_matches_its_pins(text):
    assert law_digests(text) == PINS[text]
