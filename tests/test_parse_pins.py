"""Pins of parse_poly: the terms it builds and the errors it raises.

The digests were recorded with the token-list parser that built a MultiPoly
for every factor, before the parser worked on term dicts, so the term-dict
parser must reproduce every term, every payload type and every error
message.  Each digest is the sha256 of repr(sorted(terms.items())), so the
payload types (int, Fraction, coefficient tuples) are part of what is
pinned; an exception is pinned by its type and message.
"""

import hashlib
import json
from pathlib import Path

import pytest

from pfcalc.poly import VarSet, parse_poly
from pfcalc.rings import ring_from_tag

IDEALS = Path(__file__).resolve().parents[1] / "bench" / "data" / "ideals.json"
XYZ = ("x", "y", "z")
RING_TAGS = ("ZZ", "QQ", "Fp(7)", "Fp(3)[t]/(t^2+1)", "QQ[t]/(t^2-2)")


def _digest(text: str, ring, vs) -> str:
    try:
        out = repr(sorted(parse_poly(text, ring, vs).terms.items()))
    except (ArithmeticError, ValueError) as exc:
        out = f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(out.encode()).hexdigest()


def _ideal_digest(spec: dict, tag: str) -> str:
    ring = ring_from_tag(tag)
    vs = VarSet(tuple(spec["variables"]), tuple(spec["weights"]))
    return hashlib.sha256("\n".join(
        _digest(g, ring, vs) for g in spec["generators"]).encode()).hexdigest()


IDEAL_PINS = {
    ('sop(1,3)@3', 'ZZ'):
        '0b94cb1a7fcf56b21ff9fcea0a09820e1ff33f02410c3af299eab6ff81a0caef',
    ('sop(1,3)@3', 'QQ'):
        'ab1dd656af870b9e88bcbd5ed914a9c19f30ea4eab522ba52441fd692a4937e2',
    ('sop(1,3)@3', 'Fp(5)'):
        '0c5a05081504e947a5e83451c5c286340a10dbf6eb9138ee026b90f9766bb976',
    ('sop(1,3,2)@2', 'ZZ'):
        'd89c1ea28fc8fbae9c76f484971b1a68d42600775953d1add13130c9c7a3f910',
    ('sop(1,3,2)@2', 'QQ'):
        'b7c90476e6d27a5fcd1aa1c52893fdcb5bab2f19fb2259696522b3f196585a86',
    ('sop(1,3,2)@2', 'Fp(5)'):
        'fde9c7402012a2025c8c227ffbb8cf75c2bbb7e02e821bec7871ac1d4265943f',
}


@pytest.mark.parametrize("tag", ("ZZ", "QQ", "Fp(5)"))
@pytest.mark.parametrize("name", ("sop(1,3)@3", "sop(1,3,2)@2"))
def test_bench_ideal_generators(name, tag):
    spec = json.loads(IDEALS.read_text())[name]
    assert _ideal_digest(spec, tag) == IDEAL_PINS[name, tag]


# (text, variables) parsed over every ring of RING_TAGS
TEXTS = (
    ("(x + y)^2", XYZ),
    ("(x - y)^3*(x + z)^2", XYZ),
    ("((x + 1)^2 - 1)^2", XYZ),
    ("(x + y)^0", XYZ),
    ("(x + y)*(x - y) + 2*y^2", XYZ),
    ("(y + z)*2*x*(x - 1)^2*3", XYZ),
    ("2^3*x", XYZ),
    ("3/4*z", XYZ),
    ("3/6*x - 10/5", XYZ),
    ("+x - y", XYZ),
    ("-x + y", XYZ),
    ("-(x + y)^2 + x^2", XYZ),
    ("2x", XYZ),
    ("x(y + z)", XYZ),
    ("2x(y+z)^2 z", XYZ),
    ("x y z + 2/3x - 2/3(x + 1)", XYZ),
    ("x ^ 2*y ^3 + 7 - 7", XYZ),
    ("x - x", XYZ),
    ("0", XYZ),
    ("0*x + 0^0 + x^0 + 0^3", XYZ),
    ("7*x + 8*x^2 + (x + 1)^7", XYZ),
    ("x*x*x - x^3 + y^12*x^11*z^12", XYZ),
    ("1/2*x^3 - 1/3*x^3 + 1/6*x^3", XYZ),
    ("(3)^2*x + (x)(y) - 2/4*(x + y)^2", XYZ),
    ("  x*(y)", XYZ),
    ("3^2^1", XYZ),
    ("1/0 + x", XYZ),
    ("1/3*x + 1/7", XYZ),
    ("y^12 - 12*y^11*z + (y - z)^12", XYZ),
    ("(2*t + 1)*x", XYZ),
    ("t*x + t^2 - t^3*y + (t + 1)^2*z", XYZ),
    ("t x - 2t^5", XYZ),
    ("t^2 + x*t + 1", ("x", "t")),
    ("(t + x)^3", ("x", "t")),
)

TEXT_PINS = {
    ('(x + y)^2', 'ZZ'):
        '54c3e252b2452bc05ab375cd5a593318e5dd080b48ec7ff9d06bfac1667baa72',
    ('(x + y)^2', 'QQ'):
        'ccdf1e19143ca1e8e9d93f26be32c948d9ce45dd32ed0d9837041a2370ac6379',
    ('(x + y)^2', 'Fp(7)'):
        '54c3e252b2452bc05ab375cd5a593318e5dd080b48ec7ff9d06bfac1667baa72',
    ('(x + y)^2', 'Fp(3)[t]/(t^2+1)'):
        '8820a3cca4862ff5ffa668f08ed3dac6b5ed1f2069901efdb2b07e2afadc7bb2',
    ('(x + y)^2', 'QQ[t]/(t^2-2)'):
        '8badac6faa92ad9f4152de26f4cda8aaf1ae3a839b4189e69d825128ff662da7',
    ('(x - y)^3*(x + z)^2', 'ZZ'):
        '216aff59b41a453e8f7c49ddabaae3e2715c2d098e2db8b5f5720a3d752d7a1b',
    ('(x - y)^3*(x + z)^2', 'QQ'):
        'ee478dde7ee86611486a464db2957f216d637288419ed5e5543e32a0e452dc1b',
    ('(x - y)^3*(x + z)^2', 'Fp(7)'):
        'd71846219488ee199bf2c367a130644af64f5d9c12822d1db2fe842c114fea94',
    ('(x - y)^3*(x + z)^2', 'Fp(3)[t]/(t^2+1)'):
        'f3a014e10a20419b1e71665940ff406be44c4606e48eea04e9ae344e5ac2b66b',
    ('(x - y)^3*(x + z)^2', 'QQ[t]/(t^2-2)'):
        '830bfe3e909481a43ae694f634be00e2a7f7b5ae6f2077ca2ccd54a0b3b2a3fd',
    ('((x + 1)^2 - 1)^2', 'ZZ'):
        '5b498a4e849731eab319be57a0bb9d1722f710abd42e5b2c9f451d9d625c1c64',
    ('((x + 1)^2 - 1)^2', 'QQ'):
        'e7bcb8c4f4915ac0986c40bdbe77fc0df7597ce0f5af207159439aa4a300f26e',
    ('((x + 1)^2 - 1)^2', 'Fp(7)'):
        '5b498a4e849731eab319be57a0bb9d1722f710abd42e5b2c9f451d9d625c1c64',
    ('((x + 1)^2 - 1)^2', 'Fp(3)[t]/(t^2+1)'):
        '213e8aae98a96cfc2a6e5dfa56f520aa05cec2e8a081107856d2ff5959cc93b4',
    ('((x + 1)^2 - 1)^2', 'QQ[t]/(t^2-2)'):
        '3a5ce2507c1b272472fb9c3ebdc37537499bcada10e2a22283831bfe2d85b16a',
    ('(x + y)^0', 'ZZ'):
        '6d6e9acb07675d304e0af78dbf898882a60a543d09cdfdff01f22c333f45ccfd',
    ('(x + y)^0', 'QQ'):
        '2b0fd1157b187d93f9253f850d890000c331997b67701016ff7bcfcc43a07a6a',
    ('(x + y)^0', 'Fp(7)'):
        '6d6e9acb07675d304e0af78dbf898882a60a543d09cdfdff01f22c333f45ccfd',
    ('(x + y)^0', 'Fp(3)[t]/(t^2+1)'):
        '102bfb2160a3ca9f1284c34942793910dcc8faae6481a9e0b3a2659368bc9498',
    ('(x + y)^0', 'QQ[t]/(t^2-2)'):
        '95952df16e6742838db433560a3c4f36a33f2674cdaa37a8eba688859163f688',
    ('(x + y)*(x - y) + 2*y^2', 'ZZ'):
        '107486f272e37fd2ecf03398be459fba74dc26e6e97bac893fd95d5af977fe05',
    ('(x + y)*(x - y) + 2*y^2', 'QQ'):
        '807b75e33c90b2f65f4a617ca042bc0619d77853f372436b1cc08a6104d7448f',
    ('(x + y)*(x - y) + 2*y^2', 'Fp(7)'):
        '107486f272e37fd2ecf03398be459fba74dc26e6e97bac893fd95d5af977fe05',
    ('(x + y)*(x - y) + 2*y^2', 'Fp(3)[t]/(t^2+1)'):
        '58153dde31ab8596faf96b1c42d33d0f62e090300848d8a6708bb919c13165b0',
    ('(x + y)*(x - y) + 2*y^2', 'QQ[t]/(t^2-2)'):
        'a8207e41cd3f199f5e4a64b5b24250c4b0b1fb851f3c0ad600333272f826e749',
    ('(y + z)*2*x*(x - 1)^2*3', 'ZZ'):
        'e3ee8d6ae78de29b53ab44bda85506ccc52ffb781f9b863715fe61822c7fbcf8',
    ('(y + z)*2*x*(x - 1)^2*3', 'QQ'):
        '7a2cb16017cfae4afb983af3453836cc68f0486854aa6e09bb9ffdc70ef32284',
    ('(y + z)*2*x*(x - 1)^2*3', 'Fp(7)'):
        'b5671bdad8d0531b49ca5780b1309d0a8f128dc51f97f3fe9051a1d41ab4bab3',
    ('(y + z)*2*x*(x - 1)^2*3', 'Fp(3)[t]/(t^2+1)'):
        '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
    ('(y + z)*2*x*(x - 1)^2*3', 'QQ[t]/(t^2-2)'):
        '67d52a120a6be04cd175ae6eefca2211aff86bebd0c9b15a6d64baafee760a61',
    ('2^3*x', 'ZZ'):
        'e795e7551bd5fac939803e4a55df2ceed08d6db6400b1d6565ed70b95bd06744',
    ('2^3*x', 'QQ'):
        '522b443107f31acdbaf671b9439a97a58c10bbf689c1435c6d5cb1265e6d387b',
    ('2^3*x', 'Fp(7)'):
        '2c0e1b694a86ff1d0a22cda36a75ad29859583c46aa4462bada4ffc3cfe83f7a',
    ('2^3*x', 'Fp(3)[t]/(t^2+1)'):
        '468001e340382590c3a59c5dc79de01bafbdf82be073937809c0c3ab746cf30c',
    ('2^3*x', 'QQ[t]/(t^2-2)'):
        '5e335263c55bffd63a02ee2d089092176fe9f243e378ee281053bbc88a4dd588',
    ('3/4*z', 'ZZ'):
        'f519fcc2c5cadb8c8150e245727a53078c84773a3d0cb12824fdaa0383de804a',
    ('3/4*z', 'QQ'):
        'b34d49f34d97586c7ae98feb4ba0ab56279d6b5663a8ba34da942146028bc84f',
    ('3/4*z', 'Fp(7)'):
        '18cee339e771177706bf281629a8fa7374d777af5b9bb1ffb2ebbe1ba27363fb',
    ('3/4*z', 'Fp(3)[t]/(t^2+1)'):
        '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
    ('3/4*z', 'QQ[t]/(t^2-2)'):
        'fd74b85f3370b8c1efab72629bd5a9eb9899b9ac06713b4b661db232c91ac2ee',
    ('3/6*x - 10/5', 'ZZ'):
        'c4636f311ee2b36962fdebc1d1fea5573d6aa8bfbd45805c9fd844bdbae2b695',
    ('3/6*x - 10/5', 'QQ'):
        '0fc9f05b5817f6edc4bed17c774770e358e102a8245caf3894c48c738e7a86cb',
    ('3/6*x - 10/5', 'Fp(7)'):
        'df391e59cff9e441eca57d88e9d6f6903f9a2204384a6b998945311d0cd0a355',
    ('3/6*x - 10/5', 'Fp(3)[t]/(t^2+1)'):
        '904d0657badf4cf1494a8c2858c8719149f48651836da9d91fb17b363e60d995',
    ('3/6*x - 10/5', 'QQ[t]/(t^2-2)'):
        'fd21f17761d86f2ace401afb3a700e5f6af94ebe3fc726558a9aad5c9a8dd683',
    ('+x - y', 'ZZ'):
        '28e9cd539d8d313b57bd35d980029a1aa1b27499da967704455c52274f06697c',
    ('+x - y', 'QQ'):
        'a4bab235e7e7f8a63b5d96e9cc4de85e8c495698fa62e66a3de13c66ae8e4eed',
    ('+x - y', 'Fp(7)'):
        '428f1ca77fdca417b7c8553a73f6ad42d5b283529c41747b8038f8d79f18fc4c',
    ('+x - y', 'Fp(3)[t]/(t^2+1)'):
        '5dc651784accca54788a0a7a0bfcde59ed9049f83fce2030971912dfc58dd1f0',
    ('+x - y', 'QQ[t]/(t^2-2)'):
        'f41966563794f81d1eeb7dc838615449d36310385509df24f365f151485e276c',
    ('-x + y', 'ZZ'):
        '9d000945b6e106c1b3f9c84b8d9a8411918c918284d1cbfe2a4c852d6024be4b',
    ('-x + y', 'QQ'):
        'bdaef2f01316fa4a1769fc0241db36142cf77568d7e3bbdaec68efdc8918c059',
    ('-x + y', 'Fp(7)'):
        'f265beebec4cbf90f06d0040dad7dd1436dfb155d13895affe81aa4f72185392',
    ('-x + y', 'Fp(3)[t]/(t^2+1)'):
        '5df6968bd4df17a08ac93486969ce15f22b77fd7b117808c95144f9fad061a5d',
    ('-x + y', 'QQ[t]/(t^2-2)'):
        '76ed6f27dcf2823e6ab9bd5c1d55e1fbd67d357b4796a38da0d1431ed8752561',
    ('-(x + y)^2 + x^2', 'ZZ'):
        'e2b6e4280e0cc7fd345d0aa6df7ecf1f6a8791542271e48e4f089c9c6a0e702f',
    ('-(x + y)^2 + x^2', 'QQ'):
        'b8b04dd4775eb33d3d487582723811fea2e55ac0ad6f8edae4da65df388babfc',
    ('-(x + y)^2 + x^2', 'Fp(7)'):
        '1896b70fe2e2733dbcc8bc8c4e7c6b53c89d860c940c24d8890fa1cead96c48f',
    ('-(x + y)^2 + x^2', 'Fp(3)[t]/(t^2+1)'):
        '96b03fb920bddbff4701ff625019e18b0b3b57d6f34d12dba698ef1f2f75301a',
    ('-(x + y)^2 + x^2', 'QQ[t]/(t^2-2)'):
        '894a84a14f67372d311ddc68841f981b4fdc86be90918829ec7daa0cc5ace3a9',
    ('2x', 'ZZ'):
        'da1a6af026cade8d6ea61da8e91882d009b6294ffc049921302bd0023cb9fa3e',
    ('2x', 'QQ'):
        '0f7cded8e1473cab04ad625be80610ddaa77d173f5654bf3dd0a258655d0eb1d',
    ('2x', 'Fp(7)'):
        'da1a6af026cade8d6ea61da8e91882d009b6294ffc049921302bd0023cb9fa3e',
    ('2x', 'Fp(3)[t]/(t^2+1)'):
        '468001e340382590c3a59c5dc79de01bafbdf82be073937809c0c3ab746cf30c',
    ('2x', 'QQ[t]/(t^2-2)'):
        'd7894357e8b3334fe29c64bf67250e4ccc027048fe63ccc8f6aa89935dce4c01',
    ('x(y + z)', 'ZZ'):
        '61cbd04637523c5e2294668751c95b5b5743389bdc16cb6d658eacdd015c42f7',
    ('x(y + z)', 'QQ'):
        '5bdcd59f8411af986b6fcba21eaf8c8819a0f311e28a170bcddc06d68c6583b8',
    ('x(y + z)', 'Fp(7)'):
        '61cbd04637523c5e2294668751c95b5b5743389bdc16cb6d658eacdd015c42f7',
    ('x(y + z)', 'Fp(3)[t]/(t^2+1)'):
        '899423b2216682cf7c34c7cc4347c28ed0d011c93f7a15fa5ea35f5e07ffa949',
    ('x(y + z)', 'QQ[t]/(t^2-2)'):
        '41e148e73a698ab6e223f2e412b9147f9f188901ca5f7f196b4eec52ff594476',
    ('2x(y+z)^2 z', 'ZZ'):
        'c591fa7f82f341338285edb19aa7af7e9c09b2219483cc0c5ce60f2d1821d726',
    ('2x(y+z)^2 z', 'QQ'):
        '3db3b796cd9939a02426395e58c2d2693e8a50a5eb271f4858d1272f446a2c41',
    ('2x(y+z)^2 z', 'Fp(7)'):
        'c591fa7f82f341338285edb19aa7af7e9c09b2219483cc0c5ce60f2d1821d726',
    ('2x(y+z)^2 z', 'Fp(3)[t]/(t^2+1)'):
        '5e381292ea733130b0601db4c0dbce8a2353ac58888ad9603a40ad7687b173d0',
    ('2x(y+z)^2 z', 'QQ[t]/(t^2-2)'):
        'fa93466f2f002d571eea2b05e38d5f884c0d5eaa2983cebbb8eb411e298ef360',
    ('x y z + 2/3x - 2/3(x + 1)', 'ZZ'):
        'e9cc55e3b922a1a1ebb66f06f8130de75c6b609ade11b3500331e01f45e36322',
    ('x y z + 2/3x - 2/3(x + 1)', 'QQ'):
        'c967920c9144b2a3ea43da7b59ebed74f21b04a9ea175e9ee45610ae37d4f267',
    ('x y z + 2/3x - 2/3(x + 1)', 'Fp(7)'):
        'f6126b9ff689dadcf13a361190ada0c37890261d019d968ba1206b12d36e5525',
    ('x y z + 2/3x - 2/3(x + 1)', 'Fp(3)[t]/(t^2+1)'):
        '022024ece4c7f1aeee935ce7098e7d18ad30ee5777dc1b782180e15a727a0fea',
    ('x y z + 2/3x - 2/3(x + 1)', 'QQ[t]/(t^2-2)'):
        '1a22150a7b0f9e68261df2a92c0b7e6c3faac7d8e2868444f4dff0a52f0e35a2',
    ('x ^ 2*y ^3 + 7 - 7', 'ZZ'):
        'a8566c5922f4f50da453c2cdfba24bf616b477b434455429b8cfa44edd1e335e',
    ('x ^ 2*y ^3 + 7 - 7', 'QQ'):
        '77e8cdc54457b824db1007bd49f2ceea6145fe89799b10b655b6966e03aa6996',
    ('x ^ 2*y ^3 + 7 - 7', 'Fp(7)'):
        'a8566c5922f4f50da453c2cdfba24bf616b477b434455429b8cfa44edd1e335e',
    ('x ^ 2*y ^3 + 7 - 7', 'Fp(3)[t]/(t^2+1)'):
        '8ab1be934bcf3eb5cd72ad62c27bc8e27674d3b31b75f4bddd74feb866c00ba8',
    ('x ^ 2*y ^3 + 7 - 7', 'QQ[t]/(t^2-2)'):
        'cf600b0e4cde16d2acbbf60ce2a4c00ad1db4e56c0dc756231cce4405acaa553',
    ('x - x', 'ZZ'):
        '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
    ('x - x', 'QQ'):
        '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
    ('x - x', 'Fp(7)'):
        '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
    ('x - x', 'Fp(3)[t]/(t^2+1)'):
        '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
    ('x - x', 'QQ[t]/(t^2-2)'):
        '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
    ('0', 'ZZ'):
        '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
    ('0', 'QQ'):
        '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
    ('0', 'Fp(7)'):
        '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
    ('0', 'Fp(3)[t]/(t^2+1)'):
        '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
    ('0', 'QQ[t]/(t^2-2)'):
        '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
    ('0*x + 0^0 + x^0 + 0^3', 'ZZ'):
        '33db7eedbe86bf701aacae2d9069ce7e1bf328a2bf02127f77a6d6e826ff570f',
    ('0*x + 0^0 + x^0 + 0^3', 'QQ'):
        '913c5cb4630d94189f357ced735a2d855292afa8c6e30fdab3a53697116ac30d',
    ('0*x + 0^0 + x^0 + 0^3', 'Fp(7)'):
        '33db7eedbe86bf701aacae2d9069ce7e1bf328a2bf02127f77a6d6e826ff570f',
    ('0*x + 0^0 + x^0 + 0^3', 'Fp(3)[t]/(t^2+1)'):
        'cb1f8b0d6f622c4a6eabf39989344f9905dba81a42341d56ab4f5fa517c3a0dd',
    ('0*x + 0^0 + x^0 + 0^3', 'QQ[t]/(t^2-2)'):
        'aaa6524edf4eab842fdae6e3cdc25c6f26a61ae6a0e24cdf6f5a7918f38e2043',
    ('7*x + 8*x^2 + (x + 1)^7', 'ZZ'):
        'ff782c55d3f3c68edc70e86654aa9b0a3ddd34b58b2ff37c7e7164479f45c057',
    ('7*x + 8*x^2 + (x + 1)^7', 'QQ'):
        'ceb6efb14fcde605eb1209f0d14bfad8d909b872a7128cb3ab42d23a6de75f6c',
    ('7*x + 8*x^2 + (x + 1)^7', 'Fp(7)'):
        '0b0b748a6aba578e18a9ac233b84e8dd7f681c5d963ad131fe9e151c90c36720',
    ('7*x + 8*x^2 + (x + 1)^7', 'Fp(3)[t]/(t^2+1)'):
        '2ab2758de783953311f9c27aeacbb0f95f4e4293b5fd7180c8590d92b5669e0c',
    ('7*x + 8*x^2 + (x + 1)^7', 'QQ[t]/(t^2-2)'):
        '1ff04682e93d82b7c18c0f858c2f80cb820f5d647999f5086006a043576ba125',
    ('x*x*x - x^3 + y^12*x^11*z^12', 'ZZ'):
        'ceafd302ca2275a0a4f9b8f91f7a6259a5cba0f1b25415288845217639b60a51',
    ('x*x*x - x^3 + y^12*x^11*z^12', 'QQ'):
        '34bdb06cf3c94d50494c85ef0c8cd22db12dba28157bdd41222c87bdcd84a98d',
    ('x*x*x - x^3 + y^12*x^11*z^12', 'Fp(7)'):
        'ceafd302ca2275a0a4f9b8f91f7a6259a5cba0f1b25415288845217639b60a51',
    ('x*x*x - x^3 + y^12*x^11*z^12', 'Fp(3)[t]/(t^2+1)'):
        '6223d1a0580b400c52d8cd5b621e3ee62bd40fd5c08e4f85e4be50e163dc3ff0',
    ('x*x*x - x^3 + y^12*x^11*z^12', 'QQ[t]/(t^2-2)'):
        '8884d10b003897942650a5a9ca09bb6d232a613aea8b932fb608ff50444025c8',
    ('1/2*x^3 - 1/3*x^3 + 1/6*x^3', 'ZZ'):
        'c4636f311ee2b36962fdebc1d1fea5573d6aa8bfbd45805c9fd844bdbae2b695',
    ('1/2*x^3 - 1/3*x^3 + 1/6*x^3', 'QQ'):
        '0bab5792e7b63b1b33fd4d9129c19fb0ace1930791f5b35312bf80029c9ac429',
    ('1/2*x^3 - 1/3*x^3 + 1/6*x^3', 'Fp(7)'):
        'b26d37f62913e7aa6b15f90a78da77c213748d2d022d591d446138bdca08884b',
    ('1/2*x^3 - 1/3*x^3 + 1/6*x^3', 'Fp(3)[t]/(t^2+1)'):
        '022024ece4c7f1aeee935ce7098e7d18ad30ee5777dc1b782180e15a727a0fea',
    ('1/2*x^3 - 1/3*x^3 + 1/6*x^3', 'QQ[t]/(t^2-2)'):
        'a6544b7d0b741e5509caa4777bfd65854184f1658bcd2e2e1e6271e4ab62cbe2',
    ('(3)^2*x + (x)(y) - 2/4*(x + y)^2', 'ZZ'):
        'c4636f311ee2b36962fdebc1d1fea5573d6aa8bfbd45805c9fd844bdbae2b695',
    ('(3)^2*x + (x)(y) - 2/4*(x + y)^2', 'QQ'):
        'b567faa3639649f03b4c734b186a7cea0e16b0bfc31f7fd982fcb03b62c106bb',
    ('(3)^2*x + (x)(y) - 2/4*(x + y)^2', 'Fp(7)'):
        '8b983ab80c6a7a1e4696b6cf0fd33e02187281dfb9d1ce0032dd526ff9681aee',
    ('(3)^2*x + (x)(y) - 2/4*(x + y)^2', 'Fp(3)[t]/(t^2+1)'):
        '58153dde31ab8596faf96b1c42d33d0f62e090300848d8a6708bb919c13165b0',
    ('(3)^2*x + (x)(y) - 2/4*(x + y)^2', 'QQ[t]/(t^2-2)'):
        'e588fb3f6c40fd11957992072ae9e5e075eac336fa741573611bc000ccf1c034',
    ('  x*(y)', 'ZZ'):
        'c33f32b22449eda7c0d637d8346fa742c14f8bf177cfe0c5728c680a5de361f0',
    ('  x*(y)', 'QQ'):
        'cbb783a9eb4eb36146ff4b5bc7359d877f408b377c3a4268fb56a6adbc3a0ff2',
    ('  x*(y)', 'Fp(7)'):
        'c33f32b22449eda7c0d637d8346fa742c14f8bf177cfe0c5728c680a5de361f0',
    ('  x*(y)', 'Fp(3)[t]/(t^2+1)'):
        'd0a1afe55da9abe7f51457c4f36ca6c124dc13d80189b570e6e0964f8e72ab04',
    ('  x*(y)', 'QQ[t]/(t^2-2)'):
        'fa668789901a601829f02c73b9b689cce33ad3cd30878e7d8292a3536cdbcf0b',
    ('3^2^1', 'ZZ'):
        'c550a6448cbe8f0f517c591eb8731557fe3b7311d9504d4b91d856d1c99457d9',
    ('3^2^1', 'QQ'):
        'c550a6448cbe8f0f517c591eb8731557fe3b7311d9504d4b91d856d1c99457d9',
    ('3^2^1', 'Fp(7)'):
        'c550a6448cbe8f0f517c591eb8731557fe3b7311d9504d4b91d856d1c99457d9',
    ('3^2^1', 'Fp(3)[t]/(t^2+1)'):
        'c550a6448cbe8f0f517c591eb8731557fe3b7311d9504d4b91d856d1c99457d9',
    ('3^2^1', 'QQ[t]/(t^2-2)'):
        'c550a6448cbe8f0f517c591eb8731557fe3b7311d9504d4b91d856d1c99457d9',
    ('1/0 + x', 'ZZ'):
        'a91bd3ca8a74bfe826d95348e5974237b765a3b3a13790eb040c8054b0ade78f',
    ('1/0 + x', 'QQ'):
        'a91bd3ca8a74bfe826d95348e5974237b765a3b3a13790eb040c8054b0ade78f',
    ('1/0 + x', 'Fp(7)'):
        'a91bd3ca8a74bfe826d95348e5974237b765a3b3a13790eb040c8054b0ade78f',
    ('1/0 + x', 'Fp(3)[t]/(t^2+1)'):
        'a91bd3ca8a74bfe826d95348e5974237b765a3b3a13790eb040c8054b0ade78f',
    ('1/0 + x', 'QQ[t]/(t^2-2)'):
        'a91bd3ca8a74bfe826d95348e5974237b765a3b3a13790eb040c8054b0ade78f',
    ('1/3*x + 1/7', 'ZZ'):
        'e9cc55e3b922a1a1ebb66f06f8130de75c6b609ade11b3500331e01f45e36322',
    ('1/3*x + 1/7', 'QQ'):
        '2e5d392a929749652b44254f4ed9c578f0fe11c96bc4b8ae95ac95a10811ddbb',
    ('1/3*x + 1/7', 'Fp(7)'):
        '22e3459ad367c277bf16fdb0f122b9a56a229143ead93914d5c4ba162e3dc03c',
    ('1/3*x + 1/7', 'Fp(3)[t]/(t^2+1)'):
        '022024ece4c7f1aeee935ce7098e7d18ad30ee5777dc1b782180e15a727a0fea',
    ('1/3*x + 1/7', 'QQ[t]/(t^2-2)'):
        'a629f0a6e31317f553fc50e306712861e714f0927808c69217dd73d01ee40c4c',
    ('y^12 - 12*y^11*z + (y - z)^12', 'ZZ'):
        '57eccea98e306275de6cf67500cbaf9d1b4c79a625ee37899ff13c385abc2d96',
    ('y^12 - 12*y^11*z + (y - z)^12', 'QQ'):
        '1287c03c7fd0bffa2ee927b80a619eeef0127a14b41d038dc811fcf758997f65',
    ('y^12 - 12*y^11*z + (y - z)^12', 'Fp(7)'):
        'b6b2069c8763f9f1b1525a665dc9d7b35bafe6a890d79f83e9e238d7e0d79d93',
    ('y^12 - 12*y^11*z + (y - z)^12', 'Fp(3)[t]/(t^2+1)'):
        'de9a4c06b97f3d18fa076c5a9ed2ad2a6253ce4f135881f5785a983cfaf1e001',
    ('y^12 - 12*y^11*z + (y - z)^12', 'QQ[t]/(t^2-2)'):
        'f90ee32f363317062a6987a6f5be380648231f1dc68cbf5976347a7173239ed1',
    ('(2*t + 1)*x', 'ZZ'):
        '08b0feaea1e3d3f9a6c03b45ca954c5881f8187da16835672d606d39837f5dc2',
    ('(2*t + 1)*x', 'QQ'):
        '08b0feaea1e3d3f9a6c03b45ca954c5881f8187da16835672d606d39837f5dc2',
    ('(2*t + 1)*x', 'Fp(7)'):
        '08b0feaea1e3d3f9a6c03b45ca954c5881f8187da16835672d606d39837f5dc2',
    ('(2*t + 1)*x', 'Fp(3)[t]/(t^2+1)'):
        '0278c4e294552fc13eac2349f0c4a38301822f2e7ab02cb37ea23754fded8476',
    ('(2*t + 1)*x', 'QQ[t]/(t^2-2)'):
        '27bbe312bb9cce3f31cbc82bd1e4d17efd9f83bb57de3ee14f65e28381a6f6f1',
    ('t*x + t^2 - t^3*y + (t + 1)^2*z', 'ZZ'):
        '08b0feaea1e3d3f9a6c03b45ca954c5881f8187da16835672d606d39837f5dc2',
    ('t*x + t^2 - t^3*y + (t + 1)^2*z', 'QQ'):
        '08b0feaea1e3d3f9a6c03b45ca954c5881f8187da16835672d606d39837f5dc2',
    ('t*x + t^2 - t^3*y + (t + 1)^2*z', 'Fp(7)'):
        '08b0feaea1e3d3f9a6c03b45ca954c5881f8187da16835672d606d39837f5dc2',
    ('t*x + t^2 - t^3*y + (t + 1)^2*z', 'Fp(3)[t]/(t^2+1)'):
        '61dfc61555d38e1db7e351667675c115452622bcace528802e300bc7617547ed',
    ('t*x + t^2 - t^3*y + (t + 1)^2*z', 'QQ[t]/(t^2-2)'):
        'f8d841e2cda8e31fbda78853f4a00764468e2ecd79e149d9b61a86ccf29efc4e',
    ('t x - 2t^5', 'ZZ'):
        '08b0feaea1e3d3f9a6c03b45ca954c5881f8187da16835672d606d39837f5dc2',
    ('t x - 2t^5', 'QQ'):
        '08b0feaea1e3d3f9a6c03b45ca954c5881f8187da16835672d606d39837f5dc2',
    ('t x - 2t^5', 'Fp(7)'):
        '08b0feaea1e3d3f9a6c03b45ca954c5881f8187da16835672d606d39837f5dc2',
    ('t x - 2t^5', 'Fp(3)[t]/(t^2+1)'):
        '63d9b21c847d599e44253ed9008eee2d32d6fca742895f17a80e2739918eef42',
    ('t x - 2t^5', 'QQ[t]/(t^2-2)'):
        'b690555945be4449932c3fbbbae2d180e4012b097f3067f3c21abb4175d8f1fc',
    ('t^2 + x*t + 1', 'ZZ'):
        'e5e783db9353821b3243ee12bb1f203c20908d893c3e5fdf32c6a4cad120ef0c',
    ('t^2 + x*t + 1', 'QQ'):
        '2ecd3e59fdc3422b4c6895eff367fa01cac289ecf6bd504eaf130ee312f4905c',
    ('t^2 + x*t + 1', 'Fp(7)'):
        'e5e783db9353821b3243ee12bb1f203c20908d893c3e5fdf32c6a4cad120ef0c',
    ('t^2 + x*t + 1', 'Fp(3)[t]/(t^2+1)'):
        '76334136898e385d370f1fd9cab0250745583ba5155f4e581c4e28c0d83f3f94',
    ('t^2 + x*t + 1', 'QQ[t]/(t^2-2)'):
        'f8db61699a399891fd9223a0b56ed2009e15b85c242157257839cb8061ea8465',
    ('(t + x)^3', 'ZZ'):
        '4a3186a4459c3dbc1af4f64c9244b38e3a0cefc81f3a4939a91a9f8879674af4',
    ('(t + x)^3', 'QQ'):
        '88ed4f86eaf1efd17d711bc2a44c9c00dedd690cfe9aa75c852cc3e930065140',
    ('(t + x)^3', 'Fp(7)'):
        '4a3186a4459c3dbc1af4f64c9244b38e3a0cefc81f3a4939a91a9f8879674af4',
    ('(t + x)^3', 'Fp(3)[t]/(t^2+1)'):
        '5f7eceab02284298ca96b7eaf0f19b4595c03aae289e89aed676e06afdb8d87d',
    ('(t + x)^3', 'QQ[t]/(t^2-2)'):
        'd206bf8e1f92378568b1200f53a55743219ee15e8eb7f869fb15bc7f5b2fb7af',
}


@pytest.mark.parametrize("tag", RING_TAGS)
@pytest.mark.parametrize("text, names", TEXTS, ids=[t for t, _ in TEXTS])
def test_parse_terms(text, names, tag):
    got = _digest(text, ring_from_tag(tag), VarSet(names))
    assert got == TEXT_PINS[text, tag]


ERRORS = (
    ("x + w", "undeclared variable 'w'"),
    ("w^x", "undeclared variable 'w'"),
    ("x y)", "trailing input in polynomial"),
    ("2 3", "trailing input in polynomial"),
    ("x^2^3", "trailing input in polynomial"),
    ("2^3/4", "trailing input in polynomial"),
    ("3/4^2", "trailing input in polynomial"),
    ("x/2", "trailing input in polynomial"),
    ("x $ y", "cannot tokenize polynomial at ' $ y'"),
    ("x^y $", "cannot tokenize polynomial at ' $'"),
    ("x + ", "cannot tokenize polynomial at ' '"),
    ("(x + y", "expected ')'"),
    ("(3/4^2)", "expected ')'"),
    ("(x + y]", "cannot tokenize polynomial at ']'"),
    ("x^y", "expected integer exponent"),
    ("x^", "expected integer exponent"),
    ("x ^ -1", "expected integer exponent"),
    ("(x)^y", "expected integer exponent"),
    ("3^x", "expected integer exponent"),
    ("1/x", "expected denominator"),
    ("1/(2)", "expected denominator"),
    ("", "unexpected token None"),
    ("x +", "unexpected token None"),
    ("*x", "unexpected token '*'"),
    ("x + -y", "unexpected token '-'"),
    ("()", "unexpected token ')'"),
    ("x*^2", "unexpected token '^'"),
)


@pytest.mark.parametrize("text, message", ERRORS, ids=[t for t, _ in ERRORS])
def test_parse_errors(text, message):
    with pytest.raises(ValueError) as exc:
        parse_poly(text, ring_from_tag("QQ[t]/(t^2-2)"), VarSet(XYZ))
    assert type(exc.value) is ValueError and str(exc.value) == message
