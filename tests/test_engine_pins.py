"""Pins of the packed Groebner engine: bases, logged polynomials, criterion
pairs and verdicts on the seeded ideals of test_packed.py, and the
good_primes report on both ideals of bench/data/ideals.json.

Every run is at unit weights.  The bases, logs and verdicts were recorded
while the packed engine still matched the engine on exponent tuples it
replaced, run at unit weights on the same ideals, so they keep that
oracle's verdict for any later change to the engine or its pair queue.
Each digest is the sha256 of a text rendering: a polynomial as the list of
its terms in dict order (insertion order is part of what is pinned), the
rest through repr.
"""

import hashlib
import random

import pytest

from pfcalc import groebner
from pfcalc.geometry import good_primes
from pfcalc.groebner import GroebnerBasis, buchberger
from test_packed import (ORDER_IDS, ORDERS, PRIMES_BELOW_100, RING_IDS, RINGS,
                         VS4, _bench_ideals, _random_ideals, _skip_weight_draws)


def _terms(polys):
    return repr([list(f.terms.items()) for f in polys])


def engine_digests(ring, order) -> dict:
    """{what: sha256} over the runs of test_packed's engine comparison for
    ring and order: the same ideals and criterion inputs."""
    rng = random.Random(f"{ring.tag()} {order.tag()}")
    texts = {"basis": [], "log": [], "criterion_pairs": [], "verdicts": []}
    for gens in _random_ideals(ring, rng, 15):
        _skip_weight_draws(rng)
        log = []
        gb = buchberger(gens, order, new_poly_log=log)
        texts["basis"].append(_terms(gb.generators))
        texts["log"].append(_terms(log))
        for G in (gens, list(gb.generators), list(gb.generators) + gens,
                  list(gb.generators)[1:] + gens[:1]):
            basis = GroebnerBasis(tuple(G), order, ring, VS4)
            texts["criterion_pairs"].append(repr(
                [(i, j) for i, j, _ in groebner._s_pairs(basis._reducer[1])]))
            texts["verdicts"].append(repr(basis.satisfies_criterion()))
    return {k: hashlib.sha256("\n".join(v).encode()).hexdigest()
            for k, v in texts.items()}


def good_primes_digest(gens) -> str:
    report = good_primes(gens, PRIMES_BELOW_100)
    text = "\n".join([repr(report.r), repr(report.generic_dimension),
                      repr(report.verdicts), _terms(report.generic_basis)])
    return hashlib.sha256(text.encode()).hexdigest()


ENGINE_PINS = {
    "F2 lex": {
        "basis":
            "8c5684d920b5da7acbec53d7a6e61de1b4a0aec7e7f60826c6ebd23466485780",
        "log":
            "a40f7348a9f372642811388355f11cfca23ad933a7d1e9a381a51d77ac4295cf",
        "criterion_pairs":
            "bca21dfc4998196c2b03fbc0949855c2c37e1cd553e9066ec3280b6799e7bb73",
        "verdicts":
            "2ac15804d27f3e5e1b4f7a3683a349c28bf46c3644d108994f5b48cd568d8542",
    },
    "F5 lex": {
        "basis":
            "b8c9cbb052d073d3da7a38165aaa0408ded5583444b2087e6a8d81ccbd7e2024",
        "log":
            "24acd6a3c1423d4b3732b0f278581ac982e971505306c667f73486900388922f",
        "criterion_pairs":
            "46d582f5fc05b7ccbb68518d197c89bee22942e8ae52ab34b2fffb8eaa927bab",
        "verdicts":
            "57c99bb2f1a32b7a2e4d534cc36ba095eb700e2ae5318b680d6ae6d9909c5dd0",
    },
    "QQ lex": {
        "basis":
            "4a5d8eb3fe2c2f3aca516e7283d662635b1f39dfc06503627de4c16f4ffab528",
        "log":
            "b2e7e2c1c27664d2a8eb99bc83882ea6cf70b38802064e7837bb6c734819cad1",
        "criterion_pairs":
            "125a42e53a3691fd5fafba3237ab0db34d7ee372b825d1d459aa0613ad623499",
        "verdicts":
            "e43dc495b862f5432a8d00ff0ad35cf9b7ba20cd58acc88dc2d33e808cb16157",
    },
    "F9 lex": {
        "basis":
            "3c2565a3b3b679fa1ef300af754163a42e353581a253e9c49658cfafb261b0cd",
        "log":
            "fbef256febc060dc096037949d797344f189351f96aeba2de0013deda2d1dda9",
        "criterion_pairs":
            "91ba39a17713c62600d3b870e338351cd38944eb6c0eb9613558f2dbdafef915",
        "verdicts":
            "5e1a2be986e64d79128ed339099339fd8a5bf27949d4778a9b996e1b293d1236",
    },
    "F2 grevlex": {
        "basis":
            "369f34cb5e32c2cc28825aac2dc4badd1401f28e5ba80017bfbe725343784ecc",
        "log":
            "b676b604712f86c1391c320598f8cc904c41b88b0b9315bbee342197f6e8c069",
        "criterion_pairs":
            "75540543a6527a85bef1531d2ab68d7a4608529efd2ff42d75d4a19ecd32ee0f",
        "verdicts":
            "ca09d5f4fe93610d2d1047dd56005185f929515d0aa4660bac834edc20ec89f5",
    },
    "F5 grevlex": {
        "basis":
            "ebe3923c2c666b61056525555ccacd9e19e9b257c0c1f269471e5e6db93c179e",
        "log":
            "e2e6d63fe1b52c8c258f3876d2a301fbe3860384dfc3f9f3875e1fbd40a72d0f",
        "criterion_pairs":
            "d4472bd4f7e70286c8cef236b1179f2b7da420a5fec5e2d7d5bc2d796398ce8f",
        "verdicts":
            "084cbb630bd193680a5ef034b988e763560e1a801640016ce425e51bb2ef5d41",
    },
    "QQ grevlex": {
        "basis":
            "471a744d16f4a7caf22e1e921ea7819938086de6e528d8f50f54940070ac2458",
        "log":
            "c19f2a7948b9cd93ee8613d4590d30c5c953bd91178e1b0bf26a561d61e25c88",
        "criterion_pairs":
            "ddd4a401b2f2e6069ada6573297da062b98a25202ac1058b49780edb5bc5a922",
        "verdicts":
            "365939a422beb8ddaa0811dda81a7224a23843ddefceaa0713865fdd5732bbf1",
    },
    "F9 grevlex": {
        "basis":
            "2e860ee3a95f6a5be6e89d9280c5f523426ec10c7b46bcbb887bd9e196f66b2f",
        "log":
            "885d11051a08a15e25d2b14e7992890de25fcded0912c9daaa313acee98f2935",
        "criterion_pairs":
            "c8c3cc124c0230234b40623f177a1cf3c42899b28c7206dc12af69ac29438da4",
        "verdicts":
            "47aea98b18bdbca9440c57f15aed4e375d19d2179996599245283ae2b04f365c",
    },
    "F2 elim1": {
        "basis":
            "e157c1ff690bacbcf5c2fc138c6d33bf4035e27a993a60ed9b3609d5c02b67f5",
        "log":
            "d0e3363fc06d6cfbf19068ce315335c8e2f3566f3a78b9ffb1a1c228e7dbc688",
        "criterion_pairs":
            "7934900798b6b47228ffe23c7e55f6821aa70b0793d203cd0caa62c87762313b",
        "verdicts":
            "d278f660ba582dc209a269002f0739a3aaba3590a4ee12b80f7b1770b1b0c773",
    },
    "F5 elim1": {
        "basis":
            "f7715c69c9e0c61bff543aff4fce7a79f2bad1239ac5736a40f442193100eb86",
        "log":
            "ce9ec578ddf1082f01675e029119814be3fadd2d432405d393ccf54008e0caf7",
        "criterion_pairs":
            "37bfc7fb22b2e4394361aa810a0fab0e454628a84432fb11d2672be3cd7b6160",
        "verdicts":
            "b9a74d86277a0ca2b43cd387adabaa60e71ca5e81802f8f21124e35804ea8c83",
    },
    "QQ elim1": {
        "basis":
            "81d622eceaaa3d00dc0892346e6f5d01721eb6cf26dd94742eac62e0e12460f0",
        "log":
            "a3d7b85b84b42c2914c43257cf7836671fb1df0746ab0671b9e5c1a6bf77681f",
        "criterion_pairs":
            "bb64b9d08f47e843e70fcec90eb385687e856f5558baa6dec8e4d5d032d73bb1",
        "verdicts":
            "721eb4f4603ddbba88a0ccec20c4752969d8436971c1b44ba2b097ecc33bdf20",
    },
    "F9 elim1": {
        "basis":
            "8a2e3a25c777f3b4ed120a924b2e84487637e7f8b725317f116b317ad0540a78",
        "log":
            "d2fb52f96345c05a9b8c312345a902cc99be2abe69048e3294624d19a49c52c0",
        "criterion_pairs":
            "24c736a6cb507867b9cd1681151f0afba5dde536dde1cadc0bfb6b43eed5ec44",
        "verdicts":
            "1c4c454232bca57af4a1d306db5d4985d25610fcf39da0c73e37fcabbc938c5e",
    },
    "F2 elim2": {
        "basis":
            "3e2af494c90ba9889d9b0649f9cb3d0c6937da48044d7728bbbef8fc0e6e9c17",
        "log":
            "2865c84f39f960092dba38ccfec9c2ba09768e7b2fae8f478a076ad497b93984",
        "criterion_pairs":
            "aac379e3f761b87578ac79146c1c2fc62be2065b5693636251543edf77c6de01",
        "verdicts":
            "aa8d5c316f3cdbcffc82725dfb1b3b19adc8c9e231dae6ac26903cb81748846f",
    },
    "F5 elim2": {
        "basis":
            "66ac0fb03e76abd35988fc9ec55345a01bad19ebcd550e1c6652dc49ffb2ebdd",
        "log":
            "9ea7e79c10c0fc1f70f5f42e28ac8d8cb3e950185a3aee366b10c68b2bf03723",
        "criterion_pairs":
            "5f55941cf42ccf2001e8e72a1e2e69009f1cde79417d933d58938087bb351713",
        "verdicts":
            "d59e807f5fab6b0032ead0d423cfd94abfe9c571504b1ff7a18696d27885edb6",
    },
    "QQ elim2": {
        "basis":
            "3b2466cfcb08b1f6ff2489fd52715a5067bee3012642ef7fba04c0c9a2fef9de",
        "log":
            "b8032656b1b0143eddd40d1c9bb4248a585e06a2e33be6f1a891f43a5e82caf1",
        "criterion_pairs":
            "fb776e2987beb77b2daf4488afb843dfcc60a52db8e11b43df56221851a37a5a",
        "verdicts":
            "3b1f0fe3b9f9f399558cb94bdff4a4c6dcd7f18f90d2499cb2eba6840df93709",
    },
    "F9 elim2": {
        "basis":
            "535b0d4badda64235b296b19cb94049a29d16d7cb1818cdf940fa3982df1d2fb",
        "log":
            "621b693df9e7e2413ff6dee5bdc6e6fef62745532aa15f73573d871bf9f329b3",
        "criterion_pairs":
            "586bc5a45819a825e547fb3d1522c64ed27773d1a37d636fb5ce256bcd23d7b1",
        "verdicts":
            "9e452d5816f6e850cd30d3382c4e5913df9a76822a5555def14f90dc16c2cfee",
    },
    "F2 elim3": {
        "basis":
            "15c64960d8f304385665e8078845d53ec742465c697f9572dce40e998e47ac75",
        "log":
            "909158fc452e51e6526a9b2623a610065c667830d7bc8d49996deb4d296491be",
        "criterion_pairs":
            "1ec4897921f4b7a0a1f6899528a791c91548bd54c7a1d01595dd42e8dcd27483",
        "verdicts":
            "f823f542e1e41e7ba7660c791bce3c370d9e675831bbaeb5833fbf13b511379c",
    },
    "F5 elim3": {
        "basis":
            "03e36a1f799962522cfe625e808ba3ad970838cbb65c2ed997d7b705e7409ef9",
        "log":
            "6db940fa5c44c7c53fb34b9cf896b5f581f135d112a4bb1bcd8a1764b1c182d2",
        "criterion_pairs":
            "0cfb4914262c10916520ec5a9e7371a7540d0b994c315cbcb5f44e9f7a2fa48a",
        "verdicts":
            "8969f033c5ab8339ba6d5300a47f87f1c2fde220f452b3577739e3e3c32cdda4",
    },
    "QQ elim3": {
        "basis":
            "10690e654f53d3059bd2b3dc03417f6464123f1ac351769c88595081064a8e7d",
        "log":
            "1e0edf94b833c7a7143c9dde999d06daa0870c428750f8c62ccd76aad35789f4",
        "criterion_pairs":
            "4986cee3ee8bf9b605adee25412f4748720288aebdadcdeda7e55da35b46e573",
        "verdicts":
            "19ff6cde21ded9a70488d10bf1bd2d046967ee0daeb956ba3441826428e28e22",
    },
    "F9 elim3": {
        "basis":
            "7e1ee4ab42350dfcba2fbee6966b07ec3405aa74a2f43992d5a31bc81d22a379",
        "log":
            "d88bb0a80cecfe060568971352a6bfb9f41b7a4f3a0db790f6c32f2225e02df8",
        "criterion_pairs":
            "9a033890b4565525c0221db91b83c6fc671c3992abed40df9fb6c54b4ad113a2",
        "verdicts":
            "7c8170f8c5eaeb694d62a2098277137b7037395a4beaaf30219b46adc1d95711",
    },
}

GOOD_PRIMES_PINS = {
    "sop(1,3)@3":
        "b7b139b1953979a82ad903a08d98b2bb818896c708eb3f13c4e0a0e1a8b4da75",
    "sop(1,3,2)@2":
        "c9bbd97a0a0816a0f2e87f8244c6eed3825585621efd3d3fde8b3794d6a74b55",
}


@pytest.mark.parametrize("ring_id,ring", list(zip(RING_IDS, RINGS)), ids=RING_IDS)
@pytest.mark.parametrize("order_id,order", list(zip(ORDER_IDS, ORDERS)), ids=ORDER_IDS)
def test_packed_engine_matches_its_pins(ring_id, ring, order_id, order):
    assert engine_digests(ring, order) == ENGINE_PINS[f"{ring_id} {order_id}"]


@pytest.mark.parametrize("name,gens", list(_bench_ideals()),
                         ids=[name for name, _ in _bench_ideals()])
def test_good_primes_report_matches_its_pins(name, gens):
    assert good_primes_digest(gens) == GOOD_PRIMES_PINS[name]
