"""Pins of the pair queue inside image-closure eliminations.

For every image closure of the benchmark's closure-qq and closure-fp
workloads, at every prime of their pool, these pins fix the weights the
S-pair queue gets inside eliminate and the (i, j, lcm) sequence it yields.
Any change to how the elimination picks its pair weights must keep both.
Each run gives the sha256 of the repr of the weights and of the list of
yielded pairs; a closure whose image is dense runs no elimination, and its
pin is empty.
"""

import hashlib

import pytest

from pfcalc import groebner
from pfcalc.geometry import cube_sum, image_closure, sum_of_powers
from pfcalc.rings import QQ, ring_from_tag

POOL = (5, 7, 11, 13, 17)

# (m, k, g) of sum_of_powers, or None for cube-sum; rank; field
CLOSURES = [((2, 5, 1), 2, "QQ"), ((4, 2, 2), 2, "QQ"), ((1, 3, 2), 2, "QQ"),
            ((1, 3, 1), 3, "QQ"), ((3, 3, 1), 2, "QQ"), ((3, 2, 1), 3, "QQ"),
            (None, 2, "QQ"),
            ((2, 4, 1), 2, "Fp(5)[t]/(t^2+2)"), ((1, 3, 2), 2, "Fp(5)"),
            ((1, 3, 1), 3, "Fp(2)"), ((2, 2, 1), 3, "Fp(3)[t]/(t^2+1)"),
            ((2, 2, 1), 3, "Fp(3)")] + \
    [((2, 2, 1), 3, f"Fp({p})") for p in POOL] + \
    [(None, 2, f"Fp({p})") for p in POOL]
IDS = [f"{'cube-sum' if sop is None else 'sop' + repr(sop)}@{n} {field}"
       for sop, n, field in CLOSURES]


def queue_digests(sop, n, field, monkeypatch) -> tuple:
    """(sha256 of the weights, sha256 of the pairs) of each queue that the
    image closure runs, in call order."""
    runs = []
    queue = groebner._s_pairs

    def recorded(reducers, weights=None, joined=None):
        pairs = []
        runs.append((weights, pairs))
        for pair in queue(reducers, weights, joined):
            pairs.append(pair)
            yield pair

    monkeypatch.setattr(groebner, "_s_pairs", recorded)
    alpha = cube_sum if sop is None else sum_of_powers(*sop)
    image_closure(alpha, n, QQ if field == "QQ" else ring_from_tag(field))
    return tuple((hashlib.sha256(repr(w).encode()).hexdigest(),
                  hashlib.sha256(repr(p).encode()).hexdigest()) for w, p in runs)


QUEUE_PINS = {
    "(2, 5, 1) 2 QQ": (
        ("339fc9227f0c4891455714c7574e4f0c07041ed0de6f389f71f0393bce880976",
         "4e4341dec1fb047bef5c48704c7196f377ab4c8e7b7b7e1adcb3f9d4eac1739f"),
    ),
    "(4, 2, 2) 2 QQ": (),
    "(1, 3, 2) 2 QQ": (
        ("2f6f9552052b3fa3277ed7f851a0cd273833cfa71466293dfbe57f4dec6f1864",
         "b594a76bec41720a5971b0c3f0fa26dfb81d8944bfa0c7c15a19cbd5dd5fcbce"),
    ),
    "(1, 3, 1) 3 QQ": (
        ("a0d65baa432164de69573e76f2427006804a181e61ffd5c50c2f1f424ef46ba6",
         "750ce0eda0b1fd6cff8fa532a038b4828ac62885539614ca5ec983bc2de1e4e3"),
    ),
    "(3, 3, 1) 2 QQ": (),
    "(3, 2, 1) 3 QQ": (),
    "None 2 QQ": (),
    "(2, 4, 1) 2 Fp(5)[t]/(t^2+2)": (
        ("969f7da00dfa97d1419daea7360c71c61932bf97229c21a2fcedcca145c6bb01",
         "4fcc262930ff5748167ca0283ca7a8ec8582f2435817a0a4586bccd2d898d0a9"),
    ),
    "(1, 3, 2) 2 Fp(5)": (
        ("2f6f9552052b3fa3277ed7f851a0cd273833cfa71466293dfbe57f4dec6f1864",
         "c2968c1923767d5ce27e9b0ada99b7b812fee309a68e3960c71cd9b06171aa2c"),
    ),
    "(1, 3, 1) 3 Fp(2)": (
        ("8b01c3c6d9ac591198fcad86307962c597679de826444bb251c52f4c91cc75c5",
         "adc347bf4b0fb62c0cac8ed19704c73679c52ee302c3fc1c4884cc59a7eff393"),
    ),
    "(2, 2, 1) 3 Fp(3)[t]/(t^2+1)": (
        ("d32e3329f6392cf1e1fc2b736bd55de46364283745e5feb926ba0a61b3a91f2b",
         "7747600f2e43bcfffe2d78e4adb833fe2c063e58c0b9aa1fdecc48fb20120c49"),
    ),
    "(2, 2, 1) 3 Fp(3)": (
        ("d32e3329f6392cf1e1fc2b736bd55de46364283745e5feb926ba0a61b3a91f2b",
         "7747600f2e43bcfffe2d78e4adb833fe2c063e58c0b9aa1fdecc48fb20120c49"),
    ),
    "(2, 2, 1) 3 Fp(5)": (
        ("d32e3329f6392cf1e1fc2b736bd55de46364283745e5feb926ba0a61b3a91f2b",
         "7747600f2e43bcfffe2d78e4adb833fe2c063e58c0b9aa1fdecc48fb20120c49"),
    ),
    "(2, 2, 1) 3 Fp(7)": (
        ("d32e3329f6392cf1e1fc2b736bd55de46364283745e5feb926ba0a61b3a91f2b",
         "7747600f2e43bcfffe2d78e4adb833fe2c063e58c0b9aa1fdecc48fb20120c49"),
    ),
    "(2, 2, 1) 3 Fp(11)": (
        ("d32e3329f6392cf1e1fc2b736bd55de46364283745e5feb926ba0a61b3a91f2b",
         "7747600f2e43bcfffe2d78e4adb833fe2c063e58c0b9aa1fdecc48fb20120c49"),
    ),
    "(2, 2, 1) 3 Fp(13)": (
        ("d32e3329f6392cf1e1fc2b736bd55de46364283745e5feb926ba0a61b3a91f2b",
         "7747600f2e43bcfffe2d78e4adb833fe2c063e58c0b9aa1fdecc48fb20120c49"),
    ),
    "(2, 2, 1) 3 Fp(17)": (
        ("d32e3329f6392cf1e1fc2b736bd55de46364283745e5feb926ba0a61b3a91f2b",
         "7747600f2e43bcfffe2d78e4adb833fe2c063e58c0b9aa1fdecc48fb20120c49"),
    ),
    "None 2 Fp(5)": (),
    "None 2 Fp(7)": (),
    "None 2 Fp(11)": (),
    "None 2 Fp(13)": (),
    "None 2 Fp(17)": (),
}


@pytest.mark.parametrize("sop,n,field", CLOSURES, ids=IDS)
def test_image_closure_pair_queue_pins(sop, n, field, monkeypatch):
    assert queue_digests(sop, n, field, monkeypatch) == \
        QUEUE_PINS[f"{sop} {n} {field}"]
