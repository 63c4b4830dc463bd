"""Finitely presented ZZ-modules: fiber dimensions and generic freeness."""

import pytest

from pfcalc.fpmod import (FPModule, FreenessCertificate, block_sum, fiber_dimension,
                          generic_freeness)
from pfcalc.linalg import Echelon
from pfcalc.rings import ZZ, Fp


def test_free_module_fibers():
    M = FPModule.free(ZZ, 3)
    for p in (0, 2, 3, 5):
        assert fiber_dimension(M, p) == 3


def test_block_sum_places_relations_block_diagonally():
    a = FPModule.from_ints(ZZ, 2, [[2, 1]])
    b = FPModule.free(ZZ, 1)
    c = FPModule.from_ints(ZZ, 2, [[0, 3], [5, 0]])
    s = block_sum(ZZ, (a, b, c))
    assert s.ngens == 5
    assert s.relations == ((2, 1, 0, 0, 0), (0, 0, 0, 0, 3), (0, 0, 0, 5, 0))
    assert block_sum(ZZ, ()) == FPModule.free(ZZ, 0)


def test_torsion_module_z2():
    M = FPModule.from_ints(ZZ, 1, [[2]])
    assert fiber_dimension(M, 0) == 0
    assert fiber_dimension(M, 2) == 1
    assert fiber_dimension(M, 3) == 0


def test_relation_length_validated():
    with pytest.raises(ValueError):
        FPModule.from_ints(ZZ, 2, [[1]])


def test_fiber_dimension_rejects_bad_modulus():
    M = FPModule.free(ZZ, 1)
    with pytest.raises(ValueError):
        fiber_dimension(M, 4)


def test_semicontinuity_table():
    # no fiber dimension drops below the generic one, at p = 0
    M = FPModule.from_ints(ZZ, 2, [[2, 4]])
    table = {p: fiber_dimension(M, p) for p in (0, 2, 3, 5)}
    assert table == {0: 1, 2: 2, 3: 1, 5: 1}


def test_generic_freeness_of_free_module():
    cert = generic_freeness(FPModule.free(ZZ, 2))
    assert cert.r == 1
    assert cert.k == 2
    assert cert.m == 2


def test_generic_freeness_certificate_2_4():
    M = FPModule.from_ints(ZZ, 2, [[2, 4]])
    cert = generic_freeness(M)
    assert cert.r % 2 == 0
    assert cert.m == 1
    # the fiber dimension equals m at every prime not dividing r
    count = 0
    p = 2
    while count < 20:
        p += 1
        if cert.r % p == 0 or any(p % q == 0 for q in range(2, p)):
            continue
        assert fiber_dimension(M, p) == cert.m
        count += 1


def test_generic_freeness_submodule():
    # N = <(2, 0)> inside M = ZZ^2: free of rank 1 after inverting 2
    M = FPModule.free(ZZ, 2)
    cert = generic_freeness(M, [[2, 0]])
    assert cert.k == 1
    assert cert.m == 2
    assert cert.r % 2 == 0
    assert cert.basis_vectors[0] == (2, 0)


def test_generic_freeness_dependent_generators():
    M = FPModule.free(ZZ, 2)
    cert = generic_freeness(M, [[1, 1], [2, 2]])
    assert cert.k == 1
    assert len(cert.basis_vectors) == cert.m


def test_certificate_vectors_independent_away_from_r():
    M = FPModule.from_ints(ZZ, 3, [[0, 0, 3]])
    cert = generic_freeness(M)
    # basis vectors must stay independent mod any prime not dividing r
    rows = [list(v[:2]) for v in cert.basis_vectors]
    for p in (5, 7, 11):
        if cert.r % p:
            assert len(Echelon.of([[Fp(p).coerce(x) for x in r] for r in rows],
                                  Fp(p))) == cert.m
