"""Groebner machinery against a brute-force oracle and hand-checked cases."""

import heapq
import itertools
import operator
import random
import time
from types import SimpleNamespace

import pytest

from pfcalc import groebner
from pfcalc.geometry import sum_of_powers, target_varset
from pfcalc.groebner import (GroebnerBasis, NonFieldCoefficients, _Packing,
                             _Reducers, _field_reducer, buchberger, eliminate,
                             ideal_dimension, radical_membership)
from pfcalc.poly import (Elimination, Grevlex, Lex, MultiPoly, VarSet,
                         degree_monomials, parse_poly)
from pfcalc.rings import Fp, QQ, QuotientRing, ZZ, ring_from_tag

VS = VarSet(("x", "y"))


def P(text, ring=QQ, vs=VS):
    return parse_poly(text, ring, vs)


def _exp_sub(a, b):
    return tuple(map(operator.sub, a, b))


def _exp_lcm(a, b):
    return tuple(map(max, a, b))


def s_polynomial(f: MultiPoly, g: MultiPoly, order) -> MultiPoly:
    """lcm/LT(f) * f - lcm/LT(g) * g for lcm the lcm of the two leading
    monomials: the leading terms cancel."""
    ring = f.ring
    lf, cf = f.leading(order)
    lg, cg = g.leading(order)
    lcm = _exp_lcm(lf, lg)
    a = f.term_mul(_exp_sub(lcm, lf), ring.inv(cf))
    b = g.term_mul(_exp_sub(lcm, lg), ring.inv(cg))
    return a - b


def test_normal_form_single_divisor():
    f = P("x^2*y + x")
    g = P("x*y - 1")
    r = GroebnerBasis((g,), Grevlex(), QQ, VS).reduce(f)
    assert r == P("2*x")


def test_normal_form_is_idempotent():
    gens = [P("x^2 - y"), P("x*y - 1")]
    f = P("x^5 + y^3 - x")
    basis = GroebnerBasis(tuple(gens), Grevlex(), QQ, VS)
    r = basis.reduce(f)
    assert basis.reduce(r) == r


def test_normal_form_requires_field():
    with pytest.raises(NonFieldCoefficients):
        GroebnerBasis((parse_poly("x", ZZ, VS),), Grevlex(), ZZ, VS).reduce(
            parse_poly("2*x", ZZ, VS))


def test_s_polynomial_cancels_leading_terms():
    f = P("x^2 + y")
    g = P("x*y + 1")
    s = s_polynomial(f, g, Grevlex())
    lcm_exp = (2, 1)
    assert lcm_exp not in s.terms


def test_buchberger_of_principal_ideal():
    gb = buchberger([P("2*x^2 - 2*y")], Grevlex())
    assert len(gb.generators) == 1
    assert gb.generators[0] == P("x^2 - y")


def test_buchberger_textbook_pair():
    gb = buchberger([P("x^2 - y"), P("x^3 - x")], Lex())
    # x^3 - x = x*(x^2 - y) + (x*y - x), so the basis picks up x*y - x
    assert gb.contains(P("x*y - x"))
    assert gb.contains(P("y^2 - y"))
    assert not gb.contains(P("y - 1"))


def test_buchberger_detects_unit_ideal():
    gb = buchberger([P("x"), P("x + 1")], Grevlex())
    assert gb.contains_one()
    assert ideal_dimension(gb) == -1


def test_buchberger_idempotent():
    gens = [P("x^2 + y^2 - 1"), P("x*y - 1")]
    gb = buchberger(gens, Grevlex())
    again = buchberger(list(gb.generators), Grevlex())
    assert gb.generators == again.generators


def test_reduced_basis_is_monic_and_self_reduced():
    gb = buchberger([P("3*x^2 + y"), P("2*y^2 - x")], Grevlex())
    for g in gb.generators:
        assert g.leading(Grevlex())[1] == 1
        others = [h for h in gb.generators if h is not g]
        if others:
            assert GroebnerBasis(tuple(others), Grevlex(), QQ, VS).reduce(g) == g


def test_verify_buchberger_criterion():
    gb = buchberger([P("x^2 - y"), P("x*y - 1")], Grevlex())
    assert gb.satisfies_criterion()
    assert not GroebnerBasis((P("x^2 - y"), P("x*y - 1")), Grevlex(), QQ,
                             VS).satisfies_criterion()


def test_ideal_dimension_cases():
    assert ideal_dimension(buchberger([P("x")], Grevlex())) == 1
    assert ideal_dimension(buchberger([P("x"), P("y")], Grevlex())) == 0
    vs3 = VarSet(("x", "y", "z"))
    gb = buchberger([parse_poly("x*y", QQ, vs3)], Grevlex())
    assert ideal_dimension(gb) == 2


def _subset_scan_dimension(G):
    # ideal_dimension as it was before its depth-first search: subsets of
    # the variables from size n down.  Kept as a differential oracle.
    if G.contains_one():
        return -1
    n = len(G.varset)
    supports = [frozenset(i for i, e in enumerate(lm) if e)
                for lm in G.leading_monomials]
    for size in range(n, -1, -1):
        for subset in itertools.combinations(range(n), size):
            if not any(sup <= set(subset) for sup in supports):
                return size
    return -1


def test_ideal_dimension_zero_dimensional_is_fast():
    # the subset scan visited all 2^24 subsets here
    vs = VarSet(tuple(f"x{i}" for i in range(1, 25)))
    gb = GroebnerBasis(tuple(MultiPoly.variable(QQ, vs, v) ** 2 for v in vs.names),
                       Grevlex(), QQ, vs)
    start = time.perf_counter()
    assert ideal_dimension(gb) == 0
    assert time.perf_counter() - start < 1.0


def test_ideal_dimension_matches_subset_scan():
    # monomials are a Groebner basis of the ideal they generate
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randint(1, 10)
        vs = VarSet(tuple(f"x{i}" for i in range(n)))
        gens = tuple(
            MultiPoly(QQ, vs, {tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(n)):
                               QQ.one()})
            for _ in range(rng.randint(0, 2 * n)))
        gb = GroebnerBasis(gens, Grevlex(), QQ, vs)
        assert ideal_dimension(gb) == _subset_scan_dimension(gb)


def test_eliminate_circle_parameterization():
    # x = t^2, y = t^3 implies x^3 = y^2
    vs = VarSet(("t", "x", "y"))
    gens = [parse_poly("x - t^2", QQ, vs), parse_poly("y - t^3", QQ, vs)]
    out = eliminate(gens, {"t"})
    small = VarSet(("x", "y"))
    assert [str(g.varset.names) for g in out]
    gb = buchberger(out, Grevlex())
    assert gb.contains(parse_poly("x^3 - y^2", QQ, small))


def test_eliminate_rejects_unknown_variable():
    with pytest.raises(ValueError):
        eliminate([P("x")], {"w"})


def test_eliminate_of_zero_polynomials_is_empty():
    assert eliminate([MultiPoly.zero(QQ, VS)] * 2, {"x"}) == []


def test_eliminate_nothing_is_the_grevlex_basis():
    gens = [P("x^2 - y"), P("x*y - 1")]
    assert eliminate(gens, set()) == list(buchberger(gens, Grevlex()).generators)


def test_radical_membership():
    gens = [P("x^2")]
    assert radical_membership(P("x"), gens)
    assert not radical_membership(P("y"), gens)
    assert radical_membership(P("x*y"), gens)


def test_radical_membership_renames_its_variable_past_a_taken_name():
    # the Rabinowitsch variable is z_rad unless the varset has one already;
    # were it the varset's own z_rad, z_rad = 0 would put 1 = 1 - z_rad*x
    # in the ideal and pass x
    vs = VarSet(("x", "z_rad"))
    assert not radical_membership(P("x", vs=vs), [P("z_rad", vs=vs)])
    assert radical_membership(P("x*z_rad", vs=vs), [P("x^2", vs=vs)])


def test_groebner_over_fp():
    F5 = Fp(5)
    gens = [parse_poly("x^2 + y", F5, VS), parse_poly("x*y + 3", F5, VS)]
    gb = buchberger(gens, Grevlex())
    assert gb.satisfies_criterion()
    for g in gens:
        assert gb.contains(g)


def test_denominator_logging_captures_input_content():
    log = []
    buchberger([parse_poly("3*x", QQ, VS)], Grevlex(), new_poly_log=log)
    lead_coeffs = [f.leading(Grevlex())[1] for f in log]
    assert any(c % 3 == 0 for c in lead_coeffs)


# ---------------------------------------------------------------------------
# Brute-force oracle: every ideal with <= 2 generators, <= 2 variables,
# degree <= 3 over F_5.  The oracle reduces with a naive repeated scan and
# completes the basis by unoptimized S-pair saturation.


def _oracle_normal_form(f, gens, order):
    ring = f.ring
    work = f
    changed = True
    while changed and not work.is_zero():
        changed = False
        exps = sorted(work.terms, key=order.key, reverse=True)
        for exp in exps:
            for g in gens:
                lm, lc = g.leading(order)
                if all(a <= b for a, b in zip(lm, exp)):
                    shift = tuple(b - a for a, b in zip(lm, exp))
                    c = ring.mul(work.terms[exp], ring.inv(lc))
                    work = work - g.term_mul(shift, c)
                    changed = True
                    break
            if changed:
                break
    return work


def _oracle_groebner(gens, order):
    basis = [g for g in gens if not g.is_zero()]
    while True:
        new = []
        for f, g in itertools.combinations(basis, 2):
            r = _oracle_normal_form(s_polynomial(f, g, order), basis, order)
            if not r.is_zero():
                new.append(r)
        if not new:
            return basis
        basis.append(new[0])


def _staircase(basis, order):
    lms = [g.leading(order)[0] for g in basis if not g.is_zero()]
    mins = []
    for lm in lms:
        if not any(m != lm and all(a <= b for a, b in zip(m, lm))
                   for m in lms):
            mins.append(lm)
    return frozenset(mins)


def _coefficient(ring, k):
    """A nonzero constant for k in 1..4: k itself over F5 and QQ, and k
    written in base p over 1, t in Fp[t]/(f), so 1, 2, t, 1 + t over F9."""
    if isinstance(ring, QuotientRing):
        p = ring.characteristic()
        return ring.coerce((k % p, k // p))
    return ring.from_int(k)


def _random_poly(rng, ring, vs, max_degree):
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        e = tuple(rng.randrange(max_degree + 1) for _ in vs.names)
        if sum(e) > max_degree:
            continue
        terms[e] = _coefficient(ring, rng.randrange(1, 5))
    return MultiPoly(ring, vs, terms)


@pytest.mark.parametrize("ring", [Fp(5), QQ, ring_from_tag("Fp(3)[t]/(t^2+1)")],
                         ids=["F5", "QQ", "F9"])
def test_oracle_equivalence_f5(ring):
    # F5 and F9 run the field kernel (F9 with tuple payloads), QQ the
    # fraction-free kernel, and so does GroebnerBasis.reduce: over QQ it
    # runs _RationalKernel.remainder
    rng = random.Random(20240817)
    order = Grevlex()
    checked = 0
    while checked < 120:
        ngens = rng.randrange(1, 3)
        gens = [_random_poly(rng, ring, VS, 3) for _ in range(ngens)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        # normal form agreement on a random probe polynomial
        probe = _random_poly(rng, ring, VS, 3)
        assert GroebnerBasis(tuple(gens), order, ring, VS).reduce(probe) == \
            _oracle_normal_form(probe, gens, order)
        # identical staircases (the reduced basis is unique, the oracle's
        # basis is not reduced, so compare minimal leading monomials)
        gb = buchberger(gens, order)
        oracle = _oracle_groebner(list(gens), order)
        assert gb.leading_monomials == _staircase(oracle, order)
        for g in gens:
            assert gb.contains(g)
            assert _oracle_normal_form(g, oracle, order).is_zero()
        # the criterion skips coprime pairs and chained pairs; its verdict
        # must still equal the all-pairs check, on the inputs, on the
        # oracle's unreduced basis (which must pass), on that basis without
        # its last added element, and on the reduced basis plus the inputs
        assert GroebnerBasis(tuple(oracle), order, ring, VS).satisfies_criterion()
        for cand in (gens, oracle, oracle[:-1], list(gb.generators) + gens):
            all_pairs = all(
                _oracle_normal_form(s_polynomial(f, g, order), cand, order).is_zero()
                for f, g in itertools.combinations(cand, 2))
            assert GroebnerBasis(tuple(cand), order, ring,
                                 VS).satisfies_criterion() == all_pairs
        checked += 1


def test_elimination_order_agrees_with_lex_intersection():
    # intersection ideal computed two ways on a small example
    vs = VarSet(("t", "x"))
    gens = [parse_poly("x - t^2", QQ, vs)]
    out = eliminate(gens, {"t"})
    assert out == []  # no relation purely in x


# ---------------------------------------------------------------------------
# Differential tests: the divisor index and the bitset pair queue against
# reference copies of the linear scans they replaced, and flat and packed
# order keys against the nested keys they replaced.  The engine's monomials
# are packed ints; the references see them unpacked to exponent tuples.


def _nested_grevlex_key(exp):
    return (sum(exp), tuple(-e for e in reversed(exp)))


def _nested_key(order):
    if isinstance(order, Lex):
        return lambda exp: exp
    if isinstance(order, Elimination):
        b = order.block_size
        return lambda exp: (_nested_grevlex_key(exp[:b]),
                            _nested_grevlex_key(exp[b:]))
    return _nested_grevlex_key


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _linear_divisors(entries, exp, within):
    """The entries in within whose leading monomial divides exp, in list
    order: reduction took the first of them from a linear scan before the
    index.  Monomials are exponent tuples."""
    return [entry for k, entry in enumerate(entries)
            if within >> k & 1 and _divides(entry[0], exp)]


class _Unpacked:
    """Live view of the reducer entries as (leading exponent tuple, entry):
    the packed leading monomial unpacked.  It grows as the entries do."""

    def __init__(self, reducers):
        self.reducers = reducers

    def __len__(self):
        return len(self.reducers.entries)

    def __getitem__(self, k):
        entry = self.reducers.entries[k]
        return self.reducers.pack.unpack(entry[0]), entry


def _set_s_pairs(entries, keyof, weights=None):
    """The pair queue as it was before the index: a set of done pairs and a
    scan over all entries for the chain criterion.  Pairs come by least
    weighted lcm degree (unit weights when None)."""
    heap = []
    done = set()
    queued = 0
    while True:
        for j in range(queued, len(entries)):
            for i in range(j):
                lcm = tuple(map(max, entries[i][0], entries[j][0]))
                wdeg = sum(lcm if weights is None else map(operator.mul, weights, lcm))
                heapq.heappush(heap, (wdeg, keyof(lcm), i, j))
        queued = len(entries)
        if not heap:
            return
        _, _, i, j = heapq.heappop(heap)
        done.add((i, j))
        lmi, lmj = entries[i][0], entries[j][0]
        if not any(a and b for a, b in zip(lmi, lmj)):
            continue
        lcm = tuple(map(max, lmi, lmj))
        if not any(k != i and k != j and _divides(lmk, lcm)
                   and (min(i, k), max(i, k)) in done
                   and (min(j, k), max(j, k)) in done
                   for k, (lmk, *_) in enumerate(entries)):
            yield i, j, lcm


DIFF_RINGS = [Fp(2), Fp(5), QQ, ring_from_tag("Fp(3)[t]/(t^2+1)")]
DIFF_IDS = ["F2", "F5", "QQ", "F9"]
VS4 = VarSet(("w", "x", "y", "z"))


def _random_ideals(ring, seed, count, homogeneous=True):
    """Seeded random ideals in w, x, y, z: 2-4 generators, each homogeneous
    of degree 2 or 3 with 2-4 terms (so rarely the unit ideal), under
    grevlex or an elimination order.  Inhomogeneous ideals have two
    generators, each with one more term of lower degree: with three or more
    the elimination bases often take seconds."""
    rng = random.Random(seed)
    orders = [Grevlex(), Elimination(1), Elimination(2)]
    monomials = {d: degree_monomials(len(VS4), d) for d in (1, 2, 3)}
    for n in range(count):
        gens = []
        for _ in range(rng.randrange(2, 5) if homogeneous else 2):
            d = rng.randrange(2, 4)
            support = rng.sample(monomials[d], rng.randrange(2, 5))
            if not homogeneous:
                support.append(rng.choice(monomials[rng.randrange(1, d)]))
            terms = {e: _coefficient(ring, rng.randrange(1, 5)) for e in support}
            gens.append(MultiPoly(ring, VS4, {e: c for e, c in terms.items()
                                              if not ring.is_zero(c)}))
        yield gens, orders[n % len(orders)]


def _random_weights(rng):
    return tuple(rng.randrange(1, 4) for _ in VS4.names)


@pytest.mark.parametrize("ring", DIFF_RINGS, ids=DIFF_IDS)
def test_first_divisor_matches_linear_scan(ring, monkeypatch):
    divisor_counts = []
    indexed = _Reducers.first_divisor

    def checked(self, exp, within=-1):
        got = indexed(self, exp, within)
        divisors = _linear_divisors(_Unpacked(self), self.pack.unpack(exp), within)
        assert got is (divisors[0][1] if divisors else None)
        divisor_counts.append(len(divisors))
        return got

    monkeypatch.setattr(_Reducers, "first_divisor", checked)
    for gens, order in _random_ideals(ring, 5150, 40):
        gb = buchberger(gens, order)
        GroebnerBasis(gb.generators + tuple(gens), order, ring,
                      VS4).satisfies_criterion()
        gb.reduce(gens[0] * gens[-1])
    # every exponent met while reducing: S-polynomials, interreduction,
    # verification and normal forms; many with a choice of divisor
    assert divisor_counts.count(0) > 300
    assert sum(n > 1 for n in divisor_counts) > 100


@pytest.mark.parametrize("ring", DIFF_RINGS, ids=DIFF_IDS)
def test_s_pairs_match_done_set_queue(ring, monkeypatch):
    yielded = []
    bitset_queue = groebner._s_pairs

    def paired(reducers, weights=None, joined=None):
        reference = _set_s_pairs(_Unpacked(reducers), _nested_key(order), weights)
        for pair in bitset_queue(reducers, weights, joined):
            i, j, lcm = pair
            assert (i, j, reducers.pack.unpack(lcm)) == next(reference)
            yielded.append(pair)
            yield pair
        assert next(reference, None) is None

    monkeypatch.setattr(groebner, "_s_pairs", paired)
    rng = random.Random(5153)
    reordered = 0
    for gens, order in _random_ideals(ring, 5151, 40):
        # buchberger: the queue grows with each nonzero remainder
        gb = buchberger(gens, order)
        # verification: a fixed G, every pair the queue gives
        for G in (gens, list(gb.generators), list(gb.generators) + gens):
            _, reducers = _field_reducer(ring, VS4, order, G)
            runs = []
            for weights in (None, _random_weights(rng)):
                pairs = [(i, j, reducers.pack.unpack(lcm))
                         for i, j, lcm in bitset_queue(reducers, weights)]
                assert pairs == list(_set_s_pairs(_Unpacked(reducers),
                                                  _nested_key(order), weights))
                yielded.extend(pairs)
                runs.append(pairs)
            reordered += runs[0] != runs[1]
    assert len(yielded) > 300
    # the weights do change the pair sequence
    assert reordered > 10


def _counted_queue(order, lms, joins=None, weights=None):
    """The pairs of _s_pairs over entries with leading monomials lms under
    order, checked against _set_s_pairs step by step (after the t-th pair,
    the monomials joins[t] join); with the number of pushes onto the pair
    heap and of candidate pairs.  Every full lcm (degree digits included)
    that the queue makes must be pushed."""
    pack = _Packing(order, len(lms[0]))
    reducers = _Reducers(pack, [(pack.pack(e), 1, []) for e in lms])
    reference = _set_s_pairs(_Unpacked(reducers), _nested_key(order), weights)
    graded, pushed = [], []
    grade = _Packing.graded

    def push(heap, item):
        pushed.append(item[-1])
        heapq.heappush(heap, item)

    def recorded(self, x):
        graded.append(grade(self, x))
        return graded[-1]

    pairs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Packing, "graded", recorded)
        mp.setattr(groebner, "heapq", SimpleNamespace(heappush=push,
                                                      heappop=heapq.heappop))
        for i, j, lcm in groebner._s_pairs(reducers, weights):
            assert (i, j, pack.unpack(lcm)) == next(reference)
            pairs.append((i, j))
            for e in (joins or {}).get(len(pairs), ()):
                reducers.add((pack.pack(e), 1, []))
    assert next(reference, None) is None
    assert graded == pushed
    n = len(reducers.entries)
    return pairs, len(pushed), n * (n - 1) // 2


def _hand_queue(lms, joins=None):
    """The pairs (i, j) of _s_pairs over entries with leading monomials lms
    (exponent tuples in x, y, z, grevlex), checked against _set_s_pairs
    step by step; after the t-th pair, the monomials joins[t] join."""
    return _counted_queue(Grevlex(), lms, joins)[0]


def test_s_pairs_equal_lcm_between_i_and_j():
    # xy, xz, yz: every pair has lcm xyz.  (0, 2) is not chained by k = 1,
    # as (1, 2) comes after it; (1, 2) is chained by k = 0
    assert _hand_queue([(1, 1, 0), (1, 0, 1), (0, 1, 1)]) == [(0, 1), (0, 2)]
    # x^2z, xyz, y^2z: k = 1 chains (0, 2), as lcm(1, 2) = xy^2z != x^2y^2z
    assert _hand_queue([(2, 0, 1), (1, 1, 1), (0, 2, 1)]) == [(1, 2), (0, 1)]
    # xy, z, yz: k = 1 chains (0, 2) although lcm(0, 1) = xyz, as (0, 1)
    # comes first by index
    assert _hand_queue([(1, 1, 0), (0, 0, 1), (0, 1, 1)]) == [(1, 2)]


def test_s_pairs_equal_lcm_after_j():
    # xy, yz, xz: k = 2 does not chain (0, 1), as lcm(0, 2) = xyz comes
    # after it
    assert _hand_queue([(1, 1, 0), (0, 1, 1), (1, 0, 1)]) == [(0, 1), (0, 2)]
    # x^2z, y^2z, xyz: k = 2 chains (0, 1), whose lcm x^2y^2z neither
    # lcm(0, 2) nor lcm(1, 2) reaches
    assert _hand_queue([(2, 0, 1), (0, 2, 1), (1, 1, 1)]) == [(1, 2), (0, 2)]
    # xy, yz, z: k = 2 does not chain (0, 1), as lcm(0, 2) = xyz comes
    # after it, though lcm(1, 2) = yz comes before
    assert _hand_queue([(1, 1, 0), (0, 1, 1), (0, 0, 1)]) == [(1, 2), (0, 1)]


def test_s_pairs_chained_after_the_push():
    # x^2z, y^2z, xz^2: (0, 1) is queued, as nothing chains it; xyz joins
    # after the first pair and chains (0, 1) and (1, 2) before they pop
    lms = [(2, 0, 1), (0, 2, 1), (1, 0, 2)]
    assert _hand_queue(lms) == [(0, 2), (1, 2), (0, 1)]
    assert _hand_queue(lms, {1: [(1, 1, 1)]}) == [(0, 2), (2, 3), (1, 3), (0, 3)]


def test_s_pairs_later_input_chains_at_the_pop():
    # x^2z, y^2z, xyz in one batch: all three pairs are pushed, (0, 1) as
    # no k < 1 chains it; entry 2 > 1 chains it at its pop
    lms = [(2, 0, 1), (0, 2, 1), (1, 1, 1)]
    assert _hand_queue(lms) == [(1, 2), (0, 2)]
    assert _counted_queue(Grevlex(), lms)[1:] == (3, 3)


def test_s_pairs_equal_lcms_go_to_the_lowest_index():
    # x, y, xy: lcm(0, 2) = lcm(1, 2) = xy, so (0, 2) is kept and (1, 2)
    # chained; (0, 1) is coprime
    assert _hand_queue([(1, 0, 0), (0, 1, 0), (1, 1, 0)]) == [(0, 2)]
    # z, xz, xy: (0, 2) is coprime but still wins the tie at xyz over
    # (1, 2), which is not pushed
    assert _hand_queue([(0, 0, 1), (1, 0, 1), (1, 1, 0)]) == [(0, 1)]
    assert _counted_queue(Grevlex(), [(0, 0, 1), (1, 0, 1), (1, 1, 0)])[1:] == (1, 3)


@pytest.mark.parametrize("order", [Lex(), Grevlex(), Elimination(1),
                                   Elimination(2), Elimination(3)],
                         ids=["lex", "grevlex", "elim1", "elim2", "elim3"])
def test_s_pairs_match_done_set_queue_on_random_monomials(order):
    # batches and later joins, repeated and dividing leading monomials and
    # equal lcms, under unit and random weights
    rng = random.Random(5156)
    pushes = candidates = 0
    for _ in range(150):
        def monomial():
            return tuple(rng.randrange(3) for _ in VS4.names)
        lms = [monomial() for _ in range(rng.randrange(2, 9))]
        joins = {t: [monomial() for _ in range(rng.randrange(1, 3))]
                 for t in range(1, 6) if rng.random() < 0.4}
        weights = None if rng.random() < 0.3 else _random_weights(rng)
        _, p, c = _counted_queue(order, lms, joins, weights)
        pushes += p
        candidates += c
    # most candidates are coprime or chained, and get no full lcm
    assert candidates > 3 * pushes > 0


@pytest.mark.parametrize("ring", [QQ, Fp(5), ring_from_tag("Fp(3)[t]/(t^2+1)")],
                         ids=["QQ", "F5", "F9"])
def test_every_basis_element_is_monic(ring):
    # the field kernel converts its final elements without dividing by the
    # leading coefficient: it keeps them monic through interreduction
    for homogeneous in (True, False):
        for gens, order in _random_ideals(ring, 11, 12, homogeneous):
            for g in buchberger(gens, order).generators:
                assert g.leading(order)[1] == ring.one()


def _in_blocks(gens, drop):
    """gens in eliminate's variable order, the dropped variables first; the
    number of those, and the varset of the others."""
    vs = gens[0].varset
    front = [n for n in vs.names if n in drop]
    back = [n for n in vs.names if n not in drop]
    block_vs = VarSet(tuple(front + back),
                      tuple(vs.weights[vs.index(n)] for n in front + back))
    kept_vs = VarSet(tuple(back), tuple(vs.weights[vs.index(n)] for n in back))
    return [g.rename(block_vs) for g in gens], len(front), kept_vs


def _eliminated_part(gens, drop):
    """The generators free of the dropped variables in the full reduced
    basis under the order eliminate uses, restricted to the others: a
    buchberger run at unit weights, which has no front block, so it neither
    takes a graph ideal's weights nor skips a pair."""
    blocked, front, kept_vs = _in_blocks(gens, drop)
    gb = buchberger(blocked, Elimination(front))
    return [g.restrict(kept_vs) for g in gb.generators
            if not any(any(e[:front]) for e in g.terms)]


def _graph_ideal(alpha, n, ring):
    """The graph ideal of image_closure and its source variables."""
    src_vs, coords = alpha.rule(n, ring)
    y_vs = target_varset(alpha.target, n)
    big_vs = VarSet(src_vs.names + y_vs.names, src_vs.weights + y_vs.weights)
    gens = [MultiPoly.variable(ring, big_vs, y) - c.rename(big_vs)
            for y, c in zip(y_vs.names, coords)]
    return gens, set(src_vs.names)


def _counted_to_monic(monkeypatch):
    calls = []
    for kernel in (groebner._RationalKernel, groebner._FieldKernel):
        def counted(self, terms, lm, run=kernel.to_monic):
            calls.append(lm)
            return run(self, terms, lm)
        monkeypatch.setattr(kernel, "to_monic", counted)
    return calls


@pytest.mark.parametrize("ring", DIFF_RINGS, ids=DIFF_IDS)
def test_eliminate_is_the_free_part_of_the_full_basis(ring, monkeypatch):
    # eliminate interreduces and converts only the generators it returns
    calls = _counted_to_monic(monkeypatch)
    rng = random.Random(5157)
    cases = [_graph_ideal(sum_of_powers(m, k), 2, ring)
             for m, k in [(1, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 3)]]
    for gens, _ in _random_ideals(ring, 5158, 12):
        cases.append((gens, {rng.choice(VS4.names)}))
        _random_weights(rng)  # the draw that once chose the run's weights
    smaller = 0
    for gens, drop in cases:
        want = _eliminated_part(gens, drop)
        full = len(calls)
        del calls[:]
        got = eliminate(gens, drop)
        assert got == want
        assert len(calls) == len(got)
        smaller += len(got) < full
        del calls[:]
    # the full bases hold generators in the dropped variables too
    assert smaller >= len(cases) // 2


@pytest.mark.parametrize("order", [Lex(), Grevlex(), Elimination(1),
                                   Elimination(2), Elimination(3)],
                         ids=["lex", "grevlex", "elim1", "elim2", "elim3"])
def test_flat_keys_sort_like_nested_keys(order):
    rng = random.Random(5152)
    nested = _nested_key(order)
    for _ in range(200):
        n = rng.randrange(order.block_size if isinstance(order, Elimination)
                          else 1, 7)
        exps = [tuple(rng.randrange(4) for _ in range(n))
                for _ in range(rng.randrange(2, 30))]
        assert sorted(exps, key=order.key) == sorted(exps, key=nested)
        # the engine's keys on packed monomials
        pack = _Packing(order, n)
        assert sorted(exps, key=lambda e: pack.key(pack.pack(e))) == \
            sorted(exps, key=nested)


# ---------------------------------------------------------------------------
# The Hilbert-driven skip of graph-ideal runs: the numerator against
# standard-monomial counts, the skipped pairs against an unskipped run, and
# the certificate against engines that lose a remainder.


def _minimal(gens):
    gens = set(gens)
    return [g for g in gens if not any(h != g and _divides(h, g) for h in gens)]


def test_hilbert_numerator_matches_standard_monomial_counts():
    # seeded random monomial ideals in 1-4 variables, weights 1-3, at 8- and
    # 16-bit digits: the numerator of the whole ideal, and the one _complete
    # builds a generator b at a time as N(J + b) = N(J) - t^deg(b) N(J : b),
    # where a repeated or divisible generator gives the unit colon ideal
    rng = random.Random(5160)
    top = 8
    units = mixed = 0
    for _ in range(300):
        n = rng.randrange(1, 5)
        w = tuple(rng.randrange(1, 4) for _ in range(n))
        pack = _Packing(Lex(), n, rng.choice((8, 16)))
        degree = pack.degree(w)

        def numerator(gens):
            return groebner._hilbert_numerator(
                [pack.pack(g) for g in _minimal(gens)], pack, degree)

        gens = [tuple(rng.randrange(4) for _ in range(n))
                for _ in range(rng.randrange(8))]
        if gens and rng.randrange(3) == 0:
            gens.append(rng.choice(gens))
        mixed += any(sum(map(bool, g)) > 1 for g in gens)
        built = {0: 1}
        for k, b in enumerate(gens):
            colon = [tuple(x - y if x > y else 0 for x, y in zip(a, b))
                     for a in gens[:k]]
            units += any(not any(c) for c in colon)
            built = groebner._minus_shifted(built, numerator(colon),
                                            degree(pack.pack(b)))
        whole = numerator(gens)
        standard = [0] * (top + 1)
        for m in itertools.product(*(range(top // wv + 1) for wv in w)):
            d = sum(map(operator.mul, m, w))
            if d <= top and not any(_divides(g, m) for g in gens):
                standard[d] += 1
        assert [groebner._hilbert_function(whole, w, d)
                for d in range(top + 1)] == standard
        assert [groebner._hilbert_function(built, w, d)
                for d in range(top + 1)] == standard
    assert units > 100 and mixed > 75


def _logged_reductions(monkeypatch):
    """Events of every Buchberger run from now on: ("pair", i, j, lcm) as
    the queue yields a pair, (nonzero,) as an S-polynomial is reduced."""
    events = []
    queue = groebner._s_pairs

    def logged(reducers, weights=None, joined=None):
        for pair in queue(reducers, weights, joined):
            events.append(("pair",) + pair)
            yield pair

    monkeypatch.setattr(groebner, "_s_pairs", logged)
    for kernel in (groebner._RationalKernel, groebner._FieldKernel):
        def counted(self, terms, reducers, within=-1, run=kernel.reduce):
            r = run(self, terms, reducers, within)
            if within == -1:  # not interreduction
                events.append((bool(r),))
            return r
        monkeypatch.setattr(kernel, "reduce", counted)
    return events


def _pair_outcomes(events):
    """[(i, j, lcm), remainder nonzero, or None when the pair was skipped]."""
    out = []
    for event in events:
        if event[0] == "pair":
            out.append([event[1:], None])
        else:
            out[-1][1] = event[0]
    return out


def _unskipped(gens, drop):
    """eliminate with the skip off: every degree claims an excess over the
    graph ideal's Hilbert function, so every pair the queue yields is
    reduced."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "_hilbert_function", lambda numerator, degrees, d: 1 << 30)
        return eliminate(gens, drop)


def test_graph_ideal_skips_only_zero_reductions(monkeypatch):
    # sop(2,5)@2 over QQ: with the skip off, eliminate reduces every pair;
    # with it on, it skips 349 of the 446 that reduce to zero, and no other
    events = _logged_reductions(monkeypatch)
    gens, drop = _graph_ideal(sum_of_powers(2, 5), 2, QQ)
    want = _eliminated_part(gens, drop)
    del events[:]
    assert _unskipped(gens, drop) == want
    unskipped = _pair_outcomes(events)
    del events[:]
    assert eliminate(gens, drop) == want
    skipped = _pair_outcomes(events)
    assert [p for p, _ in skipped] == [p for p, _ in unskipped]
    assert len(unskipped) == 535 and None not in [r for _, r in unskipped]
    assert [r for _, r in unskipped].count(False) == 446
    assert [r for _, r in skipped].count(None) == 349
    for (_, got), (_, full) in zip(skipped, unskipped):
        assert got == full or (got is None and full is False)


@pytest.mark.parametrize("ring", [QQ, Fp(2), Fp(5), ring_from_tag("Fp(3)[t]/(t^2+1)")],
                         ids=["QQ", "F2", "F5", "F9"])
def test_eliminate_of_seeded_graph_ideals_is_the_free_part(ring, monkeypatch):
    # seeded sum-of-powers graph ideals: eliminate, which skips, keeps the
    # generators free of the source variables in the full basis, which
    # does not
    events = _logged_reductions(monkeypatch)
    rng = random.Random(5161)
    shapes = [(1, 2, 1, 3), (1, 3, 1, 3), (2, 2, 1, 3), (1, 2, 2, 2), (1, 3, 2, 2),
              (2, 3, 1, 2), (3, 2, 1, 2), (2, 4, 1, 2), (1, 5, 1, 2)]
    skips = 0
    for m, k, g, n in rng.sample(shapes, 5):
        gens, drop = _graph_ideal(sum_of_powers(m, k, g), n, ring)
        want = _eliminated_part(gens, drop)
        del events[:]
        assert eliminate(gens, drop) == want
        skips += [r for _, r in _pair_outcomes(events)].count(None)
    assert skips > 50


def test_a_dropped_remainder_fails_the_certificate(monkeypatch):
    # an engine that loses the first nonzero remainder, and every later one
    # with its leading monomial: that monomial of LT(I) never joins J, so
    # HF(S/J) stays above HF(S/I) and the numerators differ at the end
    dropped = []
    run = groebner._RationalKernel.reduce

    def dropping(self, terms, reducers, within=-1):
        r = run(self, terms, reducers, within)
        if r and within == -1 and (not dropped or self.lead(r) == dropped[0]):
            dropped.append(self.lead(r))
            return {}
        return r

    monkeypatch.setattr(groebner._RationalKernel, "reduce", dropping)
    gens, drop = _graph_ideal(sum_of_powers(2, 5), 2, QQ)
    with pytest.raises(AssertionError, match="numerator"):
        eliminate(gens, drop)
    assert dropped


def test_a_staircase_below_the_hilbert_function_raises(monkeypatch):
    # claim N(I) = 1, the zero ideal's: the first pair's lcm already lies in
    # J, so HF(S/J) falls below the claimed HF(S/I) at its degree
    grading = groebner._graph_grading
    monkeypatch.setattr(groebner, "_graph_grading",
                        lambda inputs, front: (grading(inputs, front)[0], {0: 1}))
    gens, drop = _graph_ideal(sum_of_powers(1, 3), 2, QQ)
    with pytest.raises(AssertionError, match="below"):
        eliminate(gens, drop)


@pytest.mark.parametrize("ring", [QQ, Fp(5)], ids=["QQ", "F5"])
def test_graph_ideal_skip_at_16_bit_digits(ring, monkeypatch):
    # exponents past 127 overflow the 8-bit digits at once, so the skip and
    # the certificate run at 16 bits
    events = _logged_reductions(monkeypatch)
    vs = VarSet(("s", "t", "y1", "y2", "y3"))
    gens = [parse_poly(p, ring, vs)
            for p in ("y1 - s^60*t^40", "y2 - t^150", "y3 - s^90*t^60")]
    want = _eliminated_part(gens, {"s", "t"})
    del events[:]
    got = eliminate(gens, {"s", "t"})
    assert got == want and len(got) == 1  # y1^3 - y3^2
    assert [r for _, r in _pair_outcomes(events)].count(None) > 0
