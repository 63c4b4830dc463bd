"""Closed subsets at finite rank: image closures, specialization, symmetry."""

import hashlib
import itertools
import random
from fractions import Fraction
from math import prod

import pytest

from pfcalc import geometry, groebner
from pfcalc.functors import Id, Sym
from pfcalc.geometry import (ClosedSubsetAtRank, NoDependence, PolyTransformation,
                             PrimeVerdict, SizeGuardExceeded,
                             _dense_image, _jacobian_points, _jacobian_rank,
                             cube_sum, default_generator_matrices,
                             dimension_per_prime, equivariance_check,
                             four_squares, good_primes, image_closure,
                             sum_of_powers, target_varset, taylor_directional)
from pfcalc.groebner import (GroebnerBasis, _graph_grading, buchberger, eliminate,
                             ideal_dimension, radical_membership)
from pfcalc.poly import (Grevlex, MultiPoly, VarSet, degree_monomials, format_poly,
                         parse_poly)
from pfcalc.rings import (Fp, ModularIntegers, NotAUnit, QQ, RationalField, ZZ,
                          ring_from_tag)


def test_cube_sum_dimensions_rank2():
    dims = dimension_per_prime(cube_sum, 2, (2, 3, 5))
    assert dims == {0: 4, 2: 4, 3: 2, 5: 4}


def test_cube_sum_closure_f3_is_proper():
    subset = image_closure(cube_sum, 2, Fp(3))
    assert subset.generators
    assert ideal_dimension(subset.gb) == 2


def test_four_squares_f2_linear_codimension_two():
    subset = image_closure(four_squares, 2, Fp(2))
    # ambient Sym(4) at rank 2 has 5 coordinates; the closure is linear of
    # codimension 2, cutting out the span of the three square monomials
    assert len(subset.varset) == 5
    gens = subset.generators
    assert len(gens) == 2
    for g in gens:
        assert g.total_degree() == 1
    assert ideal_dimension(subset.gb) == 3


def test_four_squares_dimension_per_prime():
    dims = dimension_per_prime(four_squares, 2, (2,))
    assert dims[0] == 5
    assert dims[2] == 3


def test_dimension_per_prime_runs_a_repeated_prime_once(monkeypatch):
    fields = []
    own = geometry.image_closure

    def closure(alpha, n, ring, *rest):
        fields.append(ring.tag())
        return own(alpha, n, ring, *rest)

    monkeypatch.setattr(geometry, "image_closure", closure)
    dims = dimension_per_prime(cube_sum, 2, (3, 2, 3))
    assert list(dims.items()) == [(0, 4), (3, 2), (2, 4)]
    assert fields == ["QQ", "Fp(3)", "Fp(2)"]


def test_image_closure_requires_field():
    with pytest.raises(ValueError):
        image_closure(cube_sum, 2, ZZ)


def test_size_guard_refusal(monkeypatch):
    monkeypatch.setattr(geometry, "MAX_VARIABLES", 3)
    with pytest.raises(SizeGuardExceeded):
        image_closure(cube_sum, 2, QQ)


@pytest.mark.parametrize("args,n", [((2, 5), 2), ((4, 2, 2), 2), ((1, 3), 3)])
@pytest.mark.parametrize("ring", [QQ, Fp(7)], ids=str)
def test_sum_of_powers_coordinates_match_evaluation(args, n, ring):
    # at integer points v and x, sum_t coord_t(v) x^t = sum_j q_j(x)^k with
    # q_j(x) = sum_i v_j_i x^(i-th degree-g monomial)
    num_forms, power, g = args if len(args) == 3 else (*args, 1)
    vs, coords = sum_of_powers(*args).rule(n, ring)
    fbasis = degree_monomials(n, g)
    tbasis = degree_monomials(n, power * g)
    assert len(coords) == len(tbasis) and len(vs) == num_forms * len(fbasis)
    rng = random.Random(sum(args) * 10 + n)
    for _ in range(5):
        v = [rng.randrange(-9, 10) for _ in range(len(vs))]
        x = [rng.randrange(-9, 10) for _ in range(n)]

        def mono(e):
            return prod(a ** b for a, b in zip(x, e))

        point = [ring.from_int(a) for a in v]
        lhs = ring.zero()
        for coord, t in zip(coords, tbasis):
            lhs = ring.add(lhs, ring.mul(coord.evaluate(point), ring.from_int(mono(t))))
        rhs = sum(sum(v[j * len(fbasis) + i] * mono(e) for i, e in enumerate(fbasis)) ** power
                  for j in range(num_forms))
        assert lhs == ring.from_int(rhs)


def test_target_varset_weights_match_degree():
    vs = target_varset(cube_sum.target, 2)
    assert set(vs.weights) == {3}
    vs4 = target_varset(four_squares.target, 2)
    assert set(vs4.weights) == {4}


def test_image_closure_generators_weighted_homogeneous():
    for alpha, n, ring in ((cube_sum, 2, Fp(3)), (four_squares, 2, Fp(2)),
                           (sum_of_powers(1, 2), 2, QQ)):
        subset = image_closure(alpha, n, ring)
        for g in subset.generators:
            assert g.is_weighted_homogeneous()


def test_good_primes_3x():
    # <3x> in ZZ[x, y]: mod 3 the generator vanishes and V becomes the plane
    vs = VarSet(("x", "y"))
    report = good_primes([parse_poly("3*x", ZZ, vs)], (2, 3, 5, 7))
    assert report.r % 3 == 0
    flagged = [v.prime for v in report.verdicts if not v.good]
    assert flagged == [3]
    dims = {v.prime: v.dimension for v in report.verdicts}
    assert dims == {2: 1, 3: 2, 5: 1, 7: 1}
    assert report.generic_dimension == 1


# sha256 of the QQ new_poly_log (one format_poly line per entry) and the r
# that good_primes prints, for <3x> and five seeded random ideals.  Every
# logged form and its position enter r, so these values are pinned.
NEW_POLY_LOG_PINS = [
    ("ab586a876ccdf414855f6b395b6125f8fe61c5f44d6311779d6d14aee01e086b", 3),
    ("a0d9c6a1f846cecb1f44e4d640b84b8f6f2201c1272b81f2a9afb73669fe1245", 177147),
    ("6895c6107860a63950a551d62cebf2a6596d3c0aacdf9bc89f054df315a410b1", 18),
    ("844a2f6a45a9b02d20859cf0c8f6549790d4cfb66fa8d4c170d53bf6ffc00215",
     319479999370622926848),
    ("dd82b29900c9b6e4d1b1c3f5559ecdbb95a74805e125b8911abb8ed2ea95a72e",
     819716834902011199488000),
    ("fcf20f64128ab207a41abd3b4505a736395dca2297b23a212721712bd3b98b16", 1062882),
]


def test_new_poly_log_and_r_are_pinned():
    rng = random.Random(7)
    vs = VarSet(("x", "y", "z"))
    ideals = [[parse_poly("3*x", ZZ, VarSet(("x", "y")))]]
    for _ in range(5):
        ideals.append([
            MultiPoly(ZZ, vs, {tuple(rng.randrange(3) for _ in vs.names):
                               rng.choice((-6, -3, -2, -1, 1, 2, 3, 4, 6, 9))
                               for _ in range(rng.randrange(2, 4))})
            for _ in range(rng.randrange(2, 4))])
    got = []
    for gens in ideals:
        log = []
        buchberger([g.map_coefficients(Fraction, QQ) for g in gens], Grevlex(),
                   new_poly_log=log)
        text = "\n".join(format_poly(f) for f in log)
        got.append((hashlib.sha256(text.encode()).hexdigest(),
                    good_primes(gens, (2, 3, 5, 7)).r))
    assert got == NEW_POLY_LOG_PINS


def test_image_closure_basis_is_reduced_grevlex_basis():
    for ring in (QQ, Fp(5), ring_from_tag("Fp(3)[t]/(t^2+1)")):
        subset = image_closure(sum_of_powers(1, 3), 2, ring)
        assert subset.gb.generators == \
            buchberger(list(subset.generators), Grevlex()).generators


ACCEPTANCE_CLOSURES = [(cube_sum, n, Fp(p) if p else QQ)
                       for n in (2, 3) for p in (0, 2, 3, 5)] + \
                      [(four_squares, 2, QQ), (four_squares, 2, Fp(2))]


@pytest.mark.parametrize("alpha,n,ring", ACCEPTANCE_CLOSURES,
                         ids=[f"{a.name}@{n}-{r.tag()}" for a, n, r in ACCEPTANCE_CLOSURES])
def test_jacobian_rank_bounds_closure_dimension(alpha, n, ring):
    # the rank of the Jacobian at any point is a lower bound on the
    # dimension of the image closure in every characteristic; the rank
    # side is linear algebra only, so this checks the Groebner engine
    src_vs, coords = alpha.rule(n, ring)
    ranks = [_jacobian_rank(coords, point, ring)
             for point in _jacobian_points(len(src_vs))]
    assert ideal_dimension(image_closure(alpha, n, ring).gb) >= max(ranks)


# the dense closures of the bench, and one over F25 for quotient-ring payloads
DENSE_CLOSURES = [(sum_of_powers(4, 2, 2), 2, QQ), (sum_of_powers(3, 3), 2, QQ),
                  (sum_of_powers(3, 2), 3, QQ), (cube_sum, 2, QQ)] + \
                 [(cube_sum, 2, Fp(p)) for p in (5, 7, 11, 13, 17)] + \
                 [(cube_sum, 2, ring_from_tag("Fp(5)[t]/(t^2+2)"))]


@pytest.mark.parametrize("alpha,n,ring", DENSE_CLOSURES,
                         ids=[f"{a.name}@{n}-{r.tag()}" for a, n, r in DENSE_CLOSURES])
def test_dense_shortcut_equals_elimination(alpha, n, ring):
    src_vs, coords = alpha.rule(n, ring)
    assert _dense_image(coords, len(src_vs), ring)
    # the closure by elimination of the graph ideal, without the shortcut
    # and with unit weights
    y_vs = target_varset(alpha.target, n)
    big_vs = VarSet(src_vs.names + y_vs.names, src_vs.weights + y_vs.weights)
    graph = [MultiPoly.variable(ring, big_vs, y) - c.rename(big_vs)
             for y, c in zip(y_vs.names, coords)]
    kept = tuple(g.restrict(y_vs) for g in eliminate(graph, set(src_vs.names)))
    expected = ClosedSubsetAtRank(alpha.target, n, ring, y_vs, kept,
                                  GroebnerBasis(kept, Grevlex(), ring, y_vs))
    assert image_closure(alpha, n, ring) == expected


def test_cube_sum_over_f3_falls_through_to_elimination(monkeypatch):
    # cubing is additive in characteristic 3, so the Jacobian vanishes
    # everywhere and the certificate cannot fire
    calls = []

    def counted(G, drop):
        calls.append(drop)
        return eliminate(G, drop)

    monkeypatch.setattr(geometry, "eliminate", counted)
    for n in (2, 3):
        src_vs, coords = cube_sum.rule(n, Fp(3))
        assert all(_jacobian_rank(coords, point, Fp(3)) == 0
                   for point in _jacobian_points(len(src_vs)))
        subset = image_closure(cube_sum, n, Fp(3))
        assert subset.generators
    assert len(calls) == 2


@pytest.mark.parametrize("ring", [QQ, Fp(5)], ids=["QQ", "F5"])
def test_jacobian_rank_one_short_certifies_nothing(ring):
    # sums of two squares of linear forms in 3 variables: 6 coordinates in
    # 6 variables, a Jacobian of rank 5, and a closure cut out by one cubic
    # (the symmetric 3 x 3 matrices of rank at most 2)
    alpha = sum_of_powers(2, 2)
    src_vs, coords = alpha.rule(3, ring)
    assert len(coords) == len(src_vs) == 6
    assert [_jacobian_rank(coords, point, ring)
            for point in _jacobian_points(6)] == [5, 5, 5]
    assert not _dense_image(coords, 6, ring)
    subset = image_closure(alpha, 3, ring)
    assert [g.total_degree() for g in subset.generators] == [3]
    assert ideal_dimension(subset.gb) == 5


def _derived_weights(src_vs, coords):
    """The weights the engine derives for the graph ideal of coords, as
    image_closure hands it to eliminate, or None when it finds none."""
    y_vs = VarSet(tuple(f"y{i + 1}" for i in range(len(coords))))
    big_vs = VarSet(src_vs.names + y_vs.names)
    gens = [MultiPoly.variable(c.ring, big_vs, y) - c.rename(big_vs)
            for y, c in zip(y_vs.names, coords)]
    graph = _graph_grading(gens, len(src_vs))
    return graph and graph[0]


def _graph_weights(src_vs, coords):
    """The weights image_closure once passed to eliminate: 1 for each source
    variable and deg(coord_i) for y_i, 1 for a zero coordinate; None (unit
    weights) when a coordinate is constant or inhomogeneous."""
    ydeg = []
    for coord in coords:
        degs = {sum(e) for e in coord.terms} or {1}
        if len(degs) > 1 or 0 in degs:
            return None
        ydeg.append(degs.pop())
    return (1,) * len(src_vs) + tuple(ydeg)


def test_derived_weights_match_the_graph_weights_of_sums_of_powers():
    # every sum_of_powers(m, k, g) with m <= 4, k <= 5, g <= 2 at ranks 1-3,
    # the variable guard's refusals included, over five fields
    zeros = 0
    for ring in (QQ, Fp(2), Fp(3), Fp(5), ring_from_tag("Fp(3)[t]/(t^2+1)")):
        for m, k, g, n in itertools.product(range(1, 5), range(1, 6), (1, 2),
                                            (1, 2, 3)):
            src_vs, coords = sum_of_powers(m, k, g).rule(n, ring)
            weights = _graph_weights(src_vs, coords)
            assert weights is not None
            assert _derived_weights(src_vs, coords) == weights
            zeros += any(c.is_zero() for c in coords)
    assert zeros > 100


def _two_by_two(third):
    """(v1, v2) |-> (v1^2, v1*v2, third) from Id to Sym(2) at rank 2."""
    def rule(n, ring):
        vs = VarSet(("v1", "v2"))
        return vs, [parse_poly(t, ring, vs) for t in ("v1^2", "v1*v2", third)]

    return PolyTransformation(Id(), Sym(2), f"custom {third}", rule)


@pytest.mark.parametrize("third", ["3", "v2^2 + v1"], ids=["constant", "inhomogeneous"])
@pytest.mark.parametrize("ring", [QQ, Fp(5)], ids=["QQ", "F5"])
def test_no_graph_weights_for_a_constant_or_inhomogeneous_coordinate(
        third, ring, monkeypatch):
    # the engine finds no graph ideal: unit weights, and every pair reduced
    alpha = _two_by_two(third)
    src_vs, coords = alpha.rule(2, ring)
    assert _graph_weights(src_vs, coords) is None
    assert _derived_weights(src_vs, coords) is None
    runs = []
    queue = groebner._s_pairs

    def recorded(reducers, weights=None, joined=None):
        pairs = []
        runs.append((weights, joined, pairs))
        for pair in queue(reducers, weights, joined):
            pairs.append(pair)
            yield pair

    reduced = []
    kernel = groebner._RationalKernel if ring == QQ else groebner._FieldKernel
    spoly = kernel.spoly

    def counted(self, ef, eg, lcm):
        reduced.append(lcm)
        return spoly(self, ef, eg, lcm)

    monkeypatch.setattr(groebner, "_s_pairs", recorded)
    monkeypatch.setattr(kernel, "spoly", counted)
    subset = image_closure(alpha, 2, ring)
    assert subset.generators
    [(weights, joined, pairs)] = runs
    assert weights is None and joined is None
    assert pairs and reduced == [lcm for _, _, lcm in pairs]


def test_graph_weights_give_zero_coordinates_weight_one():
    # over F2 the xyz coefficient 6*v1_1*v1_2*v1_3 + ... of the rank-3
    # cube-sum is zero; it gets weight 1 and the run keeps weighted pairs
    src_vs, coords = cube_sum.rule(3, Fp(2))
    zeros = [i for i, c in enumerate(coords) if c.is_zero()]
    assert len(zeros) == 1
    weights = _derived_weights(src_vs, coords)
    assert weights == (1,) * len(src_vs) + tuple(
        1 if i in zeros else 3 for i in range(len(coords)))


def test_graph_weights_are_coordinate_degrees():
    # four-squares: target_varset weighs y by k*g = 4, but each coordinate
    # has degree k = 2 in the source variables
    src_vs, coords = four_squares.rule(2, QQ)
    assert set(target_varset(four_squares.target, 2).weights) == {4}
    assert _derived_weights(src_vs, coords) == (1,) * len(src_vs) + (2,) * len(coords)


def test_graph_weights_fall_back_to_unit_weights():
    vs = VarSet(("a", "b"))
    homogeneous = parse_poly("a*b", QQ, vs)
    for bad in ("a^2 + b", "3"):
        coords = [homogeneous, parse_poly(bad, QQ, vs)]
        assert _derived_weights(vs, coords) is None
    assert _derived_weights(vs, [homogeneous]) == (1, 1, 2)


def _vanishing(f, gens, primes):
    """{p: does f vanish on V(gens)?} over QQ (p = 0) and each F_p, for f
    and gens over ZZ: radical membership after reducing the coefficients."""
    out = {}
    for p in (0, *primes):
        field = Fp(p) if p else QQ
        f_p, *gens_p = (g.map_coefficients(field.coerce, field) for g in (f, *gens))
        out[p] = radical_membership(f_p, gens_p)
    return out


def test_vanishing_transfer_3x():
    vs = VarSet(("x", "y"))
    gens = [parse_poly("3*x", ZZ, vs)]
    out = _vanishing(parse_poly("x", ZZ, vs), gens, (2, 3, 5))
    assert out == {0: True, 2: True, 3: False, 5: True}


def test_good_primes_requires_integral_input():
    vs = VarSet(("x",))
    with pytest.raises(ValueError):
        good_primes([parse_poly("x", QQ, vs)], (2,))


def _random_integral_ideal(rng):
    nvars = rng.randrange(1, 4)
    vs = VarSet(tuple(f"x{i + 1}" for i in range(nvars)))
    gens = []
    for _ in range(rng.randrange(1, 4)):
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            e = tuple(rng.randrange(4) for _ in range(nvars))
            if sum(e) > 3:
                continue
            terms[e] = rng.randrange(-6, 7) or 1
        if terms:
            gens.append(MultiPoly(ZZ, vs, terms))
    return vs, gens


def test_good_primes_random_ideals_verified_from_scratch():
    rng = random.Random(424242)
    order = Grevlex()
    checked = 0
    while checked < 20:
        vs, gens = _random_integral_ideal(rng)
        if not gens:
            continue
        report = good_primes(gens, (2, 3, 5, 7))
        for v in report.verdicts:
            if not v.good:
                continue
            ring_p = Fp(v.prime)
            gens_p = [g.map_coefficients(lambda c: c % v.prime, ring_p)
                      for g in gens]
            gens_p = [g for g in gens_p if not g.is_zero()]
            if gens_p:
                gb_p = buchberger(gens_p, order)
                stairs = gb_p.leading_monomials
                assert ideal_dimension(gb_p) == v.dimension
            else:
                stairs = frozenset()
                assert v.dimension == len(vs)
            generic_stairs = frozenset(
                f.leading(order)[0] for f in report.generic_basis)
            assert stairs == generic_stairs
        checked += 1


def _per_prime_verdicts(gens, report, primes):
    """good_primes' verdicts with every prime away from r checked alone,
    over F_p on its own pair queue: the reference for the batched check."""
    order = Grevlex()
    vs = gens[0].varset
    stairs = frozenset(f.leading(order)[0] for f in report.generic_basis)
    out = []
    for p in primes:
        ring_p = Fp(p)
        inputs_p = [f for f in (g.map_coefficients(ring_p.coerce, ring_p)
                                for g in gens) if not f.is_zero()]
        if report.r % p:
            gb_p = GroebnerBasis(tuple(f.map_coefficients(ring_p.coerce, ring_p)
                                       for f in report.generic_basis),
                                 order, ring_p, vs)
            if (gb_p.satisfies_criterion()
                    and all(gb_p.contains(f) for f in inputs_p)
                    and gb_p.leading_monomials == stairs):
                out.append(PrimeVerdict(p, True, report.generic_dimension, False))
                continue
        if inputs_p:
            gb_p = buchberger(inputs_p, order)
            out.append(PrimeVerdict(p, gb_p.leading_monomials == stairs,
                                    ideal_dimension(gb_p), True))
        else:
            out.append(PrimeVerdict(p, not stairs, len(vs), True))
    return out


def test_batched_good_primes_match_a_per_prime_loop():
    # unsorted, with repeats: verdicts come in this order, one per entry
    primes = (7, 2, 3, 5, 3, 11, 13, 2, 97, 89, 31)
    rng = random.Random(2718)
    checked = recomputed = 0
    while checked < 25:
        vs, gens = _random_integral_ideal(rng)
        if not gens:
            continue
        report = good_primes(gens, primes)
        assert list(report.verdicts) == _per_prime_verdicts(gens, report, primes)
        recomputed += sum(v.recomputed for v in report.verdicts)
        checked += 1
    assert recomputed  # some primes divide r


def test_good_primes_recomputes_a_repeated_prime_once(monkeypatch):
    # 3 divides r, so it is recomputed over F_3: one buchberger call for the
    # generic run and one for the prime, however often it is listed
    vs = VarSet(("x", "y"))
    gens = [parse_poly("3*x + y", ZZ, vs), parse_poly("2*x*y + y^2", ZZ, vs)]
    calls = []
    own = geometry.buchberger

    def spy(*args, **kwargs):
        calls.append(args)
        return own(*args, **kwargs)

    monkeypatch.setattr(geometry, "buchberger", spy)
    report = good_primes(gens, (3, 3, 3, 3))
    assert report.r % 3 == 0
    assert len(calls) == 2
    assert len(report.verdicts) == 4
    assert report.verdicts[0].recomputed
    assert all(v == report.verdicts[0] for v in report.verdicts)


def _staircase(basis):
    return frozenset(f.leading(Grevlex())[0] for f in basis)


def test_certified_primes_split_on_a_leading_coefficient_that_is_no_unit(monkeypatch):
    # <3x + y> is its own cleared basis, so 3 divides r and is no unit mod
    # 2*3*5*7: the batch splits until 3 is alone, where the staircase
    # changes ({y}, not {x})
    vs = VarSet(("x", "y"))
    gens = [parse_poly("3*x + y", ZZ, vs)]
    report = good_primes(gens, (2, 3, 5, 7))
    assert report.r % 3 == 0
    assert list(report.verdicts) == [
        PrimeVerdict(2, True, 1, False), PrimeVerdict(3, False, 1, True),
        PrimeVerdict(5, True, 1, False), PrimeVerdict(7, True, 1, False)]
    m = ModularIntegers((2, 3, 5, 7))
    gb_m = GroebnerBasis(tuple(f.map_coefficients(m.coerce, m)
                               for f in report.generic_basis), Grevlex(), m, vs)
    with pytest.raises(NotAUnit):
        gb_m.satisfies_criterion()
    calls = []
    own = geometry._certified_primes

    def spy(primes, *args):
        calls.append(list(primes))
        return own(primes, *args)

    monkeypatch.setattr(geometry, "_certified_primes", spy)
    stairs = _staircase(report.generic_basis)
    assert geometry._certified_primes([2, 3, 5, 7], report.generic_basis, gens,
                                      stairs) == {2, 5, 7}
    assert calls == [[2, 3, 5, 7], [2, 3], [2], [3], [5, 7]]
    assert own([2, 5, 7], report.generic_basis, gens, stairs) == {2, 5, 7}


def test_certified_primes_split_on_a_failed_criterion(monkeypatch):
    # {x^2, xy + 3y^2} is a Groebner basis mod 3 alone: its one S-pair
    # leaves 9y^3.  Every leading coefficient is 1, so each batch fails on
    # the criterion, and every half, a single prime too, is checked over
    # ZZ/mZ on its own queue
    vs = VarSet(("x", "y"))
    gens = [parse_poly("x^2", ZZ, vs), parse_poly("x*y + 3*y^2", ZZ, vs)]
    cleared = [g.map_coefficients(QQ.coerce, QQ) for g in gens]
    checked = []
    own = GroebnerBasis.satisfies_criterion

    def satisfies(self):
        got = own(self)
        checked.append((self.ring, got))
        return got

    monkeypatch.setattr(GroebnerBasis, "satisfies_criterion", satisfies)
    assert geometry._certified_primes([2, 3, 5, 7], cleared, gens,
                                      _staircase(cleared)) == {3}
    assert checked == [(ModularIntegers(primes), primes == (3,)) for primes in
                       [(2, 3, 5, 7), (2, 3), (2,), (3,), (5, 7), (5,), (7,)]]


def test_vanishing_transfer():
    vs = VarSet(("x", "y"))
    gens = [parse_poly("x^2", ZZ, vs)]
    out = _vanishing(parse_poly("x", ZZ, vs), gens, (2, 3))
    assert out == {0: True, 2: True, 3: True}
    out2 = _vanishing(parse_poly("y", ZZ, vs), gens, (2,))
    assert out2 == {0: False, 2: False}


def test_vanishing_transfer_detects_modular_collapse():
    # 2x vanishes on V(x) over QQ and everywhere over F_2
    vs = VarSet(("x",))
    gens = [parse_poly("x", ZZ, vs)]
    out = _vanishing(parse_poly("2*x", ZZ, vs), gens, (2, 3))
    assert out == {0: True, 2: True, 3: True}


def test_equivariance_of_image_closures(monkeypatch):
    # closure ideals are prime and stable, so every moved generator is a
    # member of I: the check passes without one Rabinowitsch run, and each
    # membership verdict equals the radical_membership verdict
    rabinowitsch = []
    monkeypatch.setattr(geometry, "radical_membership",
                        lambda f, G: rabinowitsch.append(f) or radical_membership(f, G))
    verdicts = []
    contains = GroebnerBasis.contains

    def recorded(gb, f):
        verdict = contains(gb, f)
        verdicts.append((gb, f, verdict))
        return verdict

    monkeypatch.setattr(GroebnerBasis, "contains", recorded)
    # and seeded sums of powers (m forms, k-th powers, rank n) whose
    # closures have generators: two over QQ, one over a small F_p
    rng = random.Random(2611)
    shapes = rng.sample([(1, 2, 3), (1, 3, 2), (1, 4, 2), (2, 2, 3)], 3)
    fields = (QQ, QQ, Fp(rng.choice((2, 5, 7))))
    seeded = tuple((sum_of_powers(m, k), n, field)
                   for (m, k, n), field in zip(shapes, fields))
    for alpha, n, ring in ((cube_sum, 2, QQ), (cube_sum, 2, Fp(3)),
                           (sum_of_powers(1, 3), 3, QQ)) + seeded:
        subset = image_closure(alpha, n, ring)
        verdicts.clear()
        assert equivariance_check(subset)
        assert rabinowitsch == []
        assert bool(verdicts) == bool(subset.generators)
        for gb, f, verdict in verdicts:
            assert gb is subset.gb
            assert verdict == radical_membership(f, subset.generators)


def test_equivariance_over_QQ_runs_in_integers(monkeypatch):
    # the generators are moved in their integer-primitive forms over ZZ and
    # tested by the fraction-free QQ kernel: no product goes through QQ
    # and no reduction through the field kernel
    subsets = [image_closure(alpha, n, QQ)
               for alpha, n in ((cube_sum, 2), (sum_of_powers(1, 3), 3))]
    control = image_closure(sum_of_powers(1, 3), 3, Fp(5))
    calls = []

    def counting(name, own):
        def counted(*args):
            calls.append(name)
            return own(*args)
        return counted

    monkeypatch.setattr(RationalField, "mul", counting("mul", RationalField.mul))
    monkeypatch.setattr(groebner._FieldKernel, "reduce",
                        counting("reduce", groebner._FieldKernel.reduce))
    for subset in subsets:
        assert equivariance_check(subset)
    assert calls == []
    # the counters see the field kernel of a closure over F_p
    assert equivariance_check(control)
    assert "reduce" in calls and "mul" not in calls


def _closed_subset(target, n, gens):
    """The closed subset of target at rank n cut out by gens, over their ring."""
    return ClosedSubsetAtRank(target, n, gens[0].ring, gens[0].varset, tuple(gens),
                              buchberger(gens, Grevlex()))


def test_equivariance_detects_asymmetric_ideal():
    vs = target_varset(Sym(3), 2)
    gens = [parse_poly("y1", QQ, vs)]
    assert not equivariance_check(_closed_subset(Sym(3), 2, gens))


def test_equivariance_falls_back_to_the_radical():
    # <y1^2, y2> is not radical: the swap moves y2 to y1, which lies in
    # rad I = <y1, y2> but not in I, so only the Rabinowitsch run passes it
    vs = target_varset(Sym(1), 2)
    gens = [parse_poly(t, QQ, vs) for t in ("y1^2", "y2")]
    subset = _closed_subset(Sym(1), 2, gens)
    assert not subset.gb.contains(parse_poly("y1", QQ, vs))
    assert equivariance_check(subset)


def _generators_with_every_idempotent(n, ring):
    """default_generator_matrices with its one idempotent diag(1, ..., 1, 0)
    replaced by every diagonal 0/1 matrix but I, as it once was."""
    one = [[[int(i == j < n - 1) for j in range(n)] for i in range(n)]] if n else []
    mats = default_generator_matrices(n, ring)
    assert mats[len(mats) - len(one):] == one
    return mats[:len(mats) - len(one)] + [
        [[bits[i] if i == j else 0 for j in range(n)] for i in range(n)]
        for bits in itertools.product((0, 1), repeat=n) if not all(bits)]


def _asymmetric():
    vs = target_varset(Sym(3), 2)
    return _closed_subset(Sym(3), 2, [parse_poly("y1", QQ, vs)])


def _not_radical():
    vs = target_varset(Sym(1), 2)
    return _closed_subset(Sym(1), 2, [parse_poly(t, QQ, vs) for t in ("y1^2", "y2")])


def _unstable_under_idempotents_alone():
    # f = y1^3*y2 - y1*y2^3 is the product of the lines of F_3^2, which
    # GL_2(F_3) permutes, so it moves f to det(g)*f and f^2 - 1 to itself;
    # diag(1, 0) moves f^2 - 1 to -1
    vs = target_varset(Id(), 2)
    return _closed_subset(Id(), 2, [parse_poly("(y1^3*y2 - y1*y2^3)^2 - 1", Fp(3), vs)])


_VERDICT_CASES = pytest.mark.parametrize("subset,stable", [
    (lambda: image_closure(cube_sum, 2, QQ), True),
    (lambda: image_closure(cube_sum, 2, Fp(3)), True),
    (lambda: image_closure(sum_of_powers(1, 3), 3, QQ), True),
    (_not_radical, True),
    (_asymmetric, False),
    (_unstable_under_idempotents_alone, False),
], ids=["cube-sum-QQ", "cube-sum-F3", "sop-1-3-QQ", "not-radical", "asymmetric",
        "idempotents-alone"])


@_VERDICT_CASES
def test_one_idempotent_gives_the_verdict_of_every_idempotent(subset, stable, monkeypatch):
    subset = subset()
    assert equivariance_check(subset) == stable
    monkeypatch.setattr(geometry, "default_generator_matrices",
                        _generators_with_every_idempotent)
    assert equivariance_check(subset) == stable


@pytest.mark.parametrize("ring", [QQ, Fp(3), Fp(2)], ids=str)
def test_generator_matrices_are_at_most_five(ring):
    # (1 2), the n-cycle from rank 3, I + E_12, diag(2, 1, ...) outside
    # characteristic 2 and the idempotent last: 0, 2, 4, 5 over QQ, where
    # every transposition, transvection and scaling made 0, 2, 6, 13
    scaling = ring.characteristic() != 2
    assert default_generator_matrices(0, ring) == []
    assert default_generator_matrices(1, ring) == [[[2]]] * scaling + [[[0]]]
    assert default_generator_matrices(2, ring) == [
        [[0, 1], [1, 0]], [[1, 1], [0, 1]]] + [[[2, 0], [0, 1]]] * scaling + [
        [[1, 0], [0, 0]]]
    assert default_generator_matrices(3, ring) == [
        [[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        [[1, 1, 0], [0, 1, 0], [0, 0, 1]]] + [
        [[2, 0, 0], [0, 1, 0], [0, 0, 1]]] * scaling + [
        [[1, 0, 0], [0, 1, 0], [0, 0, 0]]]
    for n in range(8):
        mats = default_generator_matrices(n, ring)
        assert len(mats) == min(n, 3) + (n >= 2) + scaling * (n > 0) <= 5
        # _generators_with_every_idempotent asserts the idempotent is last
        assert len(_generators_with_every_idempotent(n, ring)) == \
            len(mats) - (n > 0) + 2 ** n - 1


def _quadratic_generator_matrices(n, ring):
    """The set default_generator_matrices gave before it was cut to five:
    every transposition, every transvection I + E_ij, a scaling by 2 in
    each place outside characteristic 2, and diag(1, ..., 1, 0) last."""
    def ident():
        return [[int(i == j) for j in range(n)] for i in range(n)]

    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            m = ident()
            m[i][i] = m[j][j] = 0
            m[i][j] = m[j][i] = 1
            mats.append(m)
    for i in range(n):
        for j in range(n):
            if i != j:
                m = ident()
                m[i][j] = 1
                mats.append(m)
    if ring.characteristic() != 2:
        for i in range(n):
            m = ident()
            m[i][i] = 2
            mats.append(m)
    if n:
        m = ident()
        m[n - 1][n - 1] = 0
        mats.append(m)
    return mats


def _matmul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
                 for row in a)


def _frozen(m):
    return tuple(map(tuple, m))


@pytest.mark.parametrize("ring", [QQ, Fp(2)], ids=str)
@pytest.mark.parametrize("n", range(1, 7))
def test_generator_matrices_generate_the_monoid_of_the_quadratic_set(ring, n):
    new = [_frozen(m) for m in default_generator_matrices(n, ring)]
    old = [_frozen(m) for m in _quadratic_generator_matrices(n, ring)]
    ident = _frozen([[int(i == j) for j in range(n)] for i in range(n)])
    # the swap and the cycle (the swap alone at rank 2) spell every P_s:
    # breadth first over words in them, by integer products
    perms = new[:min(n - 1, 2)]
    # permutation matrices, so the search below stays inside S_n and ends
    assert all(sorted(map(sorted, p)) == sorted(map(sorted, ident)) ==
               sorted(map(sorted, zip(*p))) for p in perms)
    group, frontier = {ident}, [ident]
    while frontier:
        frontier = [q for q in {_matmul(p, s) for p in frontier for s in perms}
                    if q not in group]
        group.update(frontier)
    assert len(group) == prod(range(1, n + 1))

    def inverse(p):
        # P_s^(ord - 1), a positive word for P_s^-1
        power, last = p, ident
        while power != ident:
            power, last = _matmul(power, p), power
        assert _matmul(last, p) == ident
        return last

    words = group | {_matmul(_matmul(p, x), inverse(p))
                     for p in group for x in new[len(perms):]}
    assert set(old) <= words
    # and the cycle is a word in the old transpositions:
    # (n-1 n) ... (2 3)(1 2)
    product = ident
    for i in reversed(range(n - 1)):
        product = _matmul(product, old[i * n - i * (i + 1) // 2])
    assert (n < 3 or new[1] == product) and new[0] in old


def _seeded_verdict_cases(seed):
    """Closed subsets at ranks 1-4 over QQ, F2, F3 and F9, from a seed, each
    with the verdict it must have or None.  An image closure of a sum of
    powers is stable, and with one seeded form added it mostly is not.
    Where the closure is everything, a power of the maximal ideal is
    stable, and the form plus 1 cuts out a hypersurface off the origin,
    which diag(1, ..., 1, 0) or the scaling moves."""
    rng = random.Random(seed)
    cases = []
    for ring in (QQ, Fp(2), Fp(3), ring_from_tag("Fp(3)[t]/(t^2+1)")):
        for n in range(1, 5):
            m, k = rng.choice([(1, 2), (2, 2)] + [(1, 3), (1, 4)] * (n < 4))
            closure = image_closure(sum_of_powers(m, k), n, ring)
            vs = closure.varset
            monos = degree_monomials(len(vs.names), rng.randrange(1, 3))
            form = MultiPoly(ring, vs, {x: ring.from_int(rng.choice((1, -1)))
                                        for x in rng.sample(monos, min(2, len(monos)))})
            if closure.generators:
                stable = list(closure.generators)
                moved = stable + [form]
            else:
                e = rng.randrange(1, 3)
                stable = [MultiPoly(ring, vs, {x: ring.one()})
                          for x in degree_monomials(len(vs.names), e)]
                moved = [form + MultiPoly(ring, vs, {(0,) * len(vs.names): ring.one()})]
            cases.append((_closed_subset(closure.functor, n, stable), True))
            cases.append((_closed_subset(closure.functor, n, moved), None))
    return cases


@_VERDICT_CASES
def test_five_matrices_give_the_verdict_of_the_quadratic_set(subset, stable, monkeypatch):
    subset = subset()
    assert equivariance_check(subset) == stable
    monkeypatch.setattr(geometry, "default_generator_matrices",
                        _quadratic_generator_matrices)
    assert equivariance_check(subset) == stable


@pytest.mark.parametrize("seed", [3101, 3102])
def test_five_matrices_give_the_verdict_of_the_quadratic_set_on_seeded_ideals(
        seed, monkeypatch):
    cases = _seeded_verdict_cases(seed)
    five = [equivariance_check(subset) for subset, _ in cases]
    monkeypatch.setattr(geometry, "default_generator_matrices",
                        _quadratic_generator_matrices)
    quadratic = [equivariance_check(subset) for subset, _ in cases]
    assert five == quadratic
    assert all(verdict for verdict, (_, stable) in zip(five, cases) if stable)
    assert five.count(False) >= len(cases) // 4


def test_taylor_char_zero_derivative():
    vs = VarSet(("x1", "x2"))
    f = parse_poly("x1^2*x2", QQ, vs)
    e, hs = taylor_directional(f, 2, 0)
    assert e == 0
    assert hs[0] == parse_poly("2*x1*x2", QQ, vs)
    assert hs[1] == parse_poly("x1^2", QQ, vs)


def test_taylor_frobenius_power():
    for p in (2, 3, 5):
        vs = VarSet(("x",))
        f = parse_poly(f"x^{p}", Fp(p), vs)
        e, hs = taylor_directional(f, 1, p)
        assert e == 1
        assert hs[0] == parse_poly("1", Fp(p), vs)


def test_taylor_random_char_zero(seed=99):
    rng = random.Random(seed)
    vs = VarSet(("x1", "x2", "x3"))
    for _ in range(50):
        d = rng.randrange(1, 4)
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            cut1 = rng.randrange(d + 1)
            cut2 = rng.randrange(d - cut1 + 1)
            e = (cut1, cut2, d - cut1 - cut2)
            terms[e] = QQ.from_int(rng.randrange(1, 5))
        f = MultiPoly(QQ, vs, terms)
        try:
            e_exp, hs = taylor_directional(f, 2, 0)
        except NoDependence:
            assert not any(e[0] or e[1] for e in f.terms)
            continue
        assert e_exp == 0
        # h_i is the partial derivative with respect to variable i
        for i in range(2):
            expected = {}
            for e, c in f.terms.items():
                if e[i]:
                    e2 = list(e)
                    e2[i] -= 1
                    key = tuple(e2)
                    expected[key] = expected.get(key, 0) + c * e[i]
            expected = {k: v for k, v in expected.items() if v}
            assert hs[i].terms == expected


def test_taylor_rejects_inhomogeneous():
    vs = VarSet(("x",))
    with pytest.raises(ValueError):
        taylor_directional(parse_poly("x^2 + x", QQ, vs), 1, 0)


def test_taylor_no_dependence():
    vs = VarSet(("x", "y"))
    with pytest.raises(NoDependence):
        taylor_directional(parse_poly("y^2", QQ, vs), 1, 0)
