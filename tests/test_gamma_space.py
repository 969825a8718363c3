import hashlib
import inspect
import math
import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import compress

import pytest

from absarith import gamma_space
from absarith.arakelov import ArakelovDivisor, Lattice1, ScaleValue, count_xi_over_L, degree_scale, lattice_of, principal
from absarith.combinat import delannoy, delannoy_table
from absarith.errors import BUDGETS, CapExceeded, SelfCheckFailed
from absarith.gamma_space import (
    GSConfig,
    _index_face_is_zero,
    _last_face_table,
    GSElement,
    degeneracy,
    face,
    face_incidence,
    higher_pi_trivial,
    member,
    pi0_cardinality_k1,
    pi0_trivial_predicate,
    pi1_count,
    pi1_radius,
    pi1_spherical_enumerate,
    zero_element,
)
from absarith.packing import circle_distance, packing_number
from combinat_oracles import iter_l1_ball
from gamma_space_oracles import (
    _byte_draws,
    _certificate_per_draw,
    _coordinate_values,
    _draw_nonzero_indices,
    _element_from_indices,
    _face0_vanishes,
    _indices_are_member,
    _members,
)


def _cfg(lam, c=Fraction(1)):
    return GSConfig(Lattice1(Fraction(c)), ScaleValue.exact_exp(Fraction(lam)))


def _exp_divisor(r):
    return ArakelovDivisor.make({}, ScaleValue.exact_exp(Fraction(r)))


def _rand_vec(rng, k, scale):
    return tuple(scale * Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(k))


def _rand_element(rng, cfg, n, k):
    lam = Fraction(cfg.lam)
    scale = lam / (12 * max(n, 1) * k) if lam else Fraction(0)
    free = tuple(_rand_vec(rng, k, scale) for _ in range(n))
    torus = tuple(cfg.lattice.generator * Fraction(rng.randint(0, 7), 8) for _ in range(k))
    e = GSElement(k, free, torus)
    assert member(cfg, e)
    return e


def test_member_examples():
    cfg = _cfg(Fraction(3, 2))
    assert member(cfg, zero_element(cfg, 2, 1))
    boundary_elt = GSElement(1, ((Fraction(3, 2),), (Fraction(0),)), (Fraction(0),))
    assert member(cfg, boundary_elt)  # inclusive at the norm budget
    lam = Fraction(3, 2)
    too_big = GSElement(
        2,
        ((lam / 2, Fraction(0)), (Fraction(0), 3 * lam / 4), (Fraction(0), Fraction(0))),
        (Fraction(0), Fraction(0)),
    )
    assert not member(cfg, too_big)


def test_member_checks_torus_range():
    cfg = _cfg(1)
    bad = GSElement(1, (), (Fraction(3, 2),))
    assert not member(cfg, bad)


def test_face_level1():
    cfg = _cfg(2)
    e = GSElement(1, ((Fraction(5, 4),),), (Fraction(1, 2),))
    assert face(cfg, 0, e) == GSElement(1, (), (Fraction(1, 2),))
    # 5/4 + 1/2 = 7/4 reduces mod 1 to 3/4
    assert face(cfg, 1, e) == GSElement(1, (), (Fraction(3, 4),))


def test_face_degree3_table():
    # the four faces of (psi1, psi2, psi3 | torus) merge adjacent entries
    cfg = _cfg(10)
    p1, p2, p3 = Fraction(1), Fraction(2), Fraction(3)
    t = Fraction(1, 4)
    e = GSElement(1, ((p1,), (p2,), (p3,)), (t,))
    assert face(cfg, 0, e).free == ((p2,), (p3,)) and face(cfg, 0, e).torus == (t,)
    assert face(cfg, 1, e).free == ((p1 + p2,), (p3,))
    assert face(cfg, 2, e).free == ((p1,), (p2 + p3,))
    f3 = face(cfg, 3, e)
    assert f3.free == ((p1,), (p2,)) and f3.torus == ((p3 + t) % 1,)


def test_face_indices_validated():
    cfg = _cfg(1)
    e = zero_element(cfg, 2, 1)
    with pytest.raises(ValueError):
        face(cfg, 3, e)
    with pytest.raises(ValueError):
        face(cfg, 0, zero_element(cfg, 0, 1))
    with pytest.raises(ValueError):
        degeneracy(cfg, 3, e)


def test_degeneracy_examples():
    cfg = _cfg(1)
    e0 = GSElement(2, (), (Fraction(1, 2), Fraction(1, 3)))
    s0 = degeneracy(cfg, 0, e0)
    assert s0.free == ((Fraction(0), Fraction(0)),) and s0.torus == e0.torus
    rng = random.Random(91)
    for _ in range(60):
        n, k = rng.randint(0, 4), rng.randint(1, 2)
        e = _rand_element(rng, cfg, n, k)
        for j in range(n + 1):
            assert face(cfg, j, degeneracy(cfg, j, e)) == e
            assert face(cfg, j + 1, degeneracy(cfg, j, e)) == e


def test_simplicial_identities_random():
    rng = random.Random(93)
    cfg = _cfg(Fraction(7, 3), Fraction(1, 2))
    for _ in range(100):
        n, k = rng.randint(2, 4), rng.randint(1, 2)
        e = _rand_element(rng, cfg, n, k)
        for j in range(1, n + 1):
            for i in range(j):
                assert face(cfg, i, face(cfg, j, e)) == face(cfg, j - 1, face(cfg, i, e))
        for j in range(n + 1):
            for i in range(j + 1):
                assert degeneracy(cfg, i, degeneracy(cfg, j, e)) == degeneracy(cfg, j + 1, degeneracy(cfg, i, e))
        for j in range(n + 1):
            for i in range(n + 2):
                sje = degeneracy(cfg, j, e)
                if i < j:
                    assert face(cfg, i, sje) == degeneracy(cfg, j - 1, face(cfg, i, e))
                elif i > j + 1:
                    assert face(cfg, i, sje) == degeneracy(cfg, j, face(cfg, i - 1, e))


def test_structure_maps_preserve_membership():
    rng = random.Random(95)
    cfg = _cfg(Fraction(5, 4), Fraction(1, 3))
    for _ in range(200):
        n, k = rng.randint(1, 3), rng.randint(1, 2)
        e = _rand_element(rng, cfg, n, k)
        for j in range(n + 1):
            assert member(cfg, face(cfg, j, e))
            assert member(cfg, degeneracy(cfg, j, e))


def test_structure_maps_preserve_membership_exhaustive_grid():
    # every member on a small rational grid, all faces and degeneracies
    import itertools

    cfg = _cfg(1)
    grid = (Fraction(-1, 2), Fraction(0), Fraction(1, 2))
    torus_grid = (Fraction(0), Fraction(1, 2))
    checked = 0
    for n in (1, 2, 3):
        for k in (1, 2):
            for flat in itertools.product(grid, repeat=n * k):
                free = tuple(tuple(flat[i * k : (i + 1) * k]) for i in range(n))
                for torus in itertools.product(torus_grid, repeat=k):
                    e = GSElement(k, free, torus)
                    if not member(cfg, e):
                        continue
                    checked += 1
                    for j in range(n + 1):
                        assert member(cfg, face(cfg, j, e))
                        assert member(cfg, degeneracy(cfg, j, e))
    assert checked > 500


def test_face_matches_incidence():
    # the symbolic incidence used by the triviality certificate describes face()
    rng = random.Random(97)
    cfg = _cfg(3, Fraction(2, 3))
    for _ in range(50):
        n, k = rng.randint(2, 5), rng.randint(1, 2)
        e = _rand_element(rng, cfg, n, k)
        for j in range(n + 1):
            rows, torus_merge = face_incidence(n, j)
            out = face(cfg, j, e)
            for i, sources in enumerate(rows):
                expected = tuple(
                    sum(e.free[s - 1][coord] for s in sources) for coord in range(k)
                )
                assert out.free[i] == expected
            if torus_merge:
                merged = tuple(
                    (e.free[torus_merge[0] - 1][coord] + e.torus[coord]) % cfg.lattice.generator
                    for coord in range(k)
                )
                assert out.torus == merged
            else:
                assert out.torus == e.torus


def test_face_incidence_matches_dold_kan_dual():
    # the divisor space and the finite engine share one simplicial backbone:
    # the incidence of the j-th face equals the fibres of the dual pair map
    from absarith.dold_kan import coface, dual_pair_map

    for n in range(2, 6):
        for j in range(n + 1):
            dual = dual_pair_map(coface(j, n), n)
            rows, torus_merge = face_incidence(n, j)
            for t in range(1, n):
                expected = tuple(i for i in range(1, n + 1) if dual.images[i] == t)
                assert rows[t - 1] == expected
            merged = tuple(i for i in range(1, n + 1) if dual.images[i] == n)
            assert torus_merge == merged
            assert dual.images[n + 1] == n  # the torus slot always lands on the torus slot


def test_spherical_enumeration_examples():
    cfg = _cfg(1, Fraction(1))
    assert pi1_spherical_enumerate(cfg, 1) == [(-1,), (0,), (1,)]
    cfg2 = _cfg(2)
    assert len(pi1_spherical_enumerate(cfg2, 2)) == 13
    half = _cfg(Fraction(1, 2), Fraction(1, 3))
    # radius floor((1/2)/(1/3)) = 1
    assert pi1_spherical_enumerate(half, 1) == [(Fraction(-1, 3),), (Fraction(0),), (Fraction(1, 3),)]
    with pytest.raises(ValueError):
        pi1_spherical_enumerate(GSConfig(Lattice1(Fraction(1)), ScaleValue.from_log(0.0)), 1)
    with pytest.raises(CapExceeded, match="exceeds cap 1000000"):
        pi1_spherical_enumerate(_cfg(50), 8)


def test_spherical_homotopy_relation_is_trivial():
    # a degree-2 element whose 0-th face vanishes relates an edge only to itself
    rng = random.Random(99)
    cfg = _cfg(2)
    for _ in range(100):
        zeta1 = (Fraction(rng.randint(-4, 4), 4),)
        z = GSElement(1, (zeta1, (Fraction(0),)), (Fraction(0),))
        assert face(cfg, 0, z) == zero_element(cfg, 1, 1)
        assert face(cfg, 1, z) == face(cfg, 2, z)


def test_delannoy_values():
    assert delannoy(0, 5) == 1 and delannoy(5, 0) == 1
    assert delannoy(1, 1) == 3
    assert delannoy(2, 2) == 13
    table = delannoy_table(30, 30)
    for n in range(31):
        for k in range(31):
            assert table[n][k] == delannoy(n, k)
            assert delannoy(n, k) == delannoy(k, n)


def test_pi1_count_examples():
    assert pi1_count(_exp_divisor(1), 3) == 7
    assert pi1_count(_exp_divisor(Fraction(1, 3)), 4) == 1
    d = _exp_divisor(Fraction(7, 2))
    assert pi1_count(d, 1) == count_xi_over_L(Fraction(7, 2), lattice_of(d))


def test_pi1_count_on_divisor_with_finite_part():
    # lattice (1/4)Z, budget 3/4: radius 3
    d = ArakelovDivisor.make({2: 2}, ScaleValue.exact_exp(Fraction(3, 4)))
    assert lattice_of(d).generator == Fraction(1, 4)
    assert pi1_count(d, 2) == delannoy(3, 2)
    assert len(pi1_spherical_enumerate(GSConfig.from_divisor(d), 2)) == 25


def test_pi1_count_on_a_float_scale_ends_where_its_bracket_does():
    # Up to degree 53 log 2 the radius is the floor of the float exp(deg);
    # past it the 30-digit bracket still certifies the floor, to about degree 66.
    assert pi1_count(ArakelovDivisor.of_degree(36.0), 1) == 2 * math.floor(math.exp(36.0)) + 1
    assert pi1_count(ArakelovDivisor.of_degree(40.0), 1) == 2 * 235385266837019985 + 1
    with pytest.raises(ValueError, match="is not certified: exp\\(deg\\) is within 30-digit rounding of an integer"):
        pi1_count(ArakelovDivisor.of_degree(700.0), 1)
    with pytest.raises(ValueError, match="is above the largest float"):
        pi1_count(ArakelovDivisor.of_degree(1000.0), 1)
    # An exact scale carries the floor at any degree: e^40 is near 2.35e17.
    big = Fraction(235385266837019985, 1) + Fraction(1, 3)
    assert pi1_count(_exp_divisor(big), 1, cross_check=False) == 2 * 235385266837019985 + 1


def test_pi1_radius_on_a_float_scale_against_mpmath():
    # The certified floor of e^u N / D against 50-digit mpmath, at degrees
    # where the float exp(deg) rounds across the integer (32.347) and on a
    # seeded sample of [0, 36.7], also with finite parts.
    mpmath = pytest.importorskip("mpmath")
    assert pi1_count(ArakelovDivisor.of_degree(32.347), 1) == 2 * 111718116751215 + 1 == 223436233502431
    rng = random.Random(281)
    degrees = [0.0, 32.347, 36.7] + [rng.uniform(0, 36.7) for _ in range(400)]
    with mpmath.workdps(50):
        for u in degrees:
            expected = int(mpmath.floor(mpmath.exp(mpmath.mpf(u))))
            assert pi1_radius(ArakelovDivisor.of_degree(u)) == expected, u
        for _ in range(100):
            finite = {p: rng.randint(-6, 6) for p in rng.sample((2, 3, 5, 7, 1000003), 2)}
            d = ArakelovDivisor.make(finite, ScaleValue.from_log(rng.uniform(-20, 30)))
            if degree_scale(d).log > 53 * math.log(2):
                continue
            prod = math.prod(mpmath.mpf(p) ** a for p, a in finite.items())
            assert pi1_radius(d) == int(mpmath.floor(mpmath.exp(mpmath.mpf(d.arch.log)) * prod)), d


def _three_digit_brackets(monkeypatch):
    """EXP_FLOOR_DIGITS at 3, under a bracket cache of the test's own: the
    cache is keyed on the divisor alone, so no 30-digit bracket reaches the
    test and no 3-digit one outlives it."""
    monkeypatch.setattr(gamma_space, "EXP_FLOOR_DIGITS", 3)
    fresh = lru_cache(maxsize=128)(gamma_space._exp_degree_bracket.__wrapped__)
    monkeypatch.setattr(gamma_space, "_exp_degree_bracket", fresh)


def test_pi1_radius_refuses_a_floor_its_precision_cannot_certify(monkeypatch):
    # At 3 digits the neighbours of e^32.347 ~ 1.12e14 are 1e12 apart.
    _three_digit_brackets(monkeypatch)
    with pytest.raises(ValueError, match="is not certified: exp\\(deg\\) is within 3-digit rounding"):
        pi1_radius(ArakelovDivisor.of_degree(32.347))
    # e^0 = 1 is exact: no rounding to bracket
    assert pi1_radius(ArakelovDivisor.of_degree(0.0)) == 1
    # e^-1e300 underflows decimal's range to 0, and e^u > 0 bounds it below
    assert pi1_radius(ArakelovDivisor.of_degree(-1e300)) == 0
    assert pi1_radius(ArakelovDivisor.make({3: 1}, ScaleValue.from_log(0.0))) == 3


def test_pi1_radius_past_degree_53_log_2_against_mpmath():
    # From degree 36.7 to 66 the 30-digit bracket still certifies the floor:
    # every answer is 60-digit mpmath's, and a ValueError only where e^u is
    # within 10^-28 relative of an integer, as near 66 it often is.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(327)
    degrees = [36.7, 40.0, 50.0, 66.0] + [rng.uniform(36.7, 66) for _ in range(400)]
    answered = 0
    with mpmath.workdps(60):
        for u in degrees:
            x = mpmath.exp(mpmath.mpf(u))
            try:
                radius = pi1_radius(ArakelovDivisor.of_degree(u))
            except ValueError:
                assert abs(x - mpmath.nint(x)) < x * mpmath.mpf(10) ** -28, u
                continue
            assert radius == int(mpmath.floor(x)), u
            answered += 1
    assert answered > len(degrees) // 2


def test_exp_degree_bracket_where_e_to_the_u_underflows():
    # decimal's exp of -1e300 rounds to 0, and e^u / c is then below 1/4 for
    # every c the divisor_bits budget admits: a short bracket, not one whose
    # upper end is next_plus(0) = 1E-1000028 over c.
    for d in (ArakelovDivisor.of_degree(-1e300), ArakelovDivisor.make({2: -3, 5: 1}, ScaleValue.from_log(-1e300))):
        assert gamma_space._exp_degree_bracket(d) == ((0, 1), (1, 4))
        assert pi1_radius(d) == 0 and not pi0_trivial_predicate(d, 1)
        with pytest.raises(ValueError, match="out of range"):
            pi0_cardinality_k1(d)


def _threshold_degrees(threshold):
    """The float nearest log threshold and its two float neighbours."""
    u = math.log(threshold)
    return math.nextafter(u, -math.inf), u, math.nextafter(u, math.inf)


def test_pi0_on_a_float_scale_against_mpmath():
    # pi_0 at degrees u where exp(u) rounds to a threshold: 1/N for the packing
    # number at level 1, k/2 for the predicate at level k.  Every answer must
    # be 50-digit mpmath's, or a ValueError only where exp(u) is within the
    # bracket's 30-digit rounding of the threshold; the float exp(u) answers
    # some of them wrongly.
    mpmath = pytest.importorskip("mpmath")
    float_wrong = 0
    with mpmath.workdps(50):

        def near(x, threshold):
            return abs(x / threshold - 1) < mpmath.mpf(10) ** -28

        for n in range(2, 1500):
            for u in _threshold_degrees(Fraction(1, n)):
                x = mpmath.exp(mpmath.mpf(u))
                expected = "trivial" if x >= 0.5 else int(mpmath.ceil(1 / x)) - 1
                ed = math.exp(u)
                float_wrong += expected != ("trivial" if ed >= 0.5 else math.ceil(1 / ed) - 1)
                try:
                    assert pi0_cardinality_k1(ArakelovDivisor.of_degree(u)) == expected, u
                except ValueError:
                    assert near(x, Fraction(1, n)) or near(x, Fraction(1, n - 1)), u
        for k in range(1, 1500):
            for u in _threshold_degrees(Fraction(k, 2)):
                x = mpmath.exp(mpmath.mpf(u))
                expected = k <= 2 * x
                float_wrong += expected != (k <= 2 * math.exp(u))
                try:
                    assert pi0_trivial_predicate(ArakelovDivisor.of_degree(u), k) == expected, (u, k)
                except ValueError:
                    assert near(x, Fraction(k, 2)), (u, k)
    assert float_wrong > 100


def test_pi0_refuses_a_threshold_its_precision_cannot_certify(monkeypatch):
    # e^(5e-324) is 1 to 30 digits: its bracket straddles k/2 = 1.
    with pytest.raises(ValueError, match="pi_0 at level 2 at degree 5e-324 is not certified: .* rounding of 2/2"):
        pi0_trivial_predicate(ArakelovDivisor.of_degree(5e-324), 2)
    _three_digit_brackets(monkeypatch)
    with pytest.raises(ValueError, match="pi_0 at level 1 at .* within 3-digit rounding of 1/2 or"):
        pi0_cardinality_k1(ArakelovDivisor.of_degree(math.log(0.5) + 1e-5))
    # e^0 = 1 is exact at any precision
    assert pi0_trivial_predicate(ArakelovDivisor.of_degree(0.0), 2)
    with pytest.raises(ValueError, match="exp\\(deg\\) at degree 710.0 is above the largest float"):
        pi0_trivial_predicate(ArakelovDivisor.of_degree(710.0), 1)
    assert pi0_cardinality_k1(ArakelovDivisor.make({3: -1}, ScaleValue.from_log(0.0))) == 2


def test_pi0_cardinality_examples():
    assert pi0_cardinality_k1(_exp_divisor(1)) == "trivial"
    assert pi0_cardinality_k1(_exp_divisor(Fraction(1, 2))) == "trivial"
    assert pi0_cardinality_k1(_exp_divisor(3)) == "trivial"
    assert pi0_cardinality_k1(_exp_divisor(Fraction(1, 3))) == 2
    assert pi0_cardinality_k1(_exp_divisor(Fraction(1, 5))) == 4
    assert pi0_cardinality_k1(_exp_divisor(Fraction(1, 7))) == 6
    assert pi0_cardinality_k1(_exp_divisor(Fraction(2, 7))) == 3


def test_pi0_overlap_region_consistent():
    # for 1/2 <= exp(deg) < 1 the packing formula also gives one class
    for r in (Fraction(1, 2), Fraction(3, 5), Fraction(2, 3), Fraction(9, 10)):
        assert pi0_cardinality_k1(_exp_divisor(r)) == "trivial"
        inv = 1 / r
        import math

        largest_below = math.floor(inv) - 1 if inv == math.floor(inv) else math.floor(inv)
        assert largest_below == 1 or r == Fraction(1, 2)


def test_pi0_trivial_predicate_examples():
    assert pi0_trivial_predicate(_exp_divisor(1), 1)
    assert not pi0_trivial_predicate(_exp_divisor(1), 3)
    assert pi0_trivial_predicate(_exp_divisor(1), 2)  # inclusive boundary


def test_pi0_matches_circle_packing():
    # a fine grid on the circle R/Z packs like the exact count
    for r, expected in ((Fraction(1, 3), 2), (Fraction(1, 5), 4), (Fraction(2, 7), 3)):
        assert pi0_cardinality_k1(_exp_divisor(r)) == expected
        points = [j / 1000 for j in range(1000)]
        result = packing_number(points, float(r), metric=circle_distance)
        assert result.size == expected
        assert result.exact is False


def test_a_certificate_without_samples_is_the_rank_alone(monkeypatch):
    def drawn(*args):
        raise AssertionError("a certificate with samples=0 draws nothing")

    monkeypatch.setattr(gamma_space, "_face0_draws", drawn)
    monkeypatch.setattr(gamma_space, "_uniform_block", drawn)
    cfg = _cfg(Fraction(3, 2), Fraction(1, 2))
    for n in (2, 3, 7):
        cert = higher_pi_trivial(n, cfg, 10**9, samples=0)
        assert cert.verified and cert.samples_checked == 0 and cert.rank == n


def test_higher_pi_trivial_certificates():
    for n, k in ((2, 1), (3, 2), (5, 3)):
        cfg = _cfg(Fraction(3, 2), Fraction(1, 2))
        cert = higher_pi_trivial(n, cfg, k, samples=200, seed=5)
        assert cert.verified
        assert cert.rank == n
        assert cert.torus_pinned
        assert cert.samples_checked == 200
    with pytest.raises(ValueError):
        higher_pi_trivial(1, _cfg(1), 1)


def test_linear_equivalence_invariance():
    base = ArakelovDivisor.make({2: 1, 5: -1}, ScaleValue.exact_exp(Fraction(4, 3)))
    for q in (Fraction(2), Fraction(3, 5), Fraction(7)):
        shifted = base + principal(q)
        for k in (1, 2, 3):
            assert pi1_count(base, k) == pi1_count(shifted, k)
            assert pi0_trivial_predicate(base, k) == pi0_trivial_predicate(shifted, k)
        assert pi0_cardinality_k1(base) == pi0_cardinality_k1(shifted)


def _l1_ball_recursive(k, radius):
    """The recursive enumeration, kept as the reference for iter_l1_ball."""
    if k == 0:
        yield ()
        return
    for first in range(-radius, radius + 1):
        for rest in _l1_ball_recursive(k - 1, radius - abs(first)):
            yield (first,) + rest


def test_delannoy_refuses_negative_arguments():
    for n, k in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="^delannoy is defined for nonnegative arguments$"):
            delannoy(n, k)
        with pytest.raises(ValueError, match="^delannoy_table requires nonnegative bounds$"):
            delannoy_table(n, k)


def test_iter_l1_ball_matches_recursive_reference():
    for k in range(6):
        for radius in range(5):
            assert list(iter_l1_ball(k, radius)) == list(_l1_ball_recursive(k, radius))


def test_pi1_count_beyond_the_recursion_limit():
    # exp(deg) = 1/3 is below the lattice step 1: the cross-check enumerates
    # the one vector of the radius-0 ball in Z^2000.
    assert pi1_count(_exp_divisor(Fraction(1, 3)), 2000) == 1


def test_pi0_cardinality_where_exp_degree_underflows():
    with pytest.raises(ValueError):
        pi0_cardinality_k1(ArakelovDivisor.of_degree(-800.0))


def _index_route_configs(n, k):
    """A generic scale, then lambda/(4nk) = 3c/7 and lambda/(4nk) = c, where
    the last face vanishes on nonzero indices."""
    c = Fraction(1, 2)
    return (_cfg(Fraction(7, 3), Fraction(2, 9)), _cfg(4 * n * k * 3 * c / 7, c), _cfg(4 * n * k * c, c))


def _vanishing_indices(rng, cfg, n, k):
    """Sparse indices, often with psi_j + psi_{j+1} = 0 or with psi_n plus
    the torus in cZ (found on Fractions), so that faces vanish."""
    scale, c = Fraction(cfg.lam) / (4 * n * k), cfg.lattice.generator
    rows = [[rng.randint(-2, 2) if rng.random() < 0.3 else 0 for _ in range(k)] for _ in range(n)]
    torus = [rng.randint(0, 6) if rng.random() < 0.3 else 0 for _ in range(k)]
    shape = rng.randrange(3)
    if shape == 1:
        j = rng.randint(1, n - 1)
        rows[j] = [-m for m in rows[j - 1]]
    elif shape == 2:
        for i, m in enumerate(rows[-1]):
            fits = [t for t in range(7) if (scale * m + c * t / 7) % c == 0]
            if fits:
                torus[i] = rng.choice(fits)
    return rows, torus


def test_index_faces_and_membership_match_the_object_path():
    vanished = [0, 0, 0]  # face 0, a middle face, the last face on nonzero psi_n
    for n in range(2, 6):
        for k in range(1, 4):
            for cfg in _index_route_configs(n, k):
                values = _coordinate_values(cfg, n, k)
                table = _last_face_table(cfg, n, k)
                zero = zero_element(cfg, n - 1, k)
                for seed in range(3):
                    drawn = random.Random(seed)
                    members = []
                    for _ in range(30):
                        rows, torus = _draw_nonzero_indices(drawn, n, k)
                        members.append((rows, torus, _element_from_indices(k, rows, torus, *values)))
                    rng = random.Random(1000 + seed)
                    for _ in range(60):
                        rows, torus = _vanishing_indices(rng, cfg, n, k)
                        members.append((rows, torus, _element_from_indices(k, rows, torus, *values)))
                    for rows, torus, e in members:
                        assert _indices_are_member(rows, torus, n, k) and member(cfg, e)
                        for j in range(n + 1):
                            is_zero = face(cfg, j, e) == zero
                            assert _index_face_is_zero(j, rows, torus, table) == is_zero, (n, k, cfg, j, rows, torus)
                            if is_zero and (j < n or any(rows[-1])):
                                vanished[0 if j == 0 else 1 if j < n else 2] += 1
    assert min(vanished) > 0, vanished


def test_index_membership_matches_member_at_the_budget():
    # Indices outside the sampled range: l1 totals around 4nk, torus indices
    # -1 and 7 outside 0..6.
    rng = random.Random(17)
    for n in range(2, 6):
        for k in range(1, 4):
            for cfg in _index_route_configs(n, k):
                scale, c = Fraction(cfg.lam) / (4 * n * k), cfg.lattice.generator
                seen = set()
                for _ in range(40):
                    rows = [[rng.randint(-8, 8) for _ in range(k)] for _ in range(n)]
                    rest = sum(abs(m) for row in rows for m in row) - abs(rows[0][0])
                    target = 4 * n * k + rng.randint(0, 1)
                    if rest <= target:  # the total lands on 4nk, or one past it
                        rows[0][0] = rng.choice((-1, 1)) * (target - rest)
                    torus = [rng.choice((-1, 0, 3, 6, 7)) if rng.random() < 0.2 else rng.randint(0, 6) for _ in range(k)]
                    e = GSElement(k, tuple(tuple(scale * m for m in row) for row in rows), tuple(c * t / 7 for t in torus))
                    got = _indices_are_member(rows, torus, n, k)
                    assert got == member(cfg, e), (rows, torus)
                    seen.add(got)
                assert seen == {True, False}


def test_pi1_count_cross_checks_by_coordinates(monkeypatch):
    import absarith.gamma_space as gs

    calls = []
    columns = gs.l1_ball_columns
    monkeypatch.setattr(gs, "l1_ball_columns", lambda radius, k: calls.append(k) or columns(radius, k))
    # Counts up to 20,000 at levels up to 3 are still enumerated ...
    for r, k in ((Fraction(7, 2), 1), (Fraction(9999), 1), (Fraction(99), 2), (Fraction(24), 3)):
        assert delannoy(int(r), k) <= 20_000
        assert pi1_count(_exp_divisor(r), k) == delannoy(int(r), k)
    assert calls == [1, 1, 2, 3]
    # ... but not 19,999 vectors of 9,999 coordinates, or one of 10^8.
    assert pi1_count(_exp_divisor(1), 9999) == 19_999
    assert pi1_count(_exp_divisor(Fraction(1, 3)), 10**8) == 1
    assert calls == [1, 1, 2, 3]


def test_pi1_count_cross_check_fails_on_a_ball_layout_that_miscounts(monkeypatch):
    # A mutant of the l1 ball's column layout whose block sizes follow a
    # shifted recurrence lays out too few rows for radius 7 at k = 3.  Padded
    # to the closed form, it listed 575 rows, only 382 of them distinct, and
    # pi1_count's cross-check passed; padded to its own first column, it must fail.
    from absarith import combinat

    source = inspect.getsource(combinat.l1_ball_columns)
    assert source.count("chain((0,), under[-1])") == 1
    namespace = dict(vars(combinat))
    exec(source.replace("chain((0,), under[-1])", "chain((0, 0), under[-1])"), namespace)
    monkeypatch.setattr(gamma_space, "l1_ball_columns", namespace["l1_ball_columns"])
    with pytest.raises(SelfCheckFailed, match="closed form gives 575"):
        pi1_count(_exp_divisor(7), 3)


@pytest.mark.parametrize(
    "mutate, message",
    [
        # The last row repeats the one before it, so the count still matches.
        (lambda col, r: col.__setitem__(-1, col[-2]), "distinct rows in order"),
        # The last row, (r, 0, ..., 0), becomes (r + 1, 0, ..., 0): still in
        # order and distinct, but outside the ball.
        (lambda col, r: col.__setitem__(-1, r + 1) if col[-1] == r else None, "within l1 norm"),
    ],
)
def test_pi1_count_cross_check_fails_on_a_layout_of_the_right_count_that_is_not_the_ball(monkeypatch, mutate, message):
    columns = gamma_space.l1_ball_columns

    def mutant(radius, k):
        out = [list(col) for col in columns(radius, k)]
        for col in out:
            mutate(col, radius)
        return out

    monkeypatch.setattr(gamma_space, "l1_ball_columns", mutant)
    for r, k in ((7, 3), (Fraction(9, 2), 1), (2, 5)):
        with pytest.raises(SelfCheckFailed, match=message):
            pi1_count(_exp_divisor(r), k)


def test_pi1_count_cross_checks_a_radius_zero_ball_at_a_huge_level(monkeypatch):
    # At exact scale 1/3 the radius is 0 and the count 1, so the cross-check
    # is on by default up to level CROSS_CHECK_MAX_COORDINATES = 60,000, and
    # on request beyond it: its checks must not nest one lazy pass per
    # coordinate, which at level 200,000 overflowed the C stack.
    calls = []
    columns = gamma_space.l1_ball_columns
    monkeypatch.setattr(gamma_space, "l1_ball_columns", lambda radius, k: calls.append(k) or columns(radius, k))
    d = _exp_divisor(Fraction(1, 3))
    assert pi1_count(d, gamma_space.CROSS_CHECK_MAX_COORDINATES) == 1
    assert pi1_count(d, 200_000, cross_check=True) == 1
    assert calls == [gamma_space.CROSS_CHECK_MAX_COORDINATES, 200_000]


def test_face_rank_from_distinct_rows_matches_all_rows():
    from absarith.gamma_space import face_equations
    from smith_oracles import row_reduce

    for n in range(2, 31):
        rows = []
        for j in range(n + 1):
            for sources in face_incidence(n, j)[0]:
                rows.append([sum(1 for s in sources if s == col) for col in range(1, n + 1)])
        assert len(rows) == (n + 1) * (n - 1)
        assert len({tuple(row) for row in rows}) <= 2 * n - 1
        assert face_equations(n)[0] == row_reduce(rows)[1] == n


def test_every_certificate_of_a_degree_proves_the_same_rank():
    a = higher_pi_trivial(5, _cfg(Fraction(7, 3)), 2, samples=20, seed=1)
    b = higher_pi_trivial(5, _cfg(Fraction(2), Fraction(1, 2)), 4, samples=20, seed=9)
    assert (a.rank, a.torus_pinned, a.verified) == (b.rank, b.torus_pinned, b.verified) == (5, True, True)


def test_member_total_is_the_exact_sum_of_the_vector_norms():
    rng = random.Random(8)
    for _ in range(200):
        n, k = rng.randint(0, 4), rng.randint(1, 4)
        free = tuple(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(k)) for _ in range(n)
        )
        total = sum((sum(abs(v) for v in vec) for vec in free), Fraction(0))
        if total:
            e = GSElement(k, free, (Fraction(0),) * k)
            assert member(_cfg(total), e) and not member(_cfg(total * (1 - Fraction(1, 10**9))), e)


def test_l1_within_matches_the_fraction_comparison_at_the_boundary():
    # The integer cross-multiplication against the plain Fraction sum, for
    # bounds at, just above and just below the norm.
    from absarith.combinat import l1_within

    rng = random.Random(12)
    vectors = [[], [0], [Fraction(0)], [3, -4], [Fraction(-7, 3)], [True, -2]]
    for _ in range(150):
        vectors.append(
            [
                rng.randint(-20, 20) if rng.random() < 0.3 else Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
                for _ in range(rng.randint(1, 6))
            ]
        )
    vectors.append([Fraction(1, 2**127 - 1), Fraction(-1, 2**89 - 1), 3**60])
    for vec in vectors:
        norm = sum((abs(Fraction(v)) for v in vec), Fraction(0))
        for delta in (0, 1, -1, Fraction(1, 10**30), -Fraction(1, 10**30), Fraction(1, 3), -Fraction(1, 3)):
            bound = norm + delta
            assert l1_within(vec, bound) == (norm <= bound), (vec, bound)
            if bound.denominator == 1:
                assert l1_within(vec, int(bound)) == (norm <= bound), (vec, bound)
    assert l1_within([], 0) and l1_within([], Fraction(0)) and not l1_within([], -1)
    assert not l1_within([], Fraction(-1, 10**40))


def test_l1_within_decides_a_rational_boundary_exactly():
    from absarith.combinat import l1_within

    tenths = [Fraction(1, 10), Fraction(-1, 10), Fraction(1, 10)]
    # The float sum of three tenths is 0.30000000000000004.
    assert l1_within(tenths, Fraction(3, 10))
    assert not l1_within(tenths, Fraction(3, 10) - Fraction(1, 10**30))
    assert l1_within([1, -2], 3) and not l1_within([1, -2], 2)
    # An exact comparison allows nothing above the bound, however little.
    assert not l1_within(tenths, Fraction(3, 10) - Fraction(1, 10**15))


def test_l1_within_allows_float_tol_above_a_float_bound():
    from absarith.combinat import FLOAT_TOL, l1_within

    tenths = [Fraction(1, 10), Fraction(-1, 10), Fraction(1, 10)]
    # Against a float bound, or with a float entry, the entries are summed as
    # floats, to 0.30000000000000004, which is within FLOAT_TOL of 0.3.
    assert sum(abs(float(v)) for v in tenths) > 0.3
    assert l1_within(tenths, 0.3)
    assert l1_within([0.1, -0.1, 0.1], Fraction(3, 10))
    assert not l1_within(tenths + [2 * FLOAT_TOL], 0.3)
    assert not l1_within([0.1, -0.1, 0.1 + 2 * FLOAT_TOL], Fraction(3, 10))


@pytest.mark.parametrize("deg", [-720.0, -745.0])
def test_pi0_cardinality_where_exp_minus_degree_overflows(deg):
    # exp(deg) is a subnormal float here, not 0, but 1 / exp(deg) is inf.
    ed = degree_scale(ArakelovDivisor.of_degree(deg)).value
    assert ed > 0 and 1 / ed == math.inf
    with pytest.raises(ValueError, match=r"exp\(-deg\) is above the largest float"):
        pi0_cardinality_k1(ArakelovDivisor.of_degree(deg))


def test_byte_draws_are_seeded_uniform_and_nonzero(monkeypatch):
    # The draws' contract, on the oracle that cuts them one by one:
    # reproducible per seed, indices in range, no all-zero draw, each value
    # as frequent as a uniform draw makes it, and the redraws of both loops
    # reached.
    for n, k in ((2, 1), (3, 2), (5, 7)):
        for seed in range(20):
            frees, toruses = _byte_draws(random.Random(seed), n, k, 30)
            assert (frees, toruses) == _byte_draws(random.Random(seed), n, k, 30)
            assert len(frees) == len(toruses) == 30
            assert all(len(free) == n * k and max(free) <= 4 for free in frees)
            assert all(len(torus) == k and max(torus) <= 6 for torus in toruses)
            assert all(free != b"\x02" * (n * k) or any(torus) for free, torus in zip(frees, toruses))
    assert _byte_draws(random.Random(0), 2, 1, 0) == ([], [])

    # 200,000 free and 100,000 torus indices: a share's standard deviation
    # is below 0.0012, so the bound 0.005 is over four of them.
    frees, toruses = _byte_draws(random.Random(3), 2, 40, 2500)
    for block, values in ((b"".join(frees), 5), (b"".join(toruses), 7)):
        assert len(block) >= 10**5
        for value in range(values):
            assert abs(block.count(value) / len(block) - 1 / values) < 0.005, (values, value)

    # Some seed drops an all-zero draw and draws both blocks again, and some
    # block lacks indices after its first fetch and fetches again.
    blocks = []
    uniform_block = gamma_space._uniform_block
    monkeypatch.setattr(gamma_space, "_uniform_block", lambda *a: blocks.append(1) or uniform_block(*a))
    second_blocks = second_fetches = 0
    for seed in range(200):
        blocks.clear()
        fetches = []
        rng = random.Random(seed)
        getrandbits = rng.getrandbits
        rng.getrandbits = lambda bits: fetches.append(bits) or getrandbits(bits)
        _byte_draws(rng, 2, 1, 8)
        second_blocks += len(blocks) > 2
        second_fetches += len(fetches) > len(blocks)
    assert second_blocks > 0 and second_fetches > 0

    # Pinned, so that a Python whose generator gives other bytes fails here.
    frees, toruses = _byte_draws(random.Random(0), 3, 2, 200)
    digest = hashlib.sha256(b"".join(frees) + b"".join(toruses)).hexdigest()
    assert digest == "a882ad7244d767ef9cfa3e2d581126e2133bfe58e05fc690521790c022dfc508"


def test_higher_pi_trivial_rejects_a_level_below_1_and_negative_samples():
    cfg = _cfg(Fraction(3, 2), Fraction(1, 2))
    for k, samples in ((0, 1), (1, -5), (-3, 0)):
        with pytest.raises(ValueError):
            higher_pi_trivial(2, cfg, k, samples=samples)


def test_pi1_count_and_the_pi0_predicate_refuse_a_level_below_1():
    d = _exp_divisor(Fraction(3, 2))
    for k in (0, -2):
        with pytest.raises(ValueError, match="level must be >= 1"):
            pi1_count(d, k)
        with pytest.raises(ValueError, match="level must be >= 1"):
            pi0_trivial_predicate(d, k)


def test_pi1_count_refuses_a_cross_check_on_a_float_scale():
    d = ArakelovDivisor.make({}, ScaleValue.from_log(0.5))
    assert pi1_count(d, 2) == delannoy(1, 2)
    with pytest.raises(ValueError, match="cross-check enumeration requires an exact scale"):
        pi1_count(d, 2, cross_check=True)


def test_face_incidence_refuses_a_face_out_of_range():
    for n, j in ((0, 0), (2, -1), (2, 3)):
        with pytest.raises(ValueError, match="face index out of range"):
            face_incidence(n, j)


def test_a_float_scale_certificate_is_the_witnesses_alone():
    cfg = GSConfig(Lattice1(Fraction(1)), ScaleValue.from_log(0.5))
    for n in (2, 3, 40):
        cert = higher_pi_trivial(n, cfg, 3, samples=0)
        assert cert.verified and (cert.rank, cert.torus_pinned) == gamma_space.face_equations(n) == (n, True)
    with pytest.raises(ValueError, match="exact scale or samples=0"):
        higher_pi_trivial(2, cfg, 1, samples=1)


def test_a_certificate_checks_its_face_rows_before_it_builds_them(monkeypatch):
    # 2(n - 1) rows against certificate_rows' 10^6: n = 500,001 reaches the
    # rows, n = 500,002 and 10^7 are refused before any is built.
    def refuse(n, j):
        raise AssertionError(f"face {j} of degree {n} built")

    monkeypatch.setattr(gamma_space, "face_incidence", refuse)
    cfg = GSConfig(Lattice1(Fraction(1)), ScaleValue.from_log(0.5))
    for n in (500_002, 10**7):
        with pytest.raises(CapExceeded, match=f"up to degree {n} read {2 * (n - 1)} face rows"):
            higher_pi_trivial(n, cfg, 1, samples=0)
    with pytest.raises(AssertionError, match="face 0 of degree 500001 built"):
        higher_pi_trivial(500_001, cfg, 1, samples=0)


def test_a_sampled_draw_that_is_no_member_is_a_failed_self_check(monkeypatch):
    # One byte of a block spoiled: a free index 255 (|m| = 253 > 4nk) or a
    # torus index 7 (c 7/7 = c, outside [0, c)).  Either draw is no member,
    # and the bound on its block refuses the certificate.
    uniform_block = gamma_space._uniform_block
    cfg = _cfg(Fraction(3, 2), Fraction(1, 2))
    for spoilt, byte in ((gamma_space._FREE_REDRAWN, 255), (gamma_space._TORUS_REDRAWN, 7)):

        def spoiling(rng, size, redrawn, spoilt=spoilt, byte=byte):
            block = uniform_block(rng, size, redrawn)
            return block[: size // 2] + bytes([byte]) + block[size // 2 + 1 :] if redrawn == spoilt else block

        with monkeypatch.context() as m:
            m.setattr(gamma_space, "_uniform_block", spoiling)
            frees, toruses = _byte_draws(random.Random(4), 3, 2, 10)
            assert _members(frees, toruses, 3, 2).count(False) == 1
            with pytest.raises(SelfCheckFailed, match="a sampled draw of the degree 3 certificate at level 2 is out"):
                higher_pi_trivial(3, cfg, 2, samples=10, seed=4)


def test_a_certificate_past_its_index_budget_is_refused_before_it_draws(monkeypatch):
    def drawn(*args):
        raise AssertionError("a refused certificate reads no face and draws nothing")

    cap = BUDGETS["certificate_indices"][0]
    cfg = _cfg(Fraction(3, 2), Fraction(1, 2))
    start = time.perf_counter()
    with monkeypatch.context() as m:
        m.setattr(gamma_space, "_uniform_block", drawn)
        m.setattr(gamma_space, "face_equations", drawn)
        for n, k, samples in ((2, 1, 10**15), (5, 3, cap // 18 + 1), (3, 10**9, 1), (cap, 1, 1)):
            with pytest.raises(CapExceeded, match=f"drawing {samples * (n + 1) * k} indices is above the cap of {cap}"):
                higher_pi_trivial(n, cfg, k, samples=samples)
    assert time.perf_counter() - start < 0.1
    # Acceptance's largest certificate, 1,000 samples at degree 5 and level 3,
    # draws 18,000 indices.
    assert higher_pi_trivial(5, cfg, 3, samples=1000, seed=7).verified


def test_uniform_block_refetches_twice_the_indices_it_lacks():
    # With every byte above 31 dropped, a fetch keeps about one byte in eight,
    # so the first fetch of 2 size bytes falls short and is followed by more.
    size, redrawn = 40, bytes(range(1 << 5, 256))
    for seed in range(20):
        fetches = []
        rng = random.Random(seed)
        getrandbits = rng.getrandbits
        rng.getrandbits = lambda bits: fetches.append(bits) or getrandbits(bits)
        block = gamma_space._uniform_block(rng, size, redrawn)
        replay, kept = random.Random(seed), b""
        for bits in fetches:
            assert len(kept) < size and bits == 16 * (size - len(kept)), (seed, fetches)
            kept += replay.getrandbits(bits).to_bytes(bits // 8, "little").translate(gamma_space._TOP_BITS, redrawn)
        assert len(kept) >= size and block == kept[:size]
        assert len(fetches) > 1 and rng.getrandbits(64) == replay.getrandbits(64)


def test_delannoy_digits_is_a_lower_bound_on_the_digits():
    from absarith.combinat import delannoy_digits

    sizes = list(range(40)) + [100, 1000, 5000, 22_000, 10**6, 10**14]
    for n in sizes:
        for k in sizes:
            if delannoy_digits(n, k) <= 10_000:
                # The digits are floor(log10 D) + 1, and the bound keeps one of slack.
                assert delannoy_digits(n, k) <= math.log10(delannoy(n, k)), (n, k)


def test_a_delannoy_number_past_its_digit_budget_is_refused_before_its_sum():
    import time

    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="at least 1963009 digits"):
        delannoy(10**200, 10_000)
    with pytest.raises(CapExceeded):
        delannoy(23_000, 23_000)
    assert time.perf_counter() - start < 1.0
    # The largest square accepted, 16,840 digits, in about 0.5 s.
    assert math.floor(math.log10(delannoy(22_000, 22_000))) + 1 == 16_840


def test_certificates_equal_the_per_draw_route():
    for n in range(2, 7):
        for k in range(1, 5):
            configs = _index_route_configs(n, k)
            for seed in range(50):
                cfg = configs[seed % 3]
                for samples in (50, 1000):
                    got = higher_pi_trivial(n, cfg, k, samples=samples, seed=seed)
                    assert got == _certificate_per_draw(n, cfg, k, samples, seed), (n, k, seed, samples)


def test_block_decisions_equal_the_per_draw_oracles(monkeypatch):
    # The draws whose face 0 vanishes, decided on each round's two blocks,
    # are those of the oracles: the draws cut one by one, every one a member,
    # face 0 decided draw by draw.  Both routes ask for blocks of the same
    # sizes in the same order and leave the generator in the same state, and
    # some seeds draw a zero draw and so a second round.
    sizes = []
    uniform_block = gamma_space._uniform_block
    monkeypatch.setattr(gamma_space, "_uniform_block", lambda *a: sizes.append(a[1]) or uniform_block(*a))
    second_rounds = face0 = 0
    for n in range(2, 6):
        for k in range(1, 5):
            for seed in range(200):
                for samples in (50, 1000) if seed < 5 else (50,):
                    rng, oracle_rng = random.Random(seed), random.Random(seed)
                    sizes.clear()
                    got = gamma_space._face0_draws(rng, n, k, samples)
                    block_sizes = list(sizes)
                    sizes.clear()
                    frees, toruses = _byte_draws(oracle_rng, n, k, samples)
                    assert sizes == block_sizes, (n, k, seed, samples)
                    assert all(_members(frees, toruses, n, k))
                    expected = list(compress(zip(frees, toruses), _face0_vanishes(frees, toruses, n, k)))
                    assert got == expected, (n, k, seed, samples)
                    assert rng.getrandbits(64) == oracle_rng.getrandbits(64)
                    second_rounds += len(block_sizes) > 2
                    face0 += len(got)
    assert second_rounds > 0 and face0 > 0


def test_a_sampled_run_that_never_reaches_face_n_builds_no_last_face_table(monkeypatch):
    built, face0_zero = [], []
    last_face_table, face0_draws = gamma_space._last_face_table, gamma_space._face0_draws
    monkeypatch.setattr(gamma_space, "_last_face_table", lambda *a: built.append(a) or last_face_table(*a))
    monkeypatch.setattr(gamma_space, "_face0_draws", lambda *a: face0_zero.append(len(got := face0_draws(*a))) or got)
    for n, k in ((2, 1), (3, 1), (2, 2)):
        for cfg in _index_route_configs(n, k):
            for seed in range(5):
                assert higher_pi_trivial(n, cfg, k, samples=1000, seed=seed).verified
    # Draws whose face 0 vanished went on to face 1, which each failed.
    assert sum(face0_zero) > 0 and built == []
    # The zero draw, which _face0_draws never gives, reaches face n: the
    # table is built once for all of its copies, and the certificate fails.
    monkeypatch.setattr(gamma_space, "_face0_draws", lambda rng, n, k, m: [(b"\x02" * (n * k), bytes(k))] * m)
    cfg = _index_route_configs(3, 2)[0]
    assert not higher_pi_trivial(3, cfg, 2, samples=5).verified
    assert built == [(cfg, 3, 2)]
