import math
import random
from fractions import Fraction

import pytest

from absarith import gamma_space
from absarith.arakelov import ArakelovDivisor, Lattice1, ScaleValue, count_xi_over_L, degree_scale, lattice_of, principal
from absarith.combinat import delannoy, delannoy_table, iter_l1_ball
from absarith.errors import CapExceeded
from absarith.gamma_space import (
    GSConfig,
    _coordinate_values,
    _draw_nonzero_indices,
    _element_from_indices,
    _index_face_is_zero,
    _indices_are_member,
    _last_face_table,
    _random_nonzero_member,
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
    with pytest.raises(CapExceeded):
        pi1_spherical_enumerate(_cfg(50), 6, cap=100)


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


def test_pi1_count_on_a_float_scale_ends_at_degree_53_log_2():
    # Up to degree 53 log 2 the radius is the floor of the float exp(deg).
    assert pi1_count(ArakelovDivisor.of_degree(36.0), 1) == 2 * math.floor(math.exp(36.0)) + 1
    for deg in (37.0, 40.0, 700.0, 1000.0):
        with pytest.raises(ValueError, match="past 2\\^53"):
            pi1_count(ArakelovDivisor.of_degree(deg), 1)
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


def test_pi1_radius_refuses_a_floor_its_precision_cannot_certify(monkeypatch):
    # At 3 digits the neighbours of e^32.347 ~ 1.12e14 are 1e12 apart.
    monkeypatch.setattr(gamma_space, "EXP_FLOOR_DIGITS", 3)
    with pytest.raises(ValueError, match="is not certified: exp\\(deg\\) is within 3-digit rounding"):
        pi1_radius(ArakelovDivisor.of_degree(32.347))
    # e^0 = 1 is exact: no rounding to bracket
    assert pi1_radius(ArakelovDivisor.of_degree(0.0)) == 1
    # e^-1e300 underflows decimal's range to 0, and e^u > 0 bounds it below
    assert pi1_radius(ArakelovDivisor.of_degree(-1e300)) == 0
    assert pi1_radius(ArakelovDivisor.make({3: 1}, ScaleValue.from_log(0.0))) == 3


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
        result = packing_number(points, float(r), metric=circle_distance, exact=False)
        assert result.size == expected
        assert result.exact is False


def test_higher_pi_trivial_certificates():
    for n, k in ((2, 1), (3, 2), (5, 3)):
        cfg = _cfg(Fraction(3, 2), Fraction(1, 2))
        cert = higher_pi_trivial(n, cfg, k, samples=200, seed=5)
        assert cert.verified
        assert cert.rank == n == cert.free_dimension
        assert cert.torus_pinned
        assert any("face 0" in w for w in cert.witness_equations)
        assert any("face 2" in w for w in cert.witness_equations)
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


def _fraction_member(rng, cfg, n, k):
    """A sampled certificate member built entry by entry as new Fractions:
    the oracle for the coordinate values higher_pi_trivial builds once."""
    lam = Fraction(cfg.lam)
    c = cfg.lattice.generator
    while True:
        scale = lam / (4 * n * k)
        free = tuple(tuple(scale * rng.randint(-2, 2) for _ in range(k)) for _ in range(n))
        torus = tuple(c * rng.randint(0, 6) / 7 for _ in range(k))
        e = GSElement(k, free, torus)
        if any(v != 0 for vec in free for v in vec) or any(t != 0 for t in torus):
            return e


def test_certificate_members_match_the_per_entry_builder():
    cases = ((2, 1, _cfg(1)), (3, 2, _cfg(Fraction(3, 2), Fraction(1, 2))), (4, 3, _cfg(Fraction(7, 3), Fraction(2, 9))))
    for n, k, cfg in cases:
        values = _coordinate_values(cfg, n, k)
        for seed in (0, 5, 301):
            fresh, shared = random.Random(seed), random.Random(seed)
            for _ in range(60):
                expected = _fraction_member(fresh, cfg, n, k)
                got = _random_nonzero_member(shared, cfg, n, k, *values)
                assert got == expected and repr(got) == repr(expected)


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
                    drawn, built = random.Random(seed), random.Random(seed)
                    members = []
                    for _ in range(30):
                        rows, torus = _draw_nonzero_indices(drawn, n, k)
                        e = _random_nonzero_member(built, cfg, n, k, *values)
                        assert e == _element_from_indices(k, rows, torus, *values)
                        members.append((rows, torus, e))
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
    enumerate_ = gs.pi1_spherical_enumerate
    monkeypatch.setattr(gs, "pi1_spherical_enumerate", lambda cfg, k: calls.append(k) or enumerate_(cfg, k))
    # Counts up to 20,000 at levels up to 3 are still enumerated ...
    for r, k in ((Fraction(7, 2), 1), (Fraction(9999), 1), (Fraction(99), 2), (Fraction(24), 3)):
        assert delannoy(int(r), k) <= 20_000
        assert pi1_count(_exp_divisor(r), k) == delannoy(int(r), k)
    assert calls == [1, 1, 2, 3]
    # ... but not 19,999 vectors of 9,999 coordinates, or one of 10^8.
    assert pi1_count(_exp_divisor(1), 9999) == 19_999
    assert pi1_count(_exp_divisor(Fraction(1, 3)), 10**8) == 1
    assert calls == [1, 1, 2, 3]


def test_face_rank_from_distinct_rows_matches_all_rows():
    from absarith.gamma_space import face_equations
    from absarith.smith import row_reduce

    for n in range(2, 31):
        rows = []
        for j in range(n + 1):
            for sources in face_incidence(n, j)[0]:
                rows.append([sum(1 for s in sources if s == col) for col in range(1, n + 1)])
        assert len(rows) == (n + 1) * (n - 1)
        assert len({tuple(row) for row in rows}) <= 2 * n - 1
        assert face_equations(n)[0] == row_reduce(rows)[1] == n


def test_face_equations_are_shared_by_every_certificate_of_a_degree():
    a = higher_pi_trivial(5, _cfg(Fraction(7, 3)), 2, samples=20, seed=1)
    b = higher_pi_trivial(5, _cfg(Fraction(2), Fraction(1, 2)), 4, samples=20, seed=9)
    assert a.witness_equations is b.witness_equations
    assert (a.rank, a.torus_pinned, a.verified) == (b.rank, b.torus_pinned, b.verified) == (5, True, True)


def test_member_total_is_the_exact_sum_of_the_vector_norms():
    from absarith.combinat import l1_norm

    rng = random.Random(8)
    for _ in range(200):
        n, k = rng.randint(0, 4), rng.randint(1, 4)
        free = tuple(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(k)) for _ in range(n)
        )
        total = sum((sum(abs(v) for v in vec) for vec in free), Fraction(0))
        flat = [v for vec in free for v in vec]
        assert l1_norm(flat) == total and type(l1_norm(flat)) is Fraction
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
            # tol plays no part in an exact comparison.
            assert l1_within(vec, bound, tol=1.0) == (norm <= bound), (vec, bound)
    assert l1_within([], 0) and l1_within([], Fraction(0)) and not l1_within([], -1)
    assert not l1_within([], Fraction(-1, 10**40))


def test_l1_within_decides_a_rational_boundary_exactly():
    from absarith.combinat import l1_within

    tenths = [Fraction(1, 10), Fraction(-1, 10), Fraction(1, 10)]
    # The float sum of three tenths is 0.30000000000000004.
    assert l1_within(tenths, Fraction(3, 10))
    assert not l1_within(tenths, Fraction(3, 10) - Fraction(1, 10**30))
    assert l1_within([1, -2], 3) and not l1_within([1, -2], 2)
    # Against a float bound, rational entries are summed as floats.
    assert not l1_within(tenths, 0.3)
    assert l1_within(tenths, 0.3, tol=1e-12)
    # tol applies only when the comparison is made in floats.
    assert not l1_within(tenths, Fraction(3, 10) - Fraction(1, 10**15), tol=1e-12)
    assert l1_within([0.1, -0.1, 0.1], Fraction(3, 10), tol=1e-12)
    assert not l1_within([0.1, -0.1, 0.1], Fraction(3, 10))


@pytest.mark.parametrize("deg", [-720.0, -745.0])
def test_pi0_cardinality_where_exp_minus_degree_overflows(deg):
    # exp(deg) is a subnormal float here, not 0, but 1 / exp(deg) is inf.
    ed = degree_scale(ArakelovDivisor.of_degree(deg)).value
    assert ed > 0 and 1 / ed == math.inf
    with pytest.raises(ValueError, match=r"exp\(-deg\) is above the largest float"):
        pi0_cardinality_k1(ArakelovDivisor.of_degree(deg))
