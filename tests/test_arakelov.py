import math
import random
import re
import types
from fractions import Fraction
from itertools import tee

import pytest

import absarith.arakelov as ak
from absarith.arakelov import (
    _MC_CHUNK,
    ArakelovDivisor,
    Lattice1,
    ScaleValue,
    count_E_xi,
    count_xi_over_L,
    degree,
    exp_degree,
    gaussian_avg_mc,
    gaussian_avg_quadrature,
    lattice_of,
    principal,
    riemann_roch_defect,
    theta_h0,
    theta_h0_of_degree,
    _check_theta_param,
    _theta_param,
)
from absarith.combinat import delannoy, l1_within
from absarith.errors import BUDGETS, CapExceeded
from combinat_oracles import iter_l1_ball
import arakelov_oracles as oracles
from helpers import negated

QUADRATURE_MAX_PIECES = BUDGETS["quadrature_pieces"][0]


def D(finite, arch):
    return ArakelovDivisor.make(finite, arch)


def test_divisor_validation():
    with pytest.raises(ValueError):
        D({4: 1}, ScaleValue.exact_exp(1))
    with pytest.raises(ValueError):
        ScaleValue.exact_exp(0)
    with pytest.raises(ValueError):
        ScaleValue.exact_exp(Fraction(-1, 2))
    # a Fraction is kept as given, anything else is read by Fraction
    half = Fraction(1, 2)
    assert ScaleValue.exact_exp(half).exact is half
    assert ScaleValue.exact_exp("2/4") == ScaleValue.exact_exp(0.5) == ScaleValue.exact_exp(half)


def test_make_refuses_a_prime_or_an_exponent_that_is_not_an_int():
    # Neither is truncated: 2^1.5 3^True was once 2 3, of degree log 6.
    one = ScaleValue.exact_exp(1)
    for finite, named in (
        ({2: 1.5, 3: True}, "2: 1.5"),
        ({3: True}, "3: True"),
        ({2.0: 1}, "2.0: 1"),
        ({True: 1}, "True: 1"),
        ({Fraction(2): 1}, "Fraction(2, 1): 1"),
        ({2: Fraction(1)}, "2: Fraction(1, 1)"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"primes and exponents must be integers, got {named}")):
            D(finite, one)
    assert D({2: 1, 3: -1}, one).finite == ((2, 1), (3, -1))


def test_lattice_examples():
    assert lattice_of(ArakelovDivisor.zero()).generator == 1
    assert lattice_of(D({3: 2}, ScaleValue.exact_exp(1))).generator == Fraction(1, 9)
    assert lattice_of(D({2: -1, 5: 1}, ScaleValue.exact_exp(1))).generator == Fraction(2, 5)


def test_degree_examples():
    assert degree(ArakelovDivisor.zero()) == 0.0
    d = D({2: 1}, ScaleValue.exact_exp(Fraction(1, 2)))
    assert exp_degree(d) == 1
    assert degree(d) == 0.0


def test_degree_product_formula():
    rng = random.Random(51)
    for _ in range(40):
        q = Fraction(rng.randint(1, 60), rng.randint(1, 60))
        d = D({2: rng.randint(-2, 2), 7: rng.randint(-2, 2)}, ScaleValue.exact_exp(Fraction(3, 5)))
        shifted = d + principal(q)
        assert exp_degree(shifted) == exp_degree(d)


def test_principal_examples():
    assert principal(1) == ArakelovDivisor.zero()
    p6 = principal(6)
    assert p6.finite_part == {2: 1, 3: 1}
    assert p6.arch.exact == Fraction(1, 6)
    assert principal(-6) == p6
    assert principal(Fraction(4, 15)).finite_part == {2: 2, 3: -1, 5: -1}
    with pytest.raises(ValueError):
        principal(0)


def test_principal_scales_lattice_and_norm():
    for q in (Fraction(2), Fraction(3, 5), Fraction(7)):
        d = D({3: 1}, ScaleValue.exact_exp(Fraction(2, 7)))
        shifted = d + principal(q)
        assert lattice_of(shifted).generator == lattice_of(d).generator / q
        assert shifted.arch.exact == d.arch.exact / q


def test_count_xi_over_L():
    lat = Lattice1(Fraction(1))
    assert count_xi_over_L(0, lat) == 1
    assert count_xi_over_L(2.5, lat) == 5
    assert count_xi_over_L(Fraction(1), lat) == 3  # inclusive boundary
    with pytest.raises(ValueError):
        count_xi_over_L(-1, lat)


def test_count_xi_rescale_invariance():
    rng = random.Random(53)
    for _ in range(50):
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        xi = Fraction(rng.randint(0, 40), rng.randint(1, 9))
        s = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert count_xi_over_L(xi, Lattice1(c)) == count_xi_over_L(xi * s, Lattice1(c * s))


def test_count_E_xi_examples():
    lat = Lattice1(Fraction(1))
    pts = count_E_xi(lat, 1, Fraction(1))
    assert pts == [(-1,), (0,), (1,)]
    assert len(count_E_xi(lat, 2, Fraction(1))) == 5
    with pytest.raises(ValueError):
        count_E_xi(lat, 2, 1.5)
    with pytest.raises(ValueError, match="number of coordinates must be >= 1"):
        count_E_xi(lat, 0, Fraction(1))


def test_count_E_xi_matches_delannoy():
    for c_num, c_den in ((1, 1), (1, 2), (3, 2)):
        lat = Lattice1(Fraction(c_num, c_den))
        for k in range(1, 4):
            for xi in (Fraction(0), Fraction(2), Fraction(7, 3)):
                pts = count_E_xi(lat, k, xi)
                n = math.floor(xi / lat.generator)
                assert len(pts) == delannoy(n, k)
                assert all(l1_within(p, xi) for p in pts)


def _count_E_xi_per_coordinate(lattice, k, radius):
    """count_E_xi as one Fraction multiply c m per coordinate: the oracle for
    the multiples tabled once per call."""
    c = lattice.generator
    return [tuple(c * m for m in vec) for vec in iter_l1_ball(k, radius)]


def test_count_E_xi_matches_the_per_coordinate_multiples():
    generators = (Fraction(1), Fraction(5, 7), Fraction(2**200 + 1, 3**150), Fraction(7**90, 2**61 - 1))
    for c in generators:
        lattice = Lattice1(c)
        for k in range(1, 5):
            # Every radius 0..30 at k <= 2; at k = 3 and 4 the balls up to 1,000 points.
            for radius in range(31):
                if delannoy(radius, k) > 1000:
                    break
                expected = _count_E_xi_per_coordinate(lattice, k, radius)
                got = count_E_xi(lattice, k, c * radius)  # the inclusive boundary
                assert got == expected and repr(got) == repr(expected), (c, k, radius)
                if 0 < radius <= 3:  # just below radius c the ball shrinks
                    below = count_E_xi(lattice, k, c * radius - Fraction(1, 10**40))
                    assert repr(below) == repr(_count_E_xi_per_coordinate(lattice, k, radius - 1))
    for c in (Fraction(1), Fraction(2**200 + 1, 3**150)):
        for k, radius in ((2000, 0), (100, 1), (20, 2), (1, 9999)):
            expected = _count_E_xi_per_coordinate(Lattice1(c), k, radius)
            got = count_E_xi(Lattice1(c), k, c * radius)
            assert got == expected and repr(got) == repr(expected), (c, k, radius)


def test_count_E_xi_cap_names_the_count():
    with pytest.raises(CapExceeded, match=f"enumeration of {delannoy(40, 4)} lattice points exceeds cap 1000000"):
        count_E_xi(Lattice1(Fraction(1)), 4, 40)


def test_theta_h0_direct_summation_oracle():
    # compare against the plain six-term sum at degree zero
    direct = math.log(1 + 2 * sum(math.exp(-math.pi * m * m) for m in range(1, 7)))
    assert abs(theta_h0(ArakelovDivisor.zero(), 1e-12) - direct) < 1e-12


def _direct_theta_h0(deg):
    # log(1 + 2 sum_{m >= 1} exp(-pi t m^2)), t = exp(-2 deg), summed term by
    # term up to exp(-50) independently of the library's sum and of Jacobi's
    # transformation.
    t = math.exp(-2 * deg)
    m_max = int(math.sqrt(50 / (math.pi * t))) + 1
    total = 0.0
    for m in range(1, m_max + 1):
        total += math.exp(-math.pi * t * m * m)
    return math.log(1 + 2 * total)


def test_theta_h0_matches_direct_sum_at_positive_degree():
    for d in (0.25, 0.5, 1, 2, 3, 5, 6):
        assert abs(theta_h0_of_degree(d) - _direct_theta_h0(d)) < 1e-10
    exact = D({}, ScaleValue.exact_exp(Fraction(7, 2)))
    assert abs(theta_h0(exact) - _direct_theta_h0(math.log(3.5))) < 1e-10


def test_theta_h0_far_beyond_the_direct_sum():
    # h0 = max(deg, 0) once every dual term underflows; t itself is 0.0 at 400.
    for d in (20.0, 400.0, 1000.0):
        assert theta_h0_of_degree(d) == d
        assert theta_h0(ArakelovDivisor.of_degree(d)) == d
    # exp(1000) overflows a float; the degree, summed in log space, does not.
    d = D({3: -2}, ScaleValue.from_log(1000.0 + 2 * math.log(3)))
    assert theta_h0(d) == degree(d) == pytest.approx(1000.0, abs=1e-12)
    with pytest.raises(OverflowError):
        exp_degree(d)
    with pytest.raises(ValueError):
        theta_h0_of_degree(math.inf)


def test_theta_h0_limits_and_monotonicity():
    assert theta_h0_of_degree(-40.0) == pytest.approx(0.0, abs=1e-12)
    values = [theta_h0_of_degree(d) for d in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_theta_h0_eps_validation():
    with pytest.raises(ValueError):
        theta_h0(ArakelovDivisor.zero(), 0.0)


def test_quadrature_matches_theta():
    for d in (-3.0, -1.0, 0.0, 1.0, 3.0):
        div = ArakelovDivisor.of_degree(d)
        assert abs(math.exp(theta_h0(div, 1e-12)) - gaussian_avg_quadrature(div, 1e-12)) < 2e-12


def test_quadrature_degenerate_limit():
    assert gaussian_avg_quadrature(ArakelovDivisor.of_degree(-30.0)) == pytest.approx(1.0, abs=1e-12)


def test_piecewise_telescoping_identity():
    # sum over the first pieces (2n+1)(E_n - E_{n+1}) telescopes to
    # 1 + 2(E_1 + ... + E_N) - (2N+1) E_{N+1}, checked exactly on three terms
    e = [Fraction(1), Fraction(1, 3), Fraction(1, 10), Fraction(1, 50)]
    pieces = sum((2 * n + 1) * (e[n] - e[n + 1]) for n in range(3))
    assert pieces == 1 + 2 * (e[1] + e[2]) - 5 * e[3]


def test_mc_deterministic_and_odd():
    z = ArakelovDivisor.zero()
    r1 = gaussian_avg_mc(z, 50_000, seed=7)
    r2 = gaussian_avg_mc(z, 50_000, seed=7)
    assert r1.mean == r2.mean and r1.stderr == r2.stderr
    r3 = gaussian_avg_mc(z, 50_000, seed=8)
    assert r3.mean != r1.mean
    single = gaussian_avg_mc(z, 1, seed=7)
    assert single.mean == int(single.mean) and int(single.mean) % 2 == 1
    assert single.stderr == 0.0
    with pytest.raises(ValueError, match="at least one sample"):
        gaussian_avg_mc(z, 0, seed=7)


def test_mc_threads_do_not_change_result():
    z = ArakelovDivisor.of_degree(0.5)
    r1 = gaussian_avg_mc(z, 200_000, seed=11, threads=1)
    r4 = gaussian_avg_mc(z, 200_000, seed=11, threads=4)
    assert r1.mean == r4.mean and r1.stderr == r4.stderr


def test_mc_workers_are_clamped_to_chunks(monkeypatch):
    import concurrent.futures

    recorded = []
    real = concurrent.futures.ThreadPoolExecutor

    def recording(max_workers=None, **kwargs):
        recorded.append(max_workers)
        return real(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
    z = ArakelovDivisor.zero()
    samples = 2 * (1 << 16) + 1  # three chunks
    many = gaussian_avg_mc(z, samples, seed=5, threads=64)
    assert all(w <= 3 for w in recorded)
    assert many.mean == gaussian_avg_mc(z, samples, seed=5, threads=1).mean


def test_mc_statistical_consistency():
    z = ArakelovDivisor.zero()
    r = gaussian_avg_mc(z, 400_000, seed=42)
    expected = math.exp(theta_h0(z, 1e-12))
    assert abs(r.mean - expected) < 4 * r.stderr


def test_mc_consistency_with_finite_support():
    # the sampler separates scale and lattice while the theta route only
    # sees exp(deg); a divisor with finite support crosses the two paths
    d = D({2: 1}, ScaleValue.exact_exp(Fraction(3, 4)))
    r = gaussian_avg_mc(d, 400_000, seed=13)
    expected = math.exp(theta_h0(d, 1e-12))
    assert abs(r.mean - expected) < 4 * r.stderr


def test_riemann_roch_defect():
    assert riemann_roch_defect(0.0) == 0.0
    for d in (0.5, 1.0, 2.0, 5.0):
        assert abs(riemann_roch_defect(d, 1e-12)) < 1e-9
    # the full band |d| <= 6, both signs
    for i in range(-24, 25):
        assert abs(riemann_roch_defect(i / 4, 1e-12)) < 1e-9


def test_invariants_under_principal_shift():
    base = D({2: 1, 5: -1}, ScaleValue.exact_exp(Fraction(4, 3)))
    for q in (Fraction(2), Fraction(3, 5), Fraction(7)):
        shifted = base + principal(q)
        assert theta_h0(shifted) == theta_h0(base)
        assert gaussian_avg_quadrature(shifted) == gaussian_avg_quadrature(base)
        # counting with a section transported by 1/q
        xi = Fraction(9, 4)
        assert count_xi_over_L(xi, lattice_of(base)) == count_xi_over_L(xi / q, lattice_of(shifted))


def test_divisor_json_roundtrip():
    d = D({2: 3, 11: -1}, ScaleValue.exact_exp(Fraction(5, 4)))
    assert ArakelovDivisor.from_json_dict(d.to_json_dict()) == d
    f = ArakelovDivisor.of_degree(0.25)
    assert ArakelovDivisor.from_json_dict(f.to_json_dict()) == f


def test_divisor_json_reads_canonical_keys_and_number_exponents():
    # A key reads back as itself; the float exponent is a JSON int or float.
    d = ArakelovDivisor.from_json_dict({"finite": {"2": 1, "11": -1}, "arch": {"float": 1}})
    assert d == ArakelovDivisor.make({2: 1, 11: -1}, ScaleValue.from_log(1.0))
    assert ArakelovDivisor.from_json_dict({"arch": {"float": 0.25}}) == ArakelovDivisor.of_degree(0.25)
    for key in ("1_1", "+3", " 2", "02", "2 ", "0x2", "-0"):
        with pytest.raises(ValueError):
            ArakelovDivisor.from_json_dict({"finite": {key: 1}})
    for value in ("1.5", True, False, None, [1.5]):
        with pytest.raises(ValueError):
            ArakelovDivisor.from_json_dict({"arch": {"float": value}})
    with pytest.raises(ValueError, match="'finite' part must be a JSON object"):
        ArakelovDivisor.from_json_dict({"finite": [2, 1]})


def test_degree_where_exp_degree_underflows():
    far = ArakelovDivisor.of_degree(-800.0)
    assert exp_degree(far) == 0.0
    assert degree(far) == -800.0
    assert theta_h0(far) == 0.0
    d = D({2: -1200}, ScaleValue.from_log(0.0))
    assert degree(d) == pytest.approx(-1200 * math.log(2))
    assert theta_h0(d) == 0.0


def test_a_purely_archimedean_divisor_answers_as_its_degree():
    # Bit for bit: the degree of a float scale is summed in log space, never
    # read back as log(exp(deg)), which misses it at 106 of these degrees.
    for i in range(-1200, 1201):
        x = i / 100
        assert degree(ArakelovDivisor.of_degree(x)) == x
        assert theta_h0(ArakelovDivisor.of_degree(x)) == theta_h0_of_degree(x)


def _mpmath_theta_h0(mpmath, deg):
    """log theta_3(0, exp(-pi e^(-2 deg))) = log sum over m in Z of exp(-pi t m^2)."""
    return mpmath.log(mpmath.jtheta(3, 0, mpmath.exp(-mpmath.pi * mpmath.exp(-2 * deg))))


def test_theta_h0_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    finite = {2: 3, 3: -1, 1000003: -1}
    finite_log = sum(a * math.log(p) for p, a in finite.items())
    with mpmath.workdps(30):
        mp_finite_log = sum(a * mpmath.log(p) for p, a in finite.items())
        for i in range(-40, 81):
            d = i / 10
            assert abs(theta_h0_of_degree(d) - _mpmath_theta_h0(mpmath, mpmath.mpf(d))) < 1e-13
            # A float scale with finite support, at the degree u + sum a_p log p.
            div = D(finite, ScaleValue.from_log(d - finite_log))
            deg = mpmath.mpf(div.arch.log) + mp_finite_log
            assert abs(theta_h0(div) - _mpmath_theta_h0(mpmath, deg)) < 1e-13


def _quadrature_per_piece(d, eps):
    """gaussian_avg_quadrature as one loop over the pieces that recomputes
    the tail bound after each (two exps per piece): the oracle for the
    bisected stopping piece and the one-exp, left-to-right summation."""
    t, _ = _theta_param(d, eps)
    _check_theta_param(t)
    log_eps = math.log(eps)
    if all(math.log(2 * n + 3) - math.pi * t * (n + 1) ** 2 >= log_eps for n in (0, QUADRATURE_MAX_PIECES - 1)):
        raise CapExceeded("cap")
    exp, a = math.exp, -math.pi * t
    total = 0.0
    e0, e1, e2 = 1.0, exp(a), exp(4 * a)
    for n in range(QUADRATURE_MAX_PIECES):
        total += (2 * n + 1) * (e0 - e1)
        ratio = exp(a * (2 * n + 5))
        tail = (2 * n + 3) * e1 + 2.0 * e2 / (1.0 - ratio)
        if tail < eps:
            return total
        e0, e1, e2 = e1, e2, exp(a * (n + 3) * (n + 3))
    raise CapExceeded("cap")


def _quadrature_outcome(quadrature, d, eps):
    try:
        return repr(quadrature(d, eps))
    except CapExceeded:
        return "CapExceeded"


def _float_and_exact(deg):
    return (
        ArakelovDivisor.of_degree(deg),
        D({2: 3, 3: -1}, ScaleValue.exact_exp(Fraction(math.exp(deg)) * Fraction(3, 8))),
    )


def test_quadrature_matches_the_per_piece_loop():
    for deg in [i / 4 for i in range(-52, 37)] + [0.37, 3.3, 7.77, 10.5]:
        for d in _float_and_exact(deg):
            for eps in (1e-6, 1e-12, 1e-15):
                got = _quadrature_outcome(gaussian_avg_quadrature, d, eps)
                assert got == _quadrature_outcome(_quadrature_per_piece, d, eps), (deg, d, eps)


def test_quadrature_cap_falls_where_the_per_piece_loop_puts_it():
    # At eps 1e-12 the cap of 2e6 pieces falls between degrees 13.20 and 13.22.
    d = ArakelovDivisor.of_degree(13.2)
    got = _quadrature_outcome(gaussian_avg_quadrature, d, 1e-12)
    assert got == _quadrature_outcome(_quadrature_per_piece, d, 1e-12) != "CapExceeded"
    for deg, eps in ((13.2, 1e-15), (13.22, 1e-12), (13.22, 1e-15)):
        for d in _float_and_exact(deg):
            assert _quadrature_outcome(_quadrature_per_piece, d, eps) == "CapExceeded"
            assert _quadrature_outcome(gaussian_avg_quadrature, d, eps) == "CapExceeded"


def test_numpy_quadrature_matches_the_per_piece_loop(monkeypatch):
    # Every sum through the numpy chunks, however short.
    monkeypatch.setattr("absarith.arakelov._QUADRATURE_NUMPY_PIECES", 0)
    for deg in [i / 4 for i in range(-52, 37)] + [0.37, 3.3, 7.77, 10.5]:
        for d in _float_and_exact(deg):
            for eps in (1e-6, 1e-12, 1e-15):
                got = _quadrature_outcome(gaussian_avg_quadrature, d, eps)
                assert got == _quadrature_outcome(_quadrature_per_piece, d, eps), (deg, d, eps)


@pytest.mark.parametrize("stop", [(1 << 14) - 1, 1 << 14, (1 << 14) + 1, 3 * (1 << 14) + 5])
def test_numpy_quadrature_at_the_chunk_edges(monkeypatch, stop):
    # eps = the tail bound after piece stop - 1 makes stop the bisected
    # stopping piece, so pieces 0..stop fill one chunk, one chunk and a piece,
    # one chunk and two pieces, and three chunks and six pieces.
    t = 30.0 / (math.pi * stop * stop)
    d = ArakelovDivisor.of_degree(-0.5 * math.log(t))
    t, _ = _theta_param(d, 1e-12)
    exp, a = math.exp, -math.pi * t

    def tail(n):
        ratio = exp(a * (2 * n + 5))
        return (2 * n + 3) * exp(a * (n + 1) * (n + 1)) + 2.0 * exp(a * (n + 2) * (n + 2)) / (1.0 - ratio)

    eps = tail(stop - 1)
    assert tail(stop) < eps
    iterated = repr(gaussian_avg_quadrature(d, eps))
    monkeypatch.setattr("absarith.arakelov._QUADRATURE_NUMPY_PIECES", 0)
    assert repr(gaussian_avg_quadrature(d, eps)) == iterated == repr(_quadrature_per_piece(d, eps))


@pytest.mark.parametrize(
    "deg, eps, chunked",
    [
        (2.0, 1e-12, False),
        (2.99, 1e-12, False),
        (3.0, 1e-12, True),
        (2.89, 1e-15, False),
        (2.9, 1e-15, True),
        (3.11, 1e-9, False),
        (3.12, 1e-9, True),
        (8.4, 1e-12, True),
        (9.0, 1e-15, True),
        (11.87, 1e-12, True),
    ],
)
def test_quadrature_with_numpy_loaded_sums_in_chunks_from_the_break_even(monkeypatch, deg, eps, chunked):
    # With numpy imported, every sum of _QUADRATURE_LOADED_PIECES pieces or
    # more (degree 3.0 on at eps 1e-12) takes the numpy chunks; at eps 1e-12
    # 2.0 stops at piece 23, 2.99 at 63 and 3.0 at 64, at eps 1e-15 2.89 at
    # 63 and 2.9 at 64, and at eps 1e-9 3.11 at 63 and 3.12 at 64.  The
    # iterator route is the only user of tee, so spying on it names the route.
    import numpy  # noqa: F401

    import absarith.arakelov as ak

    tees = []
    monkeypatch.setattr(ak, "tee", lambda it: tees.append(1) or tee(it))
    for d in _float_and_exact(deg):
        got = repr(gaussian_avg_quadrature(d, eps))
        assert got == repr(_quadrature_per_piece(d, eps)), (deg, d, eps)
    assert tees == ([] if chunked else [1, 1])


def _divisor_stopping_at(stop):
    """A divisor and an eps whose bisected stopping piece is stop: eps is the
    tail bound after piece stop - 1, as in the chunk-edge test above."""
    t = 30.0 / (math.pi * stop * stop)
    d = ArakelovDivisor.of_degree(-0.5 * math.log(t))
    t, _ = _theta_param(d, 1e-12)
    exp, a = math.exp, -math.pi * t

    def tail(n):
        ratio = exp(a * (2 * n + 5))
        return (2 * n + 3) * exp(a * (n + 1) * (n + 1)) + 2.0 * exp(a * (n + 2) * (n + 2)) / (1.0 - ratio)

    assert tail(stop) < tail(stop - 1)
    return d, tail(stop - 1)


@pytest.mark.parametrize("stop", [(1 << 6) - 1, 1 << 6, (1 << 6) + 1])
def test_quadrature_with_numpy_loaded_turns_to_the_chunks_at_the_break_even(monkeypatch, stop):
    # Stopping pieces either side of _QUADRATURE_LOADED_PIECES, each by the
    # route its size picks, and the same floats as the per-piece loop.
    import numpy  # noqa: F401

    import absarith.arakelov as ak

    assert ak._QUADRATURE_LOADED_PIECES == 1 << 6
    d, eps = _divisor_stopping_at(stop)
    tees = []
    monkeypatch.setattr(ak, "tee", lambda it: tees.append(1) or tee(it))
    assert repr(gaussian_avg_quadrature(d, eps)) == repr(_quadrature_per_piece(d, eps))
    assert tees == ([1] if stop < 1 << 6 else [])


def test_quadrature_with_numpy_loaded_matches_the_per_piece_loop_from_the_break_even_to_one_chunk():
    # Degrees 3.5 to 8.4 at eps 1e-9 and 1e-12 stop at pieces 95 to 15,463,
    # between the break-even and one chunk: with numpy loaded, they took the
    # iterator before and take the chunks now.
    import numpy  # noqa: F401

    for deg in [3.5 + i / 10 for i in range(50)]:
        for d in _float_and_exact(deg):
            for eps in (1e-9, 1e-12):
                assert repr(gaussian_avg_quadrature(d, eps)) == repr(_quadrature_per_piece(d, eps)), (deg, d, eps)


@pytest.mark.parametrize(
    "case",
    [(8.46, 1e-12), (9.0, 1e-12), (9.0, 1e-15), (10.5, 1e-12), (10.5, 1e-15), (11.87, 1e-12)]
    + [1 << 14, (1 << 14) + 1, 3 * (1 << 14) + 5],
)
def test_quadrature_without_numpy_loaded_sums_by_iterator_below_the_cold_threshold(monkeypatch, case):
    # From one chunk to _QUADRATURE_NUMPY_PIECES pieces the route turns on
    # whether numpy is imported, and once any test has imported it the other
    # quadrature tests take the chunks there.  Hiding numpy from the route
    # check keeps the iterator sum of a cold process under test at these
    # sizes; with numpy in sight again the same sums take the chunks.  A case
    # is a (degree, eps) row, float and exact, or a stopping piece.
    import numpy  # noqa: F401

    import absarith.arakelov as ak

    cases = [_divisor_stopping_at(case)] if isinstance(case, int) else [(d, case[1]) for d in _float_and_exact(case[0])]
    expected = [repr(_quadrature_per_piece(d, eps)) for d, eps in cases]
    tees = []
    monkeypatch.setattr(ak, "tee", lambda it: tees.append(1) or tee(it))
    with monkeypatch.context() as cold:
        cold.setattr(ak, "sys", types.SimpleNamespace(modules={}))
        assert [repr(gaussian_avg_quadrature(d, eps)) for d, eps in cases] == expected
    assert tees == [1] * len(cases)
    assert [repr(gaussian_avg_quadrature(d, eps)) for d, eps in cases] == expected
    assert tees == [1] * len(cases)


@pytest.mark.parametrize("deg, eps", [(9.0, 5e-324), (10.0, 1e-320), (12.0, 1e-12)])
def test_numpy_quadrature_under_a_raising_seterr(monkeypatch, deg, eps):
    # Under seterr(all="raise") the complex exp would raise on its first
    # subnormal E_m: at degree 9 and eps 5e-324, and at degree 10 and eps
    # 1e-320, the sum runs on into them.  The chunks ignore underflow and
    # leave the caller's settings as they found them.
    import numpy as np

    import absarith.arakelov as ak

    d = ArakelovDivisor.of_degree(deg)
    expected = repr(_quadrature_per_piece(d, eps))
    tees = []
    monkeypatch.setattr(ak, "tee", lambda it: tees.append(1) or tee(it))
    saved = np.seterr(all="raise")
    try:
        got = repr(gaussian_avg_quadrature(d, eps))
        after = np.geterr()
    finally:
        np.seterr(**saved)
    assert tees == []
    assert got == expected
    assert after == dict.fromkeys(("divide", "over", "under", "invalid"), "raise")


def test_chunk_exps_are_math_exps_bit_for_bit(monkeypatch):
    # Every argument a m m of the chunks at four degrees, seeded arguments
    # down to where exp underflows to 0, -0.0, and a sweep of the arguments
    # whose exps are subnormal; the floats are compared as uint64 bit patterns.
    import numpy as np

    import absarith.arakelov as ak

    chunk_exps = ak._chunk_exps
    args = []
    monkeypatch.setattr(ak, "_chunk_exps", lambda x: args.append(x.copy()) or chunk_exps(x))
    for deg in (8.5, 10.0, 12.0, 13.2):
        gaussian_avg_quadrature(ArakelovDivisor.of_degree(deg), 1e-12)
    # 17,113, 78,206, 592,451 and 1,995,483 pieces, in chunks of 2^14.
    assert len(args) == 2 + 5 + 37 + 122
    args += list(np.random.default_rng(24).uniform(-745.2, 0.0, (16, 62_500)))
    args += [np.array([-0.0, 0.0]), np.linspace(-745.2, -708.3, 100_001)]
    mismatches = subnormal = 0
    for x in args:
        expected = np.fromiter(map(math.exp, x.tolist()), np.float64, count=len(x))
        got = chunk_exps(x)
        assert got.dtype == np.float64
        mismatches += int(np.count_nonzero(got.view(np.uint64) != expected.view(np.uint64)))
        subnormal += int(np.count_nonzero((expected > 0.0) & (expected < 2.0**-1022)))
    assert mismatches == 0
    assert subnormal > 10_000


def _mc_trig_box_muller(d, samples, seed):
    """gaussian_avg_mc drawing both Box-Muller uniforms and taking |z| from
    the cosine and sine parts: the oracle for drawing the radius alone."""
    import numpy as np

    sigma = math.exp(d.arch.log) / math.sqrt(2.0 * math.pi)
    c = float(lattice_of(d).generator)
    partials = []
    for idx in range((samples + _MC_CHUNK - 1) // _MC_CHUNK):
        m = min(_MC_CHUNK, samples - idx * _MC_CHUNK)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(idx,))))
        u1 = rng.random(m)
        u2 = rng.random(m)
        r = sigma * np.sqrt(-2.0 * np.log1p(-u1))
        x = r * np.cos(2.0 * np.pi * u2)
        y = r * np.sin(2.0 * np.pi * u2)
        vals = 1.0 + 2.0 * np.floor(np.hypot(x, y) / c)
        partials.append((float(vals.sum()), float(np.square(vals).sum())))
    s1 = sum(p[0] for p in partials)
    s2 = sum(p[1] for p in partials)
    mean = s1 / samples
    var = max(s2 - samples * mean * mean, 0.0) / (samples - 1)
    return mean, math.sqrt(var / samples)


def test_mc_radius_draw_matches_trig_box_muller():
    divisors = (
        ArakelovDivisor.zero(),
        ArakelovDivisor.of_degree(1.0),
        D({2: 1}, ScaleValue.exact_exp(Fraction(3, 4))),
        D({3: -1}, ScaleValue.from_log(-0.7)),
    )
    for d in divisors:
        for seed in (7, 11, 13, 42):
            expected = tuple(map(repr, _mc_trig_box_muller(d, 150_001, seed)))
            for threads in (1, 2):
                r = gaussian_avg_mc(d, 150_001, seed, threads=threads)
                assert (repr(r.mean), repr(r.stderr)) == expected, (d, seed, threads)


def _mc_with_temporaries(d, samples, seed):
    """gaussian_avg_mc with each chunk computed as one expression, a fresh
    array per step: the oracle for the chunk computed in place."""
    import numpy as np

    sigma = math.exp(d.arch.log) / math.sqrt(2.0 * math.pi)
    c = float(lattice_of(d).generator)
    partials = []
    for idx in range((samples + _MC_CHUNK - 1) // _MC_CHUNK):
        m = min(_MC_CHUNK, samples - idx * _MC_CHUNK)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(idx,))))
        r = sigma * np.sqrt(-2.0 * np.log1p(-rng.random(m)))
        vals = 1.0 + 2.0 * np.floor(r / c)
        partials.append((float(vals.sum()), float(np.square(vals).sum())))
    s1 = sum(p[0] for p in partials)
    s2 = sum(p[1] for p in partials)
    mean = s1 / samples
    var = max(s2 - samples * mean * mean, 0.0) / (samples - 1)
    return mean, math.sqrt(var / samples)


def test_mc_in_place_chunk_matches_the_expression():
    divisors = (
        ArakelovDivisor.zero(),
        ArakelovDivisor.of_degree(0.6),
        D({2: 1}, ScaleValue.exact_exp(Fraction(3, 4))),
        D({5: -1}, ScaleValue.from_log(0.9)),
    )
    for d in divisors:
        for seed in (7, 11, 13, 42):
            expected = tuple(map(repr, _mc_with_temporaries(d, 140_003, seed)))
            for threads in (1, 2):
                r = gaussian_avg_mc(d, 140_003, seed, threads=threads)
                assert (repr(r.mean), repr(r.stderr)) == expected, (d, seed, threads)


def test_prime_power_bits_are_capped_before_any_power_is_built():
    one = ScaleValue.exact_exp(1)
    # 400000 + 252000 log2 3 = 799,410 bits: accepted
    assert ArakelovDivisor.make({2: 400000, 3: -252000}, one).finite == ((2, 400000), (3, -252000))
    for finite in ({2: 800_001}, {2: 400000, 3: -253000}, {3: 10**7}, {2: 10**400}, {5: -(10**400)}):
        with pytest.raises(CapExceeded, match="800000 bits"):
            ArakelovDivisor.make(finite, one)


@pytest.mark.parametrize("q", [Fraction(6, 5), Fraction(-10, 21), Fraction(1, 360)])
def test_linearly_equivalent_divisors_share_theta_and_exp_degree(q):
    # Adding a principal divisor changes neither exp(deg) nor h0: exactly on
    # an exact scale, and up to rounding on a float scale, where the scales
    # combine through their logs.
    exact = D({2: 3, 5: -1}, ScaleValue.exact_exp(Fraction(2, 7)))
    shifted = exact + principal(q)
    assert shifted != exact
    assert exp_degree(shifted) == exp_degree(exact)
    assert theta_h0(shifted) == theta_h0(exact)
    floating = D({3: 1}, ScaleValue.from_log(0.4))
    shifted = floating + principal(q)
    assert not shifted.arch.is_exact
    assert exp_degree(shifted) == pytest.approx(exp_degree(floating), rel=1e-14)
    assert theta_h0(shifted) == pytest.approx(theta_h0(floating), rel=1e-14)


# e^u or the generator c alone out of a float's range: c = 2^-1100 and
# e^-800 underflow to 0.0, e^1000 and 2^1100 overflow (degrees about 62.5,
# -37.6, -39.7 and -62.5).
ONE_FACTOR_OUT_OF_RANGE = [({2: 1100}, -700.0), ({2: 1100}, -800.0), ({2: -1500}, 1000.0), ({2: -1100}, 700.0)]


@pytest.mark.parametrize("finite, u", ONE_FACTOR_OUT_OF_RANGE)
def test_mc_takes_sigma_over_c_from_the_degree_where_one_factor_leaves_the_float_range(finite, u):
    d = D(finite, ScaleValue.from_log(u))
    r = gaussian_avg_mc(d, 100_000, seed=3)
    expected = math.exp(theta_h0(d, 1e-12))
    # Far below degree 0 every sample is 1, and so is exp(h0).
    assert abs(r.mean - expected) <= 4 * r.stderr, (r, expected)


def test_mc_ratio_route_matches_the_two_factor_route():
    # The same degree with c = 1 and with c = 2^1500, whose float overflows:
    # both routes take the same uniforms, and sigma / c differs at most by
    # rounding, so no more than one sample of 100,000 may land on the other
    # side of a floor.
    for deg in (-1.0, 0.0, 0.5, 1.0, 3.0, 8.0):
        two_factors = gaussian_avg_mc(D({}, ScaleValue.from_log(deg)), 100_000, seed=4)
        ratio = gaussian_avg_mc(D({2: -1500}, ScaleValue.from_log(deg + 1500 * math.log(2))), 100_000, seed=4)
        assert abs(ratio.mean - two_factors.mean) <= 2 / 100_000, deg


def test_mc_names_sigma_over_c_where_the_ratio_leaves_the_float_range():
    # Degree about -760: exp(deg) itself underflows to 0.0.
    with pytest.raises(ValueError, match=r"sigma / c = exp\(deg\) / sqrt\(2 pi\) at degree -760\."):
        gaussian_avg_mc(D({2: 1500}, ScaleValue.from_log(-1800.0)), 10, seed=1)


# The Monte Carlo count route: its premises, its thresholds and its fallback.
MC_ENTROPIES = (0, 7, 42, 2**40 + 3, 10**30)
MC_SPAWN_KEYS = ((0,), (1,), (15,), (1000,))


def test_generator_random_is_the_top_53_bits_of_the_raw_words():
    # The count route compares raw words where the float route reads
    # random(): u = (w >> 11) 2^-53, compared bit for bit.
    import numpy as np

    for entropy in MC_ENTROPIES:
        for key in MC_SPAWN_KEYS:
            for m in (_MC_CHUNK, 12_345, 1):
                ss = np.random.SeedSequence(entropy=entropy, spawn_key=key)
                floats = np.random.Generator(np.random.PCG64(ss)).random(m)
                words = np.random.PCG64(ss).random_raw(m)
                expected = (words >> np.uint64(11)) * 2.0**-53
                assert np.array_equal(floats.view(np.uint64), expected.view(np.uint64)), (entropy, key, m)


def _mc_call(monkeypatch, d):
    """(sigma, c) and the thresholds of gaussian_avg_mc(d, 1, 0), seen by a
    spy on _mc_thresholds."""
    seen = []

    def spy(sigma, c):
        seen.append((sigma, c, original(sigma, c)))
        return seen[-1][2]

    original = ak._mc_thresholds
    with monkeypatch.context() as m:
        m.setattr(ak, "_mc_thresholds", spy)
        gaussian_avg_mc(d, 1, 0)
    return seen[0]


def test_log1p_is_well_inside_the_windows_error_bound(monkeypatch):
    # _MC_WINDOW covers a radius error of about 125 ulps of log1p; numpy's
    # float64 log1p must stay within 4, on seeded draws and on every input
    # of the threshold search at degrees 0 and 1, against mpmath at 120 bits.
    import numpy as np

    mpmath = pytest.importorskip("mpmath")
    inputs = [np.random.default_rng(25).random(100_000)]
    original = ak._mc_counts
    with monkeypatch.context() as m:
        m.setattr(ak, "_mc_counts", lambda u, sigma, c: inputs.append(u.ravel().copy()) or original(u, sigma, c))
        for deg in (0.0, 1.0):
            assert _mc_call(monkeypatch, ArakelovDivisor.of_degree(deg))[2]
    # The largest draw, then K + 1 = 4 and 10 windows.
    assert sum(map(len, inputs[1:])) == 2 + (4 + 10) * (2 * ak._MC_WINDOW + 1)
    worst = 0.0
    with mpmath.workprec(120):
        for u in inputs:
            for x, got in zip((-u).tolist(), np.log1p(-u).tolist()):
                exact = mpmath.log1p(x)
                if exact == 0:
                    assert got == 0.0
                else:
                    worst = max(worst, float(abs(got - exact)) / math.ulp(float(exact)))
    assert worst <= 4.0


def _mc_threshold_divisors():
    for deg in (-1.0, 0.0, 0.5, 1.0, 1.5):
        yield ArakelovDivisor.of_degree(deg)
        yield D({}, ScaleValue.exact_exp(Fraction(math.exp(deg)).limit_denominator(1000)))
    yield D({3: -1}, ScaleValue.from_log(1.2 - math.log(3)))


def test_mc_thresholds_are_the_steps_of_the_float_counts(monkeypatch):
    # At T_j - 1 the count is below j, at T_j it is j or more, each taken as
    # a single draw; K is the count of the largest draw.
    import numpy as np

    def count(sigma, c, i):
        return ak._mc_counts(np.array([i * 2.0**-53]), sigma, c)[0]

    for d in _mc_threshold_divisors():
        sigma, c, thresholds = _mc_call(monkeypatch, d)
        assert thresholds and len(thresholds) == count(sigma, c, 2**53 - 1), d
        for j, t in enumerate(thresholds, 1):
            assert isinstance(t, np.uint64) and int(t) % 2048 == 0
            step = int(t) >> 11
            assert count(sigma, c, step - 1) < j <= count(sigma, c, step), (d, j)


@pytest.mark.parametrize("shift", [10**6, -(10**6)])
def test_mc_refuses_an_estimate_off_by_a_million_and_counts_by_floats(monkeypatch, shift):
    estimate = ak._mc_threshold_estimate
    for deg in (0.0, 1.0):
        d = ArakelovDivisor.of_degree(deg)
        with monkeypatch.context() as m:
            m.setattr(ak, "_mc_thresholds", lambda sigma, c: None)
            by_floats = gaussian_avg_mc(d, 150_001, 9)
        assert _mc_call(monkeypatch, d)[2]
        with monkeypatch.context() as m:
            m.setattr(ak, "_mc_threshold_estimate", lambda j, sigma, c: estimate(j, sigma, c) + shift)
            assert _mc_call(monkeypatch, d)[2] is None
            r = gaussian_avg_mc(d, 150_001, 9)
        assert (repr(r.mean), repr(r.stderr)) == (repr(by_floats.mean), repr(by_floats.stderr)), deg


def test_mc_below_one_threshold_counts_one_without_a_draw(monkeypatch):
    import numpy as np

    d = ArakelovDivisor.of_degree(-3.0)
    assert _mc_call(monkeypatch, d)[2] == []
    with monkeypatch.context() as m:
        m.setattr(ak, "_mc_thresholds", lambda sigma, c: None)
        by_floats = gaussian_avg_mc(d, 150_001, 5)
    with monkeypatch.context() as m:
        m.setattr(np.random, "PCG64", None)
        for threads in (1, 2):
            r = gaussian_avg_mc(d, 150_001, 5, threads=threads)
            assert (repr(r.mean), repr(r.stderr)) == (repr(by_floats.mean), repr(by_floats.stderr)) == ("1.0", "0.0")


def test_sums_and_principal_divisors_do_not_reprove_their_primes(monkeypatch):
    # The summands' supports were proven prime when they were made, and
    # factorize proves every factor it returns; the divisor_bits check stays.
    p = 999999999989
    d1 = D({2: 1, p: 1}, ScaleValue.exact_exp(Fraction(3, 2)))
    d2 = D({3: -1, p: 1}, ScaleValue.from_log(0.5))
    big = D({2: 400_001}, ScaleValue.exact_exp(1))

    def refuse(n):
        raise AssertionError(f"is_prime({n}) called again")

    monkeypatch.setattr(ak, "is_prime", refuse)
    assert (d1 + d2).finite == ((2, 1), (3, -1), (p, 2))
    assert (d1 + negated(d1)).finite == ()
    assert principal(Fraction(-12 * p, 35)).finite == ((2, 2), (3, 1), (5, -1), (7, -1), (p, 1))
    with pytest.raises(CapExceeded, match="800000 bits"):
        big + big
    with pytest.raises(AssertionError, match="called again"):
        D({5: 1}, ScaleValue.exact_exp(1))


def _memo_grid() -> list:
    """Seeded exact and float divisors, with sums, negatives and principal
    shifts of them, each a new object."""
    rng = random.Random(4711)
    primes = (2, 3, 5, 7, 11, 13, 999999999989)
    out = []
    for _ in range(40):
        parts = []
        for _ in range(2):
            finite = {p: rng.randint(-3, 3) for p in rng.sample(primes, rng.randint(0, 3))}
            if rng.random() < 0.5:
                arch = ScaleValue.exact_exp(Fraction(rng.randint(1, 60), rng.randint(1, 60)))
            else:
                arch = ScaleValue.from_log(rng.uniform(-6.0, 6.0))
            parts.append(D(finite, arch))
        d, e = parts
        q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 90), rng.randint(1, 90))
        out += [d, d + e, negated(d), d + negated(e), d + principal(q)]
    return out


def test_the_degree_memo_equals_a_fresh_computation_and_leaves_equality_alone():
    grid = _memo_grid()
    assert any(d.arch.is_exact for d in grid) and any(not d.arch.is_exact for d in grid)
    for d in grid:
        twin = ArakelovDivisor(d.finite, d.arch)
        scale = ak.degree_scale(d)
        assert ak.degree_scale(d) is scale and scale == oracles.degree_scale(d)
        assert (exp_degree(d), degree(d)) == (scale.value, scale.log)
        assert lattice_of(d) == Lattice1(oracles.lattice_generator(d)) and lattice_of(d) is lattice_of(d)
        # d's memo is filled and twin's is not; neither shows in ==, hash or repr.
        assert set(vars(d)) - set(vars(twin)) == {"_finite_exp", "_lattice", "_degree_scale"}
        assert d == twin and twin == d and hash(d) == hash(twin) and repr(d) == repr(twin)
        assert {twin: 1}[d] == 1
        assert ak.degree_scale(twin) == scale and lattice_of(twin) == lattice_of(d)


def test_each_divisor_computes_its_degree_once(monkeypatch):
    from absarith import gamma_space as gs

    powers, scales = [], []

    class Prime(int):
        """A prime that records each power taken of it: the factors of
        _finite_exp's product N/D."""

        def __pow__(self, a):
            powers.append((int(self), a))
            return int(self) ** a

    class CountedScale(ScaleValue):
        def __init__(self, exact, log):
            scales.append(1)
            super().__init__(exact, log)

    # The grid's divisors again, their primes recording their powers.
    grid = [ArakelovDivisor(tuple((Prime(p), a) for p, a in d.finite), d.arch) for d in _memo_grid()]
    monkeypatch.setattr(ak, "ScaleValue", CountedScale)
    for d in grid:
        for _ in range(3):
            ak.degree_scale(d), exp_degree(d), degree(d), lattice_of(d), theta_h0(d)
            gs.GSConfig.from_divisor(d), gs.pi0_trivial_predicate(d, 2)
            if d.arch.is_exact:
                gs.pi0_cardinality_k1(d), gs.pi1_count(d, 2)
    # One product per object, each of its prime powers taken once, and one scale.
    assert len(powers) == sum(len(d.finite) for d in grid)
    assert len(scales) == len(grid)


def test_principal_refuses_past_divisor_bits_before_it_factors(monkeypatch):
    import time

    def factored(n):
        raise AssertionError("principal factored a rational past the cap")

    start = time.perf_counter()
    with monkeypatch.context() as m:
        m.setattr(ak, "factorize", factored)
        for q in (Fraction(2**800_001), Fraction(1, 2**800_001), Fraction(2**800_000 * 3, 5)):
            with pytest.raises(CapExceeded, match="800000 bits"):
                principal(q)
    # The bound is inclusive, as in _of_primes: 2^800000 has exactly the cap.
    assert principal(Fraction(1, 2**800_000)).finite == ((2, -800_000),)
    assert time.perf_counter() - start < 0.5
    d = principal(Fraction(2**5000 * 3, 7))
    assert d == ArakelovDivisor(((2, 5000), (3, 1), (7, -1)), ScaleValue.exact_exp(Fraction(7, 2**5000 * 3)))


def _identity_grid() -> list:
    """Seeded divisors for the integer routes: empty supports, mixed signs,
    primes near 10^12, exact and float scales (-0.0 among them), with sums
    and negatives, and exp-degrees on either side of the float range of t."""
    rng = random.Random(3931)
    primes = (2, 3, 5, 7, 11, 13, 999999999989, 999999999959)
    scales = [ScaleValue.exact_exp(1), ScaleValue.from_log(0.0), ScaleValue.from_log(-0.0)]
    out = []
    for _ in range(120):
        finite = {p: rng.randint(-40, 40) for p in rng.sample(primes, rng.randint(0, 4))}
        if rng.random() < 0.5:
            num, den = (rng.randint(1, 10 ** rng.randint(1, 30)) for _ in range(2))
            arch = ScaleValue.exact_exp(Fraction(num, den))
        else:
            arch = rng.choice(scales + [ScaleValue.from_log(rng.uniform(-40.0, 40.0))])
        out.append(D(finite, arch))
    out += [d + e for d, e in zip(out[::2], out[1::2])] + [negated(d) for d in out[::3]]
    out += [D({}, scale) for scale in scales]
    out.append(ArakelovDivisor.from_json_dict({"finite": {"2": 3}, "arch": {"float": -0.0}}))
    # t = exp(-2 deg) about the largest float: 3^646 is below it, and 2^1024
    # above, from a prime power, from a support whose 5 the scale cancels and
    # from the scale alone.
    for finite, r in (({3: -323}, 1), ({2: -512}, 1), ({2: -511, 5: 1}, Fraction(1, 10)), ({}, Fraction(1, 2**512))):
        out.append(D(finite, ScaleValue.exact_exp(r)))
    return out


def test_the_integer_scale_routes_match_their_fraction_oracles():
    grid = _identity_grid()
    # The largest accepted mixed-sign divisor, 400000 + 252000 log2 3 = 799,410 bits.
    grid.append(D({2: 400000, 3: -252000}, ScaleValue.exact_exp(Fraction(5, 7))))
    overflows = 0
    for d in grid:
        prod, scale = oracles.finite_exp(d), oracles.degree_scale(d)
        assert ak._finite_exp(d) == (prod.numerator, prod.denominator)
        assert lattice_of(d).generator == oracles.lattice_generator(d)
        got = ak.degree_scale(d)
        assert got.exact == scale.exact and repr(got.log) == repr(scale.log), d
        try:
            t = oracles.theta_t(d)
        except OverflowError:
            # _theta_param reads the OverflowError of its int division, or of
            # math.exp on a float scale, as inf.
            if got.exact is not None:
                overflows += 1
                with pytest.raises(OverflowError):
                    got.exact.denominator**2 / got.exact.numerator**2
            t = math.inf
        assert repr(_theta_param(d, 1e-12)) == repr((t, scale.log)), d
    assert overflows >= 3


def test_the_integer_radii_match_their_fraction_oracle():
    from absarith.gamma_space import GSConfig, pi1_count

    for d in _identity_grid():
        if d.arch.is_exact and oracles.degree_scale(d).exact < 40:
            cfg = GSConfig.from_divisor(d)
            r = oracles.radius(cfg.lam, cfg.lattice.generator)
            # pi1_count's cross-check raises SelfCheckFailed where its r differs.
            assert pi1_count(d, 1, cross_check=True) == delannoy(r, 1)
            for k in (1, 2):
                expected = _count_E_xi_per_coordinate(cfg.lattice, k, r)
                assert repr(count_E_xi(cfg.lattice, k, cfg.lam)) == repr(expected)
    rng = random.Random(77)
    for _ in range(200):
        c = Fraction(rng.randint(1, 10**rng.randint(1, 20)), rng.randint(1, 10**rng.randint(1, 20)))
        xi = rng.choice((rng.randint(0, 50), Fraction(rng.randint(0, 10**6), rng.randint(1, 10**6)))) * c
        # Fraction and int bounds, on a multiple of c and just inside one.
        xi = rng.choice((xi, xi - Fraction(1, 10**30) if xi else xi, int(xi)))
        r = oracles.radius(xi, c)
        if r <= 60:
            assert repr(count_E_xi(Lattice1(c), 1, xi)) == repr(_count_E_xi_per_coordinate(Lattice1(c), 1, r))


def test_exact_scale_strings_are_bounded_before_they_are_built():
    import time

    def divisor(text):
        return ArakelovDivisor.from_json_dict({"finite": {}, "arch": {"exact_exp": text}})

    start = time.perf_counter()
    for text in ("1e10000000", "1e100000000", "1e-100000000", "0e100000000", "1_0e1_000_000", " 1.5E+240825 "):
        with pytest.raises(CapExceeded, match="800000 bits"):
            divisor(text)
    assert time.perf_counter() - start < 0.5
    # 10^240000 has 797,263 bits, 10^240823 799,999.3: within the cap, and
    # so is 10^-240823; 10^240824 has 800,002.6 bits.
    for text, value in (
        ("1e240000", Fraction(10**240000)),
        ("1e240823", Fraction(10**240823)),
        ("1e-240823", Fraction(1, 10**240823)),
        ("0.0001e240827", Fraction(10**240823)),
        ("12.5e3", Fraction(12500)),
        ("3/7", Fraction(3, 7)),
    ):
        assert divisor(text).arch.exact == value, text
    assert theta_h0(divisor("1e240000")) == 240000 * math.log(10)
    with pytest.raises(CapExceeded):
        divisor("1e240824")
    # Malformed strings are Fraction's ValueError, exponent or not.
    for text in ("e100000000", "1/2e100000000", "1e", "1e_5", "0x10"):
        with pytest.raises(ValueError, match="Invalid literal for Fraction"):
            divisor(text)

