import math
import random
import types
from fractions import Fraction
from itertools import tee

import pytest

from absarith.arakelov import (
    _MC_CHUNK,
    QUADRATURE_MAX_PIECES,
    ArakelovDivisor,
    Lattice1,
    ScaleValue,
    count_E_xi,
    count_xi_over_L,
    degree,
    e_xi_member,
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
from absarith.combinat import delannoy, iter_l1_ball
from absarith.errors import CapExceeded


def D(finite, arch):
    return ArakelovDivisor.make(finite, arch)


def test_divisor_validation():
    with pytest.raises(ValueError):
        D({4: 1}, ScaleValue.exact_exp(1))
    with pytest.raises(ValueError):
        ScaleValue.exact_exp(0)


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


def test_count_E_xi_matches_delannoy():
    for c_num, c_den in ((1, 1), (1, 2), (3, 2)):
        lat = Lattice1(Fraction(c_num, c_den))
        for k in range(1, 4):
            for xi in (Fraction(0), Fraction(2), Fraction(7, 3)):
                pts = count_E_xi(lat, k, xi)
                n = math.floor(xi / lat.generator)
                assert len(pts) == delannoy(n, k)
                assert all(e_xi_member(p, xi) for p in pts)


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
        for k, radius in ((2000, 0), (100, 1), (20, 2)):
            expected = _count_E_xi_per_coordinate(Lattice1(c), k, radius)
            got = count_E_xi(Lattice1(c), k, c * radius)
            assert got == expected and repr(got) == repr(expected), (c, k, radius)


def test_count_E_xi_cap_names_the_count():
    with pytest.raises(CapExceeded, match=f"enumeration of {delannoy(30, 4)} lattice points exceeds cap 1000"):
        count_E_xi(Lattice1(Fraction(1)), 4, 30, cap=1000)


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
        (8.4, 1e-12, False),
        (8.4, 1e-15, True),
        (8.46, 1e-12, True),
        (9.0, 1e-12, True),
        (9.0, 1e-15, True),
        (10.5, 1e-12, True),
        (11.87, 1e-12, True),
    ],
)
def test_quadrature_with_numpy_loaded_sums_in_chunks_from_one_chunk(monkeypatch, deg, eps, chunked):
    # With numpy imported, every sum of more than _QUADRATURE_CHUNK pieces
    # (degree 8.45 on at eps 1e-12) takes the numpy chunks; 8.4 at eps 1e-12
    # stops short of one chunk and 8.4 at eps 1e-15 just past it.  The
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


def test_negation_and_difference_of_divisors():
    for d in (D({2: 3, 5: -1}, ScaleValue.exact_exp(Fraction(2, 7))), D({3: 1, 7: -2}, ScaleValue.from_log(0.4))):
        assert exp_degree(d - d) == 1
        assert lattice_of(-d).generator == 1 / lattice_of(d).generator
        assert -(-d) == d
    # With no negative exponent, deg f = u + log N and deg(-f) = -u - log N
    # round alike, so negation is exact on a float scale too.
    f = D({3: 1}, ScaleValue.from_log(0.4))
    assert degree(-f) == -degree(f)
