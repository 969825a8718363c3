import json
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from absarith import group_ring
from absarith.errors import SelfCheckFailed
from absarith.group_ring import (
    GroupRingElt,
    act_unit,
    groupring_to_witt,
    is_invariant,
    rho_tilde,
    sigma,
    witt_to_groupring,
)
from absarith.witt import WittElement, frobenius, ghost, verschiebung
from group_ring_oracles import (
    _ref_act_unit,
    _ref_add,
    _ref_canonical,
    _ref_mul,
    _ref_neg,
    _ref_rho_tilde,
    _ref_sigma,
    _ref_witt_to_groupring,
    fourier,
    ghost_invariant,
    primitive_orbit_sum,
    terms,
)
from helpers import random_groupring, random_witt

E = GroupRingElt.e


def test_convolution_examples():
    assert E(Fraction(1, 2)) * E(Fraction(1, 2)) == E(0)
    assert E(Fraction(1, 2)) * E(Fraction(1, 3)) == E(Fraction(5, 6))
    x = E(0) + E(Fraction(1, 2))
    assert x * x == 2 * E(0) + 2 * E(Fraction(1, 2))


def test_sigma_examples():
    assert sigma(2, E(Fraction(1, 2))) == E(0)
    assert sigma(3, E(Fraction(1, 6)) + E(Fraction(5, 6))) == 2 * E(Fraction(1, 2))


def test_sigma_is_ring_endomorphism():
    rng = random.Random(31)
    for _ in range(60):
        x, y = random_groupring(rng), random_groupring(rng)
        n = rng.randint(1, 8)
        assert sigma(n, x * y) == sigma(n, x) * sigma(n, y)
        assert sigma(n, x + y) == sigma(n, x) + sigma(n, y)


def test_rho_examples():
    assert rho_tilde(2, E(0)) == E(0) + E(Fraction(1, 2))
    rng = random.Random(33)
    for _ in range(60):
        x = random_groupring(rng)
        n = rng.randint(1, 8)
        assert sigma(n, rho_tilde(n, x)) == n * x
        m = rng.randint(1, 6)
        assert rho_tilde(n, rho_tilde(m, x)) == rho_tilde(n * m, x)


def test_operator_relation_suite():
    # multiplicativity, projection formula, and the general divisibility rule
    rng = random.Random(35)
    for _ in range(60):
        x, y = random_groupring(rng), random_groupring(rng)
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        b, c = rng.randint(1, 8), rng.randint(1, 8)
        assert sigma(n * m, x) == sigma(n, sigma(m, x))
        assert rho_tilde(m, sigma(m, x) * y) == x * rho_tilde(m, y)
        g = gcd(b, c)
        assert sigma(c, rho_tilde(b, x)) == g * rho_tilde(b // g, sigma(c // g, x))
        if gcd(n, m) == 1:
            assert sigma(n, rho_tilde(m, x)) == rho_tilde(m, sigma(n, x))


def test_invariance_examples():
    assert is_invariant(E(Fraction(1, 3)) + E(Fraction(2, 3)))
    assert not is_invariant(E(Fraction(1, 3)))
    assert is_invariant(GroupRingElt.zero())
    assert is_invariant(primitive_orbit_sum(12))


def test_invariance_matches_exhaustive_unit_check():
    # the generator-based test agrees with brute force over all units
    rng = random.Random(37)
    for _ in range(60):
        x = random_groupring(rng, max_den=9)
        n = x.torsion_lcm()
        exhaustive = all(act_unit(u, x) == x for u in range(1, n + 1) if gcd(u, n) == 1)
        assert is_invariant(x) == exhaustive


def test_witt_to_groupring_examples():
    assert witt_to_groupring(WittElement.basis(2)) == E(0) + E(Fraction(1, 2))
    rng = random.Random(39)
    for _ in range(60):
        w = random_witt(rng)
        img = witt_to_groupring(w)
        assert is_invariant(img)
        assert groupring_to_witt(img) == w


def test_witt_to_groupring_is_ring_map():
    rng = random.Random(41)
    for _ in range(40):
        a, b = random_witt(rng, max_k=10), random_witt(rng, max_k=10)
        assert witt_to_groupring(a * b) == witt_to_groupring(a) * witt_to_groupring(b)
        assert witt_to_groupring(a + b) == witt_to_groupring(a) + witt_to_groupring(b)


def test_groupring_to_witt_rejects_noninvariant():
    with pytest.raises(ValueError):
        groupring_to_witt(E(Fraction(1, 3)))


INVARIANCE_MESSAGE = "only invariant group-ring elements correspond to Witt elements"


def _must_not_call(name):
    def poisoned(*args):
        raise AssertionError(f"groupring_to_witt called {name}")

    return poisoned


def test_groupring_to_witt_decides_invariance_by_its_round_trip_alone(monkeypatch):
    # Seeded elements, sorted by is_invariant before it is patched to raise:
    # the conversion inverts the invariant ones and refuses the others by
    # the same message as ever.
    rng = random.Random(47)
    elements = [random_groupring(rng, max_den=12, terms=6) for _ in range(300)]
    elements += [witt_to_groupring(random_witt(rng)) for _ in range(60)]
    invariant = [is_invariant(x) for x in elements]
    assert 60 <= sum(invariant) < len(elements) - 100
    monkeypatch.setattr(group_ring, "is_invariant", _must_not_call("is_invariant"))
    for x, fixed in zip(elements, invariant):
        if fixed:
            assert witt_to_groupring(groupring_to_witt(x)) == x
        else:
            with pytest.raises(ValueError) as refused:
                groupring_to_witt(x)
            assert str(refused.value) == INVARIANCE_MESSAGE


def test_a_symbol_count_off_euler_phi_is_refused_unexpanded(monkeypatch):
    # An invariant element has euler_phi(n) symbols of each order n; e(1/N)
    # alone is refused before the round trip would list the d symbols of
    # each C(d), d | N, 2.3 10^6 of them at N = 720720.
    monkeypatch.setattr(group_ring, "witt_to_groupring", _must_not_call("witt_to_groupring"))
    for x in (E(Fraction(1, 720720)), E(0) + E(Fraction(1, 5)), primitive_orbit_sum(9) + E(Fraction(1, 7))):
        with pytest.raises(ValueError) as refused:
            groupring_to_witt(x)
        assert str(refused.value) == INVARIANCE_MESSAGE


def test_a_symbol_of_huge_order_is_refused_unfactored(monkeypatch):
    # e(1/N) is one symbol where an orbit has euler_phi(N) >= sqrt(N / 2) of
    # them, so it is refused without factoring N, which at (2^89 - 1)(2^61 - 1)
    # would exhaust the factor_steps budget; 10^40 + 121 is prime.
    for name in ("absarith.numth.euler_phi", "absarith.numth.factorize", "absarith.group_ring.euler_phi"):
        monkeypatch.setattr(name, _must_not_call(name))
    for n in ((2**89 - 1) * (2**61 - 1), 10**40 + 121):
        x = E(Fraction(1, n))
        seconds = []
        for _ in range(3):
            started = time.perf_counter()
            assert is_invariant(x) is False
            with pytest.raises(ValueError) as refused:
                groupring_to_witt(x)
            seconds.append(time.perf_counter() - started)
            assert str(refused.value) == INVARIANCE_MESSAGE
        assert min(seconds) < 0.01, (n, seconds)


def test_a_round_trip_that_drops_a_symbol_is_a_failed_self_check(monkeypatch):
    w = WittElement.from_coeffs({6: 1})
    x = witt_to_groupring(w)
    exact = group_ring.witt_to_groupring
    monkeypatch.setattr(group_ring, "witt_to_groupring", lambda v: GroupRingElt(exact(v).items[1:]))
    with pytest.raises(SelfCheckFailed) as failed:
        groupring_to_witt(x)
    assert str(failed.value) == f"the Witt element {w!r} does not map back to the invariant element it came from"


def test_operators_correspond():
    # sigma matches Frobenius, rho matches Verschiebung across the identification
    rng = random.Random(43)
    for _ in range(40):
        w = random_witt(rng, max_k=8)
        n = rng.randint(1, 8)
        assert witt_to_groupring(frobenius(n, w)) == sigma(n, witt_to_groupring(w))
        assert witt_to_groupring(verschiebung(n, w)) == rho_tilde(n, witt_to_groupring(w))


def test_fourier_examples():
    for n in range(1, 6):
        assert abs(fourier(E(0), n) - 1) < 1e-12
    w = WittElement.basis(4)
    img = witt_to_groupring(w)
    assert ghost_invariant(img, 8) == 4
    assert ghost_invariant(img, 6) == 0


def test_ghost_invariant_matches_witt_ghost():
    rng = random.Random(45)
    for _ in range(30):
        w = random_witt(rng)
        img = witt_to_groupring(w)
        for n in range(1, 10):
            assert ghost_invariant(img, n) == ghost(w, n)


def test_operator_ghost_shifts():
    # on invariant elements, sigma shifts the character index up by a factor
    # and rho concentrates it on multiples
    rng = random.Random(46)
    for _ in range(20):
        x = witt_to_groupring(random_witt(rng, max_k=6))
        m = rng.randint(1, 6)
        for n in range(1, 13):
            assert ghost_invariant(sigma(m, x), n) == ghost_invariant(x, n * m)
            expected = m * ghost_invariant(x, n // m) if n % m == 0 else 0
            assert ghost_invariant(rho_tilde(m, x), n) == expected


def test_fourier_close_to_exact_ghost():
    rng = random.Random(47)
    for _ in range(30):
        w = random_witt(rng)
        img = witt_to_groupring(w)
        for n in range(1, 8):
            assert abs(fourier(img, n) - ghost_invariant(img, n)) < 1e-8


def test_json_roundtrip():
    # a JSON object of "a/n" keys, read back by from_terms
    rng = random.Random(49)
    for _ in range(20):
        x = random_groupring(rng)
        text = json.dumps({f"{a}/{n}": c for (a, n), c in x.items})
        assert GroupRingElt.from_terms(json.loads(text)) == x


def test_from_terms_rejects_a_zero_denominator():
    with pytest.raises(ValueError, match="nonzero denominator"):
        GroupRingElt.from_terms({"1/0": 1})
    with pytest.raises(ValueError, match="nonzero denominator"):
        GroupRingElt.from_terms({"2/0": 1})


def test_from_terms_refuses_a_coefficient_that_is_not_an_int():
    # a float, a Fraction, a bool and a string are each refused by name, not truncated
    for c in (1.5, 2.0, Fraction(1, 2), True, "1"):
        with pytest.raises(ValueError) as refused:
            GroupRingElt.from_terms({"1/2": 1, "1/3": c})
        assert str(refused.value) == f"group-ring coefficients must be integers, got {c!r}"
    assert GroupRingElt.from_terms({"1/2": 3}) == 3 * E(Fraction(1, 2))


def test_operators_match_the_accumulating_oracle():
    rng = random.Random(107)
    zero = GroupRingElt.zero()
    pairs = [(zero, zero), (zero, random_groupring(rng)), (random_groupring(rng), zero)]
    for _ in range(150):
        # small orders so that sums, images and preimages collide
        max_den = rng.choice((2, 4, 6, 12))
        pairs.append((random_groupring(rng, max_den=max_den, terms=8), random_groupring(rng, max_den=max_den, terms=8)))
    for x, y in pairs:
        n, u = rng.randint(1, 6), rng.choice((1, 5, 7, 11, 2, 3))
        assert repr(x + y) == repr(_ref_add(x, y))
        assert repr(x - y) == repr(_ref_add(x, _ref_neg(y)))
        assert repr(-x) == repr(_ref_neg(x))
        m = rng.randint(0, 4)
        assert repr(m * x) == repr(x * m) == repr(_ref_canonical({g: m * c for g, c in terms(x).items()}))
        assert repr(x * y) == repr(_ref_mul(x, y))
        assert repr(sigma(n, x)) == repr(_ref_sigma(n, x))
        assert repr(rho_tilde(n, x)) == repr(_ref_rho_tilde(n, x))
        try:
            expected = repr(_ref_act_unit(u, x))
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                act_unit(u, x)
            assert str(got.value) == str(exc)
        else:
            assert repr(act_unit(u, x)) == expected
    for _ in range(60):
        w = random_witt(rng, max_k=10, terms=6)
        assert repr(witt_to_groupring(w)) == repr(_ref_witt_to_groupring(w))


def test_from_terms_matches_the_canonical_merge():
    # unreduced, negative and colliding keys, zero coefficients, the empty mapping
    rng = random.Random(109)
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            den = rng.randint(1, 6)
            terms[Fraction(rng.randint(-2 * den, 2 * den), den)] = rng.randint(-2, 2)
        assert repr(GroupRingElt.from_terms(terms)) == repr(_ref_canonical(terms))
        text = json.dumps({f"{g.numerator}/{g.denominator}": c for g, c in terms.items()})
        assert repr(GroupRingElt.from_terms(json.loads(text))) == repr(_ref_canonical(terms))
    for n in range(1, 40):
        expected = _ref_canonical({Fraction(a, n): 1 for a in range(n) if gcd(a, n) == 1})
        assert repr(primitive_orbit_sum(n)) == repr(expected)
