import pytest

from absarith.numth import (
    divisors,
    euler_phi,
    factorize,
    is_prime,
    mobius,
    padic_valuation,
    unit_group_generators,
)
from fractions import Fraction
from math import gcd, isqrt


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(4) == 0
    assert mobius(6) == 1
    assert mobius(30) == -1


def test_mobius_sum_identity():
    # sum of mu(d) over divisors of n is 1 exactly at n = 1
    for n in range(1, 1001):
        total = sum(mobius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0)


def test_divisors_sorted():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_rejects_nonpositive():
    for fn in (divisors, mobius, factorize, euler_phi):
        with pytest.raises(ValueError):
            fn(0)


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_matches_trial_division():
    def oracle(n):
        return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))

    assert [n for n in range(200_000) if is_prime(n)] == [n for n in range(200_000) if oracle(n)]


def test_is_prime_on_strong_pseudoprimes_and_large_primes():
    # strong pseudoprimes to the first 4, 9 and 12 prime bases respectively
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    for p in (10**16 + 61, 99999999999999997):
        assert is_prime(p)


def test_factorize_roundtrip():
    for n in range(1, 300):
        prod = 1
        for p, e in factorize(n).items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_unit_generators_generate():
    for n in (1, 2, 3, 4, 8, 9, 12, 15, 24, 27720):
        gens = unit_group_generators(n)
        assert all(gcd(g, n) == 1 for g in gens)
        generated = {1 % n} if n > 1 else {0}
        frontier = [1 % n]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = x * g % n
                if y not in generated:
                    generated.add(y)
                    frontier.append(y)
        if n > 1:
            assert generated == {u for u in range(n) if gcd(u, n) == 1}
        assert len(generated) == max(euler_phi(n), 1) if n > 1 else True


def test_padic_valuation():
    assert padic_valuation(12, 2) == 2
    assert padic_valuation(Fraction(3, 8), 2) == -3
    assert padic_valuation(Fraction(3, 8), 3) == 1
    with pytest.raises(ValueError):
        padic_valuation(0, 2)


def test_unit_generator_lifts_a_root_that_is_not_primitive_mod_p_squared():
    # 5 is the least primitive root mod 40487, and 5^40486 = 1 mod 40487^2,
    # so the generator mod 40487^2 is the lift 5 + 40487.
    p = 40487
    assert pow(5, p - 1, p * p) == 1
    (g,) = unit_group_generators(p * p)
    assert g == 40492
    order = p * (p - 1)
    assert pow(g, order, p * p) == 1
    assert all(pow(g, order // q, p * p) != 1 for q in factorize(order))


@pytest.mark.parametrize(
    "least, cofactor",
    [(43, 77140559643718311301459), (1009, 3287456952110889381557), (1000003, 3317034113577546763)],
)
def test_is_prime_past_the_miller_rabin_bound_finds_the_least_factor(least, cofactor):
    # Above 3.3e24 primality is decided by trial division from 43 on; each of
    # these composites is a prime times a larger prime, just past that bound.
    n = least * cofactor
    assert n > 3_317_044_064_679_887_385_961_981
    assert is_prime(least) and is_prime(cofactor) and cofactor > least
    assert not is_prime(n)
