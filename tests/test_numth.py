import math
import random

import pytest

from absarith import numth
from absarith.numth import (
    divide_out,
    divisors,
    euler_phi,
    factorize,
    is_prime,
)
from math import gcd, isqrt
from numth_oracles import divide_out as oracle_divide_out
from numth_oracles import factorize as oracle_factorize
from numth_oracles import is_prime as oracle_is_prime
from numth_oracles import mobius
from numth_oracles import unit_group_generators


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


def test_divide_out_matches_the_repeated_division_loop():
    rng = random.Random(32)
    ps = (2, 3, 4, 7, 10, 1021)
    # e = 0 and e = 1, including negative n.
    cases = [(n, p) for p in ps for n in (1, -1, p + 1, p, -p, p * (p * p + 1))]
    # Exponents at 2^i - 1, 2^i and 2^i + 1, where the powers p^(2^i) turn.
    cases += [(p**e * m, p) for p in ps for i in range(1, 9) for e in (2**i - 1, 2**i, 2**i + 1) for m in (1, 11, -13)]
    cases += [(rng.randrange(1, 10 ** rng.randint(1, 40)), rng.randint(2, 50)) for _ in range(300)]
    cases += [(rng.choice(ps) ** rng.randint(0, 300) * rng.randrange(1, 10**9), rng.choice(ps)) for _ in range(300)]
    cases.append((3**50_000 * 5, 3))
    for n, p in cases:
        assert divide_out(n, p) == oracle_divide_out(n, p), (n, p)


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
    # Above 3.3e24 a composite is caught by the 13 Miller-Rabin bases before
    # any certificate; each of these is a prime times a larger prime, just
    # past that bound.
    n = least * cofactor
    assert n > 3_317_044_064_679_887_385_961_981
    assert is_prime(least) and is_prime(cofactor) and cofactor > least
    assert not is_prime(n)


# Each bound of the Miller-Rabin tiers with its factors and the bases it fools:
# the least composite that is a strong probable prime to those bases, so that
# the tier below it is deterministic.  3215031751 fools the first four prime
# bases, which the tiers do not use: (2, 7, 61) reaches further.
TIER_BOUNDS = [
    (3215031751, (151, 751, 28351), (2, 3, 5, 7)),
    (4759123141, (48781, 97561), (2, 7, 61)),
    (1122004669633, (611557, 1834669), (2, 13, 23, 1662803)),
    (2152302898747, (6763, 10627, 29947), (2, 3, 5, 7, 11)),
    (3474749660383, (1303, 16927, 157543), (2, 3, 5, 7, 11, 13)),
    (341550071728321, (10670053, 32010157), (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (149491, 747451, 34233211), (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318665857834031151167461, (399165290221, 798330580441), (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3317044064679887385961981, (1287836182261, 2575672364521), (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
]


@pytest.mark.parametrize("bound, factors, bases", TIER_BOUNDS)
def test_each_tier_bound_is_a_composite_that_fools_the_smaller_base_set(bound, factors, bases):
    from absarith.numth import _strong_probable_prime

    assert math.prod(factors) == bound and all(oracle_is_prime(p) for p in factors)
    assert _strong_probable_prime(bound, bases)
    assert not is_prime(bound)
    assert factorize(bound) == {p: 1 for p in factors}


def test_the_tiers_are_the_bounds_with_their_bases():
    from absarith.numth import _MR_TIERS

    assert list(_MR_TIERS) == [(bound, bases) for bound, _, bases in TIER_BOUNDS[1:]]


@pytest.mark.parametrize("bound", [bound for bound, _, _ in TIER_BOUNDS])
def test_is_prime_on_both_sides_of_each_bound_matches_the_oracle(bound):
    # Above the last bound the oracle is trial division, which cannot finish
    # on a prime near 3.3e24, so there it is checked from below only.
    rng = random.Random(bound)
    last = bound == TIER_BOUNDS[-1][0]
    ns = [bound - rng.randrange(1, 10**6) | 1 for _ in range(400)]
    ns += [] if last else [bound + rng.randrange(1, 10**6) | 1 for _ in range(400)]
    ns += [bound - 2, bound - 1] + ([] if last else [bound + 1, bound + 2])
    assert sum(map(oracle_is_prime, ns)) > 10
    assert [n for n in ns if is_prime(n)] == [n for n in ns if oracle_is_prime(n)]


def test_is_prime_matches_the_oracle_on_random_integers_below_10_to_the_13():
    rng = random.Random(13)
    ns = [rng.randrange(10**13) for _ in range(3000)]
    assert [n for n in ns if is_prime(n)] == [n for n in ns if oracle_is_prime(n)]


def test_the_n_minus_1_certificate_decides_primality_below_the_bound_too():
    # Pocklington's and Brillhart-Lehmer-Selfridge's theorems hold for every
    # n, so the certificate, which answers only above 3.3e24, can be checked
    # against the oracle where the oracle is fast, odd n of 5 to 20 digits.
    from absarith.numth import _n_minus_1_certified

    rng = random.Random(1975)
    ns = [rng.randrange(10**4, 10 ** rng.randint(5, 20)) | 1 for _ in range(600)]
    ns += [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 3215031751, 4759123141, 1122004669633]
    # 877099 = 307 * 2857 with F = 2 * 3 * 17 = 102, and 1530787 = 619 * 2473
    # with F = 2 * 3 * 103 = 618, meet Pocklington's conditions, and only the
    # square c1^2 - 4 c2 (625 and 9) shows them composite.
    ns += [877099, 1530787]
    assert sum(map(oracle_is_prime, ns)) > 30
    assert [n for n in ns if _n_minus_1_certified(n, [0])] == [n for n in ns if oracle_is_prime(n)]


def test_is_prime_above_the_bound_matches_sympy_or_exceeds_its_budget():
    # Above 3.3e24 a prime needs n - 1 split until its proven part F has
    # F^3 >= n, which rho cannot always do within factor_steps: here 2 of
    # the 10 primes of 35 to 44 digits raise CapExceeded.  A composite never
    # gets that far, and no answer differs from sympy's.
    sympy = pytest.importorskip("sympy")
    from absarith.errors import CapExceeded

    rng = random.Random(24)
    bound = TIER_BOUNDS[-1][0]
    ns = [bound + rng.randrange(1, 10**6) for _ in range(200)]
    ns += [rng.randrange(10**25, 10 ** rng.randint(26, 45)) for _ in range(200)]
    ns += [sympy.nextprime(rng.randrange(10 ** (d - 1), 10**d)) for d in range(25, 35)]
    hard = [sympy.nextprime(rng.randrange(10 ** (d - 1), 10**d)) for d in range(35, 45)]
    assert sum(map(sympy.isprime, ns)) > 10
    assert [n for n in ns if is_prime(n)] == [n for n in ns if sympy.isprime(n)]
    refused = 0
    for n in hard:
        try:
            assert is_prime(n)
        except CapExceeded:
            refused += 1
    assert refused == 2


def test_factorize_matches_the_trial_division_oracle():
    rng = random.Random(20)
    ns = list(range(1, 3000)) + [2**20 - 1, 2**20, 2**20 + 1, 1021 * 1031, 1031 * 1033, 1031**2, 2**40 * 1031 * 1033]
    ns += [rng.randrange(10 ** rng.randint(6, 12)) + 1 for _ in range(60)]
    for n in ns:
        got = factorize(n)
        assert got == oracle_factorize(n), n
        assert list(got) == sorted(got)


def test_factorize_matches_sympy_on_20_to_40_digit_semiprimes():
    # A prime factor above 3.3e24 needs an n - 1 certificate: that of the
    # 34-digit factor of the 40-digit product, whose p - 1 is
    # 8 * 421 * 15887 * 10650773430449 * 15909731549057, needs a 14-digit
    # prime that rho does not find within factor_steps, so it is refused.
    sympy = pytest.importorskip("sympy")
    from absarith.errors import CapExceeded

    rng = random.Random(1980)
    semiprimes = []
    for digits in range(20, 41):
        small = sympy.nextprime(rng.randrange(10**5, 10 ** rng.randint(6, 10)))
        rest = digits - len(str(small))
        semiprimes.append(small * sympy.nextprime(rng.randrange(10 ** (rest - 1), 10**rest)))
    semiprimes += [math.prod(sympy.nextprime(rng.randrange(10**9, 10**10)) for _ in range(2)) for _ in range(5)]
    refused = []
    for n in semiprimes:
        try:
            assert factorize(n) == sympy.factorint(n), n
        except CapExceeded:
            refused.append(n)
    assert [len(str(n)) for n in refused] == [40]


def test_factor_steps_budget_raises_cap_exceeded_when_exhausted(monkeypatch):
    from absarith import errors
    from absarith.errors import CapExceeded

    semiprime = 1000000007 * 1000000009
    above = 10000000000000000000000013  # prime, proven by a certificate
    assert factorize(semiprime) == {1000000007: 1, 1000000009: 1} and is_prime(above)
    monkeypatch.setitem(errors.BUDGETS, "factor_steps", (1000, errors.BUDGETS["factor_steps"][1]))
    with pytest.raises(CapExceeded, match="more than 1000 modular steps"):
        factorize(semiprime)
    with pytest.raises(CapExceeded, match="more than 1000 modular steps"):
        is_prime(above)
    # Below the deterministic bound nothing is counted, and the count is per call.
    assert is_prime(999999999989) and factorize(2**20 * 3) == {2: 20, 3: 1}
    assert all(factorize(1031 * 1033) == {1031: 1, 1033: 1} for _ in range(3))


@pytest.mark.parametrize(
    "p, q, steps",
    [(1000003, 1000033, 1022), (1048583, 2097169, 1790)],
)
def test_rho_work_on_a_semiprime_is_pinned(p, q, steps):
    # The factors alone do not show which polynomials rho iterates: with
    # x^2 - 1, x^2 - 2, ... in place of x^2 + 1, x^2 + 2, ... it finds the
    # same primes after 894 and 3454 weighted squarings.
    work = [0]
    assert sorted(numth._prime_factors(p * q, work)) == [p, q]
    assert work == [steps]


def test_factorize_takes_out_high_powers_by_valuation():
    import time

    rng = random.Random(33)
    ns = [2**e * m for e in (1, 63, 64, 1000) for m in (1, 3, 1031)]
    ns += [p**e * m for p in (3, 5, 1021) for e in (1, 2, 3, 31, 32, 33, 255, 256) for m in (1, 2, 7 * 11)]
    ns += [math.prod(rng.choice((2, 3, 5, 7, 11, 997)) ** rng.randint(0, 200) for _ in range(4)) for _ in range(40)]
    for n in ns:
        assert factorize(n) == oracle_factorize(n), n
    start = time.perf_counter()
    assert factorize(3**100_000 * 5**1000 * 2**300_000) == {2: 300_000, 3: 100_000, 5: 1000}
    assert time.perf_counter() - start < 0.5
