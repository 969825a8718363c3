"""Elementary number theory helpers: factorization, divisors, Mobius, unit groups.

Everything here is exact integer arithmetic.  Primality is decided by
deterministic Miller-Rabin below 3.3e24 and by trial division above; factoring
uses trial division, which suits the small inputs this package deals with
(cycle lengths, torsion orders, divisor supports).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Strong probable primes to all of _MR_BASES are prime below this bound
# (Sorenson and Webster, 2015).
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality test: Miller-Rabin to the 13 prime bases up to
    41 below 3.3e24, trial division above."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    if n >= _MR_EXACT_BELOW:
        d = 43
        while d * d <= n:
            if n % d == 0:
                return False
            d += 2
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n <= 0:
        raise ValueError(f"factorize requires a positive integer, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, sorted ascending."""
    if n <= 0:
        raise ValueError(f"divisors requires a positive integer, got {n}")
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def mobius(n: int) -> int:
    """Mobius function: (-1)^(number of prime factors) on squarefree n, else 0."""
    if n <= 0:
        raise ValueError(f"mobius requires a positive integer, got {n}")
    mu = 1
    for _, e in factorize(n).items():
        if e > 1:
            return 0
        mu = -mu
    return mu


def euler_phi(n: int) -> int:
    """Euler totient of n >= 1."""
    if n <= 0:
        raise ValueError(f"euler_phi requires a positive integer, got {n}")
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def _primitive_root_mod_prime_power(p: int, e: int) -> int:
    """A generator of (Z/p^e)^x for odd prime p."""
    # Find a primitive root mod p by testing against the maximal subgroup orders.
    phi_p = p - 1
    prime_factors = list(factorize(phi_p))
    g = 2
    while True:
        if all(pow(g, phi_p // q, p) != 1 for q in prime_factors):
            break
        g += 1
    if e == 1:
        return g
    # g lifts to a generator mod p^e unless g^(p-1) = 1 mod p^2, in which case g+p does.
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


def unit_group_generators(n: int) -> list[int]:
    """Generators of the multiplicative group (Z/nZ)^x.

    Returned as residues in [1, n) via the Chinese remainder theorem; for the
    factor 2^e with e >= 3 the two generators -1 and 5 are used.
    """
    if n <= 0:
        raise ValueError(f"unit_group_generators requires a positive integer, got {n}")
    if n <= 2:
        return []
    gens: list[int] = []
    for p, e in factorize(n).items():
        q = p**e
        rest = n // q
        if p == 2:
            local = [q - 1] if e >= 2 else []
            if e >= 3:
                local.append(5)
        else:
            local = [_primitive_root_mod_prime_power(p, e)]
        for g in local:
            # CRT lift: g mod q, 1 mod n/q.
            if rest == 1:
                gens.append(g % n)
            else:
                inv = pow(q, -1, rest)
                gens.append((g * rest * pow(rest, -1, q) + 1 * q * inv) % n)
    return gens


def padic_valuation(q: Fraction | int, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("the zero rational has no p-adic valuation")
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


__all__ = [
    "is_prime",
    "factorize",
    "divisors",
    "mobius",
    "euler_phi",
    "unit_group_generators",
    "padic_valuation",
    "gcd",
    "lcm",
]
