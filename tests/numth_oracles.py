"""The primality test, factorizer and valuation that numth.is_prime,
numth.factorize and numth.divide_out replaced, kept as their oracles:
Miller-Rabin to all 13 prime bases up to 41 below 3.3e24 and trial division
above, trial division by 2, 3 and 6k+-1 up to the square root, and one
division per factor p.  The Mobius function, which witt summed over divisors
before it inverted along multiples, kept for the Mobius-sum forms of
witt_oracles.  Also the generators of (Z/n)^x (primitive roots and their CRT
lifts) that group_ring.is_invariant acted with before it counted orbits,
kept for the generator route of group_ring_oracles.is_invariant."""

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


def divide_out(n: int, p: int) -> tuple[int, int]:
    """(e, n // p^e) for p^e the highest power of p >= 2 dividing n != 0, by
    one division per factor p."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


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
            # CRT lift: g mod q, 1 mod n/q (at rest = 1, pow(q, -1, 1) is 0).
            gens.append((g * rest * pow(rest, -1, q) + q * pow(q, -1, rest)) % n)
    return gens
