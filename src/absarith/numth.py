"""Elementary number theory helpers: factorization, divisors, Euler phi.

Everything here is exact integer arithmetic, and no answer rests on a probable
prime.  Below 3.3e24, is_prime is a Miller-Rabin test to the smallest base set
known to be deterministic in n's range (Jaeschke 1993; Sorenson and Webster
2015), three or four modular powers below 1.1e12 instead of thirteen.  Above,
the 13 prime bases up to 41 only witness compositeness, and a prime is
accepted with an n-1 certificate: Pocklington's once the proven part F of n-1
exceeds sqrt(n), Brillhart-Lehmer-Selfridge's (1975) once F^3 >= n.

factorize divides by 2, 3 and 6k+-1 below _TRIAL_BELOW, which finishes every
n below 2^20 (the cycle lengths, torsion orders and indices this package
mostly meets) as plain trial division would; a larger cofactor is split by
Pollard's rho in Brent's form (1980), each factor proven prime.  The rho
steps and certificate squarings of one call are bounded by the factor_steps
budget, so a factor rho cannot find in time, or a prime whose n-1 it cannot
split far enough, raises CapExceeded.
"""

from __future__ import annotations

from math import gcd, isqrt

from .errors import check_budget


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (bound, bases): below bound, a strong probable prime to every one of bases
# is prime, and bound itself is a composite one (Jaeschke 1993; Sorenson and
# Webster 2015 for the last two).  1662803 is prime and meets only n above
# the first bound, so no base is a multiple of the n it tests.
_MR_TIERS = (
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1662803)),
    (2_152_302_898_747, _MR_BASES[:5]),
    (3_474_749_660_383, _MR_BASES[:6]),
    (341_550_071_728_321, _MR_BASES[:7]),
    (3_825_123_056_546_413_051, _MR_BASES[:9]),
    (318_665_857_834_031_151_167_461, _MR_BASES[:12]),
    (3_317_044_064_679_887_385_961_981, _MR_BASES),
)
# factorize's trial divisors stop here, so a cofactor below its square is 1 or prime.
_TRIAL_BELOW = 1 << 10
# Pollard-Brent takes one gcd per this many rho steps.
_RHO_BATCH = 128


def _spend(work: list[int], steps: int, n: int) -> None:
    """Count steps modular squarings mod n against the factor_steps budget,
    each weighted by 1 + (bits of n / 256)^2, about its cost relative to a
    squaring of machine words."""
    work[0] += steps * (1 + (n.bit_length() >> 8) ** 2)
    check_budget("factor_steps", work[0])


def _strong_probable_prime(n: int, bases) -> bool:
    """Miller-Rabin: whether odd n > max(bases) passes the strong test to every base."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
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


def is_prime(n: int) -> bool:
    """Deterministic primality: Miller-Rabin to the smallest deterministic
    base set for n's range below 3.3e24, an n-1 certificate above."""
    return _is_prime(n, [0])


def _is_prime(n: int, work: list[int]) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    for bound, bases in _MR_TIERS:
        if n < bound:
            return _strong_probable_prime(n, bases)
    _spend(work, len(_MR_BASES) * n.bit_length(), n)
    return _strong_probable_prime(n, _MR_BASES) and _n_minus_1_certified(n, work)


def _n_minus_1_certified(n: int, work: list[int]) -> bool:
    """Whether n is prime, for n above the last tier, from primes q proven
    to divide n - 1 whose full powers multiply to F with F^3 >= n.

    If some a has a^(n-1) = 1 and gcd(a^((n-1)/q) - 1, n) = 1 for each q,
    every prime factor of n is 1 mod F (Pocklington).  So n is prime if
    F^2 > n; and if F^3 >= n, n has at most two prime factors aF + 1 and
    bF + 1, and n = c2 F^2 + c1 F + 1 in base F gives c2 = ab and c1 = a + b,
    so n is prime exactly when c1^2 - 4 c2 is not a square (Brillhart,
    Lehmer and Selfridge 1975).  n - 1 is split only until F is that large.
    """
    small: dict[int, int] = {}
    rest = _trial_division(n - 1, small)
    f = (n - 1) // rest
    primes = list(small)
    found = _prime_factors(rest, work)
    while f**3 < n:
        q = next(found)
        e, rest = divide_out(rest, q)
        if e:
            primes.append(q)
            f *= q**e
    for q in primes:
        a = 2
        while True:
            _spend(work, 2 * n.bit_length(), n)
            if pow(a, n - 1, n) != 1:
                return False
            g = gcd(pow(a, (n - 1) // q, n) - 1, n)
            if g == 1:
                break
            if g != n:
                return False
            a += 1
    if f * f > n:
        return True
    c2, c1 = divmod((n - 1) // f, f)
    disc = c1 * c1 - 4 * c2
    return disc < 0 or isqrt(disc) ** 2 != disc


def _trial_division(n: int, out: dict[int, int]) -> int:
    """Divide n by 2, 3 and 6k+-1 below _TRIAL_BELOW, recording each prime
    found in out, which starts empty; the cofactor left, whose prime factors
    are all larger.  The 2s go by one shift and every other prime by
    divide_out, so a high power costs a few big divisions, not one per factor."""
    if not n & 1:
        twos = (n & -n).bit_length() - 1
        out[2] = twos
        n >>= twos
    if n % 3 == 0:
        out[3], n = divide_out(n, 3)
    d = 5
    while d * d <= n and d < _TRIAL_BELOW:
        if n % d == 0:
            out[d], n = divide_out(n, d)
        if n % (d + 2) == 0:
            out[d + 2], n = divide_out(n, d + 2)
        d += 6
    return n


def divide_out(n: int, p: int) -> tuple[int, int]:
    """(e, n // p^e) for p^e the highest power of p >= 2 dividing n != 0: the
    package's one p-adic valuation.  n is divided by p, p^2, p^4, ... while
    each divides what is left, then by the same powers, largest first, where
    each still divides (the bits of the rest of the exponent), so a factor
    p^e costs about 2 log2 e divisions.  The common e = 0 and e = 1 take one
    and two tests."""
    if n % p:
        return 0, n
    q = n // p
    if q % p:
        return 1, q
    powers, exponent, power, n = [p], 1, p * p, q
    while True:
        q, r = divmod(n, power)
        if r:
            break
        n = q
        exponent += 1 << len(powers)
        powers.append(power)
        power *= power
    for i in reversed(range(len(powers))):
        q, r = divmod(n, powers[i])
        if not r:
            n = q
            exponent += 1 << i
    return exponent, n


def _rho(n: int, work: list[int]) -> int:
    """A proper divisor of a composite n with no prime factor below
    _TRIAL_BELOW: Pollard's rho in Brent's form (1980), iterating
    x -> x^2 + c from 2 for c = 1, 2, ..., with one gcd per _RHO_BATCH steps."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            _spend(work, r, n)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                _spend(work, min(_RHO_BATCH, r - k), n)
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            # The batch overshot: retrace it one gcd at a time.
            _spend(work, _RHO_BATCH, n)
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}, in increasing order."""
    if n <= 0:
        raise ValueError(f"factorize requires a positive integer, got {n}")
    out: dict[int, int] = {}
    n = _trial_division(n, out)
    if n >= _TRIAL_BELOW**2:
        for p in _prime_factors(n, [0]):
            out[p] = out.get(p, 0) + 1
        return dict(sorted(out.items()))
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _prime_factors(n: int, work: list[int]):
    """The prime factors of n > 1, with multiplicity, each proven prime, for
    n with no prime factor below _TRIAL_BELOW."""
    cofactors = [n]
    while cofactors:
        m = cofactors.pop()
        if _is_prime(m, work):
            yield m
        else:
            d = _rho(m, work)
            cofactors += (d, m // d)


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, sorted ascending."""
    if n <= 0:
        raise ValueError(f"divisors requires a positive integer, got {n}")
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def euler_phi(n: int) -> int:
    """Euler totient of n >= 1."""
    if n <= 0:
        raise ValueError(f"euler_phi requires a positive integer, got {n}")
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


__all__ = [
    "is_prime",
    "factorize",
    "divisors",
    "euler_phi",
]
