"""The one l1 comparison, sum |v_i| <= bound, and counting of integer
vectors in l1 balls (arakelov.count_E_xi lists them).

delannoy(n, k) counts the points of Z^k with l1-norm at most n; the closed
form is the terminating hypergeometric sum 1 + sum_m 2^m C(k,m) C(n,m), and
the classical three-term recurrence is kept alongside as an independent
cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm, log10
from typing import Sequence

from .errors import check_budget


# The float tolerance that gamma_space.member and the norm filtration allow.
FLOAT_TOL = 1e-12


def l1_within(vec: Sequence, bound, tol: float = 0.0) -> bool:
    """sum |v_i| <= bound, inclusive: the package's one l1 comparison.

    Exact when the bound and every entry are rational (int or Fraction): the
    norm is s / L on integer numerators over the lcm L of the denominators,
    s = sum |a_i| (L / b_i), and s / L <= p / q is decided as s q <= p L on
    ints. Otherwise the float sum of the entries is compared with
    float(bound) + tol.
    """
    if isinstance(bound, (int, Fraction)) and all(isinstance(v, (int, Fraction)) for v in vec):
        common = lcm(*[v.denominator for v in vec])
        total = sum(abs(v.numerator) * (common // v.denominator) for v in vec)
        return total * bound.denominator <= bound.numerator * common
    return sum(abs(float(v)) for v in vec) <= float(bound) + tol


def delannoy_digits(n: int, k: int) -> float:
    """A lower bound on the decimal digits of delannoy(n, k), from logs alone.

    For every 1 <= m <= min(n, k), D >= 2^m C(n,m) C(k,m) >= (2 n k / m^2)^m;
    the bound is taken at m = min(n, k) and near sqrt(2 n k) / e, where it
    peaks, less one digit for the rounding of the logs.
    """
    top = min(n, k)
    if top < 1:
        return 0.0
    log_2nk = log10(2 * n * k)
    candidates = {top, max(1, min(top, isqrt(2 * n * k) * 100 // 272))}
    return max(m * (log_2nk - 2 * log10(m)) for m in candidates) - 1


def delannoy(n: int, k: int) -> int:
    """Number of integer vectors in Z^k with |v_1| + ... + |v_k| <= n.

    Each term 2^m C(k,m) C(n,m) is the last one times 2 (k-m+1) (n-m+1) / m^2.
    Its min(n, k) steps each cost about the length of the result, which is
    bounded first (errors.BUDGETS["delannoy_digits"]).
    """
    if n < 0 or k < 0:
        raise ValueError("delannoy is defined for nonnegative arguments")
    check_budget("delannoy_digits", delannoy_digits(n, k))
    total = term = 1
    for m in range(1, min(n, k) + 1):
        term = term * 2 * (k - m + 1) * (n - m + 1) // (m * m)
        total += term
    return total


def delannoy_table(n_max: int, k_max: int) -> list[list[int]]:
    """Table g[n][k] for 0 <= n <= n_max, 0 <= k <= k_max via the recurrence
    g(n,k) = g(n-1,k) + g(n,k-1) + g(n-1,k-1)."""
    if n_max < 0 or k_max < 0:
        raise ValueError("delannoy_table requires nonnegative bounds")
    g = [[1] * (k_max + 1) for _ in range(n_max + 1)]
    for n in range(1, n_max + 1):
        for k in range(1, k_max + 1):
            g[n][k] = g[n - 1][k] + g[n][k - 1] + g[n - 1][k - 1]
    return g
