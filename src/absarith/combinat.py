"""The l1 norm and the one l1-budget comparison, and counting and enumeration
of integer vectors in l1 balls.

delannoy(n, k) counts the points of Z^k with l1-norm at most n; the closed
form is the terminating hypergeometric sum 1 + sum_m 2^m C(k,m) C(n,m), and
the classical three-term recurrence is kept alongside as an independent
cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator, Sequence


def _l1_over_lcm(vec: Sequence) -> tuple[int, int] | None:
    """(sum |a_i| (L / b_i), L) for rational entries a_i / b_i, L the lcm of
    the denominators, so that the l1 norm is the first over the second;
    None when some entry is not rational (int or Fraction)."""
    if not all(isinstance(v, (int, Fraction)) for v in vec):
        return None
    common = lcm(*[v.denominator for v in vec])
    return sum(abs(v.numerator) * (common // v.denominator) for v in vec), common


def l1_norm(vec: Sequence) -> Fraction | float:
    """sum |v_i|: an exact Fraction when every entry is rational, else a float.

    The exact sum is taken on integer numerators over the lcm L of the
    denominators, sum |a_i| (L / b_i), and divided by L once.
    """
    exact = _l1_over_lcm(vec)
    if exact is not None:
        return Fraction(*exact)
    return sum(abs(float(v)) for v in vec)


def l1_within(vec: Sequence, bound, tol: float = 0.0) -> bool:
    """sum |v_i| <= bound, inclusive: the package's one l1-budget comparison.

    Exact when the bound and every entry are rational (int or Fraction): with
    the norm as s / L, s / L <= p / q is decided as s q <= p L on ints.
    Otherwise the float sum of the entries is compared with float(bound) + tol.
    """
    if isinstance(bound, (int, Fraction)):
        exact = _l1_over_lcm(vec)
        if exact is not None:
            total, common = exact
            return total * bound.denominator <= bound.numerator * common
    return sum(abs(float(v)) for v in vec) <= float(bound) + tol


def delannoy(n: int, k: int) -> int:
    """Number of integer vectors in Z^k with |v_1| + ... + |v_k| <= n.

    Each term 2^m C(k,m) C(n,m) is the last one times 2 (k-m+1) (n-m+1) / m^2.
    """
    if n < 0 or k < 0:
        raise ValueError("delannoy is defined for nonnegative arguments")
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


def iter_l1_ball(k: int, radius: int) -> Iterator[tuple[int, ...]]:
    """Yield all integer k-vectors with l1-norm <= radius, in lexicographic order.

    An odometer, so that k may exceed the recursion limit: left[i] is the norm
    left for coordinates i, i+1, ..., coordinate i runs from -left[i] to
    left[i], and each step advances the last coordinate below its bound and
    resets the coordinates after it to their least values (-left, then zeros).
    """
    if k < 0 or radius < 0:
        raise ValueError("iter_l1_ball requires nonnegative arguments")
    vec = [0] * k
    left = [radius] + [0] * k
    i = 0
    while True:
        if i < k:
            vec[i] = -left[i]
            vec[i + 1 :] = [0] * (k - i - 1)
            left[i + 1 :] = [0] * (k - i)
        yield tuple(vec)
        i = k - 1
        while i >= 0 and vec[i] == left[i]:
            i -= 1
        if i < 0:
            return
        vec[i] += 1
        left[i + 1] = left[i] - abs(vec[i])
        i += 1
