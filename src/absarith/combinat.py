"""The l1 norm, and counting and enumeration of integer vectors in l1 balls.

delannoy(n, k) counts the points of Z^k with l1-norm at most n; the closed
form is the terminating hypergeometric sum 1 + sum_m 2^m C(k,m) C(n,m), and
the classical three-term recurrence is kept alongside as an independent
cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterator, Sequence


def l1_norm(vec: Sequence) -> Fraction | float:
    """sum |v_i|: an exact Fraction when every entry is rational, else a float."""
    if all(isinstance(v, (int, Fraction)) for v in vec):
        return sum((abs(v) for v in vec), Fraction(0))
    return sum(abs(float(v)) for v in vec)


def delannoy(n: int, k: int) -> int:
    """Number of integer vectors in Z^k with |v_1| + ... + |v_k| <= n."""
    if n < 0 or k < 0:
        raise ValueError("delannoy is defined for nonnegative arguments")
    return 1 + sum(2**m * comb(k, m) * comb(n, m) for m in range(1, min(n, k) + 1))


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
    """Yield all integer k-vectors with l1-norm <= radius, in lexicographic order."""
    if k < 0 or radius < 0:
        raise ValueError("iter_l1_ball requires nonnegative arguments")
    if k == 0:
        yield ()
        return
    for first in range(-radius, radius + 1):
        for rest in iter_l1_ball(k - 1, radius - abs(first)):
            yield (first,) + rest

