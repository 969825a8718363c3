"""The one l1 comparison, sum |v_i| <= bound, and the integer points of l1
balls: their count and their layout as columns.

delannoy(n, k) counts the points of Z^k with l1-norm at most n; the closed
form is the terminating hypergeometric sum 1 + sum_m 2^m C(k,m) C(n,m), and
the classical three-term recurrence is kept alongside as an independent
cross-check.  l1_ball_columns lays those points out on the ints -n..n, which
arakelov.count_E_xi maps onto the multiples of a lattice generator and
gamma_space.pi1_count's cross-check reads as they are.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain, compress, islice, repeat
from math import isqrt, lcm, log10
from operator import add, sub
from typing import Sequence

from .errors import check_budget


# The float tolerance of l1_within in floats and of the norm filtration at any alpha.
FLOAT_TOL = 1e-12


def l1_within(vec: Sequence, bound) -> bool:
    """sum |v_i| <= bound, inclusive: the package's one l1 comparison.

    Exact when the bound and every entry are rational (int or Fraction): the
    norm is s / L on integer numerators over the lcm L of the denominators,
    s = sum |a_i| (L / b_i), and s / L <= p / q is decided as s q <= p L on
    ints.  Otherwise the float sum of the entries is compared with
    float(bound) + FLOAT_TOL.
    """
    if isinstance(bound, (int, Fraction)) and all(isinstance(v, (int, Fraction)) for v in vec):
        common = lcm(*[v.denominator for v in vec])
        total = sum(abs(v.numerator) * (common // v.denominator) for v in vec)
        return total * bound.denominator <= bound.numerator * common
    return sum(abs(float(v)) for v in vec) <= float(bound) + FLOAT_TOL


def l1_ball_columns(radius: int, k: int) -> list[list[int]]:
    """The points of Z^k with l1-norm at most radius as k columns of ints,
    rows in lexicographic order, each column built in one C-level pass.

    There are delannoy(radius, k) rows; the caller bounds that count first.
    """
    if radius == 0:
        return [[0]] * k
    # under[d][l] = delannoy(l, d), the rows below a prefix with norm l left
    # and d coordinates to go: D(l, d) - D(l-1, d) = D(l, d-1) + D(l-1, d-1).
    under = [[1] * (radius + 1)]
    for _ in range(k - 1):
        under.append(list(accumulate(map(add, under[-1], chain((0,), under[-1])))))
    # Column k-1-d is read off the prefixes with norm left (norms) and their
    # first rows (starts): a prefix with norm l spans a block of D(l, d+1)
    # rows, each value m in -l..l repeated D(l - |m|, d) times, built once per
    # norm, and the rows between blocks, whose norm is spent, are 0.  The
    # columns are padded to the length of the first, the layout's own count,
    # so that a layout that miscounts cannot meet the closed form by padding.
    values_of: dict[int, tuple[int, ...]] = {}
    left_of: dict[int, tuple[int, ...]] = {}
    norms, starts = [radius], [0]
    columns = []
    rows = 0
    for d in range(k - 1, -1, -1):
        block_of, offsets_of = {}, {}
        for norm in set(norms):
            if norm not in values_of:
                values_of[norm] = tuple(range(-norm, norm + 1))
                # norm - |m| for m = -norm..norm.
                left_of[norm] = tuple(chain(range(norm), range(norm, -1, -1)))
            if d:
                sizes = tuple(map(under[d].__getitem__, left_of[norm]))
                block_of[norm] = tuple(chain.from_iterable(map(repeat, values_of[norm], sizes)))
                offsets_of[norm] = tuple(islice(accumulate(sizes, initial=0), len(sizes)))
            else:
                block_of[norm] = values_of[norm]
        blocks = list(map(block_of.__getitem__, norms))
        ends = list(map(add, starts, map(len, blocks)))
        gaps = map(repeat, repeat(0), map(sub, starts, chain((0,), ends)))
        rows = rows or ends[-1]
        columns.append(list(chain.from_iterable(map(chain, gaps, blocks))) + [0] * (rows - ends[-1]))
        if d:
            # The next prefixes: each value m of each block, where norm is left.
            # The value 0 keeps its prefix's norm, so norms never runs out.
            lefts = list(map(left_of.__getitem__, norms))
            child_norms = list(chain.from_iterable(lefts))
            firsts = chain.from_iterable(map(repeat, starts, map(len, lefts)))
            child_starts = map(add, firsts, chain.from_iterable(map(offsets_of.__getitem__, norms)))
            starts = list(compress(child_starts, child_norms))
            norms = list(filter(None, child_norms))
    return columns


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
