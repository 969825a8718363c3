"""Packing numbers: largest subsets with all pairwise distances above a radius.

This is a maximum independent set in the graph whose edges join points at
distance <= radius.  Small instances are solved exactly by branch and bound
on bitmasks; larger ones fall back to a greedy maximal set, reported as a
lower bound rather than a value.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import frozen


@frozen
class PackingResult:
    size: int
    exact: bool


def circle_distance(x, y):
    """Quotient metric on the circle R/Z of circumference 1."""
    d = abs(x - y) % 1
    return min(d, 1 - d)


# Largest instance that packing_number solves exactly, by branch and bound;
# past it a greedy maximal set gives a lower bound.
BNB_MAX_POINTS = 40


def packing_number(points: Sequence, radius, metric: Callable) -> PackingResult:
    """Maximal number of points with pairwise distance strictly above radius.

    The point count picks the route: branch and bound, exact, up to
    BNB_MAX_POINTS points, and beyond that a greedy maximal set, reported
    with exact=False as a lower bound.  Comparisons against the radius are
    carried out in whatever arithmetic the metric returns (exact for
    rational inputs).
    """
    if len(points) <= BNB_MAX_POINTS:
        return PackingResult(_branch_and_bound(points, radius, metric), True)
    return PackingResult(_greedy(points, radius, metric), False)


def _greedy(points: Sequence, radius, metric: Callable) -> int:
    """The size of the maximal set that takes each point in turn when it is
    farther than radius from every point taken before."""
    chosen: list = []
    for p in points:
        if all(metric(p, q) > radius for q in chosen):
            chosen.append(p)
    return len(chosen)


def _branch_and_bound(points: Sequence, radius, metric: Callable) -> int:
    """The size of a largest set with pairwise distances above radius, by
    branch and bound on bitmasks of the points."""
    n = len(points)
    adjacency = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if metric(points[i], points[j]) <= radius:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i

    best = 0

    def expand(candidates: int, size: int) -> None:
        nonlocal best
        if size + candidates.bit_count() <= best:
            return
        if candidates == 0:
            best = max(best, size)
            return
        v = (candidates & -candidates).bit_length() - 1
        expand(candidates & ~adjacency[v] & ~(1 << v), size + 1)
        expand(candidates & ~(1 << v), size)

    expand((1 << n) - 1, 0)
    return best
