"""The Verschiebung on raw endomorphisms, the route that tests check
witt.verschiebung against: n stacked copies of a pointed set, shifted
cyclically and twisted by the endomorphism on the wrap.  And the quotient
map X -> X/Y, whose functoriality the tests check; nothing in the package
builds one.  And the smash product by a double loop over the pairs of
points, the form that gamma_core.smash replaced with one pass per row."""

from typing import Sequence

from absarith.gamma_core import PointedEndo, PointedMap


def odometer(n: int, t: PointedEndo) -> PointedEndo:
    """Endomorphism on n stacked copies of the domain that shifts copies
    cyclically, applying t when wrapping from the last copy to the first.

    A k-cycle of t becomes a single nk-cycle; this realizes the Verschiebung
    at the level of raw endomorphisms.  Copy i of point x is encoded as
    i * N + x for i in 0..n-1.
    """
    if n < 1:
        raise ValueError("the odometer needs at least one copy")
    size = t.domain_size
    images = [0] * (n * size + 1)
    for i in range(n):
        for x in range(1, size + 1):
            if i < n - 1:
                images[i * size + x] = (i + 1) * size + x
            else:
                images[i * size + x] = t(x)  # lands in copy 0
    return PointedEndo(images)


def collapse(x_size: int, y_indices: Sequence[int]) -> PointedMap:
    """The quotient map X -> X/Y collapsing the marked subset Y to the base point.

    Y must contain 0.  The surviving points keep their relative order and are
    renumbered 1..(|X| - |Y| + 1).
    """
    y = set(y_indices)
    if 0 not in y:
        raise ValueError("the collapsed subset must contain the base point")
    if any(i < 0 or i > x_size for i in y):
        raise ValueError("collapsed index out of range")
    images = []
    nxt = 1
    for x in range(x_size + 1):
        if x in y:
            images.append(0)
        else:
            images.append(nxt)
            nxt += 1
    return PointedMap(tuple(images), nxt - 1)


def smash(s: PointedEndo, t: PointedEndo) -> PointedEndo:
    """The pair (i, j) of non-base points at (i - 1) N_t + j, sent to the
    pair (s(i), t(j)), or to the base point when either image is 0."""
    ns, nt = s.domain_size, t.domain_size
    images = [0] * (ns * nt + 1)
    for i in range(1, ns + 1):
        for j in range(1, nt + 1):
            si, tj = s(i), t(j)
            images[(i - 1) * nt + j] = 0 if si == 0 or tj == 0 else (si - 1) * nt + tj
    return PointedEndo(images)
