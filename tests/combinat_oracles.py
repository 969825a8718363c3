"""The odometer enumeration of integer l1 balls, the oracle of the
column-by-column layout combinat.l1_ball_columns, which arakelov.count_E_xi
and gamma_space.pi1_count read."""

from typing import Iterator


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
