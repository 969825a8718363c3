"""The per-draw route of the divisor-space certificate, the oracle of its
byte route in absarith.gamma_space: membership on a sampled member's indices,
and the GSElement of given indices for the object path's member and face.
The certificate draws each index uniformly from the seeded generator's bytes,
the same for the same seed; here randint draws indices of the same form, so
that the index route can be checked on members of its own.  The samples test
the face code, not the theorem.
"""

import random
from fractions import Fraction
from typing import Sequence

from absarith.errors import SelfCheckFailed
from absarith.gamma_space import GSConfig, GSElement, member


def _draw_nonzero_indices(rng: random.Random, n: int, k: int) -> tuple[list[list[int]], list[int]]:
    """The indices of a sampled member: n rows of k free indices randint(-2, 2)
    and k torus indices randint(0, 6), drawn in that order and redrawn until
    some index is nonzero."""
    randint = rng.randint
    while True:
        rows = [[randint(-2, 2) for _ in range(k)] for _ in range(n)]
        torus = [randint(0, 6) for _ in range(k)]
        if any(map(any, rows)) or any(torus):
            return rows, torus


def _indices_are_member(rows: Sequence[Sequence[int]], torus: Sequence[int], n: int, k: int) -> bool:
    """member() on indices: the free norms lambda/(4nk) sum|m| are at most
    lambda exactly when sum|m| <= 4nk, and c t/7 lies in [0, c) for t in 0..6."""
    return sum(sum(map(abs, row)) for row in rows) <= 4 * n * k and 0 <= min(torus) and max(torus) <= 6


def _coordinate_values(cfg: GSConfig, n: int, k: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The values a sampled member's coordinates take: free entries
    lambda/(4nk) m for m = -2..2, torus entries c j/7 for j = 0..6."""
    scale = Fraction(cfg.lam) / (4 * n * k)
    c = cfg.lattice.generator
    return tuple(scale * m for m in range(-2, 3)), tuple(c * j / 7 for j in range(7))


def _element_from_indices(
    k: int,
    rows: Sequence[Sequence[int]],
    torus: Sequence[int],
    free_values: tuple[Fraction, ...],
    torus_values: tuple[Fraction, ...],
) -> GSElement:
    """The member whose free entries are free_values[m + 2] and torus entries
    torus_values[t] for the given indices."""
    free = tuple(tuple(free_values[m + 2] for m in row) for row in rows)
    return GSElement(k, free, tuple(torus_values[t] for t in torus))


def _random_nonzero_member(
    rng: random.Random,
    cfg: GSConfig,
    n: int,
    k: int,
    free_values: tuple[Fraction, ...],
    torus_values: tuple[Fraction, ...],
) -> GSElement:
    """The member of the next draw of _draw_nonzero_indices, built as a
    GSElement from free_values and torus_values."""
    e = _element_from_indices(k, *_draw_nonzero_indices(rng, n, k), free_values, torus_values)
    if not member(cfg, e):
        raise SelfCheckFailed(f"the certificate draw {e!r} is not a member")
    return e
