"""The per-draw routes of the divisor-space certificate, the oracles of its
byte route in absarith.gamma_space: the certificate deciding membership and
face 0 draw by draw, with the last face's table built up front; membership
on a sampled member's indices; and the GSElement of given indices for the
object path's member and face.  The certificate draws each index uniformly
from the seeded generator's bytes, the same for the same seed; here randint
draws indices of the same form, so that the index route can be checked on
members of its own.  The samples test the face code, not the theorem.
"""

import random
from fractions import Fraction
from itertools import compress, repeat
from operator import and_
from typing import Sequence

from absarith.errors import SelfCheckFailed
from absarith.gamma_space import (
    _ABS_M,
    GSConfig,
    GSElement,
    TrivialityCertificate,
    _byte_draws,
    _index_face_is_zero,
    _last_face_table,
    face_equations,
)


def _members_per_draw(frees: list[bytes], toruses: list[bytes], n: int, k: int) -> list[bool]:
    """member() on each draw's bytes, one sum per draw: sum|m| <= 4nk and
    every torus index at most 6."""
    norms_fit = map((4 * n * k).__ge__, map(sum, map(bytes.translate, frees, repeat(_ABS_M))))
    return list(map(and_, norms_fit, map((6).__ge__, map(max, toruses))))


def _face0_vanishes_per_draw(frees: list[bytes], toruses: list[bytes], n: int, k: int) -> list[bool]:
    """Whether face 0 is zero for each draw, the free and torus bytes tested
    on every draw."""
    tail, zero_torus = b"\x02" * (n * k - k), bytes(k)
    return list(map(and_, map(bytes.endswith, frees, repeat(tail)), map(zero_torus.__eq__, toruses)))


def _certificate_per_draw(n: int, cfg: GSConfig, k: int, samples: int, seed: int) -> TrivialityCertificate:
    """higher_pi_trivial by the per-draw route on the same draws: membership
    and face 0 decided draw by draw, and the last face's table built as soon
    as any face 0 vanishes."""
    rank, torus_pinned = face_equations(n)
    violated = samples
    if samples:
        frees, toruses = _byte_draws(random.Random(seed), n, k, samples)
        if not all(_members_per_draw(frees, toruses, n, k)):
            raise SelfCheckFailed(f"a sampled draw of the degree {n} certificate at level {k} is not a member")
        face0_zero = list(compress(zip(frees, toruses), _face0_vanishes_per_draw(frees, toruses, n, k)))
        table = _last_face_table(cfg, n, k) if face0_zero else None
        for free, torus in face0_zero:
            rows = [[r - 2 for r in free[i : i + k]] for i in range(0, n * k, k)]
            if all(_index_face_is_zero(j, rows, torus, table) for j in range(1, n + 1)):
                violated -= 1
    return TrivialityCertificate(
        n=n,
        k=k,
        rank=rank,
        torus_pinned=torus_pinned,
        samples_checked=samples,
        verified=rank == n and torus_pinned and violated == samples,
    )


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
