"""The per-draw route of the divisor-space certificate, the oracle of its
byte route in absarith.gamma_space: randint draws of each sampled member's
indices, the same draws decoded from the generator's 32-bit words in blocks,
membership on the indices, and the GSElement of each draw for the object
path's member and face.
"""

import itertools
import random
from fractions import Fraction
from typing import Sequence

from absarith.errors import SelfCheckFailed
from absarith.gamma_space import GSConfig, GSElement, member

# _TOP_BITS[b]: the top three bits of a byte.
_TOP_BITS = bytes(b >> 5 for b in range(256))
# 1 KiB of words, about what 50 samples take at n = 2, k = 1.
_WORDS_PER_BLOCK = 256


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


def _decoded_nonzero_indices(
    rng: random.Random, n: int, k: int, samples: int
) -> list[tuple[list[list[int]], list[int]]]:
    """The next `samples` draws of _draw_nonzero_indices(rng, n, k), read
    from the generator's 32-bit words rather than through randint.

    randint(-2, 2) and randint(0, 6) each take getrandbits(3), the top three
    bits of one word, drawn again while it is 5 or more (7 or more), and
    getrandbits(32 W) is the next W words, least significant first.  So the
    top bytes of each block of words, filtered below 5 for free indices and
    below 7 for torus ones, are the randint stream.  The generator is left
    past the last draw by the unread words of the last block, fewer than
    _WORDS_PER_BLOCK.
    """
    bits = 32 * _WORDS_PER_BLOCK
    getrandbits = rng.getrandbits
    tops = itertools.chain.from_iterable(
        iter(lambda: getrandbits(bits).to_bytes(bits // 8, "little")[3::4].translate(_TOP_BITS), None)
    )
    free_draws, torus_draws = filter((5).__gt__, tops), filter((7).__gt__, tops)
    islice, nk = itertools.islice, n * k
    out = []
    while len(out) < samples:
        free = list(islice(free_draws, nk))
        torus = list(islice(torus_draws, k))
        if free.count(2) < nk or any(torus):  # some free index m = r - 2 is nonzero
            out.append(([[r - 2 for r in free[i : i + k]] for i in range(0, nk, k)], torus))
    return out


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
    """The member of the certificate's next draw (_draw_nonzero_indices),
    built as a GSElement from free_values and torus_values."""
    e = _element_from_indices(k, *_draw_nonzero_indices(rng, n, k), free_values, torus_values)
    if not member(cfg, e):
        raise SelfCheckFailed(f"the certificate draw {e!r} is not a member")
    return e
