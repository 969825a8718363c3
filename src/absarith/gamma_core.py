"""Finite pointed sets, their maps and endomorphisms, and the norm-filtered
vector functor.

A pointed set of size N is {0, ..., N} with base point 0.  Endomorphisms are
self-maps fixing 0; wedge and smash combine them blockwise and pairwise.  The
eventual image of an endomorphism is the stable subset reached by iterating
the image, on which the map restricts to a permutation; its cycle type is the
raw material for the Witt-ring invariant.

The second half implements the filtration of real-valued vectors on a pointed
set by sum of |coordinate|^alpha <= lambda, together with the push-forward
along a pointed map (fibrewise sums, mass over the base point discarded).
Push-forward preserves the filtration exactly when 0 < alpha <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .combinat import l1_norm


@dataclass(frozen=True)
class PointedMap:
    """A base-point-preserving map {0,...,N} -> {0,...,M}.

    images[x] is the image of x; images[0] must be 0.
    """

    images: tuple[int, ...]
    codomain_size: int

    def __post_init__(self) -> None:
        if not self.images or self.images[0] != 0:
            raise ValueError("a pointed map must send the base point to 0")
        if any(y < 0 or y > self.codomain_size for y in self.images):
            raise ValueError("image out of codomain range")

    @property
    def domain_size(self) -> int:
        return len(self.images) - 1

    def points(self) -> range:
        return range(self.domain_size + 1)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def compose(self, first: "PointedMap") -> "PointedMap":
        """self o first."""
        if first.codomain_size != self.domain_size:
            raise ValueError("composition size mismatch")
        return PointedMap(tuple(self.images[y] for y in first.images), self.codomain_size)


class PointedEndo(PointedMap):
    """A pointed self-map of {0, ..., N}."""

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        super().__init__(images=images, codomain_size=len(images) - 1)

    @staticmethod
    def identity(n: int) -> "PointedEndo":
        return PointedEndo(range(n + 1))

    @staticmethod
    def cyclic(k: int) -> "PointedEndo":
        """The cyclic permutation of order k on {0, ..., k} (x -> x+1 on 1..k)."""
        if k < 1:
            raise ValueError("cyclic permutation needs order >= 1")
        return PointedEndo((0,) + tuple(x % k + 1 for x in range(1, k + 1)))

    @staticmethod
    def constant_to_base(n: int) -> "PointedEndo":
        return PointedEndo((0,) * (n + 1))

    def power(self, n: int) -> "PointedEndo":
        """The n-th iterate (n >= 0)."""
        if n < 0:
            raise ValueError("negative iterate of a non-invertible map")
        result = PointedEndo.identity(self.domain_size)
        base = self
        while n:
            if n & 1:
                result = PointedEndo(base.compose(result).images)
            base = PointedEndo(base.compose(base).images)
            n >>= 1
        return result


def wedge(s: PointedEndo, t: PointedEndo) -> PointedEndo:
    """Wedge sum: disjoint union with identified base points, acting blockwise.

    Non-base points of s come first (1..N_s), then those of t (N_s+1..N_s+N_t).
    """
    ns = s.domain_size
    images = [0]
    images += [s(x) for x in range(1, ns + 1)]
    images += [t(x) + ns if t(x) != 0 else 0 for x in range(1, t.domain_size + 1)]
    return PointedEndo(images)


def _smash_index(i: int, j: int, nt: int) -> int:
    return (i - 1) * nt + j


def smash(s: PointedEndo, t: PointedEndo) -> PointedEndo:
    """Smash product: pairs (i, j) of non-base points, base point absorbing.

    The pair (i, j) is encoded row-major as (i-1)*N_t + j, so equality of smash
    products is equality of image arrays.
    """
    ns, nt = s.domain_size, t.domain_size
    images = [0] * (ns * nt + 1)
    for i in range(1, ns + 1):
        for j in range(1, nt + 1):
            si, tj = s(i), t(j)
            images[_smash_index(i, j, nt)] = 0 if si == 0 or tj == 0 else _smash_index(si, tj, nt)
    return PointedEndo(images)


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


def eventual_image(t: PointedEndo) -> tuple[tuple[int, ...], PointedEndo]:
    """The stable subset T^inf and the restriction of T to it.

    Iterating the image subset stabilizes in at most N steps; the restriction
    is a permutation.  The subset is returned sorted ascending (always contains
    0) and the permutation is re-indexed along that enumeration.
    """
    current = set(t.points())
    while True:
        nxt = {t(x) for x in current}
        if nxt == current:
            break
        current = nxt
    subset = tuple(sorted(current))
    renumber = {old: new for new, old in enumerate(subset)}
    perm = PointedEndo(tuple(renumber[t(old)] for old in subset))
    return subset, perm


def trace(t: PointedEndo, n: int) -> int:
    """Number of fixed points of T^n, not counting the base point."""
    if n < 1:
        raise ValueError("trace requires n >= 1")
    tn = t.power(n)
    return sum(1 for x in t.points() if tn(x) == x) - 1


def cycle_type(t: PointedEndo) -> dict[int, int]:
    """Cycle lengths of T restricted to its eventual image, with multiplicity.

    The base point's trivial fixed cycle is not counted, so
    sum of k * count(k) = |T^inf| - 1.
    """
    _, perm = eventual_image(t)
    seen = [False] * (perm.domain_size + 1)
    seen[0] = True
    counts: dict[int, int] = {}
    for start in range(1, perm.domain_size + 1):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm(x)
            length += 1
        counts[length] = counts.get(length, 0) + 1
    return counts


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


@dataclass(frozen=True)
class NormedVectorConfig:
    """Parameters of the norm filtration: sum |phi(x)|^alpha <= lam.

    0 < alpha <= 1 is required for the filtration to be closed under
    push-forward; alpha > 1 is only admitted with allow_expanding=True, for
    demonstrating the failure of closure.  With alpha == 1 and rational data
    the membership test is exact; otherwise floats are compared with the
    given tolerance.
    """

    alpha: float | Fraction = 1
    lam: float | Fraction = 1
    tol: float = 1e-12
    allow_expanding: bool = False

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.alpha > 1 and not self.allow_expanding:
            raise ValueError("alpha > 1 breaks push-forward closure; pass allow_expanding=True to demo it")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")


def _is_rational(value: object) -> bool:
    return isinstance(value, (int, Fraction))


def norm_filtered_member(phi: Sequence, cfg: NormedVectorConfig) -> bool:
    """Whether sum_x |phi(x)|^alpha <= lambda.

    phi lists the values on the non-base points only.
    """
    if cfg.alpha == 1 and _is_rational(cfg.lam):
        total = l1_norm(phi)
        if isinstance(total, Fraction):
            return total <= cfg.lam
    total_f = sum(abs(float(v)) ** float(cfg.alpha) for v in phi)
    return total_f <= float(cfg.lam) + cfg.tol


def push_forward(phi: Sequence, f: PointedMap) -> tuple:
    """Transport a vector on the domain to the codomain by fibrewise sums.

    result(y) = sum over f(x) = y of phi(x) for y != 0; anything mapped to the
    base point is dropped.
    """
    if len(phi) != f.domain_size:
        raise ValueError(f"vector has {len(phi)} entries but the map has domain size {f.domain_size}")
    zero = 0 if all(_is_rational(v) for v in phi) else 0.0
    out = [zero] * f.codomain_size
    for x in range(1, f.domain_size + 1):
        y = f(x)
        if y != 0:
            out[y - 1] = out[y - 1] + phi[x - 1]
    return tuple(out)
