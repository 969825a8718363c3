"""The simplicial space attached to an Arakelov divisor, and its homotopy.

At simplicial degree n and level k the space consists of n vectors in Q^k
(the free part) whose l1-norms sum to at most lambda = e^u, together with one
vector of residues mod the section lattice L = cZ (the torus part).  Faces
merge adjacent coordinates, the last face reducing into the torus mod L;
degeneracies insert a zero vector.  All structure maps shrink the norm
budget, so membership is preserved.

Homotopy is concrete:

* spherical 1-simplices are the lattice vectors of l1-norm <= lambda, so the
  number of pi_1 elements at level k is the l1-ball count delannoy(n, k) with
  n = floor(exp(deg));
* pi_0 at level 1 is a circle packing number: trivial when exp(deg) >= 1/2,
  otherwise the largest integer below exp(-deg);
* at level k, pi_0 is trivial exactly when k <= 2 exp(deg);
* above degree 1 the face equations force spherical simplices to vanish,
  which higher_pi_trivial certifies by exact linear algebra plus sampling.

Boundary cases (norm exactly lambda, exp(deg) an exact integer or exactly
1/2) follow the inclusive <= convention throughout, decided exactly when the
divisor carries a rational scale.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arakelov import ArakelovDivisor, Lattice1, ScaleValue, count_E_xi, exp_degree, lattice_of
from .combinat import delannoy, l1_norm
from .smith import row_reduce

__all__ = [
    "GSConfig",
    "GSElement",
    "member",
    "face",
    "degeneracy",
    "zero_element",
    "pi1_spherical_enumerate",
    "pi1_count",
    "pi0_cardinality_k1",
    "pi0_trivial_predicate",
    "higher_pi_trivial",
    "TrivialityCertificate",
    "face_incidence",
]


@dataclass(frozen=True)
class GSConfig:
    """Section lattice cZ and norm budget lambda for one divisor class."""

    lattice: Lattice1
    scale: ScaleValue

    @staticmethod
    def from_divisor(d: ArakelovDivisor) -> "GSConfig":
        return GSConfig(lattice_of(d), d.arch)

    @property
    def exact(self) -> bool:
        return self.scale.is_exact

    @property
    def lam(self) -> Fraction | float:
        return self.scale.value


@dataclass(frozen=True)
class GSElement:
    """A simplex: free vectors psi_1..psi_n in Q^k and one torus vector mod L.

    The simplicial degree is the number of free vectors.
    """

    k: int
    free: tuple[tuple, ...]
    torus: tuple

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("level must be >= 1")
        if len(self.torus) != self.k or any(len(v) != self.k for v in self.free):
            raise ValueError("all vectors must have length k")

    @property
    def degree(self) -> int:
        return len(self.free)


def zero_element(cfg: GSConfig, n: int, k: int) -> GSElement:
    zero = (Fraction(0),) * k if cfg.exact else (0.0,) * k
    return GSElement(k, (zero,) * n, zero)


def member(cfg: GSConfig, e: GSElement, tol: float = 1e-12) -> bool:
    """Whether the free norms sum to at most lambda and the torus entries are
    reduced representatives in [0, c)."""
    c = cfg.lattice.generator
    total = sum((l1_norm(v) for v in e.free), Fraction(0) if cfg.exact else 0.0)
    if cfg.exact and isinstance(total, Fraction):
        if total > cfg.lam:
            return False
    elif float(total) > float(cfg.lam) + tol:
        return False
    return all(0 <= t < c for t in e.torus)


def _vec_add(v1: Sequence, v2: Sequence) -> tuple:
    return tuple(a + b for a, b in zip(v1, v2))


def face(cfg: GSConfig, j: int, e: GSElement) -> GSElement:
    """The j-th face: drop psi_1 (j = 0), merge psi_j + psi_{j+1} (0 < j < n),
    or reduce psi_n into the torus mod L (j = n)."""
    n = e.degree
    if n < 1:
        raise ValueError("degree-0 simplices have no faces")
    if not 0 <= j <= n:
        raise ValueError(f"face index {j} out of range 0..{n}")
    if j == 0:
        return GSElement(e.k, e.free[1:], e.torus)
    if j < n:
        merged = _vec_add(e.free[j - 1], e.free[j])
        return GSElement(e.k, e.free[: j - 1] + (merged,) + e.free[j + 1 :], e.torus)
    c = cfg.lattice.generator
    torus = tuple(v % c for v in _vec_add(e.free[-1], e.torus))
    return GSElement(e.k, e.free[:-1], torus)


def degeneracy(cfg: GSConfig, j: int, e: GSElement) -> GSElement:
    """The j-th degeneracy: insert a zero free vector after position j."""
    n = e.degree
    if not 0 <= j <= n:
        raise ValueError(f"degeneracy index {j} out of range 0..{n}")
    zero = zero_element(cfg, 0, e.k).torus
    return GSElement(e.k, e.free[:j] + (zero,) + e.free[j:], e.torus)


def pi1_spherical_enumerate(cfg: GSConfig, k: int, cap: int = 1_000_000) -> list[tuple[Fraction, ...]]:
    """All spherical 1-simplices at level k: lattice vectors of l1-norm <= lambda.

    Exact mode only; returned in lexicographic order.  The count is the
    Delannoy number of (floor(lambda/c), k).
    """
    return count_E_xi(cfg.lattice, k, cfg.lam, cap)


def pi1_count(d: ArakelovDivisor, k: int, cross_check: bool | None = None) -> int:
    """Number of pi_1 elements at level k: delannoy(floor(exp deg), k).

    With cross_check (defaulting to on for small exact cases) the closed form
    is verified against the explicit enumeration.
    """
    if k < 1:
        raise ValueError("level must be >= 1")
    ed = exp_degree(d)
    count = delannoy(math.floor(ed), k)
    exact = isinstance(ed, Fraction)
    if cross_check is None:
        cross_check = exact and count <= 20_000
    if cross_check:
        if not exact:
            raise ValueError("cross-check enumeration requires an exact scale")
        enumerated = pi1_spherical_enumerate(GSConfig.from_divisor(d), k)
        assert len(enumerated) == count, "closed form disagrees with enumeration"
    return count


def pi0_cardinality_k1(d: ArakelovDivisor) -> int | str:
    """pi_0 at level 1: 'trivial' when exp(deg) >= 1/2, else the largest
    integer strictly below exp(-deg) (a circle packing number)."""
    ed = exp_degree(d)
    if ed >= Fraction(1, 2):
        return "trivial"
    inv = 1 / ed
    n = math.floor(inv)
    return n - 1 if inv == n else n


def pi0_trivial_predicate(d: ArakelovDivisor, k: int) -> bool:
    """pi_0 at level k is a point exactly when k <= 2 exp(deg) (inclusive)."""
    if k < 1:
        raise ValueError("level must be >= 1")
    return k <= 2 * exp_degree(d)


# ---------------------------------------------------------------------------
# Vanishing of homotopy above degree 1, certified symbolically.
# ---------------------------------------------------------------------------


def face_incidence(n: int, j: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Which input free coordinates feed each output coordinate of the j-th face.

    Returns (free_rows, torus_merge): free_rows[i-1] lists the 1-based input
    free indices summed into output free coordinate i, and torus_merge lists
    the input free indices reduced into the torus output.
    """
    if n < 1 or not 0 <= j <= n:
        raise ValueError("face index out of range")
    rows: list[tuple[int, ...]] = []
    for i in range(1, n):
        if j == 0:
            rows.append((i + 1,))
        elif i < j:
            rows.append((i,))
        elif i == j:
            rows.append((j, j + 1))
        else:
            rows.append((i + 1,))
    torus_merge = (n,) if j == n else ()
    return tuple(rows), torus_merge


@dataclass(frozen=True)
class TrivialityCertificate:
    """Record of the linear-algebra argument that spherical simplices vanish."""

    n: int
    k: int
    free_dimension: int
    rank: int
    torus_pinned: bool
    witness_equations: tuple[str, ...]
    samples_checked: int
    verified: bool


def higher_pi_trivial(
    n: int, cfg: GSConfig, k: int, samples: int = 1000, seed: int = 0
) -> TrivialityCertificate:
    """Certify that pi_n is trivial for n >= 2.

    The spherical conditions are linear in the free coordinates; Gaussian
    elimination over Q of the face equations must have full rank n, the
    0-th face pins the torus coordinate directly, and a singleton-equation
    certificate is extracted (face 0 kills psi_2..psi_n and the torus, face 2
    kills psi_1).  On top of the symbolic proof, randomly sampled nonzero
    members are checked to violate at least one spherical equation.
    """
    if n < 2:
        raise ValueError("this certificate only applies above degree 1")
    if not cfg.exact:
        raise ValueError("the certificate uses exact arithmetic; use an exact scale")
    rows: list[list[Fraction]] = []
    witnesses: list[str] = []
    torus_pinned = False
    for j in range(n + 1):
        free_rows, torus_merge = face_incidence(n, j)
        for i, sources in enumerate(free_rows, start=1):
            row = [Fraction(0)] * n
            for s in sources:
                row[s - 1] += 1
            rows.append(row)
            if len(sources) == 1 and (j == 0 or j == 2):
                witnesses.append(f"face {j}, coordinate {i}: psi_{sources[0]} = 0")
        if not torus_merge:
            torus_pinned = True  # the torus output is the torus input itself
    _, rank = row_reduce(rows)
    witnesses.append("face 0, torus coordinate: torus part = 0")

    rng = random.Random(seed)
    lam = Fraction(cfg.lam)
    c = cfg.lattice.generator
    violated = 0
    for _ in range(samples):
        e = _random_nonzero_member(rng, cfg, n, k, lam, c)
        if any(
            face(cfg, j, e) != zero_element(cfg, n - 1, k) for j in range(n + 1)
        ):
            violated += 1
    verified = rank == n and torus_pinned and violated == samples
    return TrivialityCertificate(
        n=n,
        k=k,
        free_dimension=n,
        rank=rank,
        torus_pinned=torus_pinned,
        witness_equations=tuple(witnesses),
        samples_checked=samples,
        verified=verified,
    )


def _random_nonzero_member(
    rng: random.Random, cfg: GSConfig, n: int, k: int, lam: Fraction, c: Fraction
) -> GSElement:
    while True:
        scale = lam / (4 * n * k)
        free = tuple(
            tuple(scale * rng.randint(-2, 2) for _ in range(k)) for _ in range(n)
        )
        torus = tuple(c * rng.randint(0, 6) / 7 for _ in range(k))
        e = GSElement(k, free, torus)
        if any(v != 0 for vec in free for v in vec) or any(t != 0 for t in torus):
            assert member(cfg, e)
            return e
