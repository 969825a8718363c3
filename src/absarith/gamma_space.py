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

import decimal
import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .arakelov import ArakelovDivisor, Lattice1, ScaleValue, count_E_xi, degree_scale, exp_degree, lattice_of
from .combinat import delannoy, l1_within
from .errors import DEFAULT_CAP, frozen
from .smith import row_reduce

__all__ = [
    "GSConfig",
    "GSElement",
    "member",
    "face",
    "degeneracy",
    "zero_element",
    "pi1_spherical_enumerate",
    "pi1_radius",
    "pi1_count",
    "pi0_cardinality_k1",
    "pi0_trivial_predicate",
    "higher_pi_trivial",
    "TrivialityCertificate",
    "face_incidence",
    "face_equations",
]


@frozen
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


@frozen
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
    """Whether the free norms sum to at most lambda (exactly for rational data,
    else within tol) and the torus entries are reduced representatives in [0, c)."""
    c = cfg.lattice.generator
    return l1_within([v for vec in e.free for v in vec], cfg.lam, tol) and all(0 <= t < c for t in e.torus)


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


def pi1_spherical_enumerate(cfg: GSConfig, k: int, cap: int = DEFAULT_CAP) -> list[tuple[Fraction, ...]]:
    """All spherical 1-simplices at level k: lattice vectors of l1-norm <= lambda.

    Exact mode only; returned in lexicographic order.  The count is the
    Delannoy number of (floor(lambda/c), k).
    """
    return count_E_xi(cfg.lattice, k, cfg.lam, cap)


# The default cross-check of pi1_count enumerates count vectors of k
# coordinates each; above this many coordinates it is skipped.
CROSS_CHECK_MAX_COORDINATES = 60_000


# Digits of the decimal e^u behind a float scale's floor(exp(deg)).  Below
# 2^53 the bracket of one ulp each way is narrower than 2 10^-13; past 32
# digits decimal's exp costs about twice as much.
EXP_FLOOR_DIGITS = 30


def pi1_radius(d: ArakelovDivisor) -> int:
    """floor(exp deg).  On a float scale past degree 53 log 2, where exp(deg)
    is above 2^53 and its floor just its own rounding, a ValueError.

    Below that the float-scale floor is certified.  exp(deg) = e^u / c, with
    u the scale's exponent (an exact dyadic rational) and c the exact lattice
    generator, and decimal's exp rounds e^u correctly, so e^u lies strictly
    between the neighbours of that rounding; their floors of e^u / c must
    agree, else a ValueError.
    """
    ed = degree_scale(d)
    if ed.is_exact:
        return math.floor(ed.exact)
    if ed.log > 53 * math.log(2):
        raise ValueError(f"floor(exp(deg)) at degree {ed.log!r} is past 2^53, beyond a float scale's precision")
    ctx = decimal.Context(prec=EXP_FLOOR_DIGITS)
    e = ctx.exp(decimal.Decimal(d.arch.log))
    # e^u > 0 also where e underflows to 0, and e^0 = 1 is exact
    ends = (max(ctx.next_minus(e), 0), ctx.next_plus(e)) if ctx.flags[decimal.Inexact] else (e, e)
    c = lattice_of(d).generator
    lo, hi = (a * c.denominator // (b * c.numerator) for a, b in (end.as_integer_ratio() for end in ends))
    if lo != hi:
        raise ValueError(
            f"floor(exp(deg)) at degree {ed.log!r} is not certified: exp(deg) is within "
            f"{EXP_FLOOR_DIGITS}-digit rounding of an integer"
        )
    return lo


def pi1_count(d: ArakelovDivisor, k: int, cross_check: bool | None = None) -> int:
    """Number of pi_1 elements at level k: delannoy(pi1_radius(d), k).

    With cross_check the closed form is verified against the explicit
    enumeration.  It defaults to on for exact scales whose enumeration builds
    at most CROSS_CHECK_MAX_COORDINATES coordinates (count times k).
    """
    if k < 1:
        raise ValueError("level must be >= 1")
    count = delannoy(pi1_radius(d), k)
    exact = d.arch.is_exact
    if cross_check is None:
        cross_check = exact and count * k <= CROSS_CHECK_MAX_COORDINATES
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
    if ed == 0 or 1 / ed == math.inf:
        raise ValueError("exp(-deg) is above the largest float, so its packing number is out of range")
    return math.ceil(1 / ed) - 1


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


@lru_cache(maxsize=128)
def face_equations(n: int) -> tuple[int, tuple[str, ...], bool]:
    """(rank, witnesses, torus_pinned) of the face equations at degree n.

    Each face j gives one 0/1 row per output free coordinate, over the n input
    free coordinates; they depend on n alone.  Of the (n+1)(n-1) rows at most
    2n - 1 are distinct, and repeats do not change the rank, so only the
    distinct ones (in first-seen order) are eliminated over Q.
    """
    rows: list[tuple[int, ...]] = []
    witnesses: list[str] = []
    torus_pinned = False
    for j in range(n + 1):
        free_rows, torus_merge = face_incidence(n, j)
        for i, sources in enumerate(free_rows, start=1):
            row = [0] * n
            for s in sources:
                row[s - 1] += 1
            rows.append(tuple(row))
            if len(sources) == 1 and (j == 0 or j == 2):
                witnesses.append(f"face {j}, coordinate {i}: psi_{sources[0]} = 0")
        if not torus_merge:
            torus_pinned = True  # the torus output is the torus input itself
    _, rank = row_reduce(list(dict.fromkeys(rows)))
    witnesses.append("face 0, torus coordinate: torus part = 0")
    return rank, tuple(witnesses), torus_pinned


@frozen
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

    A sampled member is kept as its integer indices: free entries
    lambda/(4nk) m with m in -2..2 and torus entries c t/7 with t in 0..6.
    Membership and the vanishing of each face are decided on the indices
    (_indices_are_member, _index_face_is_zero), the last face through a 5 x 7
    table of which pairs (m, t) land in cZ, built once per certificate.  The
    object path, member and face on the GSElement that
    _random_nonzero_member builds from the same draw, is the oracle.
    """
    if n < 2:
        raise ValueError("this certificate only applies above degree 1")
    if not cfg.exact:
        raise ValueError("the certificate uses exact arithmetic; use an exact scale")
    rank, witnesses, torus_pinned = face_equations(n)

    rng = random.Random(seed)
    last_face_zero = _last_face_table(cfg, n, k)
    violated = 0
    for _ in range(samples):
        rows, torus = _draw_nonzero_indices(rng, n, k)
        assert _indices_are_member(rows, torus, n, k)
        if not all(_index_face_is_zero(j, rows, torus, last_face_zero) for j in range(n + 1)):
            violated += 1
    verified = rank == n and torus_pinned and violated == samples
    return TrivialityCertificate(
        n=n,
        k=k,
        free_dimension=n,
        rank=rank,
        torus_pinned=torus_pinned,
        witness_equations=witnesses,
        samples_checked=samples,
        verified=verified,
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


def _last_face_table(cfg: GSConfig, n: int, k: int) -> tuple[tuple[bool, ...], ...]:
    """table[m + 2][t]: whether lambda/(4nk) m + c t/7 lies in cZ.

    With lambda = a/b and c = p/q this is whether 7 a q m + 4nk b p t is a
    multiple of 7 b p 4nk, decided on ints.
    """
    lam = Fraction(cfg.lam)
    c = cfg.lattice.generator
    a, b, p, q = lam.numerator, lam.denominator, c.numerator, c.denominator
    nk4 = 4 * n * k
    modulus = 7 * b * p * nk4
    return tuple(tuple((7 * a * q * m + nk4 * b * p * t) % modulus == 0 for t in range(7)) for m in range(-2, 3))


def _index_face_is_zero(
    j: int, rows: Sequence[Sequence[int]], torus: Sequence[int], last_face_zero: Sequence[Sequence[bool]]
) -> bool:
    """Whether face(cfg, j, e) is zero for the member e with these indices.

    Face 0 keeps psi_2..psi_n and the torus; face j < n keeps the other rows
    and the torus and merges psi_j + psi_{j+1}; face n keeps psi_1..psi_{n-1}
    and reduces each pair (m, t) of psi_n and the torus mod cZ.
    """
    n = len(rows)
    if j == n:
        return not any(map(any, rows[:-1])) and all(last_face_zero[m + 2][t] for m, t in zip(rows[-1], torus))
    if any(torus):
        return False
    if j == 0:
        return not any(map(any, rows[1:]))
    return not any(map(any, rows[: j - 1] + rows[j + 1 :])) and all(
        a + b == 0 for a, b in zip(rows[j - 1], rows[j])
    )


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
    assert member(cfg, e)
    return e
