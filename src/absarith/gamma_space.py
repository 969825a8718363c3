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
  which higher_pi_trivial certifies from the witnesses of faces 0 and 2,
  drawing sampled members to test the face code only when asked to.

Boundary cases (norm exactly lambda, exp(deg) an exact integer or exactly
1/2) follow the inclusive <= convention throughout, decided exactly when the
divisor carries a rational scale.  On a float scale the floor of exp(deg)
and the pi_0 thresholds are decided on a correctly rounded decimal bracket
of exp(deg), and refused where it straddles them.
"""

from __future__ import annotations

import decimal
import math
import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from operator import add, floordiv, lt
from typing import Sequence

from .arakelov import ArakelovDivisor, Lattice1, ScaleValue, count_E_xi, degree_scale, lattice_of
from .combinat import delannoy, l1_ball_columns, l1_within
from .errors import SelfCheckFailed, check_budget, frozen

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


def member(cfg: GSConfig, e: GSElement) -> bool:
    """Whether the free norms sum to at most lambda (exactly for rational data,
    else within combinat.FLOAT_TOL) and the torus entries are reduced, in [0, c)."""
    c = cfg.lattice.generator
    return l1_within([v for vec in e.free for v in vec], cfg.lam) and all(0 <= t < c for t in e.torus)


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


def pi1_spherical_enumerate(cfg: GSConfig, k: int) -> list[tuple[Fraction, ...]]:
    """All spherical 1-simplices at level k: lattice vectors of l1-norm <= lambda.

    Exact mode only; returned in lexicographic order.  The count is the
    Delannoy number of (floor(lambda/c), k).
    """
    return count_E_xi(cfg.lattice, k, cfg.lam)


# The default cross-check of pi1_count enumerates count vectors of k
# coordinates each; above this many coordinates it is skipped.
CROSS_CHECK_MAX_COORDINATES = 60_000


# Digits of the decimal e^u behind a float scale's exp(deg).  One unit of
# the last digit each way tells the floor apart up to about degree 66
# (e^66 is near 4.6 10^28); past 32 digits decimal's exp costs about twice
# as much.
EXP_FLOOR_DIGITS = 30
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_FLOAT_MAX = int(sys.float_info.max)


@lru_cache(maxsize=128)
def _exp_degree_bracket(d: ArakelovDivisor) -> tuple[tuple[int, int], tuple[int, int]]:
    """Two fractions n/m, each as (n, m), around exp(deg) on a float scale,
    once per divisor: a pi query decides three thresholds on one bracket.

    exp(deg) = e^u / c, with u the scale's exponent (an exact dyadic
    rational) and c the exact lattice generator, and decimal's exp rounds e^u
    correctly to EXP_FLOOR_DIGITS digits, so e^u lies strictly between the
    neighbours of that rounding (e^0 = 1 is exact), and those over c bracket
    exp(deg).  The cache is keyed on the divisor alone.  A ValueError where
    exp(deg) is above the largest float.
    """
    u = degree_scale(d).log
    if u > _LOG_FLOAT_MAX:
        raise ValueError(f"exp(deg) at degree {u!r} is above the largest float")
    ctx = decimal.Context(prec=EXP_FLOOR_DIGITS)
    e = ctx.exp(decimal.Decimal(d.arch.log))
    if not e:
        # e^u underflows: e^u < 10^-1000028, and c > 2^-800001 by the
        # divisor_bits budget, so exp(deg) = e^u / c < 1/4.
        return (0, 1), (1, 4)
    # e^0 = 1 is exact
    ends = (ctx.next_minus(e), ctx.next_plus(e)) if ctx.flags[decimal.Inexact] else (e, e)
    c = lattice_of(d).generator
    return tuple((a * c.denominator, b * c.numerator) for a, b in (end.as_integer_ratio() for end in ends))


def _certified(d: ArakelovDivisor, rule, what: str, near: str):
    """rule(n, m) at exp(deg) = n/m: exactly on an exact scale, else at both
    ends of _exp_degree_bracket, which must agree (else a ValueError that
    what is not certified, exp(deg) being near)."""
    if d.arch.is_exact:
        e = degree_scale(d).exact
        return rule(e.numerator, e.denominator)
    lo, hi = _exp_degree_bracket(d)
    answer = rule(*lo)
    if rule(*hi) != answer:
        raise ValueError(
            f"{what} at degree {degree_scale(d).log!r} is not certified: exp(deg) is within "
            f"{EXP_FLOOR_DIGITS}-digit rounding of {near}"
        )
    return answer


def pi1_radius(d: ArakelovDivisor) -> int:
    """floor(exp deg), certified on a float scale by _certified: a ValueError
    where the bracket straddles an integer, as a rule from about degree 66."""
    return _certified(d, floordiv, "floor(exp(deg))", "an integer")


def pi1_count(d: ArakelovDivisor, k: int, cross_check: bool | None = None) -> int:
    """Number of pi_1 elements at level k: delannoy(pi1_radius(d), k).

    With cross_check the closed form is verified against the explicit
    enumeration.  It defaults to on for exact scales whose enumeration builds
    at most CROSS_CHECK_MAX_COORDINATES coordinates (count times k).  The
    enumeration is combinat.l1_ball_columns, the integer ball of radius
    r = floor(lambda / c), with r taken from the exact config by integer
    floor division rather than from pi1_radius, so the two floors stay
    separate computations.  Its rows must be as many as the closed form
    gives, strictly increasing in lexicographic order (so distinct) and each
    of l1 norm at most r, so that they are exactly the lattice points of the
    ball; the order is one C-level pass over the rows, the norms one per
    column.
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
        cfg = GSConfig.from_divisor(d)
        lam, c = cfg.lam, cfg.lattice.generator
        r = lam.numerator * c.denominator // (lam.denominator * c.numerator)
        check_budget("lattice_points", delannoy(r, k))
        columns = l1_ball_columns(r, k)
        rows = list(zip(*columns))
        if len(rows) != count:
            raise SelfCheckFailed(f"pi1_count's closed form gives {count}, its enumeration {len(rows)}")
        # The rows' l1 norms, summed column by column, one list per column, so
        # that no chain of k lazy maps is ever nested (k can be 10^5 at r = 0).
        norms = list(map(abs, columns[0]))
        for column in columns[1:]:
            norms = list(map(add, norms, map(abs, column)))
        if len(columns) != k or not all(map(lt, rows, islice(rows, 1, None))) or max(norms) > r:
            raise SelfCheckFailed(
                f"pi1_count's enumeration at level {k} is not {count} distinct rows in order within l1 norm {r}"
            )
    return count


def _packing_k1(n: int, m: int) -> int | str:
    """pi_0 at level 1 where exp(deg) = n/m."""
    return "trivial" if 2 * n >= m else (m - 1) // n


def pi0_cardinality_k1(d: ArakelovDivisor) -> int | str:
    """pi_0 at level 1: 'trivial' when exp(deg) >= 1/2, else the largest
    integer strictly below exp(-deg) (a circle packing number), certified on
    a float scale."""
    if not d.arch.is_exact:
        (n, m), _ = _exp_degree_bracket(d)
        if m > _FLOAT_MAX * n:
            raise ValueError("exp(-deg) is above the largest float, so its packing number is out of range")
    return _certified(d, _packing_k1, "pi_0 at level 1", "1/2 or the reciprocal of an integer")


def pi0_trivial_predicate(d: ArakelovDivisor, k: int) -> bool:
    """pi_0 at level k is a point exactly when k <= 2 exp(deg) (inclusive),
    certified on a float scale."""
    if k < 1:
        raise ValueError("level must be >= 1")
    return _certified(d, lambda n, m: k * m <= 2 * n, f"pi_0 at level {k}", f"{k}/2")


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
        if i < j:
            rows.append((i,))
        elif i == j:
            rows.append((j, j + 1))
        else:
            rows.append((i + 1,))
    torus_merge = (n,) if j == n else ()
    return tuple(rows), torus_merge


def face_equations(n: int) -> tuple[int, bool]:
    """(rank, torus_pinned) of the face equations at degree n >= 2, read
    from faces 0 and 2 alone.

    Each output free coordinate of a face that one input psi_s feeds gives
    the equation psi_s = 0 on a spherical simplex: a witness.  Face 0 keeps
    psi_2..psi_n and face 2 keeps psi_1, so their witnesses name all n free
    coordinates.  A witness is a unit row of Q^n, so the rank of all
    (n+1)(n-1) face rows, which lie in Q^n, is at least the number of
    distinct coordinates the witnesses name, and that number, n, is full
    rank (the tests' oracle eliminates every row over Q).  Face 0 reduces
    nothing into the torus, so it keeps the torus as it is and pins it.
    The work is the 2(n-1) rows of the two faces; no matrix is built.
    """
    rows0, torus_merge0 = face_incidence(n, 0)
    rows2, _ = face_incidence(n, 2)
    named = {sources[0] for sources in rows0 + rows2 if len(sources) == 1}
    return len(named), not torus_merge0


@frozen
class TrivialityCertificate:
    """Record of the linear-algebra argument that spherical simplices vanish."""

    n: int
    k: int
    rank: int
    torus_pinned: bool
    samples_checked: int
    verified: bool


def higher_pi_trivial(
    n: int, cfg: GSConfig, k: int, samples: int = 1000, seed: int = 0
) -> TrivialityCertificate:
    """Certify that pi_n is trivial for n >= 2.

    The spherical conditions are linear in the free coordinates.  The proof
    is the witnesses of faces 0 and 2 (face_equations): face 0 kills
    psi_2..psi_n and the torus, face 2 kills psi_1, so the face equations
    have full rank n over Q, counted as the coordinates the witnesses name,
    and the torus is pinned.  That depends on n alone, in O(n) work, and its
    2(n - 1) face rows are checked against the certificate_rows budget
    before they are built, so n above 500,001 is refused.  On top of the
    symbolic proof, `samples` randomly sampled nonzero members are
    checked to violate at least one spherical equation; with samples=0 the
    certificate is the witnesses alone, nothing is drawn or built whose size
    grows with k, and a float scale is accepted (the samples use exact
    arithmetic, so samples > 0 needs an exact scale).

    The samples test the face code, not the theorem: where face 0 of a
    member vanishes, psi_2..psi_n and the torus are zero, so face 1 keeps
    psi_1 and vanishes only on the zero member, which is never drawn; and a
    sample's free norm, lambda/(4nk) sum|m| with sum|m| <= 2nk, is at most
    half the membership budget.

    A sample has free entries lambda/(4nk) m with m in -2..2 and torus
    entries c t/7 with t in 0..6, each index a uniform draw from the seeded
    generator's bytes, the same for the same seed.  _face0_draws decides the
    draws on the two blocks of each round's bytes, the free indices r = m + 2
    and the torus indices t: membership by one bound on each block, and face
    0 on the draws whose torus bytes are all zero, and it returns only those
    whose face 0 vanishes.  Only they have their other faces decided on their
    indices (_index_face_is_zero), and only one whose faces 0..n-1 all vanish
    reaches face n, which builds the 5 x 7 table of which pairs (m, t) land
    in cZ (_last_face_table) the first time.  No nonzero draw gets that far,
    by the argument above.  The draws are bounded by the certificate_indices
    budget on samples (n + 1) k.  The object path, member and face on the
    GSElement of the same draw, is the oracle; tests/gamma_space_oracles.py
    cuts the same bytes into one string per draw and decides each on its
    own, with the table built up front, as another.
    """
    if n < 2:
        raise ValueError("this certificate only applies above degree 1")
    if k < 1:
        raise ValueError("level must be >= 1")
    if samples < 0:
        raise ValueError("samples must be >= 0")
    if samples and not cfg.exact:
        raise ValueError("the sampled certificate uses exact arithmetic; use an exact scale or samples=0")
    check_budget("certificate_indices", samples * (n + 1) * k)
    check_budget("certificate_rows", 2 * (n - 1), n_max=n)
    rank, torus_pinned = face_equations(n)
    violated = samples
    if samples:
        last_face_zero = None
        for free, torus in _face0_draws(random.Random(seed), n, k, samples):
            rows = [[r - 2 for r in free[i : i + k]] for i in range(0, n * k, k)]
            if all(_index_face_is_zero(j, rows, torus, None) for j in range(1, n)):
                if last_face_zero is None:
                    last_face_zero = _last_face_table(cfg, n, k)
                if _index_face_is_zero(n, rows, torus, last_face_zero):
                    violated -= 1
    verified = rank == n and torus_pinned and violated == samples
    return TrivialityCertificate(
        n=n,
        k=k,
        rank=rank,
        torus_pinned=torus_pinned,
        samples_checked=samples,
        verified=verified,
    )


# _TOP_BITS[b]: the top three bits of a byte.
_TOP_BITS = bytes(b >> 5 for b in range(256))
# The bytes whose top three bits are 5..7 (free indices) and 7 (torus indices).
_FREE_REDRAWN, _TORUS_REDRAWN = bytes(range(5 << 5, 256)), bytes(range(7 << 5, 256))
# The values of the free indices r = m + 2 and of the torus indices t.
_FREE_INDICES, _TORUS_INDICES = bytes(range(5)), bytes(range(7))


def _face0_draws(rng: random.Random, n: int, k: int, samples: int) -> list[tuple[bytes, bytes]]:
    """Of `samples` nonzero draws, those whose face 0 vanishes, each as its
    n k free indices r = m + 2 (psi_1 first) and its k torus indices t.

    Each round draws one block of free indices for all the draws still
    wanted, then one of their torus indices (_uniform_block), each index
    uniform.  Every free index in 0..4 gives sum|m| <= 2nk <= 4nk and every
    torus index in 0..6 puts c t/7 in [0, c), so that one bound on each
    block makes every draw a member; where it fails, SelfCheckFailed.  Face
    0 keeps psi_2..psi_n and the torus, so it vanishes on the draws whose
    torus bytes are all 0 (one in 7^k, found by searching the torus block)
    and whose free bytes after the first k are all 2.  Such a draw whose
    first k free bytes are 2 too is the zero draw: it is dropped, and the
    next round draws as many as were dropped.
    """
    nk = n * k
    zero_torus, zero_free, tail = bytes(k), b"\x02" * nk, b"\x02" * (nk - k)
    found = []
    while samples:
        free_block = _uniform_block(rng, samples * nk, _FREE_REDRAWN)
        torus_block = _uniform_block(rng, samples * k, _TORUS_REDRAWN)
        if free_block.translate(None, _FREE_INDICES) or torus_block.translate(None, _TORUS_INDICES):
            raise SelfCheckFailed(f"a sampled draw of the degree {n} certificate at level {k} is out of range")
        samples = 0
        at = torus_block.find(zero_torus)
        while at >= 0:
            if at % k:  # a run of zeros across two draws: go on from the next draw
                at = torus_block.find(zero_torus, at - at % k + k)
                continue
            start = at // k * nk
            if free_block.startswith(zero_free, start):
                samples += 1
            elif free_block.startswith(tail, start + k):
                found.append((free_block[start : start + nk], zero_torus))
            at = torus_block.find(zero_torus, at + k)
    return found


def _uniform_block(rng: random.Random, size: int, redrawn: bytes) -> bytes:
    """`size` indices, the top three bits of the generator's bytes with the
    bytes in `redrawn` dropped, so uniform on the values left.  Each fetch is
    twice the indices still lacking, which a fetch fills more often than not."""
    block = b""
    while len(block) < size:
        fetch = 2 * (size - len(block))
        block += rng.getrandbits(8 * fetch).to_bytes(fetch, "little").translate(_TOP_BITS, redrawn)
    return block[:size]


def _last_face_table(cfg: GSConfig, n: int, k: int) -> tuple[tuple[bool, ...], ...]:
    """table[m + 2][t]: whether lambda/(4nk) m + c t/7 lies in cZ, built by
    higher_pi_trivial only when a draw reaches face n.

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
    """Whether face(cfg, j, e) is zero for the member e with these indices:
    each output free coordinate sums its face_incidence sources, and the torus
    is kept, but for face n, which reduces each pair (m, t) of psi_n and the
    torus mod cZ."""
    free_rows, torus_merge = face_incidence(len(rows), j)
    if any(any(map(sum, zip(*(rows[s - 1] for s in sources)))) for sources in free_rows):
        return False
    if torus_merge:
        return all(last_face_zero[m + 2][t] for m, t in zip(rows[-1], torus))
    return not any(torus)
