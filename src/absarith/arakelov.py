"""Arakelov divisors on the compactified arithmetic curve over Q, their
lattices of global sections, and theta invariants.

A divisor is a finite formal sum over rational primes plus a real archimedean
part u; its degree is sum a_p log p + u.  degree_scale gives exp(degree) as
one ScaleValue, an exact rational whenever u is given as log of a rational,
whose log is the degree on either scale.  The sections of the finite part
form the rank-one lattice c Z in Q with c = prod p^(-a_p).

The theta invariant is h = log sum over v in L of exp(-pi |v|_D^2) with the
degree-normalized norm, so only t = exp(-2 deg) enters:

    exp(h) = 1 + 2 sum_{m >= 1} exp(-pi t m^2).

The same quantity is the average of the lattice-point count [xi/L] (an odd
integer) against the rotation-invariant Gaussian on C whose mean norm is 1/2.
That identity is checkable here by three routes: the truncated theta sum, an
exact piecewise integration of the radial step function, and a seeded Monte
Carlo estimator.  The numeric Riemann-Roch identity h(d) - h(-d) = d follows
from the functional equation of the theta sum and is exposed as a defect.

For deg > 0 the sum is taken on the dual side of Jacobi's transformation
theta(t) = t^(-1/2) theta(1/t), which needs a few terms at every degree; the
quadrature keeps the direct sum and so stays the independent check.
"""

from __future__ import annotations

import math
import os
import sys
from fractions import Fraction
from functools import reduce
from itertools import chain, repeat, tee
from operator import add, mul, sub
from typing import Mapping

from .combinat import delannoy, iter_l1_ball, l1_within
from .errors import DEFAULT_CAP, CapExceeded, frozen, json_int, json_key, json_number
from .numth import factorize, is_prime


@frozen
class ScaleValue:
    """A scale e^u (a divisor's archimedean part, or its exp-degree), exactly
    rational or as a float exponent.

    exact is the rational value of e^u when known (u = log exact), else None;
    log carries u in both cases.
    """

    exact: Fraction | None
    log: float

    @staticmethod
    def exact_exp(r) -> "ScaleValue":
        r = Fraction(r)
        if r <= 0:
            raise ValueError("exact scale must be a positive rational")
        return ScaleValue(r, math.log(r.numerator) - math.log(r.denominator))

    @staticmethod
    def from_log(u: float) -> "ScaleValue":
        u = float(u)
        if not math.isfinite(u):
            raise ValueError("the archimedean exponent must be finite")
        return ScaleValue(None, u)

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    @property
    def value(self) -> Fraction | float:
        return self.exact if self.exact is not None else math.exp(self.log)

    def combined(self, other: "ScaleValue") -> "ScaleValue":
        if self.exact is not None and other.exact is not None:
            return ScaleValue.exact_exp(self.exact * other.exact)
        return ScaleValue.from_log(self.log + other.log)

    def inverted(self) -> "ScaleValue":
        if self.exact is not None:
            return ScaleValue.exact_exp(1 / self.exact)
        return ScaleValue.from_log(-self.log)


@frozen
class Lattice1:
    """The rank-one lattice c Z inside Q (c a positive rational)."""

    generator: Fraction

    def __post_init__(self) -> None:
        if self.generator <= 0:
            raise ValueError("lattice generator must be positive")


# Largest sum over p of |a_p| log2 p, the bits of the exact exp-degree's
# numerator and denominator together.  Its Fraction arithmetic costs
# quadratic-time gcds once both are large: the largest accepted `theta h0`,
# on 2^400000 / 3^252000, takes about 1 s on a 2.1 GHz Xeon core with the
# interpreter's start, and on 3^504000 about 0.2 s.
DIVISOR_MAX_BITS = 800_000


@frozen
class ArakelovDivisor:
    """Finite prime support plus an archimedean scale."""

    finite: tuple[tuple[int, int], ...]
    arch: ScaleValue

    @staticmethod
    def make(finite: Mapping[int, int], arch: ScaleValue) -> "ArakelovDivisor":
        items = []
        bits = 0.0
        for p, a in sorted(finite.items()):
            if not is_prime(p):
                raise ValueError(f"divisor support must consist of primes, got {p}")
            if a != 0:
                items.append((int(p), int(a)))
                # log2 p >= 1, so clamping |a_p| keeps the test and the float finite
                bits += min(abs(a), DIVISOR_MAX_BITS + 1) * math.log2(p)
        if bits > DIVISOR_MAX_BITS:
            raise CapExceeded(
                f"the divisor's prime powers, sum of |a_p| log2 p, are above the cap of {DIVISOR_MAX_BITS} bits"
            )
        return ArakelovDivisor(tuple(items), arch)

    @staticmethod
    def zero() -> "ArakelovDivisor":
        return ArakelovDivisor((), ScaleValue.exact_exp(1))

    @staticmethod
    def of_degree(d: float) -> "ArakelovDivisor":
        """Purely archimedean divisor of the given (float) degree."""
        return ArakelovDivisor((), ScaleValue.from_log(float(d)))

    @property
    def finite_part(self) -> dict[int, int]:
        return dict(self.finite)

    def __add__(self, other: "ArakelovDivisor") -> "ArakelovDivisor":
        out = self.finite_part
        for p, a in other.finite:
            out[p] = out.get(p, 0) + a
        return ArakelovDivisor.make(out, self.arch.combined(other.arch))

    def __neg__(self) -> "ArakelovDivisor":
        return ArakelovDivisor(tuple((p, -a) for p, a in self.finite), self.arch.inverted())

    def __sub__(self, other: "ArakelovDivisor") -> "ArakelovDivisor":
        return self + (-other)

    def to_json_dict(self) -> dict:
        arch = (
            {"exact_exp": f"{self.arch.exact.numerator}/{self.arch.exact.denominator}"}
            if self.arch.is_exact
            else {"float": self.arch.log}
        )
        return {"finite": {str(p): a for p, a in self.finite}, "arch": arch}

    @staticmethod
    def from_json_dict(data: Mapping) -> "ArakelovDivisor":
        if not isinstance(data, Mapping):
            raise ValueError("a divisor must be a JSON object")
        finite_data = data.get("finite", {})
        arch_data = data.get("arch", {"exact_exp": "1"})
        if not isinstance(finite_data, Mapping) or not isinstance(arch_data, Mapping):
            raise ValueError("divisor 'finite' and 'arch' parts must be JSON objects")
        finite = {json_key(p): json_int(a) for p, a in finite_data.items()}
        if "exact_exp" in arch_data:
            arch = ScaleValue.exact_exp(Fraction(str(arch_data["exact_exp"])))
        elif "float" in arch_data:
            arch = ScaleValue.from_log(json_number(arch_data["float"]))
        else:
            raise ValueError("divisor arch part must carry 'exact_exp' or 'float'")
        return ArakelovDivisor.make(finite, arch)


def principal(q) -> ArakelovDivisor:
    """The divisor of a nonzero rational: valuations at primes, scale 1/|q|."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("the zero rational has no divisor")
    absq = abs(q)
    support = factorize(absq.numerator)
    support.update((p, -a) for p, a in factorize(absq.denominator).items())
    return ArakelovDivisor.make(support, ScaleValue.exact_exp(1 / absq))


def _finite_exp(d: ArakelovDivisor) -> Fraction:
    """prod p^(a_p), the exp of the finite part's degree."""
    return math.prod((Fraction(p) ** a for p, a in d.finite), start=Fraction(1))


def lattice_of(d: ArakelovDivisor) -> Lattice1:
    """Sections of the finite part: |q|_p <= p^(a_p) for all p means q in cZ."""
    return Lattice1(1 / _finite_exp(d))


def degree_scale(d: ArakelovDivisor) -> ScaleValue:
    """exp(deg d) = e^u prod p^(a_p), exact on an exact scale, with the degree
    as its log.  On a float scale that log is u + log N - log D for
    prod p^(a_p) = N/D, finite where its exp overflows or underflows."""
    prod = _finite_exp(d)
    if d.arch.is_exact:
        return ScaleValue.exact_exp(d.arch.exact * prod)
    return ScaleValue.from_log(d.arch.log + math.log(prod.numerator) - math.log(prod.denominator))


def exp_degree(d: ArakelovDivisor) -> Fraction | float:
    """exp(deg d) = e^u * prod p^(a_p); exact rational in exact-scale mode."""
    return degree_scale(d).value


def degree(d: ArakelovDivisor) -> float:
    """deg d = sum a_p log p + u, as a float."""
    return degree_scale(d).log


def count_xi_over_L(xi_norm, lattice: Lattice1) -> int:
    """Number of lattice points of norm <= xi_norm: 1 + 2 floor(xi_norm / c).

    Independent of rescaling xi_norm and c together; the comparison is
    inclusive, and exact when xi_norm is rational.
    """
    if xi_norm < 0:
        raise ValueError("norms are nonnegative")
    return 1 + 2 * math.floor(xi_norm / lattice.generator)


# Membership of phi in E_xi, the l1 ball sum |phi_i| <= xi_norm (inclusive).
e_xi_member = l1_within


def count_E_xi(lattice: Lattice1, k: int, xi_norm, cap: int = DEFAULT_CAP) -> list[tuple[Fraction, ...]]:
    """All phi in L^k with sum |phi_i| <= xi_norm, enumerated exactly.

    Requires a rational xi_norm (floats cannot settle the inclusive boundary).
    The count always equals delannoy(floor(xi_norm/c), k).
    """
    if k < 1:
        raise ValueError("the number of coordinates must be >= 1")
    if not isinstance(xi_norm, (int, Fraction)):
        raise ValueError("exact enumeration requires a rational norm bound")
    c = lattice.generator
    radius = math.floor(Fraction(xi_norm) / c)
    count = delannoy(radius, k)
    if count > cap:
        raise CapExceeded(f"enumeration of {count} lattice points exceeds cap {cap}")
    # The multiples c m for m = 0..radius, then -radius..-1, so that a negative
    # coordinate m indexes its own multiple from the end.
    multiples = [c * m for m in range(radius + 1)] + [c * m for m in range(-radius, 0)]
    return [tuple(map(multiples.__getitem__, vec)) for vec in iter_l1_ball(k, radius)]


# Past pi s = 746, exp(-pi s m^2) underflows to 0.0 for every m >= 1.
_DUAL_LOG_CUTOFF = math.log(746.0 / math.pi)

QUADRATURE_MAX_PIECES = 2_000_000
# The quadrature adds its pieces with numpy, in chunks of _QUADRATURE_CHUNK
# pieces, from one chunk on (about degree 8.45 at eps 1e-12) when numpy is
# already loaded, and from _QUADRATURE_NUMPY_PIECES on (about degree 11.88)
# when it is not.  numpy's import takes about 150 ms on a 2.1 GHz Xeon core,
# as long as the iterator sum of some 430,000 pieces, so a fresh process
# breaks even near 590,000 pieces (degree 12).  One that has numpy loaded
# gains from the first chunk: per piece the chunks take about a 3.5th of the
# iterator's time (2.0 against 6.7 ms at degree 8.5).
_QUADRATURE_NUMPY_PIECES = 1 << 19
_QUADRATURE_CHUNK = 1 << 14


def _check_theta_param(t: float) -> None:
    if not (t > 0 and math.isfinite(t)):
        raise ValueError("theta parameter must be positive and finite")


def _theta_tail_sum(t: float, eps: float) -> float:
    """sum_{m>=1} exp(-pi t m^2) with absolute error below eps/2.

    Terms from M on are bounded by the geometric estimate
    exp(-pi t M^2) / (1 - exp(-pi t (2M + 1))).
    """
    _check_theta_param(t)
    total = 0.0
    m = 1
    while True:
        bound = math.exp(-math.pi * t * m * m) / (1.0 - math.exp(-math.pi * t * (2 * m + 1)))
        # A bound of 0.0 means every term from m on is 0.0 as well; it ends
        # the sum where eps / 2 rounds to 0.0 (eps the least subnormal).
        if 2.0 * bound < eps / 2.0 or bound == 0.0:
            return total
        total += math.exp(-math.pi * t * m * m)
        m += 1


def _theta_param(d: ArakelovDivisor, eps: float) -> tuple[float, float]:
    """(t, deg) with t = exp(-2 deg), both read off degree_scale(d) once eps
    is checked: t from the exact rational when there is one, so that linearly
    equivalent divisors give identical output, and inf where it overflows."""
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    ed = degree_scale(d)
    try:
        t = float(1 / (ed.exact * ed.exact)) if ed.is_exact else math.exp(-2.0 * ed.log)
    except OverflowError:
        t = math.inf
    return t, ed.log


def theta_h0(d: ArakelovDivisor, eps: float = 1e-12) -> float:
    """log of the Gaussian lattice sum of the divisor, to absolute error < eps.

    That is log theta(t): the direct sum for t >= 1, else Jacobi's
    transformation log theta(t) = deg + log theta(1/t), with 1/t = exp(2 deg)
    taken from the degree so that it never comes from a t that underflowed.
    Both ends are decided in log space: once -2 deg exceeds _DUAL_LOG_CUTOFF
    every direct term underflows and h0 is 0, and once 2 deg does every dual
    term does and h0 is deg.
    """
    t, deg = _theta_param(d, eps)
    if -2.0 * deg > _DUAL_LOG_CUTOFF:
        return 0.0
    if t >= 1.0:
        return math.log1p(2.0 * _theta_tail_sum(t, eps))
    if 2.0 * deg > _DUAL_LOG_CUTOFF:
        return deg
    return deg + math.log1p(2.0 * _theta_tail_sum(math.exp(2.0 * deg), eps))


def theta_h0_of_degree(d: float, eps: float = 1e-12) -> float:
    """Theta invariant as a function of the degree alone."""
    return theta_h0(ArakelovDivisor.of_degree(d), eps)


def gaussian_avg_quadrature(d: ArakelovDivisor, eps: float = 1e-12) -> float:
    """Average of [xi/L] against the Gaussian, by exact piecewise integration.

    The integrand is radially a step function jumping at |z| = n c; on each
    annulus the Gaussian integrates in closed form, so the n-th piece
    contributes (2n+1) (E_n - E_{n+1}) with E_n = exp(-pi t n^2), t = exp(-2 deg).
    Summation stops at the first piece N whose Abel-summed tail bound
    (2N+3) E_{N+1} + 2 E_{N+2} / (1 - exp(-pi t (2N+5))) drops below eps.  That
    bound rises to one peak in N and then falls, so unless it is below eps at
    N = 0 the stopping piece is where it crosses eps after the peak, found by
    bisection; the pieces up to it are then added left to right.  They are
    added in numpy chunks, with the same floats in the same order, so that the
    result is bit for bit the iterator sum's: from _QUADRATURE_CHUNK pieces on
    (about degree 8.45 at eps 1e-12) when numpy is already imported, and from
    _QUADRATURE_NUMPY_PIECES on (about degree 11.88) when it is not, where its
    import would cost more than it saves.  This is the direct sum at every
    degree, the independent route to exp(theta_h0); more than
    QUADRATURE_MAX_PIECES pieces raise CapExceeded.
    """
    t, _ = _theta_param(d, eps)
    _check_theta_param(t)
    # Piece n can end the sum only if (2n+3) E_{n+1} < eps.  The log of that
    # product is concave in n, so if neither end of the range gets below
    # log(eps), no piece within the cap does.
    log_eps = math.log(eps)
    if all(math.log(2 * n + 3) - math.pi * t * (n + 1) ** 2 >= log_eps for n in (0, QUADRATURE_MAX_PIECES - 1)):
        raise CapExceeded(f"the quadrature at t = {t!r} needs more than {QUADRATURE_MAX_PIECES} pieces")

    # E_n = exp(a n n) with a n n the same float as -pi t n n; E_0..E_2 are
    # taken as 1, exp(a) and exp(4 a).
    exp, a = math.exp, -math.pi * t

    def e(m: int) -> float:
        return 1.0 if m == 0 else exp(a) if m == 1 else exp(4 * a) if m == 2 else exp(a * m * m)

    def tail(n: int) -> float:
        # What pieces n+1, n+2, ... can still add: (2n+3) E_{n+1} + 2 sum_{m >= n+2} E_m.
        return (2 * n + 3) * e(n + 1) + 2.0 * e(n + 2) / (1.0 - exp(a * (2 * n + 5)))

    if tail(0) < eps:
        stop = 0
    else:
        lo, stop = 0, QUADRATURE_MAX_PIECES - 1
        if tail(stop) >= eps:
            raise CapExceeded(f"the quadrature at t = {t!r} needs more than {QUADRATURE_MAX_PIECES} pieces")
        # tail(lo) >= eps > tail(stop) throughout, so at the end stop = lo + 1
        # is the first piece whose tail is below eps.
        while stop - lo > 1:
            mid = (lo + stop) // 2
            if tail(mid) < eps:
                stop = mid
            else:
                lo = mid

    # Pieces 0..stop from one exp per E_n, added left to right (reduce, not
    # sum, which compensates float sums from Python 3.12 on).  The route
    # depends on the piece count and on whether numpy is already imported;
    # both add the same floats.
    if stop < _QUADRATURE_NUMPY_PIECES and (stop < _QUADRATURE_CHUNK or "numpy" not in sys.modules):
        ms = range(3, stop + 2)
        es = chain((1.0, exp(a), exp(4 * a)), map(exp, map(mul, map(mul, repeat(a), ms), ms)))
        lower, upper = tee(es)
        next(upper)
        return reduce(add, map(mul, range(1, 2 * stop + 2, 2), map(sub, lower, upper)), 0.0)

    # The same floats in numpy, chunk by chunk: a m m is (a m) m as above
    # (exactly 0, a and 4 a at m = 0, 1, 2), each E_m still comes from
    # math.exp (np.exp's SIMD loops differ from it in the last bit), and
    # add.accumulate adds in sequence, where add.reduce would add pairwise.
    import numpy as np

    total = 0.0
    for start in range(0, stop + 1, _QUADRATURE_CHUNK):
        end = min(start + _QUADRATURE_CHUNK, stop + 1)  # pieces start..end-1
        m = np.arange(start, end + 1, dtype=np.float64)
        x = a * m
        x *= m
        es = np.fromiter(map(exp, x.tolist()), np.float64, count=end - start + 1)
        diffs = es[:-1] - es[1:]
        diffs *= np.arange(2 * start + 1, 2 * end + 1, 2, dtype=np.float64)
        diffs[0] += total
        total = float(np.add.accumulate(diffs, out=diffs)[-1])
    return total


@frozen
class McResult:
    mean: float
    stderr: float
    samples: int
    seed: int


_MC_CHUNK = 1 << 16


def gaussian_avg_mc(
    d: ArakelovDivisor, samples: int, seed: int, threads: int = 1
) -> McResult:
    """Monte Carlo average of [xi/L] over the Gaussian; same seed, same stream.

    The Gaussian on C is z = x + iy with x, y independent normals of variance
    sigma^2 = 1/(2 pi a), a = exp(-2u).  [xi/L] = 1 + 2 floor(|z| / c) is
    radial, so only the Box-Muller radius |z| = sigma sqrt(-2 log(1 - u1)) is
    drawn; the angle would be drawn from a second uniform that the count never
    reads.  Each fixed-size chunk draws its uniforms from a generator seeded
    independently from (seed, chunk index), so the result does not depend on
    the number of worker threads (at most one per chunk and per CPU core).
    A chunk is computed in place in its array of uniforms, with the same
    float operations in the same order as the textbook expression.  sigma
    and c must each be a positive float, else a ValueError names the one
    that is not.
    """
    import numpy as np

    if samples < 1:
        raise ValueError("at least one sample is required")
    # Each factor must be a positive float on its own, whatever exp(deg) is.
    try:
        sigma = math.exp(d.arch.log) / math.sqrt(2.0 * math.pi)
    except OverflowError:
        sigma = math.inf
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma = e^u / sqrt(2 pi) at u = {d.arch.log!r} is out of a float's range")
    try:
        c = float(lattice_of(d).generator)
    except OverflowError:
        c = math.inf
    if not 0.0 < c < math.inf:
        raise ValueError("the section lattice's generator c = prod p^(-a_p) is out of a float's range")
    n_chunks = (samples + _MC_CHUNK - 1) // _MC_CHUNK

    def run_chunk(idx: int) -> tuple[float, float]:
        m = min(_MC_CHUNK, samples - idx * _MC_CHUNK)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(idx,))))
        # vals = 1 + 2 floor(sigma sqrt(-2 log1p(-u)) / c), one ufunc at a time in u.
        # A sample past the largest float is inf, and so is the answer, which
        # the caller sees; numpy need not warn about it as well.
        with np.errstate(over="ignore"):
            u = rng.random(m)
            np.negative(u, out=u)
            np.log1p(u, out=u)
            np.multiply(-2.0, u, out=u)
            np.sqrt(u, out=u)
            np.multiply(sigma, u, out=u)
            np.divide(u, c, out=u)
            np.floor(u, out=u)
            np.multiply(2.0, u, out=u)
            np.add(1.0, u, out=u)
            s1 = float(u.sum())
            return s1, float(np.square(u, out=u).sum())

    workers = min(threads, n_chunks, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run_chunk, range(n_chunks)))
    else:
        partials = [run_chunk(i) for i in range(n_chunks)]

    s1 = sum(p[0] for p in partials)
    s2 = sum(p[1] for p in partials)
    mean = s1 / samples
    if samples > 1:
        var = max(s2 - samples * mean * mean, 0.0) / (samples - 1)
        stderr = math.sqrt(var / samples)
    else:
        stderr = 0.0
    return McResult(mean=mean, stderr=stderr, samples=samples, seed=seed)


def riemann_roch_defect(d: float, eps: float = 1e-12) -> float:
    """h(d) - h(-d) - d; zero by the theta functional equation.

    h0 applies that equation for deg > 0, and h(d) and h(-d) then sum the same
    dual series, so the defect is zero up to rounding by construction.  The
    identity itself is checked by gaussian_avg_quadrature, a direct sum.
    """
    if d == 0:
        return 0.0
    return theta_h0_of_degree(d, eps) - theta_h0_of_degree(-d, eps) - d
