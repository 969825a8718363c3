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
import re
import sys
from collections.abc import Mapping
from fractions import Fraction
from functools import reduce
from itertools import repeat, tee
from operator import add, mul, sub

from .combinat import delannoy, l1_ball_columns
from .errors import BUDGETS, check_budget, frozen, json_int, json_key, json_number, json_object
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
        if r.__class__ is not Fraction:
            r = Fraction(r)
        if r.numerator <= 0:
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


@frozen
class ArakelovDivisor:
    """Finite prime support plus an archimedean scale."""

    finite: tuple[tuple[int, int], ...]
    arch: ScaleValue

    @staticmethod
    def make(finite: Mapping[int, int], arch: ScaleValue) -> "ArakelovDivisor":
        for p in sorted(finite):
            if not is_prime(p):
                raise ValueError(f"divisor support must consist of primes, got {p}")
        return ArakelovDivisor._of_primes(finite, arch)

    @staticmethod
    def _of_primes(finite: Mapping[int, int], arch: ScaleValue) -> "ArakelovDivisor":
        """make for a support already proven prime: the nonzero exponents in
        order, within the divisor_bits budget."""
        items = []
        bits, max_bits = 0.0, BUDGETS["divisor_bits"][0]
        for p, a in sorted(finite.items()):
            if a != 0:
                items.append((int(p), int(a)))
                # log2 p >= 1, so clamping |a_p| keeps the test and the float finite
                bits += min(abs(a), max_bits + 1) * math.log2(p)
        check_budget("divisor_bits", bits)
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
        return ArakelovDivisor._of_primes(out, self.arch.combined(other.arch))

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
        data = json_object(data, ("finite", "arch"), "a divisor")
        finite_data, arch_data = data.get("finite", {}), data.get("arch", {"exact_exp": "1"})
        if not isinstance(finite_data, Mapping):
            raise ValueError("a divisor's 'finite' part must be a JSON object")
        finite = {json_key(p): json_int(a) for p, a in finite_data.items()}
        arch_data = json_object(arch_data, ("exact_exp", "float"), "a divisor's 'arch' part")
        if len(arch_data) != 1:
            raise ValueError("a divisor's 'arch' part must carry exactly one of 'exact_exp' and 'float'")
        if "exact_exp" in arch_data:
            arch = ScaleValue.exact_exp(_exact_scale(str(arch_data["exact_exp"])))
        else:
            arch = ScaleValue.from_log(json_number(arch_data["float"]))
        return ArakelovDivisor.make(finite, arch)


# The decimal forms of Fraction's string grammar that carry an exponent e, in
# every supported Python: Fraction builds 10^|e| with no bound of its own.
_DECIMAL_EXPONENT = re.compile(r"\s*[-+]?(?=\.?\d)(\d*(?:_\d+)*)(?:\.(\d*(?:_\d+)*))?[eE]([-+]?\d+(?:_\d+)*)\s*")


def _exact_scale(text: str) -> Fraction:
    """Fraction(text), refused with CapExceeded before it is built where the
    string alone puts its value's bits above the divisor_bits cap.

    A decimal with w digits before the point, f after it and exponent e is
    M 10^(e - f) with 1 <= M < 10^(w + f), so |log10| of a nonzero value is
    at least e - f, or -e - w, whichever is positive.  The bits of a reduced
    n/m, log2 n + log2 m, are at least |log2 (n/m)|, so a value within the cap
    is never refused.  Other forms hold no exponent, and int() bounds their
    digits."""
    match = _DECIMAL_EXPONENT.fullmatch(text)
    if match:
        whole, part, e = (g.replace("_", "") for g in match.groups(""))
        e = int(e)
        digits = max(e - len(part), -e - len(whole), 0)
        # Clamped, as in _of_primes, so that the float stays finite.
        check_budget("divisor_bits", min(digits, BUDGETS["divisor_bits"][0] + 1) * math.log2(10))
    return Fraction(text)


def principal(q) -> ArakelovDivisor:
    """The divisor of a nonzero rational: valuations at primes, scale 1/|q|."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("the zero rational has no divisor")
    absq = abs(q)
    # N = prod p^(a_p) has sum a_p log2 p >= N.bit_length() - 1, so this
    # refuses, before any factoring, only what _of_primes would refuse after.
    check_budget("divisor_bits", absq.numerator.bit_length() + absq.denominator.bit_length() - 2)
    support = factorize(absq.numerator)
    support.update((p, -a) for p, a in factorize(absq.denominator).items())
    return ArakelovDivisor._of_primes(support, ScaleValue.exact_exp(1 / absq))


# _finite_exp, lattice_of and degree_scale keep their value in the divisor's
# __dict__, so each is computed once per divisor object: a query reads them
# several times (an exact pi query reads the lattice twice).  The frozen
# __eq__, __hash__ and __repr__ read only the fields, so equal divisors stay
# equal whether or not their memos are filled.  A cache
# keyed on the value would outlive the object and make a query's cost depend
# on the queries before it.  _finite_exp keeps prod p^(a_p) as the int pair
# (N, D), N the powers with a_p > 0 and D those with a_p < 0, coprime as
# their primes are distinct, so that each of its readers builds at most one
# Fraction.


def _finite_exp(d: ArakelovDivisor) -> tuple[int, int]:
    """(N, D) with prod p^(a_p) = N/D in lowest terms, the exp of the finite
    part's degree, once per object."""
    memo = d.__dict__
    pair = memo.get("_finite_exp")
    if pair is None:
        num = den = 1
        for p, a in d.finite:
            if a > 0:
                num *= p**a
            else:
                den *= p**-a
        pair = memo["_finite_exp"] = num, den
    return pair


def lattice_of(d: ArakelovDivisor) -> Lattice1:
    """Sections of the finite part: |q|_p <= p^(a_p) for all p means q in cZ,
    c = D/N, once per object."""
    memo = d.__dict__
    lattice = memo.get("_lattice")
    if lattice is None:
        num, den = _finite_exp(d)
        lattice = memo["_lattice"] = Lattice1(Fraction(den, num))
    return lattice


def degree_scale(d: ArakelovDivisor) -> ScaleValue:
    """exp(deg d) = e^u prod p^(a_p), exact on an exact scale, with the degree
    as its log, once per object.  On a float scale that log is
    u + log N - log D for prod p^(a_p) = N/D, finite where its exp
    overflows or underflows."""
    memo = d.__dict__
    scale = memo.get("_degree_scale")
    if scale is None:
        num, den = _finite_exp(d)
        e = d.arch.exact
        if e is not None:
            # One normalised product; e > 0, so the result is positive.
            r = Fraction(e.numerator * num, e.denominator * den)
            scale = ScaleValue(r, math.log(r.numerator) - math.log(r.denominator))
        else:
            scale = ScaleValue.from_log(d.arch.log + math.log(num) - math.log(den))
        memo["_degree_scale"] = scale
    return scale


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


def count_E_xi(lattice: Lattice1, k: int, xi_norm) -> list[tuple[Fraction, ...]]:
    """All phi in L^k with sum |phi_i| <= xi_norm, enumerated exactly.

    Requires a rational xi_norm (floats cannot settle the inclusive boundary).
    The count always equals delannoy(floor(xi_norm/c), k): the rows of
    combinat.l1_ball_columns at that radius, each int m read as c m from the
    2r+1 multiples listed as m = 0..r, then -r..-1, so that a negative m
    indexes its own multiple from the end.
    """
    if k < 1:
        raise ValueError("the number of coordinates must be >= 1")
    if not isinstance(xi_norm, (int, Fraction)):
        raise ValueError("exact enumeration requires a rational norm bound")
    p, q = lattice.generator.numerator, lattice.generator.denominator
    radius = xi_norm.numerator * q // (xi_norm.denominator * p)
    check_budget("lattice_points", delannoy(radius, k))
    # c m = p m / q, normalised by Fraction itself.
    multiples = [Fraction(p * m, q) for m in range(radius + 1)] + [Fraction(p * m, q) for m in range(-radius, 0)]
    return list(zip(*[map(multiples.__getitem__, column) for column in l1_ball_columns(radius, k)]))


# Past pi s = 746, exp(-pi s m^2) underflows to 0.0 for every m >= 1.
_DUAL_LOG_CUTOFF = math.log(746.0 / math.pi)

# The quadrature adds its pieces with numpy, in chunks of _QUADRATURE_CHUNK
# pieces, from _QUADRATURE_LOADED_PIECES on (about degree 3.0 at eps
# 1e-12) when numpy is already loaded, and from _QUADRATURE_NUMPY_PIECES on
# (about degree 11.88) when it is not.  With numpy loaded, a whole call
# (bisection included) takes, in ms on a 2-core 2.0 GHz Xeon VM with numpy
# 2.4.6, called back to back (best of 7 x 200 calls) and between the queries
# of the benchmark's divisor pass (median of 20 passes, seeds 1 and 2):
#
#     stopping piece        64    128    192    256    384    512   1024
#     back to back
#       iterator         0.064  0.098  0.118  0.147  0.211  0.254  0.484
#       chunks           0.059  0.060  0.068  0.066  0.068  0.074  0.093
#     between queries
#       iterator         0.140  0.154  0.155  0.184  0.244  0.321  0.528
#                        0.133  0.139  0.146  0.203  0.230  0.315  0.523
#       chunks           0.256  0.239  0.230  0.209  0.203  0.239  0.160
#                        0.244  0.199  0.210  0.249  0.153  0.262  0.132
#
# Called back to back the chunks win from 2^6 pieces on, so they start
# there.  Between other work numpy's fixed cost per call is about 0.2 ms and
# they catch up with the iterator only near 300 pieces, so a divisor-pass
# call of 2^6 to 2^8 pieces costs about 0.03-0.11 ms more than it would by
# the iterator; the pass's slow queries gain more, and its query_p90_ms is
# lower than with the chunks from 2^8 (1.30 against 1.33 ms on seed 1), at
# the price of about 4% on the seed-2 median.  A piece takes the iterator about
# 0.32 us and the chunks about 0.022 us (189 against 13 ms for the 592,451
# pieces of degree 12).  numpy's import takes 90-140 ms there, and a fresh
# `theta verify` breaks even near 360,000 pieces (degree 11.5, 272 ms by
# either route); from there to 2^19 pieces the iterator costs a fresh
# process up to about 90 ms more than the chunks would (346 against 258 ms
# at degree 11.88), and below degree 11 it saves about 50 to 115 ms.
_QUADRATURE_NUMPY_PIECES = 1 << 19
_QUADRATURE_LOADED_PIECES = 1 << 6
_QUADRATURE_CHUNK = 1 << 14


def _check_theta_param(t: float) -> None:
    if not (t > 0 and math.isfinite(t)):
        raise ValueError("theta parameter must be positive and finite")


def _theta_tail_sum(t: float, eps: float) -> float:
    """sum_{m>=1} exp(-pi t m^2) with absolute error below eps/2.

    Terms from M on are bounded by the geometric estimate
    exp(-pi t M^2) / (1 - exp(-pi t (2M + 1))); theta_h0 passes 0 < t <= 746/pi.
    """
    total = 0.0
    m = 1
    while True:
        term = math.exp(-math.pi * t * m * m)
        bound = term / (1.0 - math.exp(-math.pi * t * (2 * m + 1)))
        # A bound of 0.0 means every term from m on is 0.0 as well; it ends
        # the sum where eps / 2 rounds to 0.0 (eps the least subnormal).
        if 2.0 * bound < eps / 2.0 or bound == 0.0:
            return total
        total += term
        m += 1


def _theta_param(d: ArakelovDivisor, eps: float) -> tuple[float, float]:
    """(t, deg) with t = exp(-2 deg), both read off degree_scale(d) once eps
    is checked: t from the exact rational a/b when there is one, so that
    linearly equivalent divisors give identical output, and inf where it
    overflows.  b^2 / a^2 is int true division, correctly rounded, the float
    that float(Fraction) gives."""
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    ed = degree_scale(d)
    e = ed.exact
    try:
        t = e.denominator**2 / e.numerator**2 if e is not None else math.exp(-2.0 * ed.log)
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
    result is bit for bit the iterator sum's: from _QUADRATURE_LOADED_PIECES
    = 2^6 pieces on (about degree 3.0 at eps 1e-12) when numpy is already
    imported, where the chunks overtake the iterator called back to back
    (0.059 against 0.064 ms a call at 64 pieces, 0.066 against 0.147 at 256;
    the table above _QUADRATURE_NUMPY_PIECES has more), and from
    _QUADRATURE_NUMPY_PIECES on (about degree 11.88) when it is not, so that
    a fresh process spares numpy's import below that.  A chunk takes its E_m
    as the real part of numpy's complex exp at a m m + 0i, which goes through
    C cexp: with a zero imaginary part glibc's cexp returns exp(x) * 1 from
    the libm exp that math.exp calls, without sincos, and numpy's own
    fallback returns exp(x), so each E_m is math.exp's float, where float64
    np.exp's SIMD loops differ in the last bit.  Its underflow flag, raised once E_m is subnormal or 0, is
    ignored inside the chunks whatever np.seterr the caller chose, as the
    iterator's math.exp raises nothing there either.  This is the direct sum
    at every degree, the independent route to exp(theta_h0); more than
    BUDGETS["quadrature_pieces"] pieces are refused with CapExceeded.
    """
    t, _ = _theta_param(d, eps)
    _check_theta_param(t)
    # Piece n can end the sum only if (2n+3) E_{n+1} < eps.  The log of that
    # product is concave in n, so if neither end of the range gets below
    # log(eps), no piece within the cap does (else the sum takes at least one).
    log_eps, max_pieces = math.log(eps), BUDGETS["quadrature_pieces"][0]
    beyond = all(math.log(2 * n + 3) - math.pi * t * (n + 1) ** 2 >= log_eps for n in (0, max_pieces - 1))
    check_budget("quadrature_pieces", max_pieces + 1 if beyond else 1, t=t)

    # E_n = exp(a n n) with a n n the same float as -pi t n n (exactly -0.0,
    # a and 4 a at n = 0, 1, 2).
    exp, a = math.exp, -math.pi * t

    def e(m: int) -> float:
        return exp(a * m * m)

    def tail(n: int) -> float:
        # What pieces n+1, n+2, ... can still add: (2n+3) E_{n+1} + 2 sum_{m >= n+2} E_m.
        return (2 * n + 3) * e(n + 1) + 2.0 * e(n + 2) / (1.0 - exp(a * (2 * n + 5)))

    if tail(0) < eps:
        stop = 0
    else:
        lo, stop = 0, max_pieces - 1
        check_budget("quadrature_pieces", max_pieces + 1 if tail(stop) >= eps else 1, t=t)
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
    if stop < _QUADRATURE_NUMPY_PIECES and (stop < _QUADRATURE_LOADED_PIECES or "numpy" not in sys.modules):
        ms = range(stop + 2)
        es = map(exp, map(mul, map(mul, repeat(a), ms), ms))
        lower, upper = tee(es)
        next(upper)
        return reduce(add, map(mul, range(1, 2 * stop + 2, 2), map(sub, lower, upper)), 0.0)

    # The same floats in numpy, chunk by chunk: a m m is (a m) m as above
    # (exactly -0.0, a and 4 a at m = 0, 1, 2), each E_m is math.exp's float,
    # and add.accumulate adds in sequence, where add.reduce would add pairwise.
    import numpy as np

    total = 0.0
    for start in range(0, stop + 1, _QUADRATURE_CHUNK):
        end = min(start + _QUADRATURE_CHUNK, stop + 1)  # pieces start..end-1
        m = np.arange(start, end + 1, dtype=np.float64)
        x = a * m
        x *= m
        es = _chunk_exps(x)
        diffs = es[:-1] - es[1:]
        diffs *= np.arange(2 * start + 1, 2 * end + 1, 2, dtype=np.float64)
        diffs[0] += total
        total = float(np.add.accumulate(diffs, out=diffs)[-1])
    return total


def _chunk_exps(x):
    """math.exp of each float64 of x, bit for bit, as the real part of the
    complex exp at x + 0i (see gaussian_avg_quadrature), with underflow
    unflagged whatever np.seterr says."""
    import numpy as np

    with np.errstate(under="ignore"):
        return np.exp(x.astype(np.complex128)).real


@frozen
class McResult:
    mean: float
    stderr: float
    samples: int
    seed: int


_MC_CHUNK = 1 << 16
# The threshold search's half-width in 53-bit integers, and the most
# thresholds a chunk compares its words with; both are derived in
# gaussian_avg_mc.  The window covers a log1p error of about 125 ulps; numpy
# 2.4.6's float64 log1p measured 0.60 ulp at worst against mpmath at 120 bits,
# on 10^5 draws and every window input at degrees 0 and 1, and
# tests/test_arakelov.py requires at most 4.
_MC_WINDOW = 256
_MC_MAX_THRESHOLDS = 16


def _mc_counts(u, sigma: float, c: float):
    """floor(sigma sqrt(-2 log1p(-u)) / c), in place in the float64 array u,
    one ufunc at a time; a count past the largest float is inf."""
    import numpy as np

    with np.errstate(over="ignore"):
        np.negative(u, out=u)
        np.log1p(u, out=u)
        np.multiply(-2.0, u, out=u)
        np.sqrt(u, out=u)
        np.multiply(sigma, u, out=u)
        np.divide(u, c, out=u)
        return np.floor(u, out=u)


def _mc_threshold_estimate(j: int, sigma: float, c: float) -> int:
    """The least 53-bit integer i whose u = i 2^-53 has exact radius count at
    least j, up to a few integers: 2^53 (1 - exp(-(j c / sigma)^2 / 2))."""
    x = j * c / sigma
    return math.ceil(-math.expm1(-x * x / 2.0) * 2.0**53)


def _mc_thresholds(sigma: float, c: float) -> list | None:
    """The words T_j << 11, j = 1..K, as np.uint64, where T_j is the least
    53-bit integer whose u = T_j 2^-53 gets count _mc_counts >= j and K is
    the count of the largest draw 1 - 2^-53; None where K exceeds
    _MC_MAX_THRESHOLDS or a window around an estimate shows no clean step."""
    import numpy as np

    top = 2**53 - 1
    k_max = _mc_counts(np.array([top * 2.0**-53]), sigma, c)[0]
    if not k_max <= _MC_MAX_THRESHOLDS:
        return None
    # Row j - 1 holds the 2 W + 1 integers around the estimate of T_j,
    # j = 1..K + 1, moved inside 0..top, and whether each gets count j.
    js = range(1, int(k_max) + 2)
    starts = [min(max(_mc_threshold_estimate(j, sigma, c) - _MC_WINDOW, 0), top - 2 * _MC_WINDOW) for j in js]
    ints = np.array(starts, dtype=np.int64)[:, None] + np.arange(2 * _MC_WINDOW + 1)
    reached = _mc_counts(ints * 2.0**-53, sigma, c) >= np.array(js)[:, None]
    first, n = np.argmax(reached, axis=1)[:-1], np.count_nonzero(reached, axis=1)
    # Each window j <= K shows one clean step strictly inside it, below j and
    # then j or more, and no integer in window K + 1 reaches K + 1.
    if n[-1] or not (np.all(first > 0) and np.all(n[:-1] == 2 * _MC_WINDOW + 1 - first)):
        return None
    # The chunks stop at the first threshold that no word reaches, so the
    # thresholds must not decrease.
    steps = ints[np.arange(len(first)), first].tolist()
    return [np.uint64(t << 11) for t in steps] if steps == sorted(steps) else None


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
    Where sigma or c alone is not a positive float, sigma / c = exp(deg) /
    sqrt(2 pi) is taken from the log degree, over c = 1; where that ratio is
    not a positive float either, a ValueError names it.

    The count k = floor(sigma sqrt(-2 log1p(-u)) / c) is sampled by
    inversion.  PCG64's random() is u = (w >> 11) 2^-53 for its raw 64-bit
    word w, and _mc_counts is monotone in u up to its rounding, so k >= j
    exactly when w >= T_j << 11, T_j the least 53-bit integer whose u gets
    count j or more.  Each T_j is searched once per call, by _mc_counts
    itself, in a window of _MC_WINDOW integers either side of the estimate
    2^53 (1 - exp(-(j c / sigma)^2 / 2)), and taken only where the window
    shows one clean step strictly inside it.  The window is wide enough: with
    a = (r c / sigma)^2 / 2, u = 1 - exp(-a) changes by 2 a exp(-a) delta <=
    (2/e) delta per relative change delta in the radius r, so a radius
    computed to relative error delta steps within (2/e) delta 2^53 integers
    of the exact step.  sqrt halves log1p's relative error and the other
    three roundings add half an ulp each, so a log1p within 125 ulps gives
    delta <= 2^-46, 94 integers; W = 256 leaves room for the few integers by
    which the estimate itself may round.

    A chunk then draws only its raw words and counts those at or above each
    threshold; the count of samples with k >= j is c_j, so with S1 = sum c_j
    and S2 = sum (2j - 1) c_j its partial sums of 1 + 2k and (1 + 2k)^2 are
    m + 2 S1 and m + 4 S1 + 4 S2.  These are the integers that the float
    route sums exactly (every term is at most 33^2 and every chunk sum below
    2^53), so both routes give the same floats.  With K = 0 (below about
    degree -1.23) every count is 1 and no word is drawn.  Each threshold
    costs a comparison per sample, so from about K = 20 one float pass is
    cheaper: count route over float route, medians of 31 interleaved calls
    of 10^6 samples on a 2-vCPU Xeon VM with numpy 2.4.6, in two runs: K = 3:
    0.47, 0.46; K = 9: 0.64, 0.66; K = 16: 0.90, 0.85; K = 20: 0.92, 0.98;
    K = 24: 1.10, 1.11.  Where the largest draw's count exceeds
    _MC_MAX_THRESHOLDS = 16 (from about degree 1.60), or where a window is
    refused, each chunk takes the float route: _mc_counts on its uniforms,
    then 1 + 2k and its square summed.
    """
    import numpy as np

    if samples < 1:
        raise ValueError("at least one sample is required")
    try:
        sigma, c = math.exp(d.arch.log) / math.sqrt(2.0 * math.pi), float(lattice_of(d).generator)
    except OverflowError:
        sigma = c = math.inf
    if not (0.0 < sigma < math.inf and 0.0 < c < math.inf):
        deg = degree_scale(d).log
        try:
            sigma, c = math.exp(deg) / math.sqrt(2.0 * math.pi), 1.0
        except OverflowError:
            sigma = math.inf
        if not 0.0 < sigma < math.inf:
            raise ValueError(f"sigma / c = exp(deg) / sqrt(2 pi) at degree {deg!r} is out of a float's range")
    n_chunks = (samples + _MC_CHUNK - 1) // _MC_CHUNK
    thresholds = _mc_thresholds(sigma, c)

    def run_chunk(idx: int) -> tuple[float, float]:
        m = min(_MC_CHUNK, samples - idx * _MC_CHUNK)
        if thresholds == []:
            return float(m), float(m)
        bits = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))
        if thresholds is not None:
            words = bits.random_raw(m)
            s1 = s2 = 0
            for j, t in enumerate(thresholds, 1):
                c_j = int(np.count_nonzero(words >= t))
                if not c_j:
                    break
                s1 += c_j
                s2 += (2 * j - 1) * c_j
            return float(m + 2 * s1), float(m + 4 * s1 + 4 * s2)
        # A sample past the largest float is inf, and so is the answer, which
        # the caller sees; numpy need not warn about it as well.
        with np.errstate(over="ignore"):
            u = _mc_counts(np.random.Generator(bits).random(m), sigma, c)
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
    return theta_h0_of_degree(d, eps) - theta_h0_of_degree(-d, eps) - d
