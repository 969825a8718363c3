"""Arakelov divisors on the compactified arithmetic curve over Q, their
lattices of global sections, and theta invariants.

A divisor is a finite formal sum over rational primes plus a real archimedean
part u; its degree is sum a_p log p + u, tracked exactly as the rational
number exp(degree) whenever u is given as log of a rational.  The sections of
the finite part form the rank-one lattice c Z in Q with c = prod p^(-a_p).

The theta invariant is h = log sum over v in L of exp(-pi |v|_D^2) with the
degree-normalized norm, so only t = exp(-2 deg) enters:

    exp(h) = 1 + 2 sum_{m >= 1} exp(-pi t m^2).

The same quantity is the average of the lattice-point count [xi/L] (an odd
integer) against the rotation-invariant Gaussian on C whose mean norm is 1/2.
That identity is checkable here by three routes: the truncated theta sum, an
exact piecewise integration of the radial step function, and a seeded Monte
Carlo estimator.  The numeric Riemann-Roch identity h(d) - h(-d) = d follows
from the functional equation of the theta sum and is exposed as a defect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .combinat import delannoy, iter_l1_ball, l1_norm
from .errors import CapExceeded
from .numth import factorize, is_prime


@dataclass(frozen=True)
class ScaleValue:
    """The archimedean scale lambda = e^u, exactly rational or as a float exponent.

    exact is the rational value of e^u when known (u = log exact); otherwise
    exact is None and log carries u.
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


@dataclass(frozen=True)
class Lattice1:
    """The rank-one lattice c Z inside Q (c a positive rational)."""

    generator: Fraction

    def __post_init__(self) -> None:
        if self.generator <= 0:
            raise ValueError("lattice generator must be positive")


@dataclass(frozen=True)
class ArakelovDivisor:
    """Finite prime support plus an archimedean scale."""

    finite: tuple[tuple[int, int], ...]
    arch: ScaleValue

    @staticmethod
    def make(finite: Mapping[int, int], arch: ScaleValue) -> "ArakelovDivisor":
        items = []
        for p, a in sorted(finite.items()):
            if not is_prime(p):
                raise ValueError(f"divisor support must consist of primes, got {p}")
            if a != 0:
                items.append((int(p), int(a)))
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
        finite = {int(p): int(a) for p, a in finite_data.items()}
        if "exact_exp" in arch_data:
            arch = ScaleValue.exact_exp(Fraction(str(arch_data["exact_exp"])))
        elif "float" in arch_data:
            arch = ScaleValue.from_log(float(arch_data["float"]))
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


def lattice_of(d: ArakelovDivisor) -> Lattice1:
    """Sections of the finite part: |q|_p <= p^(a_p) for all p means q in cZ."""
    c = Fraction(1)
    for p, a in d.finite:
        c *= Fraction(p) ** (-a)
    return Lattice1(c)


def exp_degree(d: ArakelovDivisor) -> Fraction | float:
    """exp(deg d) = e^u * prod p^(a_p); exact rational in exact-scale mode."""
    prod = Fraction(1)
    for p, a in d.finite:
        prod *= Fraction(p) ** a
    if d.arch.is_exact:
        return d.arch.exact * prod
    return math.exp(d.arch.log + math.log(prod.numerator) - math.log(prod.denominator))


def degree(d: ArakelovDivisor) -> float:
    """deg d = sum a_p log p + u, as a float."""
    ed = exp_degree(d)
    if isinstance(ed, Fraction):
        return math.log(ed.numerator) - math.log(ed.denominator)
    return math.log(ed)


def count_xi_over_L(xi_norm, lattice: Lattice1) -> int:
    """Number of lattice points of norm <= xi_norm: 1 + 2 floor(xi_norm / c).

    Independent of rescaling xi_norm and c together; the comparison is
    inclusive, and exact when xi_norm is rational.
    """
    if xi_norm < 0:
        raise ValueError("norms are nonnegative")
    return 1 + 2 * math.floor(xi_norm / lattice.generator)


def e_xi_member(phi: Sequence, xi_norm) -> bool:
    """Membership in the l1 ball: sum |phi_i| <= xi_norm (inclusive).

    Exact when phi and xi_norm are all rational; a float bound compares the
    float sum of the entries.
    """
    if not isinstance(xi_norm, (int, Fraction)):
        phi = [float(v) for v in phi]
    total = l1_norm(phi)
    return total <= xi_norm if isinstance(total, Fraction) else total <= float(xi_norm)


def count_E_xi(lattice: Lattice1, k: int, xi_norm, cap: int = 1_000_000) -> list[tuple[Fraction, ...]]:
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
    if delannoy(radius, k) > cap:
        raise CapExceeded(f"enumeration of {delannoy(radius, k)} lattice points exceeds cap {cap}")
    return [tuple(c * m for m in vec) for vec in iter_l1_ball(k, radius)]


def _theta_tail_sum(t: float, eps: float) -> float:
    """sum_{m>=1} exp(-pi t m^2) with absolute error below eps/2.

    Terms from M on are bounded by the geometric estimate
    exp(-pi t M^2) / (1 - exp(-pi t (2M + 1))).
    """
    if not (t > 0 and math.isfinite(t)):
        raise ValueError("theta parameter must be positive and finite")
    total = 0.0
    m = 1
    while True:
        bound = math.exp(-math.pi * t * m * m) / (1.0 - math.exp(-math.pi * t * (2 * m + 1)))
        if 2.0 * bound < eps / 2.0:
            return total
        total += math.exp(-math.pi * t * m * m)
        m += 1


def _theta_param(d: ArakelovDivisor | float, eps: float) -> float:
    """t = exp(-2 deg) of a divisor or of a float degree, once eps is checked.

    A divisor's t is computed from its exact rational exp-degree when
    available, so that linearly equivalent divisors give identical output.
    """
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    if not isinstance(d, ArakelovDivisor):
        return math.exp(-2.0 * d)
    ed = exp_degree(d)
    if isinstance(ed, Fraction):
        return float(1 / (ed * ed))
    return math.exp(-2.0 * math.log(ed))


def _theta_h0(d: ArakelovDivisor | float, eps: float) -> float:
    return math.log1p(2.0 * _theta_tail_sum(_theta_param(d, eps), eps))


def theta_h0_of_degree(d: float, eps: float = 1e-12) -> float:
    """Theta invariant as a function of the degree alone."""
    return _theta_h0(d, eps)


def theta_h0(d: ArakelovDivisor, eps: float = 1e-12) -> float:
    """log of the Gaussian lattice sum of the divisor, to absolute error < eps."""
    return _theta_h0(d, eps)


def gaussian_avg_quadrature(d: ArakelovDivisor, eps: float = 1e-12) -> float:
    """Average of [xi/L] against the Gaussian, by exact piecewise integration.

    The integrand is radially a step function jumping at |z| = n c; on each
    annulus the Gaussian integrates in closed form, so the n-th piece
    contributes (2n+1) (E_n - E_{n+1}) with E_n = exp(-pi t n^2), t = exp(-2 deg).
    Summation stops when the Abel-summed tail bound drops below eps.
    """
    t = _theta_param(d, eps)

    def e(n: int) -> float:
        return math.exp(-math.pi * t * n * n)

    total = 0.0
    n = 0
    while True:
        total += (2 * n + 1) * (e(n) - e(n + 1))
        # Remaining pieces sum to (2n+3) E_{n+1} + 2 sum_{m >= n+2} E_m.
        ratio = math.exp(-math.pi * t * (2 * n + 5))
        tail = (2 * n + 3) * e(n + 1) + 2.0 * e(n + 2) / (1.0 - ratio)
        if tail < eps:
            return total
        n += 1


@dataclass(frozen=True)
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

    Draws z = x + iy with x, y independent normals of variance 1/(2 pi a),
    a = exp(-2u), via Box-Muller from counter-split uniform substreams; each
    fixed-size chunk is seeded independently from (seed, chunk index), so the
    result does not depend on the number of worker threads.
    """
    if samples < 1:
        raise ValueError("at least one sample is required")
    sigma = math.exp(d.arch.log) / math.sqrt(2.0 * math.pi)
    c = float(lattice_of(d).generator)
    n_chunks = (samples + _MC_CHUNK - 1) // _MC_CHUNK

    def run_chunk(idx: int) -> tuple[float, float]:
        m = min(_MC_CHUNK, samples - idx * _MC_CHUNK)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(idx,))))
        u1 = rng.random(m)
        u2 = rng.random(m)
        r = sigma * np.sqrt(-2.0 * np.log1p(-u1))
        x = r * np.cos(2.0 * np.pi * u2)
        y = r * np.sin(2.0 * np.pi * u2)
        vals = 1.0 + 2.0 * np.floor(np.hypot(x, y) / c)
        return float(vals.sum()), float(np.square(vals).sum())

    if threads > 1 and n_chunks > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
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
    """h(d) - h(-d) - d; zero by the theta functional equation."""
    if d == 0:
        return 0.0
    return theta_h0_of_degree(d, eps) - theta_h0_of_degree(-d, eps) - d
