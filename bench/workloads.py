"""The four benchmark workloads: seeded inputs, timed queries and oracles.

Each workload turns a seed into a fixed batch of queries.  A query holds only
plain data; run() builds the library's inputs from it and calls the public
API (or the CLI, for `cli`), so the timed span includes what a caller pays.
check() verifies an answer by a route independent of the one that produced
it, and is never timed.

Sizes come from fixed strata (log-spaced grids, fixed slots) and the seed
fills in the content: random maps, labelings, supports, primes.  That keeps
the cost of a batch close to seed-independent, so the spread between runs
with different seeds measures the host and the program, not the draw.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from absarith.arakelov import (
    ArakelovDivisor,
    degree,
    exp_degree,
    gaussian_avg_mc,
    gaussian_avg_quadrature,
    riemann_roch_defect,
    theta_h0,
)
from absarith.combinat import delannoy_table
from absarith.dold_kan import GroupHom, homotopy_groups
from absarith.gamma_core import PointedEndo, smash, trace
from absarith.gamma_space import (
    GSConfig,
    higher_pi_trivial,
    pi0_cardinality_k1,
    pi0_trivial_predicate,
    pi1_count,
    pi1_spherical_enumerate,
)
from absarith.group_ring import groupring_to_witt, is_invariant, witt_to_groupring
from absarith.packing import circle_distance, packing_number
from absarith.smith import cokernel_divisors, kernel_divisors
from absarith.witt import WittElement, frobenius, from_ghost, ghost_vector, tau, verschiebung

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI_TIMEOUT_S = 10.0
PROBE_TIMEOUT_S = 2.5  # a probe that answers at all does so in well under a second


@dataclass(frozen=True)
class Query:
    qid: str
    kind: str
    params: tuple
    attrs: dict = field(default_factory=dict, hash=False)


def log_grid(lo: int, hi: int, n: int) -> list[int]:
    return [round(lo * (hi / lo) ** (i / (n - 1))) for i in range(n)]


def _numbered(items: list[tuple[str, tuple, dict]], name: str, rng: random.Random) -> list[Query]:
    """Shuffle (kind, params, attrs) triples into a batch of queries."""
    rng.shuffle(items)
    return [Query(f"{name}-{i}", kind, params, attrs) for i, (kind, params, attrs) in enumerate(items)]


# ---------------------------------------------------------------------------
# Bench-side arithmetic used by the oracles (kept independent of the library).
# ---------------------------------------------------------------------------


def ghost_of(items, n: int) -> int:
    """n-th ghost component of a cyclic-basis element given as (k, c) pairs."""
    return sum(k * c for k, c in items if n % k == 0)


def divisor_closure(values) -> list[int]:
    """All positive divisors of the given positive integers, sorted."""
    out = set()
    for v in values:
        out.update(d for d in range(1, v + 1) if v % d == 0)
    return sorted(out)


def cycle_type_by_power(images: tuple) -> tuple:
    """Cycle type on the periodic points, found as the image of T^N (every
    tail has length at most N), by squaring instead of iterating images."""
    n = len(images) - 1
    power, result, e = list(images), list(range(n + 1)), n
    while e:
        if e & 1:
            result = [power[x] for x in result]
        power = [power[x] for x in power]
        e >>= 1
    periodic = set(result) - {0}
    counts: dict[int, int] = {}
    while periodic:
        start = x = periodic.pop()
        length = 1
        while (x := images[x]) != start:
            periodic.discard(x)
            length += 1
        counts[length] = counts.get(length, 0) + 1
    return tuple(sorted(counts.items()))


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (first 13 prime bases)."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def delannoy_count(n: int, k: int) -> int:
    return 1 + sum(2**m * math.comb(k, m) * math.comb(n, m) for m in range(1, min(n, k) + 1))


# ---------------------------------------------------------------------------
# ring: the combinatorial ring core (gamma_core, witt, group_ring, numth).
# ---------------------------------------------------------------------------


def _random_witt(rng, max_k: int, terms: int) -> tuple:
    """Exactly `terms` distinct basis elements C(k), k <= max_k, with nonzero
    coefficients: the size of an input does not depend on the seed."""
    return tuple(sorted((k, rng.choice((-3, -2, -1, 1, 2, 3))) for k in rng.sample(range(1, max_k + 1), terms)))


def _chain(rng, n: int) -> tuple:
    """A tail of length n - c feeding a c-cycle, on randomly labelled points."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    c = rng.randint(1, 4)
    images = [0] * (n + 1)
    for j in range(c):
        images[labels[j]] = labels[(j + 1) % c]
    for j in range(c, n):
        images[labels[j]] = labels[j - 1]
    return tuple(images)


def _random_map(rng, n: int) -> tuple:
    return (0,) + tuple(rng.randint(0, n) for _ in range(n))


def _permutation(rng, n: int) -> tuple:
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return (0,) + tuple(labels)


# Cyclic supports of the two group-ring factors.  The first factor maps to
# about 10^3 distinct symbols of Q/Z; the supports are fixed so that the cost
# of a batch does not depend on the seed, which draws the coefficients.  They
# are positive: with mixed signs, shared symbols cancel to a seed-dependent
# degree, and the cost of these queries moved by a third between seeds.
GROUP_RING_SUPPORTS = (
    ((360, 840), (2, 3)),
    ((180, 1260), (2, 4)),
    ((40, 504, 630), (2, 6)),
    ((90, 252, 280), (6,)),
)


def ring_batch(seed: int) -> list[Query]:
    rng = random.Random(f"ring/{seed}")
    out = []
    # Eight more chains of 1000 points form a band of equal cost (~0.13 s)
    # around the 90th percentile, which the log-spaced sizes alone would put
    # on a steep slope between two single queries.
    sizes = {"chain": log_grid(100, 3000, 8) + [1000] * 8, "random": log_grid(100, 3000, 16)}
    sizes["perm"] = sizes["random"]
    for shape, build in (("chain", _chain), ("random", _random_map), ("perm", _permutation)):
        for n in sizes[shape]:
            out.append(("tau", (shape, build(rng, n)), {"N": n, "shape": shape}))
    for a, b in zip(log_grid(8, 40, 12), reversed(log_grid(8, 40, 12))):
        out.append(("smash", (_random_map(rng, a), _random_map(rng, b)), {"N": a * b}))
    # Witt products (~0.9 ms each) are the band of equal cost that holds
    # the median.
    for _ in range(24):
        out.append(("witt_mul", (_random_witt(rng, 60, 30), _random_witt(rng, 60, 30)), {"terms": 60}))
    for n_max in log_grid(60, 400, 12):
        out.append(("ghost", (_random_witt(rng, n_max, 12), n_max), {"n_max": n_max}))
    for _ in range(12):
        n = rng.randint(2, 12)
        out.append(("frob_versch", (_random_witt(rng, 60, 8), _random_witt(rng, 60, 8), n), {"n": n}))
    for big, small in GROUP_RING_SUPPORTS:
        a, b = (tuple((k, rng.choice((1, 2, 3))) for k in support) for support in (big, small))
        out.append(("group_ring", (a, b), {"symbols": len({Fraction(j, k) for k in big for j in range(k)})}))
    return _numbered(out, "ring", rng)


def _witt(items) -> WittElement:
    return WittElement.from_coeffs(dict(items))


def run_ring(q: Query):
    p = q.params
    if q.kind == "tau":
        return tau(PointedEndo(p[1])).items
    if q.kind == "smash":
        return tau(smash(PointedEndo(p[0]), PointedEndo(p[1]))).items
    if q.kind == "witt_mul":
        return (_witt(p[0]) * _witt(p[1])).items
    if q.kind == "ghost":
        values = ghost_vector(_witt(p[0]), p[1])
        return tuple(sorted(values.items())), from_ghost(values).items
    if q.kind == "frob_versch":
        x, y, n = _witt(p[0]), _witt(p[1]), p[2]
        return frobenius(n, verschiebung(n, x)).items, verschiebung(n, frobenius(n, x) * y).items
    if q.kind == "group_ring":
        z = witt_to_groupring(_witt(p[0])) * witt_to_groupring(_witt(p[1]))
        return is_invariant(z), groupring_to_witt(z).items
    raise ValueError(q.kind)


def check_ring(q: Query, answer) -> str | None:
    p = q.params
    if q.kind == "tau":
        t = PointedEndo(p[1])
        for n in (1, 2, 3):
            if ghost_of(answer, n) != trace(t, n):
                return f"ghost {n} of tau differs from the fixed points of T^{n}"
        return None if answer == cycle_type_by_power(p[1]) else "tau differs from the cycles of T^N(X)"
    if q.kind == "smash":
        expected = tau(PointedEndo(p[0])) * tau(PointedEndo(p[1]))
        return None if answer == expected.items else "tau(smash) differs from tau * tau"
    if q.kind == "witt_mul":
        support = {a * b // gcd(a, b) for a, _ in p[0] for b, _ in p[1]} | {k for k, _ in answer}
        for n in divisor_closure(support):
            if ghost_of(answer, n) != ghost_of(p[0], n) * ghost_of(p[1], n):
                return f"ghost {n} is not multiplicative"
        return None
    if q.kind == "ghost":
        values, back = answer
        if values != tuple((n, ghost_of(p[0], n)) for n in range(1, p[1] + 1)):
            return "ghost vector differs from the direct sums"
        return None if back == p[0] else "from_ghost did not invert ghost_vector"
    if q.kind == "frob_versch":
        fv, projection = answer
        x, y, n = p
        if fv != tuple((k, n * c) for k, c in x):
            return "F_n V_n x differs from n x"
        expected = _witt(x) * verschiebung(n, _witt(y))
        return None if projection == expected.items else "V_n(F_n(x) y) differs from x V_n(y)"
    if q.kind == "group_ring":
        invariant, back = answer
        if invariant is not True:
            return "the image of a Witt product is not invariant"
        return None if back == (_witt(p[0]) * _witt(p[1])).items else "group-ring round trip differs"
    return f"unknown kind {q.kind}"


def warm_ring() -> None:
    rng = random.Random("ring/warm")
    run_ring(Query("w", "tau", ("chain", _chain(rng, 20))))
    run_ring(Query("w", "smash", (_random_map(rng, 4), _random_map(rng, 5))))
    run_ring(Query("w", "witt_mul", (((1, 1), (2, 1)), ((3, 2),))))
    run_ring(Query("w", "ghost", (((1, 1), (6, 2)), 12)))
    run_ring(Query("w", "frob_versch", (((2, 1),), ((3, 1),), 2)))
    run_ring(Query("w", "group_ring", (((2, 1), (3, 1)), ((2, 1),))))


# ---------------------------------------------------------------------------
# homotopy: the simplicial engine (dold_kan) against Smith normal form (smith).
# ---------------------------------------------------------------------------

# (kind, domain orders, codomain orders, n_max, recurrences, image order).
# Recurrences and image orders are fixed per slot, so that the latency
# profile of a batch does not depend on the seed; the seed draws the
# automorphisms and the random maps (uniform among those of that image order,
# and distinct from the maps of the other slots).  The slots form three cost
# bands, and the middle band, the four automorphisms of Z/8 at n_max = 2,
# holds the median, so that the median latency is set by one configuration
# rather than by whichever cheap query happens to sort there.
HOMOTOPY_SLOTS = (
    # cheap: groups of order 4, and small random maps
    ("zero", (4,), (4,), 3, 4, 1),
    ("zero", (2, 2), (2, 2), 3, 4, 1),
    ("iso", (4,), (4,), 3, 4, 4),
    ("iso", (2, 2), (2, 2), 3, 4, 4),
    ("random", (4,), (8,), 2, 4, 2),
    ("random", (6,), (12,), 1, 4, 6),
    ("random", (9,), (3, 3), 1, 4, 3),
    # middle: Z/8 at n_max = 2
    ("iso", (8,), (8,), 2, 4, 8),
    ("iso", (8,), (8,), 2, 4, 8),
    ("iso", (8,), (8,), 2, 4, 8),
    ("iso", (8,), (8,), 2, 4, 8),
    # heavy: n_max = 3 on order 8, Smith-bound zero maps and
    # enumeration-bound isomorphisms on orders 16 and 32
    ("zero", (8,), (8,), 3, 3, 1),
    ("iso", (2, 4), (2, 4), 3, 3, 8),
    ("zero", (16,), (16,), 1, 3, 1),
    ("zero", (4, 4), (4, 4), 1, 3, 1),
    ("zero", (2, 8), (2, 8), 1, 3, 1),
    ("iso", (16,), (16,), 2, 3, 16),
    ("iso", (2, 8), (2, 8), 1, 3, 16),
    ("iso", (32,), (32,), 1, 3, 32),
)


def _random_row(rng, m: int, codomain: tuple) -> tuple:
    """Image of a generator of order m: any element whose order divides m."""
    return tuple((n // gcd(m, n)) * rng.randrange(gcd(m, n)) % n for n in codomain)


def image_order(a: tuple, b: tuple, matrix: tuple) -> int:
    images = set()
    for x in itertools.product(*(range(m) for m in a)):
        images.add(tuple(sum(c * row[j] for c, row in zip(x, matrix)) % n for j, n in enumerate(b)))
    return len(images)


def homotopy_batch(seed: int) -> list[Query]:
    rng = random.Random(f"homotopy/{seed}")
    out = []
    pool = set()
    for slot, (kind, a, b, n_max, reps, image) in enumerate(HOMOTOPY_SLOTS):
        hom = None
        while hom is None or hom in pool:
            if kind == "zero":
                matrix = tuple((0,) * len(b) for _ in a)
            elif kind == "iso":
                units = [rng.choice([u for u in range(1, m) if gcd(u, m) == 1]) for m in a]
                matrix = tuple(tuple(units[i] if i == j else 0 for j in range(len(a))) for i in range(len(a)))
            else:
                matrix = tuple(_random_row(rng, m, b) for m in a)
                if image_order(a, b, matrix) != image:
                    continue
            hom = (a, b, matrix)
        pool.add(hom)
        attrs = {"kind": kind, "A": math.prod(a), "B": math.prod(b), "n_max": n_max, "map": slot}
        out.extend(("homotopy", (hom, n_max), attrs) for _ in range(reps))
    return _numbered(out, "homotopy", rng)


def _hom(spec) -> GroupHom:
    a, b, matrix = spec
    return GroupHom.from_json_dict({"domain": list(a), "codomain": list(b), "matrix": [list(r) for r in matrix]})


def run_homotopy(q: Query):
    spec, n_max = q.params
    groups = homotopy_groups(_hom(spec), n_max=n_max)
    return groups.pi0, groups.pi1, groups.higher_trivial


def check_homotopy(q: Query, answer) -> str | None:
    (a, b, matrix), n_max = q.params
    pi0, pi1, higher = answer
    if list(pi0) != cokernel_divisors(b, matrix):
        return "pi0 differs from the Smith cokernel"
    if list(pi1) != kernel_divisors(a, b, matrix):
        return "pi1 differs from the Smith kernel"
    if higher != tuple((n, True) for n in range(2, n_max + 1)):
        return "homotopy above degree 1 is not trivial"
    return None


def warm_homotopy() -> None:
    run_homotopy(Query("w", "homotopy", (((2,), (2,), ((1,),)), 3)))


# ---------------------------------------------------------------------------
# divisor: the analytic layer (arakelov) and the divisor space (gamma_space,
# combinat), with large primes in some supports for numth.
# ---------------------------------------------------------------------------

DIVISOR_DEGREES = tuple(range(-12, 13))
MC_SLOTS = (12, 13)  # degrees 0 and 1, where the estimator has a nonzero spread
MC_SAMPLES = 1_000_000
CERT_SAMPLES = 50
MEDIAN_BAND = 16
P90_BAND = 6


def _small_support(rng) -> dict:
    primes = [p for p in range(2, 200) if is_probable_prime(p)]
    return {p: rng.choice((-2, -1, 1, 2)) for p in rng.sample(primes, rng.randint(0, 3))}


def _large_prime(rng) -> int:
    while True:
        n = rng.randrange(900_000_000_000, 1_000_000_000_000) | 1
        if is_probable_prime(n):
            return n


def _divisor_spec(rng, target: float, exact: bool, large_prime: bool) -> str:
    """A divisor of degree about target: a small-prime support (plus a prime
    near 1e12) and an exact rational or float scale making up the rest."""
    support = _small_support(rng)
    if large_prime:
        support[_large_prime(rng)] = rng.choice((-1, 1))
    finite_exp = Fraction(1)
    for p, a in support.items():
        finite_exp *= Fraction(p) ** a
    finite = {str(p): a for p, a in sorted(support.items())}
    if exact:
        scale = Fraction(round(math.exp(target) * 10**9), 10**9) / finite_exp
        arch = {"exact_exp": f"{scale.numerator}/{scale.denominator}"}
    else:
        arch = {"float": target - math.log(finite_exp.numerator) + math.log(finite_exp.denominator)}
    return json.dumps({"finite": finite, "arch": arch}, sort_keys=True)


def divisor_batch(seed: int) -> list[Query]:
    rng = random.Random(f"divisor/{seed}")
    out = []
    for slot, target in enumerate(DIVISOR_DEGREES):
        target += rng.uniform(-0.02, 0.02)
        spec = _divisor_spec(rng, target, exact=slot % 2 == 0, large_prime=slot % 5 == 2)
        k = 1 + slot % 3
        attrs = {"degree": round(target, 6), "exact": slot % 2 == 0, "k": k}
        out.append(("theta", (spec,), attrs))
        out.append(("rr", (spec,), attrs))
        out.append(("pi", (spec, k, rng.randrange(2**31)), attrs))
        if slot in MC_SLOTS:
            out.append(("mc", (spec, rng.randrange(2**31)), attrs))
    # The latencies above spread over four orders of magnitude with a gap
    # around the median.  Sixteen more pi queries on exact divisors at degree -12
    # (~14 ms each, nearly all of it the pure-Python certificates) form a
    # band of equal cost that holds it.
    for _ in range(MEDIAN_BAND):
        target = -12 + rng.uniform(-0.02, 0.02)
        spec = _divisor_spec(rng, target, exact=True, large_prime=False)
        out.append(("pi", (spec, 1, rng.randrange(2**31)), {"degree": round(target, 6), "exact": True, "k": 1}))
    # Likewise at the 90th percentile, which falls between the Riemann-Roch
    # defects at degrees 10 and 11: six more on float scales at degree 11
    # (~140 ms each).
    for _ in range(P90_BAND):
        target = 11 + rng.uniform(-0.02, 0.02)
        spec = _divisor_spec(rng, target, exact=False, large_prime=False)
        out.append(("rr", (spec,), {"degree": round(target, 6), "exact": False, "k": 1}))
    return _numbered(out, "divisor", rng)


def _divisor(spec: str) -> ArakelovDivisor:
    return ArakelovDivisor.from_json_dict(json.loads(spec))


def run_divisor(q: Query):
    d = _divisor(q.params[0])
    if q.kind == "theta":
        return theta_h0(d), gaussian_avg_quadrature(d)
    if q.kind == "rr":
        return riemann_roch_defect(degree(d))
    if q.kind == "pi":
        _, k, seed = q.params
        certs = ()
        if d.arch.is_exact:
            cfg = GSConfig.from_divisor(d)
            certs = tuple(
                (c.verified, c.rank, c.torus_pinned)
                for c in (higher_pi_trivial(n, cfg, k, samples=CERT_SAMPLES, seed=seed) for n in range(2, 5))
            )
        return pi0_cardinality_k1(d), pi0_trivial_predicate(d, k), pi1_count(d, k), certs
    if q.kind == "mc":
        one = gaussian_avg_mc(d, MC_SAMPLES, q.params[1], threads=1)
        two = gaussian_avg_mc(d, MC_SAMPLES, q.params[1], threads=2)
        return (one.mean, one.stderr), (two.mean, two.stderr)
    raise ValueError(q.kind)


def _packing_oracle(ed) -> int | None:
    """Circle packing number for radius ed on a grid holding an optimal
    equally spaced configuration, when small enough to enumerate."""
    claimed = math.ceil(1 / ed) - 1
    if claimed > 12:
        return None
    grid = claimed * (claimed + 2)
    if isinstance(ed, Fraction):
        points = [Fraction(j, grid) for j in range(grid)]
    else:
        points = [j / grid for j in range(grid)]
    return packing_number(points, ed, metric=circle_distance).size


def check_divisor(q: Query, answer) -> str | None:
    d = _divisor(q.params[0])
    ed = exp_degree(d)
    if q.kind == "theta":
        # The acceptance suite's 1e-10, as an absolute bound up to exp(h0) = 1
        # and a relative one above: at degree 12, exp(h0) is 1.6e5, whose
        # float spacing is already 3e-11.
        h0, quad = answer
        diff = abs(math.exp(h0) - quad)
        return None if diff < 1e-10 * max(1.0, math.exp(h0)) else f"|exp h0 - quadrature| = {diff:.3e}"
    if q.kind == "rr":
        return None if abs(answer) < 1e-9 else f"Riemann-Roch defect {answer:.3e}"
    if q.kind == "pi":
        _, k, _ = q.params
        pi0, trivial, count, certs = answer
        if ed >= Fraction(1, 2):
            if pi0 != "trivial":
                return "pi0 should be trivial at exp(deg) >= 1/2"
        else:
            packed = _packing_oracle(ed)
            if packed is not None and pi0 != packed:
                return f"pi0 {pi0} differs from the circle packing number {packed}"
        if trivial != (k <= 2 * ed):
            return "pi0 triviality predicate disagrees with k <= 2 exp(deg)"
        radius = math.floor(ed)
        if count != delannoy_count(radius, k):
            return "pi1 count differs from the closed form"
        if (radius + 1) * (k + 1) <= 700_000 and count != delannoy_table(radius, k)[radius][k]:
            return "pi1 count differs from the Delannoy recurrence"
        if isinstance(ed, Fraction) and count <= 20_000:
            if count != len(pi1_spherical_enumerate(GSConfig.from_divisor(d), k)):
                return "pi1 count differs from the enumeration"
        if isinstance(ed, Fraction) and certs != ((True, 2, True), (True, 3, True), (True, 4, True)):
            return "higher homotopy certificate failed"
        return None
    if q.kind == "mc":
        (m1, s1), (m2, s2) = answer
        if (m1, s1) != (m2, s2):
            return "Monte Carlo differs between 1 and 2 threads"
        expected = math.exp(theta_h0(d))
        return None if abs(m1 - expected) < 4 * s1 else f"Monte Carlo {m1} vs exp(h0) {expected}, stderr {s1}"
    return f"unknown kind {q.kind}"


def warm_divisor() -> None:
    spec = json.dumps({"finite": {"2": 1}, "arch": {"exact_exp": "1/3"}})
    for kind, params in (("theta", (spec,)), ("rr", (spec,)), ("pi", (spec, 2, 0))):
        run_divisor(Query("w", kind, params))
    d = _divisor(spec)
    gaussian_avg_mc(d, 2 << 16, 0, threads=1)
    gaussian_avg_mc(d, 2 << 16, 0, threads=2)


# ---------------------------------------------------------------------------
# cli: the absarith command line, one fresh interpreter per command.
# ---------------------------------------------------------------------------

# (argv, expected exit code, check of the parsed output or the CSV text)
CLI_COMMANDS = (
    (("witt", "tau", "--endo", "[0,2,1]"), lambda out: out["outputs"] == {"2": 1}),
    (("witt", "ghost", "--elt", '{"3":1}', "--n", "6"), lambda out: out["outputs"] == {"ghost": 3}),
    (("witt", "mul", "--a", '{"2":1}', "--b", '{"3":1}'), lambda out: out["outputs"] == {"6": 1}),
    (("theta", "verify", "--deg", "0", "--eps", "1e-12"), lambda out: out["outputs"]["abs_difference"] < 1e-10),
    (("theta", "rr", "--deg", "2"), lambda out: abs(out["outputs"]["defect"]) < 1e-9),
    (
        ("theta", "mc", "--deg", "0", "--samples", "1000000", "--seed", "42"),
        lambda out: out["seed"] == 42
        and abs(out["outputs"]["mean"] - out["outputs"]["exp_h0"]) < 4 * out["outputs"]["stderr"],
    ),
    (
        ("gspace", "delannoy", "--n", "8", "--k", "8", "--csv"),
        lambda text: text.splitlines()[1:]
        == [f"{n}," + ",".join(str(delannoy_count(n, k)) for k in range(9)) for n in range(9)],
    ),
    (
        ("gspace", "pi", "--divisor", '{"finite":{},"arch":{"exact_exp":"1/3"}}', "--k", "1"),
        lambda out: out["outputs"]["pi0"] == 2 and out["outputs"]["pi1_count"] == 1,
    ),
    (
        ("dk", "check", "--hom", '{"domain":[2],"codomain":[4],"matrix":[[2]]}'),
        lambda out: out["outputs"]["pi0"] == [2] and out["outputs"]["pi1"] == [],
    ),
    # h0 = 12 to double precision by Jacobi's transformation theta(t) = t^(-1/2) theta(1/t).
    (("theta", "h0", "--deg", "12"), lambda out: abs(out["outputs"]["h0"] - 12.0) < 1e-9),
    # As long a theta sum again, so that the slowest tenth of the calls is one
    # band of two commands and the 90th percentile falls inside it.
    (("theta", "rr", "--deg", "12"), lambda out: abs(out["outputs"]["defect"]) < 1e-9),
)

# Malformed or extreme inputs that fail at the time of writing.  Each maps to
# (test of the known defect, test of a fix that honours the exit-code
# contract).  An outcome matching neither is a failure.
CLI_PROBES = (
    (
        ("theta", "h0", "--deg", "1000"),
        lambda r: r.code == 1 and "OverflowError" in r.err,
        lambda r: r.code == 3 or (r.code == 0 and abs(json.loads(r.out)["outputs"]["h0"] - 1000) < 1e-6),
    ),
    (
        ("gspace", "pi", "--divisor", "[1]", "--k", "1"),
        lambda r: r.code == 1 and "AttributeError" in r.err,
        lambda r: r.code in (2, 3),
    ),
    (
        ("theta", "verify", "--deg", "400"),
        lambda r: r.code == 3,
        lambda r: r.code == 0 and abs(json.loads(r.out)["outputs"]["h0"] - 400) < 1e-6,
    ),
    (
        ("theta", "h0", "--deg", "nan"),
        lambda r: r.timed_out,
        lambda r: r.code in (2, 3),
    ),
)


@dataclass
class CliResult:
    code: int | None
    out: str
    err: str
    timed_out: bool


def cli_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv, timeout: float = CLI_TIMEOUT_S) -> CliResult:
    cmd = [sys.executable, "-m", "absarith.cli", *argv]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT, env=cli_env())
    except subprocess.TimeoutExpired as exc:
        return CliResult(None, exc.stdout or "", exc.stderr or "", True)
    return CliResult(proc.returncode, proc.stdout, proc.stderr, False)


def cli_batch(seed: int) -> list[Query]:
    rng = random.Random(f"cli/{seed}")
    out = [("cli", (i,), {"command": " ".join(argv[:2])}) for i, (argv, _) in enumerate(CLI_COMMANDS)]
    return _numbered(out, "cli", rng)


def run_cli_query(q: Query, handler_ms: list | None = None):
    argv, _ = CLI_COMMANDS[q.params[0]]
    r = run_cli(argv)
    if r.timed_out or r.code != 0:
        raise RuntimeError(f"exit {r.code}, timed out {r.timed_out}: {r.err.strip()[-200:]}")
    if "--csv" in argv:
        return r.out
    out = json.loads(r.out)
    if handler_ms is not None:
        handler_ms.append(out["timing_ms"])
    out.pop("timing_ms")
    return json.dumps(out, sort_keys=True)


def check_cli(q: Query, answer) -> str | None:
    argv, ok = CLI_COMMANDS[q.params[0]]
    parsed = answer if "--csv" in argv else json.loads(answer)
    return None if ok(parsed) else f"unexpected output of {' '.join(argv[:2])}"


def run_probes() -> list[tuple[str, str]]:
    """(command, outcome) with outcome 'defect', 'fixed' or 'unexpected'."""
    outcomes = []
    for argv, defect, fixed in CLI_PROBES:
        r = run_cli(argv, PROBE_TIMEOUT_S)
        try:
            outcome = "defect" if defect(r) else "fixed" if fixed(r) else "unexpected"
        except (ValueError, KeyError, TypeError):
            outcome = "unexpected"
        outcomes.append((" ".join(argv), outcome))
    return outcomes


def warm_cli() -> None:
    run_cli(CLI_COMMANDS[0][0])


WORKLOADS = {
    "ring": (ring_batch, run_ring, check_ring, warm_ring),
    "homotopy": (homotopy_batch, run_homotopy, check_homotopy, warm_homotopy),
    "divisor": (divisor_batch, run_divisor, check_divisor, warm_divisor),
    "cli": (cli_batch, run_cli_query, check_cli, warm_cli),
}
