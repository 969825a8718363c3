"""Identities of the paper checked by two routes that share no code.

Acceptance criterion 1 compares ghost(tau(t), n) with the trace of the
permutation that eventual_image returns, and tau goes through eventual_image
too, so a fault there would pass unseen.  Here the second route is
trace(t, n) on t itself: it counts the fixed points of t.power(n), and every
fixed point of T^n lies in the eventual image.

Acceptance criterion 7 samples members of the divisor space and checks that
each violates a face.  The draws are taken once, by _byte_draws, and then
decided twice: on their bytes, as the certificate decides them, and by member
and face on the GSElements built from their indices.  Each route runs with
the other's functions patched to raise.  count_E_xi builds the lattice ball by
columns; the odometer of combinat_oracles lists it vector by vector.

Acceptance criterion 10 compares invariants of a divisor and of its shifts
by principal divisors, and every one of them reads the degree through the
divisor's memo (degree_scale).  Here the degree of each shift is summed by
hand, sum a_p log p plus the archimedean log, in mpmath, with degree_scale
and _finite_exp, which fill the memo, patched to raise, and compared with
the memoized degree of the divisor it was shifted from.

Acceptance criterion 4 compares exp(theta_h0) with gaussian_avg_quadrature,
the direct sum of the Gaussian average.  The quadrature runs with theta_h0,
theta_h0_of_degree and _theta_tail_sum patched to raise, by its iterator
(numpy hidden from the route check) and by its numpy chunks, which must agree
by repr; theta_h0 then runs with the quadrature and its chunks patched to
raise.  Its Monte Carlo half, gaussian_avg_mc, runs with the theta sum's
functions and the quadrature patched to raise, by its raw-word counts and by
its float counts (the threshold search patched to find none), which must
agree by repr, and each lies within 4 stderr of exp(theta_h0).

Acceptance criterion 8 compares pi_0 and pi_1 of homotopy_groups, a search
of the simplicial levels, with the Smith closed form, coker and ker.  The
search runs with Smith normal form patched to raise, and the closed form
with the level search (_vanishing_columns) patched to raise.

Acceptance criterion 9 pushes vectors forward and decides membership in the
norm filtration: by push_forward and norm_filtered_member, whose l1 case is
l1_within, and by a dict sum over the fibres and one left-to-right sum of
the norm, each route with the other's functions patched to raise.  The cases
are the acceptance suite's seeded float ones and rational ones with the
bound at, just above and just below the exact norm of the pushed vector.

Acceptance criterion 3 asks whether images of Witt elements are invariant
under the automorphisms of Q/Z, and is_invariant decides that by counting
orbits: each order n must carry all euler_phi(n) primitive symbols under one
coefficient.  The second route acts on the element with generators of
(Z/N)^x, primitive roots and their CRT lifts, and compares.  The cases are
images of seeded Witt elements, the same with one symbol dropped, added or
given another coefficient, and elements that exactly one generator moves;
each route runs with the other's helpers patched to raise.

Acceptance criterion 2 multiplies Witt elements, and its oracle sums the
same pairs as the product does.  Here each ghost component is the ring map
to Z: ghost_m(x y) = ghost_m(x) ghost_m(y) at every m up to the largest key
the product can have, which by Mobius inversion determines x y.  The
products run with ghost_vector patched to raise, and the ghosts come from
ghost_vector alone, with the product, the merge and the other operators and
inversions of witt patched to raise.
"""

import math
import random
import sys
import types
from fractions import Fraction

import group_ring_oracles
import numth_oracles
from absarith import arakelov, combinat, dold_kan, gamma_core, gamma_space, group_ring, numth, smith, witt
from absarith.arakelov import (
    ArakelovDivisor,
    Lattice1,
    ScaleValue,
    count_E_xi,
    degree,
    gaussian_avg_mc,
    gaussian_avg_quadrature,
    principal,
    theta_h0,
)
from absarith.dold_kan import FiniteAbelianGroup, homotopy_groups
from absarith.errors import BUDGETS
from absarith.gamma_core import NormedVectorConfig, PointedEndo, PointedMap, trace
from absarith.gamma_space import GSConfig, face, member, zero_element
from absarith.group_ring import GroupRingElt, groupring_to_witt, witt_to_groupring
from absarith.smith import cokernel_divisors, elementary_divisors, group_divisors_from_table, kernel_divisors
from absarith.witt import Combination, WittElement, ghost, tau
from combinat_oracles import iter_l1_ball
from gamma_space_oracles import _coordinate_values, _element_from_indices
from helpers import FACE_HOMS, random_abelian_group, random_endo, random_hom, random_witt

N_MAX = 12


def _seeded_maps(count: int = 500) -> list[PointedEndo]:
    rng = random.Random(1001)
    return [random_endo(rng, 7) for _ in range(count)]


def _mismatches(maps, ghosts) -> int:
    return sum(ghost(w, n) != trace(t, n) for t, w in zip(maps, ghosts) for n in range(1, N_MAX + 1))


def test_ghost_of_tau_is_the_trace_of_the_map_itself(monkeypatch):
    maps = _seeded_maps()
    ghosts = [tau(t) for t in maps]

    def poisoned(t):
        raise AssertionError("the trace route called eventual_image")

    monkeypatch.setattr(gamma_core, "eventual_image", poisoned)
    assert _mismatches(maps, ghosts) == 0


def test_the_trace_route_catches_an_eventual_image_of_fixed_points_only(monkeypatch):
    def fixed_points_only(t):
        subset = tuple(x for x in t.points() if t(x) == x)
        return subset, PointedEndo.identity(len(subset) - 1)

    monkeypatch.setattr(gamma_core, "eventual_image", fixed_points_only)
    maps = _seeded_maps()
    assert _mismatches(maps, [tau(t) for t in maps]) > 0


CERT_DRAWS = 10


def _cert_config(seed: int, n: int, k: int) -> GSConfig:
    """A generic scale, or one where lambda/(4nk) is 3c/7 or c, so that the
    last face vanishes on some nonzero indices."""
    c = Fraction(1, 2)
    lam = (Fraction(7, 3), 4 * n * k * 3 * c / 7, 4 * n * k * c)[seed % 3]
    return GSConfig(Lattice1(Fraction(2, 9) if seed % 3 == 0 else c), ScaleValue.exact_exp(lam))


CERT_CASES = [(seed, n, k) for seed in range(100) for n in range(2, 7) for k in (1, 2, 3, 7)] + [(0, 3, 342)]


def _raises(name):
    def poisoned(*args, **kwargs):
        raise AssertionError(f"the other route called {name}")

    return poisoned


def _rows(free, n, k):
    return [[r - 2 for r in free[i : i + k]] for i in range(0, n * k, k)]


def _byte_route(seed, n, k, frees, toruses):
    """Per draw: its indices, then member, face 0 zero and, where face 0
    vanishes, faces 1..n zero, as the certificate decides them on bytes."""
    cfg = _cert_config(seed, n, k)
    table = gamma_space._last_face_table(cfg, n, k)
    out = []
    for free, torus in zip(frees, toruses):
        rows = _rows(free, n, k)
        face0 = gamma_space._face0_vanishes([free], [torus], n, k)[0]
        later = tuple(gamma_space._index_face_is_zero(j, rows, torus, table) for j in range(1, n + 1)) if face0 else ()
        out.append((rows, list(torus), gamma_space._members([free], [torus], n, k)[0], face0, later))
    return out, gamma_space.higher_pi_trivial(n, cfg, k, samples=CERT_DRAWS, seed=seed).verified


def _object_route(seed, n, k, frees, toruses):
    """The same decisions by member and face on the GSElement built from the
    indices of each draw."""
    cfg = _cert_config(seed, n, k)
    values = _coordinate_values(cfg, n, k)
    free_values, torus_values = values
    zero = zero_element(cfg, n - 1, k)
    out = []
    for free, torus in zip(frees, toruses):
        e = _element_from_indices(k, _rows(free, n, k), torus, *values)
        rows = [[free_values.index(v) - 2 for v in vec] for vec in e.free]
        face0 = face(cfg, 0, e) == zero
        later = tuple(face(cfg, j, e) == zero for j in range(1, n + 1)) if face0 else ()
        out.append((rows, [torus_values.index(v) for v in e.torus], member(cfg, e), face0, later))
    # Every draw violates some face: face 0, or failing that a later one.
    return out, all(not face0 or not all(later) for _, _, _, face0, later in out)


def test_certificate_byte_decisions_are_the_object_paths(monkeypatch):
    draws = [gamma_space._byte_draws(random.Random(seed), n, k, CERT_DRAWS) for seed, n, k in CERT_CASES]
    with monkeypatch.context() as m:
        for name in ("member", "face", "zero_element", "GSElement", "l1_within"):
            m.setattr(gamma_space, name, _raises(name))
        by_bytes = [_byte_route(*case, *drawn) for case, drawn in zip(CERT_CASES, draws)]
    with monkeypatch.context() as m:
        for name in (
            "_byte_draws", "_uniform_block", "_members", "_face0_vanishes", "_index_face_is_zero", "_last_face_table"
        ):
            m.setattr(gamma_space, name, _raises(name))
        by_objects = [_object_route(*case, *drawn) for case, drawn in zip(CERT_CASES, draws)]
    vanished = 0
    for case, got, expected in zip(CERT_CASES, by_bytes, by_objects):
        assert got == expected, case
        vanished += sum(face0 for _, _, _, face0, _ in got[0])
    assert vanished > 0


def test_count_E_xi_columns_list_the_odometers_vectors():
    unit = Lattice1(Fraction(1))
    for k in range(1, 7):
        for radius in range(9):
            assert count_E_xi(unit, k, radius) == list(iter_l1_ball(k, radius)), (k, radius)
    assert count_E_xi(unit, 342, 0) == list(iter_l1_ball(342, 0)) == [(0,) * 342]


def _degree_by_hand(d: ArakelovDivisor):
    """sum a_p log p + u in mpmath at 50 digits, u the archimedean log: of
    the exact scale's numerator and denominator, or the float scale's own."""
    import mpmath

    with mpmath.workdps(50):
        if d.arch.is_exact:
            u = mpmath.log(d.arch.exact.numerator) - mpmath.log(d.arch.exact.denominator)
        else:
            u = mpmath.mpf(d.arch.log)
        return mpmath.fsum([u] + [a * mpmath.log(p) for p, a in d.finite])


def test_the_degree_of_a_principal_shift_summed_by_hand(monkeypatch):
    rng = random.Random(10)
    bases = [ArakelovDivisor.make({2: 1, 5: -1}, ScaleValue.exact_exp(Fraction(4, 3)))]
    for _ in range(20):
        finite = {p: rng.randint(-3, 3) for p in rng.sample((2, 3, 5, 7, 11, 999999999989), rng.randint(0, 3))}
        exact = ScaleValue.exact_exp(Fraction(rng.randint(1, 99), rng.randint(1, 99)))
        bases.append(ArakelovDivisor.make(finite, rng.choice((exact, ScaleValue.from_log(rng.uniform(-9, 9))))))
    shifts = [Fraction(2), Fraction(3, 5), Fraction(7), Fraction(-12, 35), Fraction(999999999989, 2**40)]
    memoized = [degree(base) for base in bases]
    with monkeypatch.context() as m:
        for name in ("degree_scale", "_finite_exp"):
            m.setattr(arakelov, name, _raises(name))
        by_hand = [[_degree_by_hand(base + principal(q)) for q in shifts] for base in bases]
    for base, expected, shifted in zip(bases, memoized, by_hand):
        # Both sides round a few logs of at most about 40 to doubles.
        assert all(abs(d - expected) < 1e-13 for d in shifted), (base, expected, shifted)


QUADRATURE_DEGREES = range(-3, 13)


def _quadratures(monkeypatch, chunked):
    """gaussian_avg_quadrature at QUADRATURE_DEGREES with the theta sum's
    functions patched to raise, every sum by the numpy chunks or every sum by
    the iterator, the other route patched to raise as well."""
    with monkeypatch.context() as m:
        for name in ("theta_h0", "theta_h0_of_degree", "_theta_tail_sum"):
            m.setattr(arakelov, name, _raises(name))
        if chunked:
            import numpy  # noqa: F401

            m.setattr(arakelov, "_QUADRATURE_NUMPY_PIECES", 0)
            m.setattr(arakelov, "tee", _raises("tee"))
        else:
            m.setattr(arakelov, "sys", types.SimpleNamespace(modules={}))
            m.setattr(arakelov, "_QUADRATURE_NUMPY_PIECES", BUDGETS["quadrature_pieces"][0] + 1)
            m.setattr(arakelov, "_chunk_exps", _raises("_chunk_exps"))
        return [gaussian_avg_quadrature(ArakelovDivisor.of_degree(deg), 1e-12) for deg in QUADRATURE_DEGREES]


def test_gaussian_average_quadrature_and_theta_share_no_code(monkeypatch):
    by_iterator = _quadratures(monkeypatch, chunked=False)
    by_chunks = _quadratures(monkeypatch, chunked=True)
    assert list(map(repr, by_chunks)) == list(map(repr, by_iterator))
    with monkeypatch.context() as m:
        for name in ("gaussian_avg_quadrature", "_chunk_exps"):
            m.setattr(arakelov, name, _raises(name))
        thetas = [math.exp(theta_h0(ArakelovDivisor.of_degree(deg), 1e-12)) for deg in QUADRATURE_DEGREES]
    # Both sums stop within eps = 1e-12; the rest is rounding over up to
    # 592,451 pieces at degree 12, about 5e-13 of the value there.
    for deg, quadrature, theta in zip(QUADRATURE_DEGREES, by_iterator, thetas):
        assert math.isclose(quadrature, theta, rel_tol=1e-11, abs_tol=2e-12), deg


MC_DEGREES = (-1.0, 0.0, 0.5, 1.0, 1.5)
MC_SAMPLES = 200_003


def _monte_carlo(monkeypatch, by_counts):
    """gaussian_avg_mc at MC_DEGREES, MC_SAMPLES each, with the theta sum and
    the quadrature patched to raise, by the raw-word counts (every call must
    find its thresholds) or by the float counts (the search finds none)."""
    with monkeypatch.context() as m:
        names = ("theta_h0", "theta_h0_of_degree", "_theta_tail_sum", "gaussian_avg_quadrature", "_chunk_exps")
        for name in names:
            m.setattr(arakelov, name, _raises(name))
        search = arakelov._mc_thresholds

        def thresholds_found(sigma, c):
            thresholds = search(sigma, c)
            assert thresholds is not None, "the count route fell back to floats"
            return thresholds

        m.setattr(arakelov, "_mc_thresholds", thresholds_found if by_counts else lambda sigma, c: None)
        return [gaussian_avg_mc(ArakelovDivisor.of_degree(deg), MC_SAMPLES, 17) for deg in MC_DEGREES]


def test_gaussian_average_monte_carlo_and_theta_share_no_code(monkeypatch):
    by_counts = _monte_carlo(monkeypatch, by_counts=True)
    by_floats = _monte_carlo(monkeypatch, by_counts=False)
    assert [(repr(r.mean), repr(r.stderr)) for r in by_counts] == [(repr(r.mean), repr(r.stderr)) for r in by_floats]
    # At degree -1 a count above 1 has probability 8e-11, so no draw sees
    # one and the stderr is 0; exp(h0) - 1 must then be below what one such
    # draw would add to the mean.
    for deg, r in zip(MC_DEGREES, by_counts):
        expected = math.exp(theta_h0(ArakelovDivisor.of_degree(deg), 1e-12))
        assert abs(r.mean - expected) <= 4 * r.stderr + 2 / MC_SAMPLES, deg


def test_brute_force_route_takes_no_smith_form(monkeypatch):
    # The closed-form answers are taken first; then Smith normal form is made
    # to fail, and the brute-force route must reach the same answers without
    # it, so that a fault in Smith cannot pass both routes.
    expected = [
        (
            tuple(cokernel_divisors(h.codomain.orders, h.matrix)),
            tuple(kernel_divisors(h.domain.orders, h.codomain.orders, h.matrix)),
        )
        for h in FACE_HOMS
    ]
    groups = [FiniteAbelianGroup(orders) for orders in [(), (6,), (2, 4), (2, 2, 2), (3, 9), (4, 6, 10)]]

    def no_smith(*args):
        raise AssertionError("the brute-force route took a Smith form")

    monkeypatch.setattr(smith, "smith_normal_form", no_smith)
    monkeypatch.setattr(smith, "invariant_factors_of_presentation", no_smith)
    for hom, (pi0, pi1) in zip(FACE_HOMS, expected):
        answer = homotopy_groups(hom, n_max=2)
        assert (answer.pi0, answer.pi1) == (pi0, pi1)
    for group in groups:
        elements = list(group.elements())
        assert group_divisors_from_table(elements, group.add, group.zero()) == elementary_divisors(list(group.orders))


def test_smith_closed_form_takes_no_level_search(monkeypatch):
    # The converse: the level search's answers are taken first, on the face
    # maps and the acceptance suite's 30 seeded ones; then the search is made
    # to fail, and the Smith closed form must reach the same answers without it.
    rng = random.Random(1008)
    homs = list(FACE_HOMS)
    for _ in range(30):
        a, b = random_abelian_group(rng, 16), random_abelian_group(rng, 16)
        homs.append(random_hom(rng, a, b))
    searched = [homotopy_groups(hom, n_max=1) for hom in homs]
    monkeypatch.setattr(dold_kan, "_vanishing_columns", _raises("_vanishing_columns"))
    for hom, answer in zip(homs, searched):
        assert tuple(cokernel_divisors(hom.codomain.orders, hom.matrix)) == answer.pi0, hom
        assert tuple(kernel_divisors(hom.domain.orders, hom.codomain.orders, hom.matrix)) == answer.pi1, hom


def _filtration_cases() -> list:
    """(phi, f, cfg, expected): the draws of the acceptance suite's criterion
    9, each phi and its push-forward members, and its alpha = 2 fold, whose
    push-forward is not; then rational vectors with the bound at, just above
    and just below the exact norm of the push-forward, whose membership is
    known for the push-forward alone (None for phi)."""
    rng = random.Random(1009)
    cases = []
    for _ in range(10_000):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        f = PointedMap((0,) + tuple(rng.randint(0, m) for _ in range(n)), m)
        alpha = rng.choice([1, rng.uniform(0.05, 1.0)])
        phi = tuple(rng.uniform(-2, 2) for _ in range(n))
        lam = sum(abs(v) ** float(alpha) for v in phi) * (1.0 + rng.random())
        cases.append((phi, f, NormedVectorConfig(alpha=alpha, lam=lam), (True, True)))
    cases.append(((1, 1), PointedMap((0, 1, 1), 1), NormedVectorConfig(alpha=2, lam=2, allow_expanding=True), (True, False)))
    rng = random.Random(909)
    for _ in range(300):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        f = PointedMap((0,) + tuple(rng.randint(0, m) for _ in range(n)), m)
        phi = tuple(
            rng.randint(-20, 20) if rng.random() < 0.25 else Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            for _ in range(n)
        )
        fibres = [sum((Fraction(phi[x - 1]) for x in f.points() if x and f(x) == y), Fraction(0)) for y in range(1, m + 1)]
        norm = sum(map(abs, fibres), Fraction(0))
        for delta in (0, Fraction(1, 10**30), -Fraction(1, 10**30), Fraction(1, 3), -Fraction(1, 3)):
            if norm + delta >= 0:
                cases.append((phi, f, NormedVectorConfig(alpha=1, lam=norm + delta), (None, delta >= 0)))
    return cases


def _push_by_hand(phi, f: PointedMap) -> list:
    """The fibre sums of phi over the non-base points of the codomain, added
    in a dict in the order of the domain."""
    sums = {}
    for x, v in enumerate(phi, 1):
        if f(x):
            sums[f(x)] = sums.get(f(x), 0) + v
    return [sums.get(y, 0) for y in range(1, f.codomain_size + 1)]


def _within_by_hand(vec, cfg: NormedVectorConfig) -> bool:
    """sum |v|^alpha <= lam by one left-to-right sum: exact at alpha 1 on
    rationals, else in floats with the filtration's tolerance, 1e-12."""
    exact = cfg.alpha == 1 and all(isinstance(v, (int, Fraction)) for v in (*vec, cfg.lam))
    total = 0
    for v in vec:
        total += abs(v) if exact else abs(float(v)) ** float(cfg.alpha)
    return total <= cfg.lam if exact else total <= float(cfg.lam) + 1e-12


def test_norm_filtration_push_forward_by_hand(monkeypatch):
    cases = _filtration_cases()
    with monkeypatch.context() as m:
        for name in ("_push_by_hand", "_within_by_hand"):
            m.setattr(sys.modules[__name__], name, _raises(name))
        within = gamma_core.norm_filtered_member
        by_library = [(within(phi, cfg), within(gamma_core.push_forward(phi, f), cfg)) for phi, f, cfg, _ in cases]
    with monkeypatch.context() as m:
        for name in ("push_forward", "norm_filtered_member", "l1_within"):
            m.setattr(gamma_core, name, _raises(name))
        m.setattr(combinat, "l1_within", _raises("l1_within"))
        by_hand = [(_within_by_hand(phi, cfg), _within_by_hand(_push_by_hand(phi, f), cfg)) for phi, f, cfg, _ in cases]
    assert len(cases) > 11_000
    for (phi, f, cfg, expected), got, hand in zip(cases, by_library, by_hand):
        assert got == hand, (phi, f, cfg)
        assert expected[0] in (None, got[0]) and got[1] == expected[1], (phi, f, cfg)


# Orders whose unit groups need two or more generators.
MOVED_ORDERS = (8, 12, 15, 16, 20, 21, 24, 28, 63, 360, 840, 1260)


def _generated(gens, n):
    """The residues mod n of the group that gens generate in (Z/n)^x."""
    group, frontier = {1}, [1]
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = a * g % n
            if b not in group:
                group.add(b)
                frontier.append(b)
    return group


def _invariance_cases() -> list[GroupRingElt]:
    rng = random.Random(1003)
    images = [witt_to_groupring(random_witt(rng, max_k=30, terms=5)) for _ in range(160)]
    cases = [GroupRingElt.zero(), GroupRingElt.e(0), *images]
    for x in images:
        terms = group_ring_oracles.terms(x)
        n = rng.randint(1, 30)
        added = dict(terms)
        key = Fraction(rng.randrange(n), n)
        added[key] = added.get(key, 0) + rng.choice((-1, 1))
        cases.append(GroupRingElt.from_terms(added))
        if terms:
            g = rng.choice(list(terms))
            dropped, other = dict(terms), dict(terms)
            del dropped[g]
            other[g] += rng.choice((-2, -1, 1, 2))
            cases += [GroupRingElt.from_terms(dropped), GroupRingElt.from_terms(other)]
    for n in MOVED_ORDERS:
        gens = numth_oracles.unit_group_generators(n)
        for i, moving in enumerate(gens):
            # an orbit under the other generators, which the moving one leaves,
            # with or without an invariant part
            fixed_by_rest = _generated(gens[:i] + gens[i + 1 :], n)
            assert moving not in fixed_by_rest
            c = rng.choice((-3, -1, 2, 3))
            x = GroupRingElt.from_terms({Fraction(a, n): c for a in fixed_by_rest})
            cases += [x, x - 2 * witt_to_groupring(random_witt(rng, max_k=12))]
    return cases


def _no_generator_route(m):
    for name in ("unit_group_generators", "_primitive_root_mod_prime_power"):
        m.setattr(numth_oracles, name, _raises(name))
    m.setattr(group_ring_oracles, "unit_group_generators", _raises("unit_group_generators"))


def test_invariance_by_orbit_counts_and_by_unit_generators(monkeypatch):
    cases = _invariance_cases()
    with monkeypatch.context() as m:
        _no_generator_route(m)
        by_orbits = [group_ring.is_invariant(x) for x in cases]
    with monkeypatch.context() as m:
        for name in ("_orbit_coefficients", "euler_phi"):
            m.setattr(group_ring, name, _raises(name))
        for name in ("euler_phi", "factorize"):
            m.setattr(numth, name, _raises(name))
        m.setattr(group_ring, "_residue", _raises("_residue"))
        by_generators = [group_ring_oracles.is_invariant(x) for x in cases]
    assert len(cases) >= 500 and 150 <= sum(by_orbits) <= len(cases) - 150
    for x, orbits, generators in zip(cases, by_orbits, by_generators):
        assert orbits == generators, x
    # groupring_to_witt inverts exactly the invariant elements
    with monkeypatch.context() as m:
        _no_generator_route(m)
        for x, fixed in zip(cases, by_orbits):
            try:
                back = witt_to_groupring(groupring_to_witt(x))
            except ValueError as exc:
                assert not fixed and str(exc) == "only invariant group-ring elements correspond to Witt elements"
            else:
                assert fixed and back == x, x


def _ghost_product_cases() -> list[tuple[WittElement, WittElement]]:
    """Seeded pairs: shaped like the benchmark's, 30 terms each on keys up
    to 60, and small ones whose keys collide, with the empty element on
    either side."""
    rng = random.Random(1005)

    def shaped():
        return WittElement.from_coeffs({k: rng.choice((-3, -2, -1, 1, 2, 3)) for k in rng.sample(range(1, 61), 30)})

    zero = WittElement.zero()
    pairs = [(zero, zero), (zero, shaped()), (shaped(), zero)]
    pairs += [(shaped(), shaped()) for _ in range(6)]
    pairs += [(random_witt(rng, max_k=30, terms=8), random_witt(rng, max_k=30, terms=8)) for _ in range(200)]
    return pairs


def _ghost_product_mismatches(monkeypatch, pairs) -> int:
    """The number of components m, up to the largest key of x y and of the
    lcm of each pair of keys, at which ghost_m(x y) differs from
    ghost_m(x) ghost_m(y)."""
    with monkeypatch.context() as m:
        m.setattr(witt, "ghost_vector", _raises("ghost_vector"))
        products = [x * y for x, y in pairs]
    with monkeypatch.context() as m:
        for name in ("ghost", "from_ghost", "frobenius", "verschiebung", "from_primitive_basis"):
            m.setattr(witt, name, _raises(name))
        m.setattr(WittElement, "_product", _raises("_product"))
        m.setattr(Combination, "_merged", classmethod(_raises("_merged")))
        mismatches = 0
        for (x, y), xy in zip(pairs, products):
            keys = [k for k, _ in xy.items] + [math.lcm(a, b) for a, _ in x.items for b, _ in y.items]
            top = max(keys, default=1)
            gx, gy, gxy = (witt.ghost_vector(w, top) for w in (x, y, xy))
            mismatches += sum(gxy[n] != gx[n] * gy[n] for n in range(1, top + 1))
    return mismatches


def test_ghost_components_of_a_witt_product_multiply(monkeypatch):
    assert _ghost_product_mismatches(monkeypatch, _ghost_product_cases()) == 0


def test_the_ghost_row_catches_a_product_without_the_gcd(monkeypatch):
    def lcm_only(self, other):
        return WittElement._merged((math.lcm(a, b), ca * cb) for a, ca in self.items for b, cb in other.items)

    monkeypatch.setattr(WittElement, "_product", lcm_only)
    assert _ghost_product_mismatches(monkeypatch, _ghost_product_cases()) > 0
