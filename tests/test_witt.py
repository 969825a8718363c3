import json
import random
import time
from fractions import Fraction

import pytest

import witt_oracles
from absarith import numth, witt
from absarith.cli import _witt_json
from absarith.errors import json_key
from absarith.gamma_core import PointedEndo, eventual_image, smash, trace, wedge
from absarith.witt import (
    WittElement,
    frobenius,
    from_ghost,
    from_primitive_basis,
    ghost,
    ghost_vector,
    tau,
    to_primitive_basis,
    verschiebung,
)
from gamma_core_oracles import odometer
from helpers import random_endo, random_witt


def test_tau_examples():
    for k in range(1, 9):
        assert tau(PointedEndo.cyclic(k)) == WittElement.basis(k)
    assert tau(PointedEndo((0,) * 6)) == WittElement.zero()
    # tau counts cycles, so no coefficient is negative.
    rng = random.Random(1)
    for _ in range(30):
        assert all(c >= 0 for _, c in tau(random_endo(rng, 8)).items)


def test_tau_stable_under_restriction():
    rng = random.Random(2)
    for _ in range(100):
        t = random_endo(rng, 8)
        _, perm = eventual_image(t)
        assert tau(t) == tau(perm)


def test_ghost_examples():
    w = WittElement.basis(3)
    assert ghost(w, 6) == 3
    assert ghost(w, 2) == 0
    assert ghost(WittElement.zero(), 5) == 0
    with pytest.raises(ValueError):
        ghost(w, 0)


def test_ghost_is_trace_oracle():
    rng = random.Random(4)
    for _ in range(100):
        t = random_endo(rng, 8)
        _, perm = eventual_image(t)
        w = tau(t)
        for n in range(1, 13):
            assert ghost(w, n) == trace(perm, n)


def test_from_ghost_roundtrip():
    for k in range(1, 13):
        w = WittElement.basis(k)
        assert from_ghost(ghost_vector(w, 12)) == w
    rng = random.Random(6)
    for _ in range(50):
        w = random_witt(rng)
        assert from_ghost(ghost_vector(w, 12)) == w


def test_from_ghost_examples():
    assert from_ghost({n: 0 for n in range(1, 7)}) == WittElement.zero()
    assert from_ghost({1: 1, 2: 3}) == WittElement.from_coeffs({1: 1, 2: 1})


def test_from_ghost_errors():
    with pytest.raises(ValueError, match=r"^ghost vector not divisor-closed: index 2 lacks divisors \[1\]$"):
        from_ghost({2: 1})
    with pytest.raises(ValueError, match="^inconsistent ghost vector: Mobius sum at 2 is 1, not divisible by 2$"):
        from_ghost({1: 0, 2: 1})


# A 12-digit prime: a sparse index with a key this large is scanned, never
# stepped through up to the key.
P12 = 100_000_000_003


def _outcome(f, *args):
    """repr of the answer, or the text of the ValueError raised."""
    try:
        return repr(f(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


def _ghost_cases(rng):
    """Ghost vectors of random elements: as they are, perturbed, with indices
    dropped, with a nonpositive index, sparse on huge keys, and random."""
    for i in range(600):
        w = random_witt(rng, max_k=30)
        g = witt_oracles.ghost_vector(w, rng.randint(0, 40))
        kind = i % 6
        if kind == 1 and g:
            for _ in range(rng.randint(1, 3)):
                g[rng.choice(list(g))] += rng.randint(-5, 5)
        elif kind == 2:
            for n in rng.sample(sorted(g), min(len(g), rng.randint(1, 3))):
                del g[n]
        elif kind == 3:
            g[rng.randint(-5, 0)] = rng.randint(-2, 2)
        elif kind == 4:
            g = {1: rng.randint(-3, 3)}
            for p in rng.sample([P12, 999_999_999_989, 2 * P12, 4, 6, 12], rng.randint(1, 3)):
                g[p] = g[1] + p * rng.randint(-3, 3) + rng.choice((0, 0, 1))
        elif kind == 5:
            g = {rng.randint(1, 50): rng.randint(-20, 20) for _ in range(rng.randint(0, 10))}
        yield g


def test_inversion_matches_the_mobius_sums():
    rng = random.Random(107)
    outcomes = set()
    for g in _ghost_cases(rng):
        got = _outcome(from_ghost, g)
        assert got == _outcome(witt_oracles.from_ghost, g), g
        outcomes.add(got.split(":")[1] if got.startswith("ValueError") else "answer")
    # every branch ran: answers and the three refusals
    assert len(outcomes) == 4
    for _ in range(300):
        w = random_witt(rng, max_k=rng.choice((12, 60, 200)), terms=rng.randint(0, 8))
        n_max = rng.randint(-2, 250)
        assert repr(ghost_vector(w, n_max)) == repr(witt_oracles.ghost_vector(w, n_max))
    for i in range(300):
        prim = {rng.randint(-1 if i % 10 == 0 else 1, rng.choice((12, 60, 400))): rng.randint(-2, 2) for _ in range(8)}
        if i % 7 == 0:
            prim[rng.choice((P12, 2 * 3 * 5 * 7 * 11 * 13))] = rng.randint(-2, 2)
        assert _outcome(from_primitive_basis, prim) == _outcome(witt_oracles.from_primitive_basis, prim), prim


def test_inversion_walks_multiples_without_factorizing_each_divisor(monkeypatch):
    w = WittElement.from_coeffs({1: 2, 6: -1, 97: 3, 4096: 1, 99_991: -2})
    start = time.perf_counter()
    assert from_ghost(ghost_vector(w, 10**5)) == w
    assert time.perf_counter() - start < 0.5
    start = time.perf_counter()
    assert from_ghost({1: 0, P12: 0}) == WittElement.zero()
    assert from_ghost({1: 1, P12: 1 + 2 * P12}) == WittElement.from_coeffs({1: 1, P12: 2})
    assert time.perf_counter() - start < 0.5

    calls = []
    factorize = numth.factorize

    def counted(n):
        calls.append(n)
        return factorize(n)

    def refused(n):
        raise AssertionError("the Mobius function is not needed")

    for module in (numth, witt):
        monkeypatch.setattr(module, "factorize", counted, raising=False)
        monkeypatch.setattr(module, "mobius", refused, raising=False)
    # an index that is not 1..n is checked for closure, one factorization an entry
    index = sorted({d for n in (360, 840, 1001, 4096) for d in numth.divisors(n)})
    calls.clear()
    w = WittElement.from_coeffs({1: 1, 8: -2, 360: 1, 1001: 3})
    assert from_ghost({n: ghost(w, n) for n in index}) == w
    assert len(calls) <= len(index)
    prim = {360: 1, 840: -2, 1001: 1, 4096: 5}
    expected = repr(witt_oracles.from_primitive_basis(prim))
    calls.clear()
    assert repr(from_primitive_basis(prim)) == expected
    assert len(calls) == len(prim)


def test_argument_checks():
    w = WittElement.basis(3)
    with pytest.raises(ValueError, match="^cycle order must be >= 1$"):
        WittElement.basis(0)
    with pytest.raises(ValueError, match="must be an object"):
        WittElement.from_json("[1]")
    with pytest.raises(ValueError, match="^ghost indices must be positive integers$"):
        from_ghost({0: 0, 1: 0})
    with pytest.raises(ValueError, match="^Frobenius index must be >= 1$"):
        frobenius(0, w)
    with pytest.raises(ValueError, match="^Verschiebung index must be >= 1$"):
        verschiebung(0, w)
    with pytest.raises(ValueError, match="^primitive basis indices must be positive integers$"):
        from_primitive_basis({0: 1})
    # a float is no scalar, on either side: both methods return NotImplemented
    with pytest.raises(TypeError):
        w * 1.5
    with pytest.raises(TypeError):
        1.5 * w
    # a key from a library caller's dict may be an int already, not a float
    assert json_key(7) == 7
    with pytest.raises(ValueError, match="expected an integer"):
        json_key(2.0)


def test_mul_examples():
    two, three = WittElement.basis(2), WittElement.basis(3)
    assert two * three == WittElement.basis(6)
    assert two * two == WittElement.from_coeffs({2: 2})
    rng = random.Random(8)
    for _ in range(30):
        w = random_witt(rng)
        assert w * WittElement.basis(1) == w


def test_mul_matches_smash():
    rng = random.Random(10)
    for _ in range(60):
        s, t = random_endo(rng, 6), random_endo(rng, 6)
        assert tau(smash(s, t)) == tau(s) * tau(t)
        assert tau(wedge(s, t)) == tau(s) + tau(t)


def test_ghost_is_ring_homomorphism():
    rng = random.Random(12)
    for _ in range(60):
        a, b = random_witt(rng), random_witt(rng)
        for n in range(1, 10):
            assert ghost(a + b, n) == ghost(a, n) + ghost(b, n)
            assert ghost(a * b, n) == ghost(a, n) * ghost(b, n)


def test_ring_axioms():
    rng = random.Random(14)
    for _ in range(40):
        a, b, c = (random_witt(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + -1 * a == WittElement.zero()


def test_frobenius_examples():
    assert frobenius(2, WittElement.basis(2)) == WittElement.from_coeffs({1: 2})
    assert frobenius(7, WittElement.basis(1)) == WittElement.basis(1)
    assert frobenius(2, WittElement.basis(6)) == WittElement.from_coeffs({3: 2})


def test_frobenius_ghost_characterization():
    rng = random.Random(16)
    for _ in range(40):
        w = random_witt(rng)
        n = rng.randint(1, 8)
        for m in range(1, 9):
            assert ghost(frobenius(n, w), m) == ghost(w, n * m)


def test_frobenius_is_powering():
    # the operator on classes agrees with literally powering the endomorphism
    rng = random.Random(17)
    for _ in range(60):
        t = random_endo(rng, 7)
        n = rng.randint(1, 8)
        assert tau(t.power(n)) == frobenius(n, tau(t))


def test_verschiebung_is_odometer():
    # stacking n copies with a twist realizes the operator on classes
    assert odometer(3, PointedEndo.cyclic(2)) == PointedEndo((0, 3, 4, 5, 6, 2, 1))
    rng = random.Random(21)
    for _ in range(60):
        t = random_endo(rng, 7)
        n = rng.randint(1, 8)
        assert tau(odometer(n, t)) == verschiebung(n, tau(t))


def test_verschiebung_examples():
    assert verschiebung(2, WittElement.basis(3)) == WittElement.basis(6)
    rng = random.Random(18)
    for _ in range(20):
        w = random_witt(rng)
        assert verschiebung(1, w) == w


def test_verschiebung_ghost_characterization():
    # ghost_n(V_m w) = m * ghost_{n/m}(w) when m | n, and 0 otherwise
    rng = random.Random(19)
    for _ in range(40):
        w = random_witt(rng, max_k=8)
        m = rng.randint(1, 8)
        for n in range(1, 25):
            expected = m * ghost(w, n // m) if n % m == 0 else 0
            assert ghost(verschiebung(m, w), n) == expected


def test_frobenius_verschiebung_relations():
    # the full operator suite, on random elements
    rng = random.Random(20)
    for _ in range(60):
        x, y = random_witt(rng, max_k=8), random_witt(rng, max_k=8)
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        assert frobenius(n, verschiebung(n, x)) == n * x
        assert verschiebung(n, frobenius(n, x) * y) == x * verschiebung(n, y)
        assert verschiebung(n, x) * verschiebung(n, y) == n * verschiebung(n, x * y)
        assert verschiebung(n * m, x) == verschiebung(n, verschiebung(m, x))
        assert frobenius(n * m, x) == frobenius(n, frobenius(m, x))
        if __import__("math").gcd(n, m) == 1:
            assert verschiebung(m, frobenius(n, x)) == frobenius(n, verschiebung(m, x))


def test_general_divisibility_relation():
    # F_c V_b = gcd(b,c) V_{b'} F_{c'} with b' = b/gcd, c' = c/gcd
    from math import gcd

    rng = random.Random(22)
    for _ in range(60):
        x = random_witt(rng, max_k=8)
        b, c = rng.randint(1, 8), rng.randint(1, 8)
        g = gcd(b, c)
        lhs = frobenius(c, verschiebung(b, x))
        rhs = g * verschiebung(b // g, frobenius(c // g, x))
        assert lhs == rhs


def test_primitive_basis_examples():
    assert to_primitive_basis(WittElement.basis(1)) == {1: 1}
    assert to_primitive_basis(WittElement.basis(2)) == {1: 1, 2: 1}
    assert from_primitive_basis({1: 1, 2: 1}) == WittElement.basis(2)


def test_primitive_basis_roundtrip():
    rng = random.Random(24)
    for _ in range(100):
        w = random_witt(rng)
        assert from_primitive_basis(to_primitive_basis(w)) == w


def test_json_roundtrip():
    # the CLI writes an element as _witt_json and reads it with from_json
    rng = random.Random(26)
    for _ in range(20):
        w = random_witt(rng)
        assert WittElement.from_json(json.dumps(_witt_json(w))) == w


# The parent's accumulate-then-canonicalize bodies of the operators, kept as
# oracles for the shared merge of witt.Combination.


def _ref_canonical(coeffs):
    items = []
    for k, c in sorted(coeffs.items()):
        if k < 1:
            raise ValueError(f"cycle length must be a positive integer, got {k}")
        if c != 0:
            items.append((int(k), int(c)))
    return WittElement(tuple(items))


def _ref_add(x, y):
    out = dict(x.items)
    for k, c in y.items:
        out[k] = out.get(k, 0) + c
    return _ref_canonical(out)


def _ref_neg(x):
    return WittElement(tuple((k, -c) for k, c in x.items))


def _ref_scale(n, x):
    return _ref_canonical({k: n * c for k, c in x.items})


def _ref_mul(x, y):
    from math import gcd, lcm

    out = {}
    for a, ca in x.items:
        for b, cb in y.items:
            key = lcm(a, b)
            out[key] = out.get(key, 0) + ca * cb * gcd(a, b)
    return _ref_canonical(out)


def _ref_frobenius(n, w):
    from math import gcd

    out = {}
    for k, c in w.items:
        g = gcd(n, k)
        out[k // g] = out.get(k // g, 0) + c * g
    return _ref_canonical(out)


def _ref_verschiebung(n, w):
    return _ref_canonical({n * k: c for k, c in w.items})


def _ref_to_primitive_basis(w):
    from absarith.numth import divisors

    out = {}
    for k, _ in w.items:
        for u in divisors(k):
            out.setdefault(u, 0)
    for u in list(out):
        out[u] = sum(c for k, c in w.items if k % u == 0)
    return {u: c for u, c in sorted(out.items()) if c != 0}


def _cases(seed):
    """Seeded pairs of elements, with small supports so that keys collide, and
    the empty element on either side."""
    rng = random.Random(seed)
    zero = WittElement.zero()
    pairs = [(zero, zero), (zero, random_witt(rng)), (random_witt(rng), zero)]
    for _ in range(150):
        max_k = rng.choice((4, 6, 12, 30))
        pairs.append((random_witt(rng, max_k=max_k, terms=8), random_witt(rng, max_k=max_k, terms=8)))
    return rng, pairs


def test_operators_match_the_accumulating_oracle():
    rng, pairs = _cases(101)
    for a, b in pairs:
        n = rng.randint(0, 6)
        assert repr(a + b) == repr(_ref_add(a, b))
        assert repr(a + -1 * b) == repr(_ref_add(a, _ref_neg(b)))
        assert repr(a + -1 * a) == repr(WittElement.zero())
        assert repr(-1 * a) == repr(_ref_neg(a))
        assert repr(n * a) == repr(a * n) == repr(_ref_scale(n, a))
        assert repr(a * b) == repr(_ref_mul(a, b))
        if n:
            assert repr(frobenius(n, a)) == repr(_ref_frobenius(n, a))
            assert repr(verschiebung(n, a)) == repr(_ref_verschiebung(n, a))


# The largest prime below 10^12.
PRIME_12 = 999_999_999_989


def _product_cases(seed):
    """Seeded pairs for the product: shaped like the benchmark's, 30 terms
    each on keys up to 60; products that cancel to zero, by C(k) C(k) =
    k C(k) = k C(1) C(k); the empty factor; the key 1; a 12-digit prime key;
    and small supports, where keys collide."""
    rng = random.Random(seed)

    def shaped():
        return WittElement.from_coeffs({k: rng.choice((-3, -2, -1, 1, 2, 3)) for k in rng.sample(range(1, 61), 30)})

    zero, one, p = WittElement.zero(), WittElement.basis(1), WittElement.basis(PRIME_12)
    pairs = [(shaped(), shaped()) for _ in range(24)]
    pairs += [(WittElement.basis(k) + -k * one, WittElement.basis(k)) for k in (1, 2, 6, 60, PRIME_12)]
    pairs += [(zero, zero), (zero, shaped()), (shaped(), zero), (one, one), (one, shaped()), (shaped(), one)]
    pairs += [(p, p), (p, shaped()), (p + one, p + -2 * one), (3 * p, WittElement.basis(2 * PRIME_12))]
    pairs += [(random_witt(rng, max_k=12, terms=8), random_witt(rng, max_k=12, terms=8)) for _ in range(100)]
    return pairs


def test_product_matches_the_merge_oracle():
    pairs = _product_cases(111)
    for x, y in pairs:
        assert repr(x * y) == repr(witt_oracles.product(x, y)), (x, y)
    cancelling = [x * y for x, y in pairs[24:29]]
    assert cancelling == [WittElement.zero()] * 5
    p = WittElement.basis(PRIME_12)
    assert repr(p * p) == repr(PRIME_12 * p)


def test_primitive_basis_matches_the_accumulating_oracle():
    rng, pairs = _cases(103)
    for a, _ in pairs:
        assert repr(to_primitive_basis(a)) == repr(_ref_to_primitive_basis(a))
        # zero coefficients and indices whose Mobius sums collide or cancel
        prim = {rng.randint(1, 24): rng.randint(-2, 2) for _ in range(rng.randint(0, 6))}
        assert repr(from_primitive_basis(prim)) == repr(witt_oracles.from_primitive_basis(prim))


def test_from_coeffs_matches_the_canonical_walk():
    rng = random.Random(105)
    for _ in range(200):
        coeffs = {rng.randint(-3, 12): rng.randint(-2, 2) for _ in range(rng.randint(0, 6))}
        try:
            expected = repr(_ref_canonical(coeffs))
        except ValueError as exc:
            # a key below 1 is rejected, even with a zero coefficient, by the smallest one
            with pytest.raises(ValueError) as got:
                WittElement.from_coeffs(coeffs)
            assert str(got.value) == str(exc)
        else:
            assert repr(WittElement.from_coeffs(coeffs)) == expected
    with pytest.raises(ValueError, match="got -1$"):
        WittElement.from_coeffs({3: 1, 0: 0, -1: 0})
    with pytest.raises(ValueError, match="got 0$"):
        WittElement.from_json('{"2": 1, "0": 0}')


def test_from_coeffs_refuses_a_key_or_coefficient_that_is_not_an_int():
    # each is refused by name, not truncated: 1.9 once gave C(2), 3.7 C(3)
    for key, c in ((2, 1.9), (3.7, 1), (2, True), (True, 1), (2, Fraction(3, 1)), (4.0, 1), ("2", 1)):
        with pytest.raises(ValueError) as refused:
            WittElement.from_coeffs({5: 1, key: c})
        assert str(refused.value) == f"cycle lengths and coefficients must be integers, got {key!r}: {c!r}"
    assert WittElement.from_coeffs({2: 2, 3: 0}) == 2 * WittElement.basis(2)
