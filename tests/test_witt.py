import random

import pytest

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
    with pytest.raises(ValueError):
        from_ghost({2: 1})  # not divisor closed
    with pytest.raises(ValueError):
        from_ghost({1: 0, 2: 1})  # Mobius sum 1 not divisible by 2


def test_mul_examples():
    two, three = WittElement.basis(2), WittElement.basis(3)
    assert two * three == WittElement.basis(6)
    assert two * two == WittElement.from_coeffs({2: 2})
    rng = random.Random(8)
    for _ in range(30):
        w = random_witt(rng)
        assert w * WittElement.one() == w


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
        assert a + (-a) == WittElement.zero()


def test_frobenius_examples():
    assert frobenius(2, WittElement.basis(2)) == WittElement.from_coeffs({1: 2})
    assert frobenius(7, WittElement.one()) == WittElement.one()
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
    assert to_primitive_basis(WittElement.one()) == {1: 1}
    assert to_primitive_basis(WittElement.basis(2)) == {1: 1, 2: 1}
    assert from_primitive_basis({1: 1, 2: 1}) == WittElement.basis(2)


def test_primitive_basis_roundtrip():
    rng = random.Random(24)
    for _ in range(100):
        w = random_witt(rng)
        assert from_primitive_basis(to_primitive_basis(w)) == w


def test_json_roundtrip():
    rng = random.Random(26)
    for _ in range(20):
        w = random_witt(rng)
        assert WittElement.from_json(w.to_json()) == w


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
    out = x.coeffs
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


def _ref_from_primitive_basis(prim):
    from absarith.numth import divisors, mobius

    coeffs = {}
    for u, c in prim.items():
        for d in divisors(u):
            coeffs[d] = coeffs.get(d, 0) + c * mobius(u // d)
    return _ref_canonical(coeffs)


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
        assert repr(a - b) == repr(_ref_add(a, _ref_neg(b)))
        assert repr(a - a) == repr(WittElement.zero())
        assert repr(-a) == repr(_ref_neg(a))
        assert repr(n * a) == repr(a * n) == repr(_ref_scale(n, a))
        assert repr(a * b) == repr(_ref_mul(a, b))
        if n:
            assert repr(frobenius(n, a)) == repr(_ref_frobenius(n, a))
            assert repr(verschiebung(n, a)) == repr(_ref_verschiebung(n, a))


def test_primitive_basis_matches_the_accumulating_oracle():
    rng, pairs = _cases(103)
    for a, _ in pairs:
        assert repr(to_primitive_basis(a)) == repr(_ref_to_primitive_basis(a))
        # zero coefficients and indices whose Mobius sums collide or cancel
        prim = {rng.randint(1, 24): rng.randint(-2, 2) for _ in range(rng.randint(0, 6))}
        assert repr(from_primitive_basis(prim)) == repr(_ref_from_primitive_basis(prim))


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
