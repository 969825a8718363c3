"""The integer-residue arithmetic of group_ring against the Fraction oracles.

Every operator result is compared by repr with the accumulate-then-
canonicalize oracles of group_ring_oracles, on supports like the benchmark's
(orders up to 1260, about 10^3 symbols, mixed-sign coefficients), on
elements that exactly one unit generator moves, and on the edge cases: the
zero element, unreduced and negative keys, and act_unit's non-unit message.
The product is also compared with the merge of its residues, the form it
replaced.  Every operator returns its items in the one canonical form, and
the benchmark's group-ring queries build no Fraction.

Needs no pytest: `PYTHONPATH=src python tests/test_group_ring_residues.py`
runs the same checks as a plain script, for interpreters without pytest
installed.
"""

import random
from fractions import Fraction
from math import gcd

from absarith.group_ring import (
    GroupRingElt,
    act_unit,
    groupring_to_witt,
    is_invariant,
    rho_tilde,
    sigma,
    witt_to_groupring,
)
from absarith.witt import WittElement
from group_ring_oracles import (
    _ref_act_unit,
    _ref_add,
    _ref_canonical,
    _ref_mul,
    _ref_neg,
    _ref_rho_tilde,
    _ref_sigma,
    _ref_witt_to_groupring,
    coefficient,
    product,
    terms,
)
from helpers import symbol
from numth_oracles import unit_group_generators

# Cyclic supports of the two factors of the benchmark's group-ring queries.
SUPPORTS = (
    ((360, 840), (2, 3)),
    ((180, 1260), (2, 4)),
    ((40, 504, 630), (2, 6)),
    ((90, 252, 280), (6,)),
)


def _error(make) -> str:
    try:
        make()
    except ValueError as exc:
        return str(exc)
    raise AssertionError("expected a ValueError")


def _mixed_witt(rng, support) -> WittElement:
    return WittElement.from_coeffs({k: rng.choice((-3, -2, -1, 1, 2, 3)) for k in support})


def _check_operators(x, y, n, u):
    """Each operator on x (and y) against its oracle, by repr."""
    assert repr(x + y) == repr(_ref_add(x, y))
    assert repr(x + -1 * y) == repr(_ref_add(x, _ref_neg(y)))
    assert repr(-1 * x) == repr(_ref_neg(x))
    assert repr(x * y) == repr(_ref_mul(x, y))
    assert repr(sigma(n, x)) == repr(_ref_sigma(n, x))
    assert repr(rho_tilde(n, x)) == repr(_ref_rho_tilde(n, x))
    try:
        expected = repr(_ref_act_unit(u, x))
    except ValueError as exc:
        assert _error(lambda: act_unit(u, x)) == str(exc)
    else:
        assert repr(act_unit(u, x)) == expected


def test_operators_on_benchmark_supports():
    rng = random.Random(151)
    for big, small in SUPPORTS:
        v, w = _mixed_witt(rng, big), _mixed_witt(rng, small)
        x, y = witt_to_groupring(v), witt_to_groupring(w)
        assert repr(x) == repr(_ref_witt_to_groupring(v))
        assert repr(y) == repr(_ref_witt_to_groupring(w))
        _check_operators(x, y, rng.choice((2, 3, 6, 7)), rng.choice((7, 11, 13, 3)))
        z = x * y
        assert is_invariant(z)
        assert groupring_to_witt(z) == v * w
        # non-invariant elements on the same orders: random sets of the symbols
        keys = list(terms(x))
        part, few = (
            GroupRingElt.from_terms({g: rng.choice((-2, -1, 1, 2)) for g in rng.sample(keys, size)})
            for size in (len(keys) // 2, 24)
        )
        _check_operators(part, few, rng.choice((2, 3, 6, 7)), rng.choice((11, 13, 2)))
        assert not is_invariant(part) and not is_invariant(few)


def _orbit(gens, n):
    """The residues u mod n for u in the group generated by gens."""
    orbit, frontier = {1}, [1]
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = a * g % n
            if b not in orbit:
                orbit.add(b)
                frontier.append(b)
    return orbit


def test_elements_moved_by_one_unit_generator():
    rng = random.Random(153)
    for n in (8, 12, 360, 840, 1260):
        gens = unit_group_generators(n)
        assert len(gens) >= 2
        for i, moving in enumerate(gens):
            rest = gens[:i] + gens[i + 1 :]
            fixed_by_rest = _orbit(rest, n)
            assert moving not in fixed_by_rest
            # the orbit sum of e(1/n) under the other generators, plus an invariant part
            x = GroupRingElt.from_terms({Fraction(a, n): 3 for a in fixed_by_rest})
            x = x + -2 * witt_to_groupring(WittElement.basis(rng.choice((2, 3, 6))))
            for u in rest:
                assert repr(act_unit(u, x)) == repr(_ref_act_unit(u, x)) == repr(x)
            moved = act_unit(moving, x)
            assert repr(moved) == repr(_ref_act_unit(moving, x)) and moved != x
            assert not is_invariant(x)
            message = "only invariant group-ring elements correspond to Witt elements"
            assert _error(lambda: groupring_to_witt(x)) == message


def test_zero_element():
    zero = GroupRingElt.zero()
    x = witt_to_groupring(WittElement.from_coeffs({12: 2, 35: -1}))
    for a, b in ((zero, zero), (zero, x), (x, zero)):
        _check_operators(a, b, 3, 5)
        assert repr(a * b) == repr(zero)
    # no order for a non-unit to fail on
    assert repr(act_unit(6, zero)) == repr(_ref_act_unit(6, zero)) == "GroupRingElt(items=())"
    assert repr(0 * x) == repr(x + -1 * x) == repr(zero)
    assert is_invariant(zero) and zero.torsion_lcm() == 1
    assert groupring_to_witt(zero) == WittElement.zero()
    assert witt_to_groupring(WittElement.zero()) == zero
    assert GroupRingElt.from_terms({}) == GroupRingElt.from_terms({Fraction(1, 3): 0, "4/3": 0}) == zero


def test_unreduced_and_negative_keys():
    rng = random.Random(157)
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(0, 8)):
            den = rng.choice((1, 2, 7, 12, 360, 840, 1260))
            scale = rng.randint(1, 4)
            # unreduced numerator/denominator strings, values outside [0, 1)
            key = f"{scale * rng.randint(-3 * den, 3 * den)}/{scale * den}"
            terms[key] = terms.get(key, 0) + rng.randint(-3, 3)
        assert repr(GroupRingElt.from_terms(terms)) == repr(_ref_canonical(terms))
    x = GroupRingElt.from_terms({"-1/4": 2, "3/4": 1, "10/8": -1, -2: 5, "6/9": 4})
    assert repr(x) == "GroupRingElt(items=(((0, 1), 5), ((1, 4), -1), ((2, 3), 4), ((3, 4), 3)))"
    assert coefficient(x, Fraction(-5, 4)) == 3 and coefficient(x, "-1/3") == 4


# The largest prime below 10^12.
PRIME_12 = 999_999_999_989


def test_product_matches_the_merge_oracle():
    """The product, summed in place, against the merge of its residues: on
    the benchmark's supports, on 30-term factors, on products that cancel
    to zero, with the empty factor, with the unit e(0) and with symbols of a
    12-digit prime order."""
    rng = random.Random(153)
    E, zero, one = symbol, GroupRingElt.zero(), symbol(0)

    def shaped():
        return GroupRingElt.from_terms(
            {Fraction(rng.randrange(den), den): rng.choice((-3, -2, -1, 1, 2, 3)) for den in rng.choices(range(1, 61), k=30)}
        )

    pairs = [(witt_to_groupring(_mixed_witt(rng, big)), witt_to_groupring(_mixed_witt(rng, small))) for big, small in SUPPORTS]
    pairs += [(shaped(), shaped()) for _ in range(24)]
    # (e(1/n) - e(0)) times the sum of the n-torsion symbols cancels to zero
    cancelling = [(E(Fraction(1, n)) + -1 * one, witt_to_groupring(WittElement.basis(n))) for n in (1, 2, 6, 60)]
    pairs += cancelling
    p = E(Fraction(1, PRIME_12))
    pairs += [(zero, zero), (zero, shaped()), (shaped(), zero), (one, one), (one, shaped()), (shaped(), one)]
    pairs += [(p, p), (p, shaped()), (p + one, 2 * p + -1 * E(Fraction(PRIME_12 - 1, PRIME_12))), (p, E(Fraction(PRIME_12 - 1, PRIME_12)))]
    for x, y in pairs:
        assert repr(x * y) == repr(product(x, y)), (x, y)
    assert [x * y for x, y in cancelling] == [zero] * len(cancelling)
    assert repr(p * E(Fraction(PRIME_12 - 1, PRIME_12))) == repr(one)


def test_act_unit_names_the_first_order_a_non_unit_shares():
    x = GroupRingElt.from_terms({Fraction(1, 4): 1, Fraction(1, 9): 2, Fraction(5, 7): -1})
    for u in (2, 3, 6, 7, 14, 0):
        expected = _error(lambda: _ref_act_unit(u, x))
        assert _error(lambda: act_unit(u, x)) == expected
    # the items are in (a, n) order, so (1, 4) comes before (1, 9)
    assert _error(lambda: act_unit(6, x)) == "6 is not a unit modulo the order 4"
    assert _error(lambda: act_unit(2, x)) == "2 is not a unit modulo the order 4"
    assert repr(act_unit(5, x)) == repr(_ref_act_unit(5, x))


def _assert_canonical(x):
    """Reduced residues (a, n), 0 <= a < n and gcd(a, n) = 1, as strictly
    increasing keys, each with a nonzero int coefficient."""
    keys = [key for key, _ in x.items]
    assert all(type(a) is int and type(n) is int and 0 <= a < n and gcd(a, n) == 1 for a, n in keys), x
    assert all(key < following for key, following in zip(keys, keys[1:])), x
    assert all(type(c) is int and c != 0 for _, c in x.items), x


def test_every_operator_returns_the_canonical_form():
    rng = random.Random(159)
    pairs = []
    for big, small in SUPPORTS:
        x, y = witt_to_groupring(_mixed_witt(rng, big)), witt_to_groupring(_mixed_witt(rng, small))
        pairs.append((x, y))
        pairs.append((GroupRingElt.from_terms({g: rng.choice((-1, 1)) for g in rng.sample(list(terms(x)), 40)}), y))
    for _ in range(200):
        # small orders and unreduced keys, so that sums, images and preimages collide and cancel
        small = [
            GroupRingElt.from_terms({f"{rng.randint(-20, 20)}/{rng.randint(1, 12)}": rng.randint(-2, 2) for _ in range(rng.randint(0, 6))})
            for _ in range(2)
        ]
        pairs.append(tuple(small))
    for x, y in pairs:
        n, u, m = rng.randint(1, 7), rng.choice((1, 5, 7, 11, 13)), rng.randint(-2, 2)
        results = [x, y, x + y, x + -1 * y, -1 * x, x + -1 * x, m * x, x * m, x * y, sigma(n, x), rho_tilde(n, x)]
        if all(gcd(u, key[1]) == 1 for key, _ in x.items):
            results.append(act_unit(u, x))
        for z in results:
            _assert_canonical(z)
    for k in (1, 2, 12, 1260):
        _assert_canonical(witt_to_groupring(WittElement.basis(k)))
    assert symbol("-5/4").items == (((3, 4), 1),)
    assert symbol(Fraction(6, 3)).items == (((0, 1), 1),)


def _fractions_built(run) -> int:
    """The number of Fractions constructed while run() runs."""
    built = []
    new = Fraction.__dict__["__new__"]

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new.__func__(cls, *args, **kwargs)

    Fraction.__new__ = counting
    try:
        run()
    finally:
        Fraction.__new__ = new
    return len(built)


def test_the_benchmark_queries_build_no_fraction():
    # The group-ring query of the benchmark: the product of the images of two
    # Witt elements with positive coefficients, its invariance and its way back.
    rng = random.Random(161)
    factors = [tuple(WittElement.from_coeffs({k: rng.choice((1, 2, 3)) for k in s}) for s in pair) for pair in SUPPORTS]
    answers = []

    def queries():
        for v, w in factors:
            z = witt_to_groupring(v) * witt_to_groupring(w)
            answers.append((is_invariant(z), groupring_to_witt(z)))

    assert _fractions_built(queries) == 0
    assert answers == [(True, v * w) for v, w in factors]
    # the count sees a Fraction where one is built: a symbol from outside
    assert _fractions_built(lambda: symbol("1/2")) == 1


if __name__ == "__main__":
    checks = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for check in checks:
        check()
    print(f"{len(checks)} group-ring residue checks match the Fraction oracles")
