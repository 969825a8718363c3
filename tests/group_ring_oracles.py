"""The accumulate-then-canonicalize bodies of the group-ring operators, on
Fraction keys throughout: the oracles for the shared merge of
witt.Combination and for the integer-residue arithmetic of group_ring.  Each
reads an element's items as Fraction terms (terms) and turns its Fraction
result back into reduced residue keys in one place (_ref_canonical).  And
the generator route to invariance that group_ring.is_invariant took before
it counted orbits: act with generators of (Z/N)^x, N the lcm of the orders.
And the character sums and orbit sums that tests read the ghost components
and the invariant basis rho(n) from, by routes of their own, and the
coefficient of one symbol, read off the Fraction keys.  And the product as
the merge of a generator of its reduced residues, the form that
GroupRingElt's product replaced with a sum in place.

Imports no pytest, so the plain-script checks can use them too.
"""

import cmath
from fractions import Fraction
from math import gcd, lcm

from absarith.group_ring import GroupRingElt, _residue, groupring_to_witt
from absarith.witt import ghost
from numth_oracles import unit_group_generators


def _ref_reduce(q):
    return q - (q.numerator // q.denominator)


def terms(x: GroupRingElt) -> dict[Fraction, int]:
    """x as {symbol in [0, 1): coefficient}, keyed by Fractions."""
    return {Fraction(a, n): c for (a, n), c in x.items}


def coefficient(x: GroupRingElt, g) -> int:
    """The coefficient in x of the class of g in Q/Z."""
    return terms(x).get(_ref_reduce(Fraction(g)), 0)


def _ref_canonical(fractions):
    merged = {}
    for g, c in fractions.items():
        key = _ref_reduce(Fraction(g))
        merged[key] = merged.get(key, 0) + int(c)
    return GroupRingElt(tuple(sorted(((g.numerator, g.denominator), c) for g, c in merged.items() if c != 0)))


def _ref_add(x, y):
    out = terms(x)
    for g, c in terms(y).items():
        out[g] = out.get(g, 0) + c
    return _ref_canonical(out)


def _ref_neg(x):
    return _ref_canonical({g: -c for g, c in terms(x).items()})


def _ref_mul(x, y):
    out, ys = {}, terms(y).items()
    for g, cg in terms(x).items():
        for h, ch in ys:
            key = _ref_reduce(g + h)
            out[key] = out.get(key, 0) + cg * ch
    return _ref_canonical(out)


def _ref_sigma(n, x):
    return _ref_canonical({n * g: c for g, c in terms(x).items()}) if x.items else x


def _ref_rho_tilde(n, x):
    out = {}
    for g, c in terms(x).items():
        base = Fraction(g.numerator, n * g.denominator)
        for j in range(n):
            key = _ref_reduce(base + Fraction(j, n))
            out[key] = out.get(key, 0) + c
    return _ref_canonical(out)


def _ref_act_unit(u, x):
    out = {}
    for g, c in terms(x).items():
        if gcd(u, g.denominator) != 1:
            raise ValueError(f"{u} is not a unit modulo the order {g.denominator}")
        key = Fraction(u * g.numerator % g.denominator, g.denominator)
        out[key] = out.get(key, 0) + c
    return _ref_canonical(out)


def _ref_witt_to_groupring(w):
    out = {}
    for k, c in w.items:
        for j in range(k):
            out[Fraction(j, k)] = out.get(Fraction(j, k), 0) + c
    return _ref_canonical(out)


def is_invariant(x):
    """Whether x is fixed by every automorphism of Q/Z.

    On support of bounded torsion N the automorphism group acts through
    (Z/NZ)^x, so it suffices to check a generating set of that unit group.
    """
    pairs = {(g.numerator, g.denominator): c for g, c in terms(x).items()}
    # u fixes x when relabelling its symbols by u leaves the key -> coefficient dict as it was
    return all(
        {(u * a % n, n): c for (a, n), c in pairs.items()} == pairs
        for u in unit_group_generators(lcm(*(n for _, n in pairs)))
    )


def fourier(x, n):
    """Floating-point character sum: sum of coeff * exp(2 pi i n g)."""
    return sum(c * cmath.exp(2j * cmath.pi * n * float(g)) for g, c in terms(x).items())


def ghost_invariant(x, n):
    """Exact integer value of the n-th character sum of an invariant element."""
    return ghost(groupring_to_witt(x), n)


def primitive_orbit_sum(n):
    """The invariant sum rho(n) of all primitive n-torsion symbols."""
    return _ref_canonical({Fraction(a, n): 1 for a in range(n) if gcd(a, n) == 1})


def product(x: GroupRingElt, y: GroupRingElt) -> GroupRingElt:
    """e(a/n) e(b/m) = e((a m + b n) / (n m)), one (residue, coefficient)
    pair per pair of symbols, merged once."""
    return GroupRingElt._merged(
        (_residue(a * m + b * n, n * m), ca * cb) for (a, n), ca in x.items for (b, m), cb in y.items
    )
