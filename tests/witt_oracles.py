"""The Mobius-sum forms that witt.ghost_vector, witt.from_ghost and
witt.from_primitive_basis replaced with walks along multiples, kept as their
oracles: one ghost component per index, a sum over the divisors of each
index with the Mobius function of each quotient, and one Mobius value per
divisor of each primitive-basis key.  And the product as the merge of a
generator of its pairs, the form that WittElement's product replaced with
a sum in place.

from_ghost checks that every index is positive before it checks closure, and
names the smallest index that lacks a divisor, as witt.from_ghost does.

Imports no pytest, so the plain-script checks can use them too.
"""

from math import gcd
from typing import Mapping

from absarith.numth import divisors
from absarith.witt import WittElement, ghost
from numth_oracles import mobius


def ghost_vector(w: WittElement, n_max: int) -> dict[int, int]:
    """Ghost components at 1..n_max, one sum over the element per index."""
    return {n: ghost(w, n) for n in range(1, n_max + 1)}


def from_ghost(values: Mapping[int, int]) -> WittElement:
    """m(k) = (1/k) * sum over d | k of mu(k/d) * ghost(d), on a
    divisor-closed index of positive integers."""
    index = sorted(values)
    if any(n < 1 for n in index):
        raise ValueError("ghost indices must be positive integers")
    for n in index:
        missing = [d for d in divisors(n) if d not in values]
        if missing:
            raise ValueError(f"ghost vector not divisor-closed: index {n} lacks divisors {missing}")
    coeffs: dict[int, int] = {}
    for k in index:
        total = sum(mobius(k // d) * values[d] for d in divisors(k))
        if total % k != 0:
            raise ValueError(f"inconsistent ghost vector: Mobius sum at {k} is {total}, not divisible by {k}")
        coeffs[k] = total // k
    return WittElement.from_coeffs(coeffs)


def from_primitive_basis(prim: Mapping[int, int]) -> WittElement:
    """C(d) gets c * mu(u/d) from each term c * rho(u) and each d | u."""
    if any(u < 1 for u in prim):
        raise ValueError("primitive basis indices must be positive integers")
    coeffs: dict[int, int] = {}
    for u, c in prim.items():
        for d in divisors(u):
            coeffs[d] = coeffs.get(d, 0) + c * mobius(u // d)
    return WittElement.from_coeffs(coeffs)


def product(x: WittElement, y: WittElement) -> WittElement:
    """C(a) C(b) = gcd(a, b) C(lcm(a, b)), one (key, coefficient) pair per
    pair of terms, merged once."""
    return WittElement._merged(
        (a // (g := gcd(a, b)) * b, ca * cb * g) for a, ca in x.items for b, cb in y.items
    )
