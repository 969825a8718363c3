"""Exact arithmetic in the integral group ring of Q/Z.

Elements are finite integer combinations of symbols e(g) for g in Q/Z; the
product is convolution, e(g) e(h) = e(g + h).  The operator sigma_n sends
e(g) to e(n g); its one-sided inverse rho_n sends e(g) to the sum of the n
preimages of g under multiplication by n, so sigma_n rho_n = n.

The invariant part under all automorphisms of Q/Z (units acting by
multiplication on torsion) is spanned by the sums rho(n) of primitive
n-torsion symbols, and is identified with the Witt ring of cyclic classes by
C(k) <-> sum of all k-torsion symbols.  Under that identification sigma_n is
the Frobenius operator and rho_n the Verschiebung.

GroupRingElt shares witt.Combination with WittElement: the one merge (equal
keys summed, zero coefficients dropped, sorted by key) and the additive
methods.  Its items keep reduced Fraction keys in [0, 1), but the arithmetic
runs on integer residues: a symbol a/n is the pair (a, n) with 0 <= a < n and
gcd(a, n) = 1, the operators map such pairs, and the merge sums coefficients
under them and builds each Fraction key of the result once.  Keys from
outside are reduced into [0, 1) once, on the way in.
"""

from __future__ import annotations

import cmath
import json as _json
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

from .errors import frozen, json_int
from .numth import euler_phi, unit_group_generators
from .witt import Combination, WittElement, from_primitive_basis, ghost


def _residue(p: int, q: int) -> tuple[int, int]:
    """The class of p/q in Q/Z (q >= 1) as the reduced residue (a, n)."""
    p %= q
    d = gcd(p, q)
    return p // d, q // d


def _fraction(g) -> Fraction:
    """Fraction(g) for a symbol g given from outside; a zero denominator is a ValueError."""
    try:
        return Fraction(g)
    except ZeroDivisionError:
        raise ValueError(f"a symbol of Q/Z needs a nonzero denominator, got {g!r}") from None


def _symbol(g) -> tuple[int, int]:
    """The reduced residue of a symbol g given from outside."""
    q = _fraction(g)
    return _residue(q.numerator, q.denominator)


@frozen
class GroupRingElt(Combination):
    """A finitely supported integer function on Q/Z, under convolution."""

    items: tuple[tuple[Fraction, int], ...]

    @staticmethod
    def from_terms(terms: Mapping[Fraction, int]) -> "GroupRingElt":
        return GroupRingElt._merged((_symbol(g), int(c)) for g, c in terms.items())

    @staticmethod
    def e(g) -> "GroupRingElt":
        """The basis symbol of the class of g in Q/Z."""
        return GroupRingElt(((Fraction(*_symbol(g)), 1),))

    @property
    def terms(self) -> dict[Fraction, int]:
        return dict(self.items)

    def coefficient(self, g) -> int:
        return dict(self._merge_pairs()).get(_symbol(g), 0)

    def _merge_pairs(self):
        return (((g.numerator, g.denominator), c) for g, c in self.items)

    @classmethod
    def _from_sums(cls, sums: dict) -> "GroupRingElt":
        # a/n < b/m exactly when a (L/n) < b (L/m), for L the lcm of the orders
        keys = [key for key, c in sums.items() if c]
        order = lcm(*{n for _, n in keys})
        keys.sort(key=lambda key: key[0] * (order // key[1]))
        return cls(tuple((Fraction(a, n), sums[a, n]) for a, n in keys))

    def _product(self, other: "GroupRingElt") -> "GroupRingElt":
        # e(a/n) e(b/m) = e((a m + b n) / (n m))
        ys = [(h.numerator, h.denominator, ch) for h, ch in other.items]
        return self._merged(
            (_residue(a * m + b * n, n * m), ca * cb)
            for (a, n), ca in self._merge_pairs()
            for b, m, cb in ys
        )

    def torsion_lcm(self) -> int:
        """lcm of the orders of the support (1 for the zero element)."""
        return lcm(*(g.denominator for g, _ in self.items))

    def to_json(self) -> str:
        return _json.dumps(
            {f"{g.numerator}/{g.denominator}": c for g, c in self.items}, sort_keys=True
        )

    @staticmethod
    def from_json(text: str) -> "GroupRingElt":
        data = _json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("group ring JSON must be an object {'a/b': coefficient}")
        return GroupRingElt.from_terms({_fraction(k): json_int(c) for k, c in data.items()})


def sigma(n: int, x: GroupRingElt) -> GroupRingElt:
    """Ring endomorphism e(g) -> e(n g); colliding images accumulate."""
    if n < 1:
        raise ValueError("sigma index must be >= 1")
    return GroupRingElt._merged((_residue(n * a, m), c) for (a, m), c in x._merge_pairs())


def rho_tilde(n: int, x: GroupRingElt) -> GroupRingElt:
    """Additive map e(g) -> sum of the n preimages of g under multiplication by n."""
    if n < 1:
        raise ValueError("rho index must be >= 1")
    # The preimages of a/b are (a + j b)/(n b) for j = 0..n-1, all in [0, 1).
    return GroupRingElt._merged(
        (_residue(a + j * b, n * b), c) for (a, b), c in x._merge_pairs() for j in range(n)
    )


def act_unit(u: int, x: GroupRingElt) -> GroupRingElt:
    """Automorphism of Q/Z induced by a unit u: g -> u g (u coprime to all orders)."""
    pairs = list(x._merge_pairs())
    for (_, n), _ in pairs:
        if gcd(u, n) != 1:
            raise ValueError(f"{u} is not a unit modulo the order {n}")
    # u a stays prime to n, so no reduction is needed
    return GroupRingElt._merged(((u * a % n, n), c) for (a, n), c in pairs)


def is_invariant(x: GroupRingElt) -> bool:
    """Whether x is fixed by every automorphism of Q/Z.

    On support of bounded torsion N the automorphism group acts through
    (Z/NZ)^x, so it suffices to check a generating set of that unit group.
    """
    terms = dict(x._merge_pairs())
    # u fixes x when relabelling its symbols by u leaves the key -> coefficient dict as it was
    return all(
        {(u * a % n, n): c for (a, n), c in terms.items()} == terms
        for u in unit_group_generators(x.torsion_lcm())
    )


def witt_to_groupring(w: WittElement) -> GroupRingElt:
    """C(k) -> sum of all k-torsion symbols, extended additively."""
    return GroupRingElt._merged((_residue(j, k), c) for k, c in w.items for j in range(k))


def groupring_to_witt(x: GroupRingElt) -> WittElement:
    """Inverse identification, defined on invariant elements only.

    The coefficient of the primitive basis element rho(n) is read off the
    symbol e(1/n) (e(0) for n = 1); invariance makes that well defined.
    """
    if not is_invariant(x):
        raise ValueError("only invariant group-ring elements correspond to Witt elements")
    prim: dict[int, int] = {}
    for g, c in x.items:
        n = g.denominator
        if n == 1 or g.numerator == 1:
            prim[n] = c
    w = from_primitive_basis(prim)
    if witt_to_groupring(w) != x:
        raise ValueError("invariant element did not round-trip; inconsistent input")
    return w


def fourier(x: GroupRingElt, n: int) -> complex:
    """Floating-point character sum: sum of coeff * exp(2 pi i n g)."""
    return sum(c * cmath.exp(2j * cmath.pi * n * float(g)) for g, c in x.items)


def ghost_invariant(x: GroupRingElt, n: int) -> int:
    """Exact integer value of the n-th character sum of an invariant element."""
    return ghost(groupring_to_witt(x), n)


def primitive_orbit_sum(n: int) -> GroupRingElt:
    """The invariant sum rho(n) of all primitive n-torsion symbols."""
    if n < 1:
        raise ValueError("torsion order must be >= 1")
    x = GroupRingElt(tuple((Fraction(a, n), 1) for a in range(n) if gcd(a, n) == 1))
    assert len(x.items) == (euler_phi(n) if n > 1 else 1)
    return x


__all__ = [
    "GroupRingElt",
    "sigma",
    "rho_tilde",
    "act_unit",
    "is_invariant",
    "witt_to_groupring",
    "groupring_to_witt",
    "fourier",
    "ghost_invariant",
    "primitive_orbit_sum",
]
