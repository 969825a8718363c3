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
methods.  A symbol a/n is keyed by its reduced residue, the pair (a, n) with
0 <= a < n and gcd(a, n) = 1, so items are ((a, n), c) pairs in the plain
sorted order of those pairs, and the operators map such pairs.  A key from
outside is read as a Fraction and reduced into [0, 1) once, on the way in.
The linear operators end in the merge; the product reduces and sums its
pairs of symbols in place.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

from .errors import SelfCheckFailed, frozen
from .numth import euler_phi
from .witt import Combination, WittElement, from_primitive_basis


def _residue(p: int, q: int) -> tuple[int, int]:
    """The class of p/q in Q/Z (q >= 1) as the reduced residue (a, n)."""
    p %= q
    d = gcd(p, q)
    return p // d, q // d


def _symbol(g) -> tuple[int, int]:
    """The reduced residue of a symbol g given from outside; a zero
    denominator is a ValueError."""
    try:
        q = Fraction(g)
    except ZeroDivisionError:
        raise ValueError(f"a symbol of Q/Z needs a nonzero denominator, got {g!r}") from None
    return _residue(q.numerator, q.denominator)


@frozen
class GroupRingElt(Combination):
    """A finitely supported integer function on Q/Z, under convolution."""

    items: tuple[tuple[tuple[int, int], int], ...]

    @staticmethod
    def from_terms(terms: Mapping[Fraction, int]) -> "GroupRingElt":
        for c in terms.values():
            if type(c) is not int:
                raise ValueError(f"group-ring coefficients must be integers, got {c!r}")
        return GroupRingElt._merged((_symbol(g), c) for g, c in terms.items())

    @staticmethod
    def e(g) -> "GroupRingElt":
        """The basis symbol of the class of g in Q/Z."""
        return GroupRingElt(((_symbol(g), 1),))

    def _product(self, other: "GroupRingElt") -> "GroupRingElt":
        # e(a/n) e(b/m) = e((a m + b n) / (n m)), reduced as _residue does and
        # summed in place: no generator, helper or merge call per pair.
        out: dict[tuple[int, int], int] = {}
        get = out.get
        for (a, n), ca in self.items:
            for (b, m), cb in other.items:
                q = n * m
                p = (a * m + b * n) % q
                d = gcd(p, q)
                key = p // d, q // d
                out[key] = get(key, 0) + ca * cb
        return self._from_sums(out)

    def torsion_lcm(self) -> int:
        """lcm of the orders of the support (1 for the zero element)."""
        return lcm(*(n for (_, n), _ in self.items))


def sigma(n: int, x: GroupRingElt) -> GroupRingElt:
    """Ring endomorphism e(g) -> e(n g); colliding images accumulate."""
    if n < 1:
        raise ValueError("sigma index must be >= 1")
    return GroupRingElt._merged((_residue(n * a, m), c) for (a, m), c in x.items)


def rho_tilde(n: int, x: GroupRingElt) -> GroupRingElt:
    """Additive map e(g) -> sum of the n preimages of g under multiplication by n."""
    if n < 1:
        raise ValueError("rho index must be >= 1")
    # The preimages of a/b are (a + j b)/(n b) for j = 0..n-1, all in [0, 1).
    return GroupRingElt._merged(
        (_residue(a + j * b, n * b), c) for (a, b), c in x.items for j in range(n)
    )


def act_unit(u: int, x: GroupRingElt) -> GroupRingElt:
    """Automorphism of Q/Z induced by a unit u: g -> u g (u coprime to all orders)."""
    for (_, n), _ in x.items:
        if gcd(u, n) != 1:
            raise ValueError(f"{u} is not a unit modulo the order {n}")
    # u a stays prime to n, so no reduction is needed
    return GroupRingElt._merged(((u * a % n, n), c) for (a, n), c in x.items)


def _orbit_coefficients(x: GroupRingElt) -> dict[int, int] | None:
    """x in the basis of orbit sums rho(n), as {n: c_n}, or None if x is not
    invariant.  The units of Z/n permute the euler_phi(n) symbols of order n
    transitively, so each order n in the support must carry all of them
    under one coefficient c_n.  As 2 euler_phi(n)^2 >= n, n is factored only
    when its count k has 2 k^2 >= n, so e(1/N) alone is refused unfactored."""
    prim: dict[int, int] = {}
    counts: dict[int, int] = {}
    for (_, n), c in x.items:
        if prim.setdefault(n, c) != c:
            return None
        counts[n] = counts.get(n, 0) + 1
    return prim if all(2 * k * k >= n and k == euler_phi(n) for n, k in counts.items()) else None


def is_invariant(x: GroupRingElt) -> bool:
    """Whether x is fixed by every automorphism of Q/Z, that is, whether x
    is a combination of the orbit sums rho(n)."""
    return _orbit_coefficients(x) is not None


def witt_to_groupring(w: WittElement) -> GroupRingElt:
    """C(k) -> sum of all k-torsion symbols, extended additively."""
    return GroupRingElt._merged((_residue(j, k), c) for k, c in w.items for j in range(k))


def groupring_to_witt(x: GroupRingElt) -> WittElement:
    """Inverse identification, defined on invariant elements only: x is read
    in the basis rho(n) by the pass that decides is_invariant, which refuses
    any other x before anything is expanded; the round trip is a self-check."""
    prim = _orbit_coefficients(x)
    if prim is None:
        raise ValueError("only invariant group-ring elements correspond to Witt elements")
    w = from_primitive_basis(prim)
    if witt_to_groupring(w) != x:
        raise SelfCheckFailed(f"the Witt element {w!r} does not map back to the invariant element it came from")
    return w


__all__ = [
    "GroupRingElt",
    "sigma",
    "rho_tilde",
    "act_unit",
    "is_invariant",
    "witt_to_groupring",
    "groupring_to_witt",
]
