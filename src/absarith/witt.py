"""The Witt ring of pointed-set endomorphisms, in the cyclic basis.

Elements are finite integer combinations of the classes of cyclic
permutations C(k); the class of an arbitrary endomorphism is the cycle type
of the permutation induced on its eventual image.  The n-th ghost component
(trace of the n-th power) is sum over k | n of k * m(k), a ring homomorphism
to Z for each n, and determines the element by Mobius inversion:

    m(k) = (1/k) * sum over d | k of mu(k/d) * ghost(d).

That sum is the definition; it is computed along multiples, with no Mobius
function: ghost_vector adds k * m(k) to the components at the multiples of
k, and from_ghost walks its index upward, reading k * m(k) off what is left
at k and taking it from every multiple of k.

Multiplication is C(a) * C(b) = gcd(a,b) * C(lcm(a,b)) extended bilinearly,
which makes the ghost components multiply pointwise.  The Frobenius operator
raises the endomorphism to a power, splitting C(k) into gcd(n,k) cycles of
length k/gcd(n,k); the Verschiebung operator is the odometer C(k) -> C(nk).

Combination is the additive core this ring shares with its copy inside
Z[Q/Z] (group_ring): an element is the sorted tuple of its (key, nonzero
coefficient) pairs.  Every linear operator of either ring lists the pairs of
its result and merges them once; the two products sum theirs in place.
"""

from __future__ import annotations

import json as _json
from itertools import chain
from math import gcd
from typing import Iterator, Mapping

from .errors import frozen, json_int, json_key
from .gamma_core import PointedEndo, cycle_type
from .numth import divisors, factorize


class Combination:
    """A finite integer combination of basis keys: the one merge and the
    additive methods of WittElement and group_ring.GroupRingElt.

    A subclass is a frozen class whose one field, items, holds its (key,
    nonzero coefficient) pairs sorted by key.  It adds only the check or
    reduction of keys given from outside and _product, the product of two
    elements.  The merge, which every linear operator ends in, sums
    coefficients under equal keys, drops zeros and sorts (_from_sums).
    _product sums its pairs of terms into a dict in place and hands it to
    _from_sums, as a generator and a merge call per pair cost more than the
    sum.
    """

    @classmethod
    def _merged(cls, pairs):
        """The element of the (key, coefficient) pairs: equal keys summed,
        zeros dropped, sorted."""
        out: dict = {}
        for k, c in pairs:
            out[k] = out.get(k, 0) + c
        return cls._from_sums(out)

    @classmethod
    def _from_sums(cls, sums: Mapping):
        return cls(tuple(sorted((k, c) for k, c in sums.items() if c)))

    @classmethod
    def zero(cls):
        return cls(())

    def __add__(self, other):
        return self._merged(chain(self.items, other.items))

    def __rmul__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        # a nonzero multiple keeps every key and nonzero coefficient
        return self.__class__(tuple((k, n * c) for k, c in self.items)) if n else self.zero()

    def __mul__(self, other):
        if isinstance(other, int):
            return self.__rmul__(other)
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._product(other)


@frozen
class WittElement(Combination):
    """An integer combination of cyclic-permutation classes, keyed by order.

    Zero coefficients are dropped, so equality is structural.  Negative
    coefficients are allowed: the ring consists of formal differences.
    """

    items: tuple[tuple[int, int], ...]

    @staticmethod
    def from_coeffs(coeffs: Mapping[int, int]) -> "WittElement":
        for k, c in coeffs.items():
            if type(k) is not int or type(c) is not int:
                raise ValueError(f"cycle lengths and coefficients must be integers, got {k!r}: {c!r}")
        bad = [k for k in coeffs if k < 1]
        if bad:
            raise ValueError(f"cycle length must be a positive integer, got {min(bad)}")
        return WittElement._from_sums(coeffs)

    @staticmethod
    def basis(k: int) -> "WittElement":
        """The class of the cyclic permutation of order k."""
        if k < 1:
            raise ValueError("cycle order must be >= 1")
        return WittElement(((k, 1),))

    def _product(self, other: "WittElement") -> "WittElement":
        # C(a) C(b) = gcd(a, b) C(lcm(a, b)), and lcm(a, b) = a // gcd(a, b) * b,
        # summed in place: no generator, tuple or merge call per pair.
        out: dict[int, int] = {}
        get = out.get
        for a, ca in self.items:
            for b, cb in other.items:
                g = gcd(a, b)
                k = a // g * b
                out[k] = get(k, 0) + ca * cb * g
        return self._from_sums(out)

    @staticmethod
    def from_json(text: str) -> "WittElement":
        data = _json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("Witt element JSON must be an object {cycle length: coefficient}")
        return WittElement.from_coeffs({json_key(k): json_int(c) for k, c in data.items()})


def tau(t: PointedEndo) -> WittElement:
    """Universal additive invariant: the cycle type of t on its eventual image."""
    return WittElement.from_coeffs(cycle_type(t))


def ghost(w: WittElement, n: int) -> int:
    """n-th ghost component: sum over k | n of k * m(k); equals trace(T^n)."""
    if n < 1:
        raise ValueError("ghost components are indexed by positive integers")
    return sum(k * c for k, c in w.items if n % k == 0)


def ghost_vector(w: WittElement, n_max: int) -> dict[int, int]:
    """Ghost components on the divisor-closed set of divisors of 1..n_max."""
    values = dict.fromkeys(range(1, n_max + 1), 0)
    for k, c in w.items:
        for n in range(k, n_max + 1, k):
            values[n] += k * c
    return values


def from_ghost(values: Mapping[int, int]) -> WittElement:
    """Recover the element from its ghost components by Mobius inversion.

    values must be given on a divisor-closed index set; a ghost vector that
    does not invert to integer coefficients is rejected as inconsistent.

    The index is walked upward.  What is left at k, once k' * m(k') has been
    taken from it for each proper divisor k' of k, is sum over d | k of
    mu(k/d) * ghost(d): ghost(n) is the sum of k * m(k) over k | n, and
    Mobius inversion of that sum on the divisors of k leaves k * m(k).  So the
    first k that does not divide what is left at k is the first k that does
    not divide its Mobius sum, and the error names that sum.
    """
    index = sorted(values)
    top = index[-1] if index else 0
    if index and index[0] < 1:
        raise ValueError("ghost indices must be positive integers")
    # len(index) positive integers up to len(index) are 1..len(index): closed.
    # Otherwise n // p for each prime p | n suffices, from the bottom up: the
    # first index that lacks one is the smallest that lacks a divisor.
    if top != len(index):
        for n in index:
            if any(n // p not in values for p in factorize(n)):
                missing = [d for d in divisors(n) if d not in values]
                raise ValueError(f"ghost vector not divisor-closed: index {n} lacks divisors {missing}")
    rest = dict(values)
    coeffs: dict[int, int] = {}
    for k in index:
        r = rest[k]
        if r % k != 0:
            raise ValueError(f"inconsistent ghost vector: Mobius sum at {k} is {r}, not divisible by {k}")
        if r:
            coeffs[k] = r // k
            for m in _multiples(k, top, rest):
                rest[m] -= r
    return WittElement.from_coeffs(coeffs)


def _multiples(k: int, top: int, keys: Mapping[int, int]) -> Iterator[int]:
    """The keys above k that k divides, for keys none above top: by stepping
    up to top, or by a scan of the keys where they are fewer than the steps,
    as on a sparse index with a huge key."""
    if top // k <= len(keys):
        return (m for m in range(2 * k, top + 1, k) if m in keys)
    return (m for m in keys if m > k and m % k == 0)


def frobenius(n: int, w: WittElement) -> WittElement:
    """Frobenius operator T -> T^n: C(k) -> gcd(n,k) copies of C(k/gcd(n,k))."""
    if n < 1:
        raise ValueError("Frobenius index must be >= 1")
    return WittElement._merged((k // (g := gcd(n, k)), c * g) for k, c in w.items)


def verschiebung(n: int, w: WittElement) -> WittElement:
    """Verschiebung operator (odometer): C(k) -> C(nk)."""
    if n < 1:
        raise ValueError("Verschiebung index must be >= 1")
    return WittElement(tuple((n * k, c) for k, c in w.items))


def to_primitive_basis(w: WittElement) -> dict[int, int]:
    """Coefficients in the primitive basis rho, where C(n) = sum over u | n of rho(u)."""
    return dict(WittElement._merged((u, c) for k, c in w.items for u in divisors(k)).items)


def from_primitive_basis(prim: Mapping[int, int]) -> WittElement:
    """Inverse change of basis: rho(u) = sum over d | u of mu(u/d) * C(d).

    Since C(n) = sum over u | n of rho(u), the coefficient of C(k) is the
    coefficient of rho(k) less those of C(m) over the proper multiples m of
    k, so a walk down the divisor closure of the keys reads each in turn.
    """
    if any(u < 1 for u in prim):
        raise ValueError("primitive basis indices must be positive integers")
    closure = sorted({d for u in prim for d in divisors(u)}, reverse=True)
    top = closure[0] if closure else 0
    found: dict[int, int] = {}  # the nonzero coefficients so far, all above k
    for k in closure:
        c = prim.get(k, 0) - sum(found[m] for m in _multiples(k, top, found))
        if c:
            found[k] = c
    return WittElement._from_sums(found)
