"""Shared deterministic random generators for the test suite."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd, prod

from absarith.arakelov import ArakelovDivisor, ScaleValue
from absarith.dold_kan import FiniteAbelianGroup, GroupHom
from absarith.gamma_core import PointedEndo
from absarith.group_ring import GroupRingElt
from absarith.witt import WittElement


def random_endo(rng: random.Random, max_size: int) -> PointedEndo:
    n = rng.randint(1, max_size)
    return PointedEndo((0,) + tuple(rng.randint(0, n) for _ in range(n)))


def random_witt(rng: random.Random, max_k: int = 12, max_coeff: int = 3, terms: int = 4) -> WittElement:
    coeffs = {}
    for _ in range(rng.randint(0, terms)):
        coeffs[rng.randint(1, max_k)] = rng.randint(-max_coeff, max_coeff)
    return WittElement.from_coeffs(coeffs)


def random_groupring(rng: random.Random, max_den: int = 8, max_coeff: int = 3, terms: int = 4) -> GroupRingElt:
    out = {}
    for _ in range(rng.randint(0, terms)):
        den = rng.randint(1, max_den)
        out[Fraction(rng.randint(0, den - 1), den)] = rng.randint(-max_coeff, max_coeff)
    return GroupRingElt.from_terms(out)


def symbol(g) -> GroupRingElt:
    """e(g), the basis symbol of the class of g in Q/Z."""
    return GroupRingElt.from_terms({g: 1})


def negated(d: ArakelovDivisor) -> ArakelovDivisor:
    """The divisor -d: every exponent and the archimedean exponent negated."""
    arch = ScaleValue.exact_exp(1 / d.arch.exact) if d.arch.is_exact else ScaleValue.from_log(-d.arch.log)
    return ArakelovDivisor(tuple((p, -a) for p, a in d.finite), arch)


def identity_hom(group: FiniteAbelianGroup) -> GroupHom:
    """The identity homomorphism of the group: generator i to generator i."""
    rows = tuple(tuple(1 if i == j else 0 for j in range(group.rank)) for i in range(group.rank))
    return GroupHom(group, group, rows)


def zero_hom(domain: FiniteAbelianGroup, codomain: FiniteAbelianGroup) -> GroupHom:
    """The homomorphism that sends every generator to zero."""
    return GroupHom(domain, codomain, tuple(codomain.zero() for _ in range(domain.rank)))


# Face checks and both routes of criterion 8 run on these maps.
FACE_HOMS = [
    identity_hom(FiniteAbelianGroup((2,))),
    zero_hom(FiniteAbelianGroup((2,)), FiniteAbelianGroup((2,))),
    identity_hom(FiniteAbelianGroup((4,))),
    zero_hom(FiniteAbelianGroup((4,)), FiniteAbelianGroup((4,))),
    identity_hom(FiniteAbelianGroup((2, 2))),
    GroupHom(FiniteAbelianGroup((2, 2)), FiniteAbelianGroup((2, 2)), ((0, 1), (1, 1))),
    GroupHom(FiniteAbelianGroup((4,)), FiniteAbelianGroup((8,)), ((2,),)),
    GroupHom(FiniteAbelianGroup((6,)), FiniteAbelianGroup((3,)), ((1,),)),
]


def random_abelian_group(rng: random.Random, max_order: int = 16) -> FiniteAbelianGroup:
    """A random product of cyclic groups with total order <= max_order."""
    orders: list[int] = []
    budget = max_order
    while budget >= 2 and rng.random() < 0.8:
        m = rng.randint(2, budget)
        orders.append(m)
        budget //= m
    return FiniteAbelianGroup(tuple(orders))


def random_hom(rng: random.Random, domain: FiniteAbelianGroup, codomain: FiniteAbelianGroup) -> GroupHom:
    """A uniformly random well-defined homomorphism between the given groups."""
    rows = []
    for m in domain.orders:
        row = []
        for n in codomain.orders:
            g = gcd(m, n)
            row.append((n // g) * rng.randint(0, g - 1) % n)
        rows.append(tuple(row))
    return GroupHom(domain, codomain, tuple(rows))


def small_groups(max_order: int) -> list[tuple[int, ...]]:
    """Every tuple of cyclic orders >= 2, nondecreasing, with product <= max_order."""
    out = [()]
    for orders in out:
        lo = orders[-1] if orders else 2
        out += [orders + (m,) for m in range(lo, max_order // prod(orders) + 1)]
    return out


def small_homs(max_order: int):
    """Every homomorphism between groups of small_groups(max_order): row i
    ranges over the images of a generator of order m_i."""
    groups = [FiniteAbelianGroup(orders) for orders in small_groups(max_order)]
    for a in groups:
        for b in groups:
            choices = [
                list(itertools.product(*(range(0, n, n // gcd(m, n)) for n in b.orders))) for m in a.orders
            ]
            for rows in itertools.product(*choices):
                yield GroupHom(a, b, rows)
