"""Simplicial engine for a morphism phi: A -> B of finite abelian groups.

The two-term chain complex A -> B corresponds, under Dold-Kan, to a
simplicial abelian group whose n-th level is B x A^n.  Both the levels and
the structure maps are realized through a functor on pairs of pointed sets:
an element is a function on the non-base points of a pair (X, Y), valued in A
off Y and in B on Y, and a map of pairs acts by fibrewise sums, applying phi
when an A-value lands on Y.  The simplicial operator of a monotone map theta
is the pair map of its interval dual, so faces, degeneracies and all their
identities come from one code path.

Homotopy groups are computed by brute force, one routine for every degree n:
spherical n-simplices are enumerated, the one-step relation from level n+1 is
tabulated and checked to be an equivalence, and the isomorphism class of the
quotient group is read off its addition table.  The expected answers are
pi_0 = coker phi, pi_1 = ker phi, nothing above.  That enumeration runs on
element indices, with addition, phi and every face compiled into lookup
tables once per call, and searches each level depth-first, testing every
face slot as soon as its sources are assigned; the element objects above
stay as the small-group oracle the compiled faces are tested against, and
the filter form (every tuple of the level, then its faces) as the oracle of
the search.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

from .errors import DEFAULT_CAP, CapExceeded, frozen, json_array, json_int
from .smith import group_divisors_from_table


@frozen
class FiniteAbelianGroup:
    """Product of cyclic groups Z/m_i with m_i >= 2; elements are residue tuples."""

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(m < 2 for m in self.orders):
            raise ValueError("cyclic orders must be >= 2 (the trivial group is the empty product)")

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    @property
    def rank(self) -> int:
        return len(self.orders)

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def add(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.orders))

    def scalar(self, n: int, a: Sequence[int]) -> tuple[int, ...]:
        return tuple((n * x) % m for x, m in zip(a, self.orders))

    def elements(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(range(m) for m in self.orders))


@frozen
class GroupHom:
    """A homomorphism between finite abelian groups, by generator images.

    matrix[i] is the image of the i-th domain generator; well-definedness
    demands that m_i times that image vanish in the codomain.
    """

    domain: FiniteAbelianGroup
    codomain: FiniteAbelianGroup
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.matrix) != self.domain.rank:
            raise ValueError("one image row per domain generator is required")
        for m_i, row in zip(self.domain.orders, self.matrix):
            if len(row) != self.codomain.rank:
                raise ValueError("image rows must match the codomain rank")
            if any((m_i * x) % n != 0 for x, n in zip(row, self.codomain.orders)):
                raise ValueError(f"generator of order {m_i} mapped to an element whose order does not divide it")

    def apply(self, a: Sequence[int]) -> tuple[int, ...]:
        out = self.codomain.zero()
        for coeff, row in zip(a, self.matrix):
            out = self.codomain.add(out, self.codomain.scalar(coeff, row))
        return out

    @staticmethod
    def zero_map(domain: FiniteAbelianGroup, codomain: FiniteAbelianGroup) -> "GroupHom":
        return GroupHom(domain, codomain, tuple(codomain.zero() for _ in range(domain.rank)))

    @staticmethod
    def identity(group: FiniteAbelianGroup) -> "GroupHom":
        rows = tuple(
            tuple(1 if i == j else 0 for j in range(group.rank)) for i in range(group.rank)
        )
        return GroupHom(group, group, rows)

    def to_json_dict(self) -> dict:
        return {
            "domain": list(self.domain.orders),
            "codomain": list(self.codomain.orders),
            "matrix": [list(row) for row in self.matrix],
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "GroupHom":
        domain = FiniteAbelianGroup(tuple(json_int(m) for m in json_array(data["domain"])))
        codomain = FiniteAbelianGroup(tuple(json_int(n) for n in json_array(data["codomain"])))
        matrix = tuple(tuple(json_int(x) for x in json_array(row)) for row in json_array(data["matrix"]))
        return GroupHom(domain, codomain, matrix)


@frozen
class PairOfPointedSets:
    """A pointed set {0, ..., size} with a marked subset containing the base point."""

    size: int
    marked: frozenset[int]

    def __post_init__(self) -> None:
        if 0 not in self.marked:
            raise ValueError("the marked subset must contain the base point")
        if any(x < 0 or x > self.size for x in self.marked):
            raise ValueError("marked point out of range")


@frozen
class PairMap:
    """A pointed map sending the marked subset into the marked subset."""

    src: PairOfPointedSets
    dst: PairOfPointedSets
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.src.size + 1 or self.images[0] != 0:
            raise ValueError("a pair map must be a pointed map on all points")
        if any(y < 0 or y > self.dst.size for y in self.images):
            raise ValueError("image out of range")
        if any(self.images[x] not in self.dst.marked for x in self.src.marked):
            raise ValueError("a pair map must send marked points to marked points")


@frozen
class HPhiElement:
    """A function on the non-base points of a pair: A-valued off the marked
    subset, B-valued on it."""

    hom: GroupHom
    pair: PairOfPointedSets
    values: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.pair.size:
            raise ValueError("one value per non-base point is required")
        for x, v in enumerate(self.values, start=1):
            expected = self.hom.codomain.rank if x in self.pair.marked else self.hom.domain.rank
            if len(v) != expected:
                raise ValueError(f"value at point {x} has the wrong rank")


def _push(hom: GroupHom, f: PairMap, values: Sequence[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """The values of h_phi_map(f, psi) from the bare values of psi."""
    a_grp, b_grp = hom.domain, hom.codomain
    out: list[tuple[int, ...]] = [
        b_grp.zero() if y in f.dst.marked else a_grp.zero() for y in range(1, f.dst.size + 1)
    ]
    for x, value in enumerate(values, start=1):
        y = f.images[x]
        if y == 0:
            continue
        if y in f.dst.marked:
            pushed = value if x in f.src.marked else hom.apply(value)
            out[y - 1] = b_grp.add(out[y - 1], pushed)
        else:
            out[y - 1] = a_grp.add(out[y - 1], value)
    return tuple(out)


def h_phi_map(f: PairMap, psi: HPhiElement) -> HPhiElement:
    """Push a function forward along a map of pairs.

    At an unmarked target point the preimage values (all A-valued) are summed
    in A; at a marked target point every preimage value is first pushed to B
    (phi on A-values, identity on B-values) and summed there.  Mass on the
    base point is discarded.
    """
    if psi.pair != f.src:
        raise ValueError("element does not live on the source of the map")
    return HPhiElement(psi.hom, f.dst, _push(psi.hom, f, psi.values))


# ---------------------------------------------------------------------------
# The simplicial object: levels indexed by n, level n living on the pair
# ({0,...,n+1}, {0, n+1}).  Points 1..n carry A-values, point n+1 the B-value.
# ---------------------------------------------------------------------------


def simplex_pair(n: int) -> PairOfPointedSets:
    if n < 0:
        raise ValueError("simplicial degree must be nonnegative")
    return PairOfPointedSets(n + 1, frozenset({0, n + 1}))


def _check_monotone(theta: Sequence[int], n: int) -> None:
    if not theta:
        raise ValueError("a monotone map needs a nonempty domain")
    if any(theta[i] > theta[i + 1] for i in range(len(theta) - 1)):
        raise ValueError("the map is not monotone")
    if theta[0] < 0 or theta[-1] > n:
        raise ValueError("the map does not land in the stated codomain")


@lru_cache(maxsize=None)
def dual_pair_map(theta: Sequence[int], n: int) -> PairMap:
    """The pair map induced on simplex pairs by a monotone theta: [m] -> [n].

    The dual sends i in {0,...,n+1} to the least k with theta(k) >= i (and to
    the top element when there is none); it always fixes bottom and top.
    """
    _check_monotone(theta, n)
    m = len(theta) - 1
    images = []
    for i in range(n + 2):
        k = next((k for k in range(m + 1) if theta[k] >= i), m + 1)
        images.append(k)
    return PairMap(simplex_pair(n), simplex_pair(m), tuple(images))


def coface(j: int, n: int) -> tuple[int, ...]:
    """delta_j: [n-1] -> [n], the injection missing j."""
    if n < 1 or j < 0 or j > n:
        raise ValueError("coface index out of range")
    return tuple(k if k < j else k + 1 for k in range(n))


def codegeneracy(j: int, n: int) -> tuple[int, ...]:
    """sigma_j: [n+1] -> [n], the surjection hitting j twice."""
    if j < 0 or j > n:
        raise ValueError("codegeneracy index out of range")
    return tuple(k if k <= j else k - 1 for k in range(n + 2))


@frozen
class LevelDescriptor:
    """Level n of the simplicial group: the product B x A^n."""

    hom: GroupHom
    n: int

    @property
    def size(self) -> int:
        return self.hom.codomain.order * self.hom.domain.order**self.n

    def element(self, a_values: Sequence[Sequence[int]], b_value: Sequence[int]) -> HPhiElement:
        values = tuple(tuple(v) for v in a_values) + (tuple(b_value),)
        return HPhiElement(self.hom, simplex_pair(self.n), values)

    def zero(self) -> HPhiElement:
        values = (self.hom.domain.zero(),) * self.n + (self.hom.codomain.zero(),)
        return HPhiElement(self.hom, simplex_pair(self.n), values)

    def elements(self, cap: int = DEFAULT_CAP) -> Iterator[HPhiElement]:
        """Every element of the level: A-values at points 1..n, then the B-value."""
        _check_level_cap(self.hom, self.n, cap)
        pair = simplex_pair(self.n)
        for a_values in itertools.product(self.hom.domain.elements(), repeat=self.n):
            for b in self.hom.codomain.elements():
                yield HPhiElement(self.hom, pair, a_values + (b,))


def _check_level_cap(hom: GroupHom, n: int, cap: int) -> None:
    size = LevelDescriptor(hom, n).size
    if size > cap:
        raise CapExceeded(f"level {n} has {size} elements, above the cap of {cap}")


def simplicial_level(hom: GroupHom, n: int) -> LevelDescriptor:
    if n < 0:
        raise ValueError("simplicial degree must be nonnegative")
    return LevelDescriptor(hom, n)


def simplicial_map(theta: Sequence[int], n: int, element: HPhiElement) -> HPhiElement:
    """Act by a monotone theta: [m] -> [n] on a level-n element."""
    if element.pair != simplex_pair(n):
        raise ValueError("element is not at the stated level")
    return h_phi_map(dual_pair_map(tuple(theta), n), element)


def boundary(j: int, element: HPhiElement) -> HPhiElement:
    n = element.pair.size - 1
    return simplicial_map(coface(j, n), n, element)


def degeneracy(j: int, element: HPhiElement) -> HPhiElement:
    n = element.pair.size - 1
    return simplicial_map(codegeneracy(j, n), n, element)


# ---------------------------------------------------------------------------
# Brute-force homotopy.
# ---------------------------------------------------------------------------


@frozen
class HomotopyGroups:
    """Elementary divisors of pi_0 and pi_1 and triviality flags above."""

    pi0: tuple[int, ...]
    pi1: tuple[int, ...]
    higher_trivial: tuple[tuple[int, bool], ...]

    @property
    def higher(self) -> dict[int, bool]:
        return dict(self.higher_trivial)


def _quotient_divisors(elements: list, relation: set, add, zero) -> tuple[int, ...]:
    """Isomorphism class of the quotient of a finite abelian group by a
    relation, asserted to be an equivalence compatible with addition."""
    related: dict = {e: set() for e in elements}
    for x, y in relation:
        related[x].add(y)
    if any(e not in related[e] for e in elements):
        raise AssertionError("homotopy relation is not reflexive")
    if any(x not in related[y] for x, ys in related.items() for y in ys):
        raise AssertionError("homotopy relation is not symmetric")
    if any(not related[y] <= ys for ys in related.values() for y in ys):
        raise AssertionError("homotopy relation is not transitive")
    # In an equivalence relation the class of e is the set related to e.
    class_index: dict = {}
    class_of = {e: class_index.setdefault(frozenset(related[e]), len(class_index)) for e in elements}
    # Quotient addition, with an exhaustive well-definedness check.
    table: dict[tuple[int, int], int] = {}
    for a in elements:
        for b in elements:
            key = (class_of[a], class_of[b])
            value = class_of[add(a, b)]
            if table.setdefault(key, value) != value:
                raise AssertionError("homotopy relation is not compatible with addition")

    def class_add(i: int, j: int) -> int:
        return table[(i, j)]

    return tuple(group_divisors_from_table(range(len(class_index)), class_add, class_of[zero]))


def _add_table(orders: tuple[int, ...]) -> list[list[int]]:
    """Addition of a product of cyclic groups on element indices, the index of
    an element being its position in `elements()` (mixed radix, last
    coordinate fastest)."""
    table, size = [[0]], 1
    for m in reversed(orders):
        # Prepend a factor Z/m: index d * size + i, digits added mod m.
        table = [[(d + e) % m * size + t for e in range(m) for t in row] for d in range(m) for row in table]
        size *= m
    return table


def _element_index(orders: Sequence[int], value: Sequence[int]) -> int:
    i = 0
    for m, x in zip(orders, value):
        i = i * m + x
    return i


class _IndexedHom:
    """The index form of hom that homotopy_groups runs on.

    Elements of A and B are numbered in `elements()` order, so a level-n
    element is a tuple of n A-indices and one B-index, listed in the order of
    LevelDescriptor.elements (0 is the zero of both groups).  A and B
    addition and phi are lookup tables, and each face is compiled from its
    pair map into one plan per target slot: the addition table of that slot
    and the (source slot, apply phi) pairs summed into it.
    """

    def __init__(self, hom: GroupHom) -> None:
        self.hom = hom
        self.a_add = _add_table(hom.domain.orders)
        self.b_add = _add_table(hom.codomain.orders)
        self.phi = [_element_index(hom.codomain.orders, hom.apply(a)) for a in hom.domain.elements()]
        self._faces: dict[int, list] = {}

    def level(self, n: int) -> Iterator[tuple[int, ...]]:
        """Every level-n index tuple, in level order.  With vanishes, the
        filter form of the search in _vanishing, kept as its oracle."""
        return itertools.product(*[range(self.hom.domain.order)] * n, range(self.hom.codomain.order))

    def faces(self, n: int) -> list:
        """The compiled faces d_0..d_n of level n, compiled once per instance."""
        if n not in self._faces:
            self._faces[n] = [self._compile(dual_pair_map(coface(j, n), n)) for j in range(n + 1)]
        return self._faces[n]

    def _compile(self, f: PairMap) -> tuple:
        slots = []
        for y in range(1, f.dst.size + 1):
            sources = tuple(
                (x - 1, y in f.dst.marked and x not in f.src.marked)
                for x in range(1, f.src.size + 1)
                if f.images[x] == y
            )
            slots.append((self.b_add if y in f.dst.marked else self.a_add, sources))
        return tuple(slots)

    def push(self, plan, v: tuple[int, ...]) -> tuple[int, ...]:
        """A compiled face applied to a level element."""
        phi = self.phi
        out = []
        for add, sources in plan:
            acc = 0
            for x, through_phi in sources:
                acc = add[acc][phi[v[x]] if through_phi else v[x]]
            out.append(acc)
        return tuple(out)

    def vanishes(self, plans, v: tuple[int, ...]) -> bool:
        """Whether no compiled face in plans pushes v to a nonzero tuple: the
        per-tuple test of the filter form, which the search in _vanishing is
        checked against."""
        return not any(any(self.push(plan, v)) for plan in plans)

    def adder(self, n: int):
        """Addition on level n."""
        tables = (self.a_add,) * n + (self.b_add,)
        return lambda x, y: tuple(t[u][w] for t, u, w in zip(tables, x, y))


def _vanishing(ix: _IndexedHom, n: int, plans) -> list[tuple[int, ...]]:
    """The level-n index tuples on which every compiled face in plans
    vanishes, in level order: a depth-first search that is the same list as
    [v for v in ix.level(n) if ix.vanishes(plans, v)].

    Slots 0..n are assigned left to right (the n A-indices, then the
    B-index), so tuples come out in itertools.product order.  Each face slot
    is tested once its last source slot is assigned, and a branch is dropped
    at the first nonzero one; a face slot without sources is always zero and
    never tested.  An odometer, so that it holds no reference cycle.
    """
    sizes = [ix.hom.domain.order] * n + [ix.hom.codomain.order]
    # tests[d]: the face slots whose last source slot is d.
    tests: list[list] = [[] for _ in range(n + 1)]
    for plan in plans:
        for add, sources in plan:
            if sources:
                tests[max(x for x, _ in sources)].append((add, sources))
    phi = ix.phi
    out = []
    v = [0] * (n + 1)
    d = 0
    while True:
        for add, sources in tests[d]:
            acc = 0
            for x, through_phi in sources:
                acc = add[acc][phi[v[x]] if through_phi else v[x]]
            if acc:
                break
        else:
            if d == n:
                out.append(tuple(v))
            else:
                d += 1
                v[d] = 0
                continue
        # Advance the odometer: the next value at slot d, backing up past
        # the slots whose values are used up.
        v[d] += 1
        while v[d] == sizes[d]:
            d -= 1
            if d < 0:
                return out
            v[d] += 1


def _spherical(ix: _IndexedHom, n: int) -> list:
    """Level-n index tuples whose n+1 faces all vanish (every vertex at n = 0)."""
    return _vanishing(ix, n, ix.faces(n) if n else ())


def _pi(ix: _IndexedHom, n: int) -> tuple[int, ...]:
    """pi_n as elementary divisors: spherical n-simplices modulo x ~ y whenever
    x = d_n z and y = d_{n+1} z for an (n+1)-simplex z with d_i z = 0, i < n."""
    spherical = _spherical(ix, n)
    spherical_set = set(spherical)
    faces = ix.faces(n + 1)
    d_n, d_n1 = faces[n], faces[n + 1]
    relation: set = set()
    for z in _vanishing(ix, n + 1, faces[:n]):
        x, y = ix.push(d_n, z), ix.push(d_n1, z)
        if x in spherical_set and y in spherical_set:
            relation.add((x, y))
    return _quotient_divisors(spherical, relation, ix.adder(n), (0,) * (n + 1))


def homotopy_groups(hom: GroupHom, n_max: int = 3, cap: int = DEFAULT_CAP) -> HomotopyGroups:
    """pi_0, pi_1 (as elementary divisors) and triviality flags for 2..n_max.

    Levels are searched depth-first on index tuples through the lookup
    tables of _IndexedHom, each face slot tested as soon as its last source
    slot is assigned, so a branch ends at its first nonzero face slot; the
    one-step relation between spherical simplices is tabulated from the
    level above and asserted to be an equivalence relation before
    quotienting (it is, for simplicial abelian groups).  The cap bounds the
    size |B| |A|^n of every level it searches, 0..max(2, n_max), not the
    number of tuples visited, and is checked before any table is built or
    level searched.
    """
    for n in range(max(2, n_max) + 1):
        _check_level_cap(hom, n, cap)
    ix = _IndexedHom(hom)
    pi0 = _pi(ix, 0)
    pi1 = _pi(ix, 1)
    higher = tuple((n, len(_spherical(ix, n)) == 1) for n in range(2, n_max + 1))
    return HomotopyGroups(pi0=pi0, pi1=pi1, higher_trivial=higher)
