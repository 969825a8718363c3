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
quotient group is read off the element orders of its addition.  The expected
answers are pi_0 = coker phi, pi_1 = ker phi, nothing above.  That
enumeration runs on element indices, with addition and phi as lookup tables
and every face compiled once per level, and searches each level column by
column: the surviving tuples are held as one list per slot, every face slot
is tested over whole columns as soon as its sources are assigned, and faces
and sums are evaluated by C-level maps over the columns.  The quotient runs
on integer codes of the rows (mixed radix, the row's position in its
level), so no row tuple is built, checks addition on generators of the
spherical group, and adds two classes by adding the codes of their first
rows slot by slot through the level's addition tables.  The element objects
above stay as the small-group oracle the compiled faces are tested against;
the per-tuple push and adder (the oracles of the column forms), the filter
form of the search, the quotient checked on every pair and the addition
table built one factor at a time live with the tests
(tests/dold_kan_oracles.py).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from functools import lru_cache
from itertools import chain, compress, repeat
from operator import add, getitem, mul, not_
from typing import Iterator, Sequence

from .errors import DEFAULT_CAP, SelfCheckFailed, check_budget, frozen, json_array, json_int, json_object
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
            out = self.codomain.add(out, tuple(coeff * x for x in row))
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
        data = json_object(data, ("domain", "codomain", "matrix"), "a homomorphism")
        for key in ("domain", "codomain", "matrix"):
            if key not in data:
                raise ValueError(f"a homomorphism needs a {key!r} key")
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
    k = 0
    for i in range(n + 2):
        # theta is monotone, so the least k only moves up as i does.
        while k <= m and theta[k] < i:
            k += 1
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

    def elements(self) -> Iterator[HPhiElement]:
        """Every element of the level: A-values at points 1..n, then the B-value."""
        check_budget("level_elements", self.size, n=self.n)
        pair = simplex_pair(self.n)
        for a_values in itertools.product(self.hom.domain.elements(), repeat=self.n):
            for b in self.hom.codomain.elements():
                yield HPhiElement(self.hom, pair, a_values + (b,))


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


def _quotient_divisors(elements: list, relation, translate, add, zero) -> tuple[int, ...]:
    """Isomorphism class of the quotient of a finite abelian group by a
    relation, asserted to be an equivalence compatible with addition.

    Elements are hashable codes (homotopy_groups passes the integer codes of
    _row_codes), relation a collection of pairs of them, translate(g) the
    list of g + e for every element e, in order, and add(x, y) the code of
    one sum x + y.  Once the relation is reflexive, each element e is
    labelled by the set R(e) of elements related to it, and every related
    pair (x, y) must carry equal labels.  That is the same test as symmetry
    plus transitivity: R(x) = R(y) with y in R(y) and x in R(x) gives y ~ x,
    and z in R(y) gives x ~ z; conversely the labels of an equivalence are
    its classes.  It costs one pass over the relation, and only after a
    failure do the pairwise scans run, to name the property that fails.

    Compatibility with addition is checked on generators.  They are chosen
    greedily in element order: an element outside the span of those before
    it becomes a generator, and the span grows by its translates until they
    come back into it (the cosets of a subgroup are disjoint).  Each
    generator g gets one row of sums g + e, which must stay among the
    elements and must carry every class into one class.  That is the check
    on every pair, not a weaker one: translation by a sum of generators is
    the composite of their translations, and every element is such a sum
    (each ends in the span, and in a finite group -g is a multiple of g), so
    every translation carries classes into classes, which is a ~ a' =>
    a + b ~ a' + b; with b ~ b' and commutativity, a + b ~ a' + b'.  The
    sum of classes i and j is then the class of the sum of their first
    elements, one call of add each time group_divisors_from_table asks for
    it, so no row of sums is built per class; the quotient is read off its
    element orders, with no Smith form: that serves only the closed-form
    oracles, cokernel_divisors and kernel_divisors.
    """
    related: dict = {e: set() for e in elements}
    for x, y in relation:
        related[x].add(y)
    if any(e not in related[e] for e in elements):
        raise SelfCheckFailed("homotopy relation is not reflexive")
    class_index: dict = {}
    class_of = {e: class_index.setdefault(frozenset(related[e]), len(class_index)) for e in elements}
    if any(class_of[x] != class_of[y] for x, y in relation):
        if any(x not in related[y] for x, ys in related.items() for y in ys):
            raise SelfCheckFailed("homotopy relation is not symmetric")
        raise SelfCheckFailed("homotopy relation is not transitive")
    # Labels are numbered in order of first appearance; firsts[i] is the
    # position of the first element of class i.
    labels = list(map(class_of.__getitem__, elements))
    firsts = list(map(labels.index, range(len(class_index))))
    position = {e: p for p, e in enumerate(elements)}
    span = {position[zero]}
    for p, g in enumerate(elements):
        if p in span:
            continue
        row = translate(g)
        if not all(map(position.__contains__, row)):
            raise SelfCheckFailed("homotopy quotient's elements are not closed under addition")
        steps = list(map(position.__getitem__, row))
        sums = list(map(labels.__getitem__, steps))
        image = list(map(sums.__getitem__, firsts))
        if sums != list(map(image.__getitem__, labels)):
            raise SelfCheckFailed("homotopy relation is not compatible with addition")
        coset = list(span)
        while not span.issuperset(coset := list(map(steps.__getitem__, coset))):
            span.update(coset)
    representatives = list(map(elements.__getitem__, firsts))

    def class_add(i: int, j: int) -> int:
        label = class_of.get(add(representatives[i], representatives[j]))
        if label is None:
            raise SelfCheckFailed("homotopy quotient's elements are not closed under addition")
        return label

    return tuple(group_divisors_from_table(range(len(class_index)), class_add, class_of[zero]))


def _row_codes(columns: Sequence, sizes: Sequence[int]) -> list[int]:
    """The integer code of every row that columns list (columns[k] holding
    slot k), in order: mixed radix over the slot sizes, last slot fastest,
    which is the row's position in level order.  One C-level map per slot."""
    codes = columns[0]
    for size, column in zip(sizes[1:], columns[1:]):
        codes = map(add, map(mul, codes, repeat(size)), column)
    return list(codes)


def _translations(tables: Sequence, columns: Sequence, sizes: Sequence[int]):
    """translate(g): the codes of g + b for every row b that columns list,
    in order.  The slots of g are read off its code; slot k of the sums is
    row g_k of that slot's table read along columns[k], one C-level map per
    slot, and the sums are coded by _row_codes."""

    def translate(g: int) -> list[int]:
        digits = []
        for size in reversed(sizes):
            g, digit = divmod(g, size)
            digits.append(digit)
        return _row_codes(
            [map(table[x].__getitem__, column) for table, x, column in zip(tables, reversed(digits), columns)], sizes
        )

    return translate


def _adder(tables: Sequence, sizes: Sequence[int]):
    """add(x, y): the code of the sum of the rows coded x and y, slot by
    slot through that slot's table, the slots read off the codes last slot
    first (the mixed radix of _row_codes)."""
    slots = list(zip(reversed(tables), reversed(sizes)))

    def add(x: int, y: int) -> int:
        code, scale = 0, 1
        for table, size in slots:
            x, dx = divmod(x, size)
            y, dy = divmod(y, size)
            code += table[dx][dy] * scale
            scale *= size
        return code

    return add


def _add_table(orders: tuple[int, ...]) -> list[list[int]]:
    """Addition of a product of cyclic groups on element indices, the index of
    an element being its position in `elements()` (mixed radix, last
    coordinate fastest)."""
    if not orders:
        return [[0]]
    # The last factor Z/m alone: row d is range(m) rotated by d.
    size = orders[-1]
    doubled = list(range(size)) * 2
    table = [doubled[d : d + size] for d in range(size)]
    for m in reversed(orders[:-1]):
        # Prepend a factor Z/m: row d * size + i is row i repeated with digit
        # d + e mod m in front of its e-th copy, a cut at block d of row i
        # repeated 2m times under the digits 0, ..., m - 1 twice over.
        width = m * size
        digits = list(chain.from_iterable(map(repeat, range(0, width, size), repeat(size)))) * 2
        blocks = [list(map(add, digits, row * (2 * m))) for row in table]
        table = [row[d * size : d * size + width] for d in range(m) for row in blocks]
        size = width
    return table


def _element_index(orders: Sequence[int], value: Sequence[int]) -> int:
    i = 0
    for m, x in zip(orders, value):
        i = i * m + x % m
    return i


@lru_cache(maxsize=None)
def _face_slots(n: int) -> tuple:
    """The faces d_0..d_n of level n compiled from their pair maps, which
    depend on n alone: per face, one (B slot, sources) pair per target slot,
    sources being the (source slot, apply phi) pairs summed into it."""
    plans = []
    for j in range(n + 1):
        f = dual_pair_map(coface(j, n), n)
        sources: list[list] = [[] for _ in range(f.dst.size)]
        for x in range(1, f.src.size + 1):
            y = f.images[x]
            if y:
                sources[y - 1].append((x - 1, y in f.dst.marked and x not in f.src.marked))
        plans.append(tuple((y in f.dst.marked, tuple(s)) for y, s in enumerate(sources, start=1)))
    return tuple(plans)


class _IndexedHom:
    """The index form of hom that homotopy_groups runs on.

    Elements of A and B are numbered in `elements()` order, so a level-n
    element is a tuple of n A-indices and one B-index, listed in the order of
    LevelDescriptor.elements (0 is the zero of both groups).  A and B
    addition and phi are lookup tables, and each face is one plan per target
    slot: the addition table of that slot and the (source slot, apply phi)
    pairs summed into it.  A set of level elements is held as columns, one
    list per slot, and push_columns evaluates a plan over all of them at
    once.  The per-tuple forms that the column forms are tested against live
    with the tests (tests/dold_kan_oracles.py).
    """

    def __init__(self, hom: GroupHom) -> None:
        self.hom = hom
        self.a_add = _add_table(hom.domain.orders)
        self.b_add = _add_table(hom.codomain.orders)
        # phi by rows: the images of the multiples of each generator in turn,
        # added to the images of every prefix (first coordinate slowest).
        phi = [0]
        for m, image in zip(hom.domain.orders, hom.matrix):
            g = self.b_add[_element_index(hom.codomain.orders, image)]
            multiples = [0]
            for _ in range(m - 1):
                multiples.append(g[multiples[-1]])
            phi = list(chain.from_iterable(map(self.b_add[v].__getitem__, multiples) for v in phi))
        self.phi = phi

    def faces(self, n: int) -> list:
        """The compiled faces d_0..d_n of level n, on this hom's tables."""
        tables = (self.a_add, self.b_add)
        return [tuple((tables[on_b], sources) for on_b, sources in plan) for plan in _face_slots(n)]

    def push_columns(self, plan, columns: Sequence[list[int]]) -> list[list[int]]:
        """A compiled face applied to every level element that columns list:
        the columns of the images, in the same order."""
        return [self.slot_column(add, sources, columns) for add, sources in plan]

    def slot_column(self, add, sources, columns: Sequence[list[int]]) -> list[int]:
        """One target slot of a compiled face over columns: the first source
        column, then each further one added through the slot's table (0 is
        the zero, so add[0][x] is x and this is the fold of push).  A face is
        dual to an injective coface, so onto its pairs: every slot has a source."""
        acc = None
        for x, through_phi in sources:
            column = map(self.phi.__getitem__, columns[x]) if through_phi else columns[x]
            acc = column if acc is None else map(getitem, map(add.__getitem__, acc), column)
        return list(acc)

    def tables(self, n: int) -> tuple:
        """The addition tables of the slots of level n."""
        return (self.a_add,) * n + (self.b_add,)

    def sizes(self, n: int) -> list[int]:
        """The sizes of the slots of level n."""
        return [self.hom.domain.order] * n + [self.hom.codomain.order]


def _vanishing_columns(ix: _IndexedHom, n: int, plans) -> list[list[int]]:
    """The level-n index tuples on which every compiled face in plans
    vanishes, in level order, as columns: a search column by column.

    Slots 0..n are assigned left to right (the n A-indices, then the
    B-index): every surviving prefix is repeated once per value of the next
    slot, so rows stay in itertools.product order.  Each face slot is tested
    once its last source slot is assigned, over the whole column, and the
    rows where it is nonzero are dropped.  That is the pruning of a depth-first
    search, one C-level pass per slot instead of one Python step per tuple.
    """
    sizes = ix.sizes(n)
    # tests[d]: the face slots whose last source slot is d.
    tests: list[list] = [[] for _ in range(n + 1)]
    for plan in plans:
        for add, sources in plan:
            tests[max(x for x, _ in sources)].append((add, sources))
    # Columns are copied only when rows are added or dropped, so that a slot
    # of size 1 or a test that drops nothing costs no pass over the prefix.
    columns: list[list[int]] = []
    rows = 1
    for size, slot_tests in zip(sizes, tests):
        if size > 1:
            columns = [list(chain.from_iterable(map(repeat, column, repeat(size)))) for column in columns]
        columns.append(list(range(size)) * rows)
        for add, sources in slot_tests:
            keep = list(map(not_, ix.slot_column(add, sources, columns)))
            if not all(keep):
                columns = [list(compress(column, keep)) for column in columns]
        rows = len(columns[-1])
    return columns


def _pi(ix: _IndexedHom, n: int, spherical: list[list[int]]) -> tuple[tuple[int, ...], list[list[int]]]:
    """pi_n as elementary divisors, and the spherical (n+1)-simplices.

    spherical holds the spherical n-simplices as columns.  pi_n is their
    group modulo x ~ y whenever x = d_n z and y = d_{n+1} z for an
    (n+1)-simplex z with d_i z = 0, i < n: those z are searched once, pushed
    through d_n and d_{n+1} and coded by _row_codes.  The z whose pushes are
    both zero are the spherical (n+1)-simplices, returned as columns."""
    sizes = ix.sizes(n)
    codes = _row_codes(spherical, sizes)
    members = set(codes)
    faces = ix.faces(n + 1)
    leaves = _vanishing_columns(ix, n + 1, faces[:n])
    xs = _row_codes(ix.push_columns(faces[n], leaves), sizes)
    ys = _row_codes(ix.push_columns(faces[n + 1], leaves), sizes)
    # Codes are nonnegative, so x + y is zero exactly when both are.
    both_zero = list(map(not_, map(add, xs, ys)))
    above = [list(compress(column, both_zero)) for column in leaves]
    relation = {(x, y) for x, y in zip(xs, ys) if x in members and y in members}
    tables = ix.tables(n)
    translate = _translations(tables, spherical, sizes)
    return _quotient_divisors(codes, relation, translate, _adder(tables, sizes), 0), above


def homotopy_groups(hom: GroupHom, n_max: int = 3, cap: int = DEFAULT_CAP) -> HomotopyGroups:
    """pi_0, pi_1 (as elementary divisors) and triviality flags for 2..n_max.

    Levels are searched column by column on element indices through the
    lookup tables of _IndexedHom, each face slot tested over the surviving
    rows as soon as its last source slot is assigned, so a row is dropped at
    its first nonzero face slot; the one-step relation between spherical
    simplices is tabulated from the level above on the integer codes of the
    rows (_row_codes) and asserted to be an equivalence relation compatible
    with addition before quotienting (it is, for simplicial abelian groups).
    Each level up to 2 is searched once: pi_n's search of level n+1 also
    yields the spherical (n+1)-simplices that pi_{n+1} and the flag at 2
    need.  n_max must be nonnegative.  Before any table is built, cap
    bounds each level's size and the face work, and a fixed budget the cells
    of the addition tables (errors.BUDGETS).
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    passes = 0
    for n in range(max(2, n_max) + 1):
        check_budget("level_elements", LevelDescriptor(hom, n).size, cap, n=n)
        if n > 2:
            passes += n * (n + 1) ** 2
            check_budget("face_passes", passes, cap, n=n)
    check_budget("table_cells", hom.domain.order**2 + hom.codomain.order**2)
    ix = _IndexedHom(hom)
    # Every vertex is spherical.
    pi0, spherical = _pi(ix, 0, [list(range(hom.codomain.order))])
    pi1, spherical = _pi(ix, 1, spherical)
    # The flag at n counts the spherical n-simplices: at n = 2 those that
    # pi_1's search found, above that a search with every face.
    higher = []
    for n in range(2, n_max + 1):
        if n > 2:
            spherical = _vanishing_columns(ix, n, ix.faces(n))
        higher.append((n, len(spherical[-1]) == 1))
    return HomotopyGroups(pi0=pi0, pi1=pi1, higher_trivial=tuple(higher))
