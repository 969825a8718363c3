"""Oracles of the Dold-Kan quotient and search, moved out of dold_kan when
the routes that replaced them took their place: the quotient with its
addition checked on every pair of elements (the generator check's oracle),
the rows of sums behind it, the spherical sets as index tuples, and the
per-tuple forms of the index path's faces and addition."""

from __future__ import annotations

import itertools
from operator import getitem
from typing import Iterator, Sequence

from absarith.dold_kan import _IndexedHom, _vanishing_columns
from absarith.errors import SelfCheckFailed
from absarith.smith import group_divisors_from_table


class _PerTupleIndexedHom(_IndexedHom):
    """_IndexedHom with the per-tuple forms that its column forms are tested
    against: level, push, vanishes and adder."""

    def level(self, n: int) -> Iterator[tuple[int, ...]]:
        """Every level-n index tuple, in level order.  With vanishes, the
        filter form of the search in _vanishing_columns, kept as its oracle."""
        return itertools.product(*[range(self.hom.domain.order)] * n, range(self.hom.codomain.order))

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
        per-tuple test of the filter form, which the search in
        _vanishing_columns is checked against."""
        return not any(any(self.push(plan, v)) for plan in plans)

    def adder(self, n: int):
        """Addition on level n, pair by pair: the oracle of _translations."""
        tables = self.tables(n)
        return lambda x, y: tuple(map(getitem, map(getitem, tables, x), y))


def _quotient_divisors(elements: list, relation: set, tables: Sequence, zero) -> tuple[int, ...]:
    """Isomorphism class of the quotient of a finite abelian group by a
    relation, asserted to be an equivalence compatible with addition.

    Elements are index tuples, added slot by slot: tables[k][x][y] is the
    sum of x and y at slot k.  Once the relation is reflexive, each element e
    is labelled by the set R(e) of elements related to it, and every related
    pair (x, y) must carry equal labels.  That is the same test as symmetry
    plus transitivity: R(x) = R(y) with y in R(y) and x in R(x) gives y ~ x,
    and z in R(y) gives x ~ z; conversely the labels of an equivalence are
    its classes.  It costs one pass over the relation, and only after a
    failure do the pairwise scans run, to name the property that fails.
    Compatibility with addition is checked on every pair of elements, one
    row of sums per element, built column by column by _sums.  The class
    table is read off its element orders, with no Smith form: that serves
    only the closed-form oracles, cokernel_divisors and kernel_divisors.
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
    # Quotient addition: table[i][j] is the class of a + b for a in class i
    # and b in class j, read from the first a of class i and the first b of
    # class j (labels are numbered in order of first appearance), and checked
    # on every pair.
    labels = [class_of[e] for e in elements]
    firsts = [labels.index(j) for j in range(len(class_index))]
    columns = list(zip(*elements))
    table: list = [None] * len(class_index)
    for a, i in zip(elements, labels):
        sums = list(map(class_of.__getitem__, _sums(tables, a, columns)))
        if table[i] is None:
            table[i] = list(map(sums.__getitem__, firsts))
        if sums != list(map(table[i].__getitem__, labels)):
            raise SelfCheckFailed("homotopy relation is not compatible with addition")

    def class_add(i: int, j: int) -> int:
        return table[i][j]

    return tuple(group_divisors_from_table(range(len(class_index)), class_add, class_of[zero]))


def _sums(tables: Sequence, a: Sequence[int], columns: Sequence) -> Iterator[tuple[int, ...]]:
    """a + b for every b that columns list (columns[k] holding slot k), in
    order: slot k of the sums is row a[k] of that slot's table read along
    columns[k], one C-level map per slot."""
    return zip(*[map(table[x].__getitem__, column) for table, x, column in zip(tables, a, columns)])


def _vanishing(ix: _IndexedHom, n: int, plans) -> list[tuple[int, ...]]:
    """The rows of _vanishing_columns as tuples, searched column by column:
    the same list as [v for v in ix.level(n) if ix.vanishes(plans, v)]."""
    return list(zip(*_vanishing_columns(ix, n, plans)))


def _spherical(ix: _IndexedHom, n: int) -> list:
    """Level-n index tuples whose n+1 faces all vanish (every vertex at n = 0)."""
    return _vanishing(ix, n, ix.faces(n) if n else ())
