import gc
import itertools
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

from absarith import dold_kan
from absarith.dold_kan import (
    FiniteAbelianGroup,
    _IndexedHom,
    _add_table,
    _adder,
    _pi,
    _quotient_divisors,
    _row_codes,
    _translations,
    GroupHom,
    HPhiElement,
    PairMap,
    PairOfPointedSets,
    boundary,
    coface,
    degeneracy,
    h_phi_map,
    homotopy_groups,
    simplex_pair,
    simplicial_level,
    simplicial_map,
)
from absarith.errors import CapExceeded, SelfCheckFailed
from absarith.smith import cokernel_divisors, kernel_divisors
from dold_kan_oracles import _add_table as _prepending_add_table
from dold_kan_oracles import _quotient_divisors as _pairwise_quotient_divisors
from dold_kan_oracles import _PerTupleIndexedHom, _spherical, _sums, _vanishing
from helpers import FACE_HOMS, random_abelian_group, random_hom, small_homs, zero_hom

Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))
Z4 = FiniteAbelianGroup((4,))
TRIVIAL = FiniteAbelianGroup(())


def test_group_hom_validation():
    with pytest.raises(ValueError):
        GroupHom(Z2, Z4, ((1,),))  # order of image must divide 2
    GroupHom(Z2, Z4, ((2,),))
    with pytest.raises(ValueError):
        GroupHom(Z2, Z4, ())
    with pytest.raises(ValueError):
        FiniteAbelianGroup((1,))


def _random_pair(rng, max_size):
    size = rng.randint(1, max_size)
    marked = frozenset({0} | {rng.randint(1, size) for _ in range(rng.randint(0, size))})
    return PairOfPointedSets(size, marked)


def _random_pair_map(rng, src, dst):
    marked_targets = sorted(dst.marked)
    images = [0]
    for x in range(1, src.size + 1):
        if x in src.marked:
            images.append(rng.choice(marked_targets))
        else:
            images.append(rng.randint(0, dst.size))
    return PairMap(src, dst, tuple(images))


def _random_element(rng, hom, pair):
    values = []
    for x in range(1, pair.size + 1):
        group = hom.codomain if x in pair.marked else hom.domain
        values.append(tuple(rng.randrange(m) for m in group.orders))
    return HPhiElement(hom, pair, tuple(values))


def test_h_phi_map_identity():
    rng = random.Random(71)
    hom = GroupHom(Z2, Z3, ((0,),))
    for _ in range(20):
        pair = _random_pair(rng, 5)
        ident = PairMap(pair, pair, tuple(range(pair.size + 1)))
        psi = _random_element(rng, hom, pair)
        assert h_phi_map(ident, psi) == psi


def test_h_phi_map_functoriality():
    rng = random.Random(73)
    for _ in range(200):
        a = random_abelian_group(rng, 8)
        b = random_abelian_group(rng, 8)
        hom = random_hom(rng, a, b)
        p1, p2, p3 = (_random_pair(rng, 5) for _ in range(3))
        f = _random_pair_map(rng, p1, p2)
        g = _random_pair_map(rng, p2, p3)
        gf = PairMap(p1, p3, tuple(g.images[y] for y in f.images))
        psi = _random_element(rng, hom, p1)
        assert h_phi_map(gf, psi) == h_phi_map(g, h_phi_map(f, psi))


def test_h_phi_map_collapse_applies_phi():
    # collapsing the unmarked part onto a marked point pushes the sum through phi
    hom = GroupHom.identity(Z2)
    src = PairOfPointedSets(3, frozenset({0, 3}))  # points 1,2 unmarked, 3 marked
    dst = PairOfPointedSets(1, frozenset({0, 1}))
    f = PairMap(src, dst, (0, 1, 1, 1))
    psi = HPhiElement(hom, src, ((1,), (1,), (1,)))
    out = h_phi_map(f, psi)
    # phi(1) + phi(1) + 1 = 1 in Z/2
    assert out.values == ((1,),)


def test_pair_map_rejects_unmarked_image_of_marked():
    src = PairOfPointedSets(2, frozenset({0, 2}))
    dst = PairOfPointedSets(2, frozenset({0, 2}))
    with pytest.raises(ValueError):
        PairMap(src, dst, (0, 1, 1))


def test_level_sizes():
    hom = GroupHom(Z2, Z3, ((0,),))
    assert simplicial_level(hom, 0).size == 3
    assert simplicial_level(hom, 1).size == 6
    hom22 = zero_hom(Z2, Z2)
    assert simplicial_level(hom22, 2).size == 8
    assert len(list(simplicial_level(hom22, 2).elements())) == 8


def test_level_cap():
    hom = zero_hom(FiniteAbelianGroup((16,)), FiniteAbelianGroup((16,)))
    with pytest.raises(CapExceeded, match="level 5 has 16777216 elements, above the cap of 1000000"):
        list(simplicial_level(hom, 5).elements())


def test_level1_faces():
    # on an edge (a, b): face 0 is b, face 1 is phi(a) + b
    hom = GroupHom(Z2, Z4, ((2,),))
    for a in Z2.elements():
        for b in Z4.elements():
            e = HPhiElement(hom, simplex_pair(1), (a, b))
            assert boundary(0, e).values == (b,)
            assert boundary(1, e).values == (Z4.add(hom.apply(a), b),)


def test_faces_agree_when_phi_zero():
    hom = zero_hom(Z2, Z2)
    level1 = simplicial_level(hom, 1)
    for e in level1.elements():
        assert boundary(0, e) == boundary(1, e)


def _all_monotone(m, n):
    return [
        theta
        for theta in itertools.product(range(n + 1), repeat=m + 1)
        if all(theta[i] <= theta[i + 1] for i in range(m))
    ]


def test_simplicial_identities_exhaustive():
    # all face/degeneracy identities on levels <= 3 for A = B = Z/2
    hom = GroupHom.identity(Z2)
    for n in range(4):
        for e in simplicial_level(hom, n).elements():
            if n >= 2:
                for j in range(n + 1):
                    for i in range(j):
                        assert boundary(i, boundary(j, e)) == boundary(j - 1, boundary(i, e))
            for j in range(n + 1):
                for i in range(j + 1):
                    assert degeneracy(i, degeneracy(j, e)) == degeneracy(j + 1, degeneracy(i, e))
            if n >= 1:
                for j in range(n + 1):
                    for i in range(n + 2):
                        sje = degeneracy(j, e)
                        if i < j:
                            assert boundary(i, sje) == degeneracy(j - 1, boundary(i, e))
                        elif i in (j, j + 1):
                            assert boundary(i, sje) == e
                        else:
                            assert boundary(i, sje) == degeneracy(j, boundary(i - 1, e))
            else:
                for j in (0, 1):
                    assert boundary(j, degeneracy(0, e)) == e


def test_simplicial_functoriality_random():
    rng = random.Random(75)
    hom = GroupHom(Z4, Z2, ((1,),))
    for _ in range(100):
        n, m, l = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        theta = tuple(sorted(rng.randint(0, n) for _ in range(m + 1)))
        theta2 = tuple(sorted(rng.randint(0, m) for _ in range(l + 1)))
        composed = tuple(theta[i] for i in theta2)
        e = _random_element(rng, hom, simplex_pair(n))
        lhs = simplicial_map(composed, n, e)
        rhs = simplicial_map(theta2, m, simplicial_map(theta, n, e))
        assert lhs == rhs


def test_simplicial_map_rejects_nonmonotone():
    hom = GroupHom.identity(Z2)
    e = HPhiElement(hom, simplex_pair(2), (Z2.zero(),) * 3)
    with pytest.raises(ValueError):
        simplicial_map((1, 0, 2), 2, e)


def test_pointwise_smash_description():
    # levels at gamma-degree k are k-fold products with componentwise faces
    rng = random.Random(77)
    hom = GroupHom(Z2, Z3, ((0,),))
    for k in (1, 2, 3):
        for n in (1, 2, 3):
            src = simplex_pair(n)
            smashed_src = _smash_pair(src, k)
            for j in range(n + 1):
                theta = coface(j, n)
                base = [e for e in [_random_element(rng, hom, src) for _ in range(k)]]
                smashed = _smash_element(hom, src, base, k)
                # map on the smashed pair: theta* applied in the first factor
                from absarith.dold_kan import dual_pair_map

                inner = dual_pair_map(theta, n)
                f = _smash_pair_map(inner, k)
                out = h_phi_map(f, smashed)
                expected = _smash_element(
                    hom, inner.dst, [h_phi_map(inner, e) for e in base], k
                )
                assert out.values == expected.values


def _smash_index(x, j, k):
    return (x - 1) * k + j


def _smash_pair(pair, k):
    size = pair.size * k
    marked = {0}
    for y in pair.marked - {0}:
        for j in range(1, k + 1):
            marked.add(_smash_index(y, j, k))
    return PairOfPointedSets(size, frozenset(marked))


def _smash_pair_map(f, k):
    src, dst = _smash_pair(f.src, k), _smash_pair(f.dst, k)
    images = [0] * (src.size + 1)
    for x in range(1, f.src.size + 1):
        for j in range(1, k + 1):
            y = f.images[x]
            images[_smash_index(x, j, k)] = 0 if y == 0 else _smash_index(y, j, k)
    return PairMap(src, dst, tuple(images))


def _smash_element(hom, pair, components, k):
    smashed = _smash_pair(pair, k)
    values = [None] * smashed.size
    for x in range(1, pair.size + 1):
        for j in range(1, k + 1):
            values[_smash_index(x, j, k) - 1] = components[j - 1].values[x - 1]
    return HPhiElement(hom, smashed, tuple(values))


def test_homotopy_identity_map():
    groups = homotopy_groups(GroupHom.identity(Z2))
    assert groups.pi0 == () and groups.pi1 == ()
    assert dict(groups.higher_trivial) == {2: True, 3: True}


def test_homotopy_zero_map():
    groups = homotopy_groups(zero_hom(Z2, Z2))
    assert groups.pi0 == (2,) and groups.pi1 == (2,)


def test_homotopy_injection():
    groups = homotopy_groups(GroupHom(Z2, Z4, ((2,),)))
    assert groups.pi0 == (2,) and groups.pi1 == ()


def test_homotopy_trivial_groups():
    groups = homotopy_groups(zero_hom(TRIVIAL, Z4), n_max=2)
    assert groups.pi0 == (4,) and groups.pi1 == ()
    groups = homotopy_groups(zero_hom(Z4, TRIVIAL), n_max=2)
    assert groups.pi0 == () and groups.pi1 == (4,)


def test_homotopy_matches_smith_oracle():
    rng = random.Random(79)
    for _ in range(12):
        a = random_abelian_group(rng, 12)
        b = random_abelian_group(rng, 12)
        hom = random_hom(rng, a, b)
        groups = homotopy_groups(hom, n_max=1)
        assert list(groups.pi0) == cokernel_divisors(b.orders, hom.matrix)
        assert list(groups.pi1) == kernel_divisors(a.orders, b.orders, hom.matrix)


def test_higher_homotopy_trivial():
    rng = random.Random(81)
    for _ in range(8):
        a = random_abelian_group(rng, 8)
        b = random_abelian_group(rng, 8)
        hom = random_hom(rng, a, b)
        groups = homotopy_groups(hom, n_max=3)
        assert dict(groups.higher_trivial) == {2: True, 3: True}


@pytest.mark.parametrize(
    "group, n_max, cap",
    [
        (Z4, 1, 20),  # pi_1 needs level 2 (64 elements) even at n_max = 1
        (Z4, 0, 10),  # pi_0 needs level 1 (16 elements)
        (Z2, 3, 8),  # the flag at n = 3 needs level 3 (16 elements)
    ],
)
def test_homotopy_cap_covers_every_level_it_needs(group, n_max, cap):
    with pytest.raises(CapExceeded):
        homotopy_groups(GroupHom.identity(group), n_max=n_max, cap=cap)


def test_homotopy_cap_is_checked_before_enumerating():
    # Level 0 of the identity on Z/10^6 fits the cap, level 1 does not; the
    # million vertices of level 0 must not be listed first.
    group = FiniteAbelianGroup((10**6,))
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            homotopy_groups(GroupHom.identity(group), cap=10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_homotopy_cap_bounds_the_face_work_of_a_trivial_domain(monkeypatch):
    # Every level of a map out of the trivial group has |B| elements, so only
    # the face work grows with n_max: n (n + 1)^2 column passes at level n,
    # 48 at level 3, 950,708 over levels 3..43 and 1,039,808 over 3..44.
    hom = zero_hom(TRIVIAL, Z2)
    assert homotopy_groups(hom, n_max=2, cap=2).pi0 == (2,)
    assert dict(homotopy_groups(hom, n_max=3, cap=48).higher_trivial) == {2: True, 3: True}
    assert dict(homotopy_groups(hom, n_max=43).higher_trivial) == {n: True for n in range(2, 44)}

    def no_tables(hom):
        raise AssertionError("a table was built before the cap check")

    monkeypatch.setattr(dold_kan, "_IndexedHom", no_tables)
    for n_max, cap in [(3, 47), (44, 10**6), (400, 10**6), (10**9, 10**6)]:
        with pytest.raises(CapExceeded, match="column passes"):
            homotopy_groups(hom, n_max=n_max, cap=cap)


def test_hom_json_roundtrip():
    hom = GroupHom(Z2, Z4, ((2,),))
    assert GroupHom.from_json_dict(hom.to_json_dict()) == hom


@pytest.mark.parametrize("hom", FACE_HOMS)
def test_compiled_faces_match_the_object_path(hom):
    # The index form behind homotopy_groups against boundary/h_phi_map: the
    # same level order, and every compiled face equal to the object face
    # read through the element index.
    ix = _PerTupleIndexedHom(hom)
    a_index = {a: i for i, a in enumerate(hom.domain.elements())}
    b_index = {b: i for i, b in enumerate(hom.codomain.elements())}

    def indices(element):
        *a_values, b = element.values
        return tuple(a_index[a] for a in a_values) + (b_index[b],)

    for n in (1, 2, 3):
        faces = ix.faces(n)
        level = list(ix.level(n))
        objects = list(simplicial_level(hom, n).elements())
        assert [indices(e) for e in objects] == level
        for element, v in zip(objects, level):
            for j, plan in enumerate(faces):
                pushed = ix.push(plan, v)
                assert pushed == indices(boundary(j, element))
                assert ix.vanishes([plan], v) == (pushed == (0,) * n)


def test_every_face_slot_has_a_source():
    # slot_column and _vanishing_columns read a source of every target slot:
    # each face is dual to an injective coface, so onto the target's pairs.
    for n in range(1, 41):
        plans = dold_kan._face_slots(n)
        assert len(plans) == n + 1
        for plan in plans:
            assert len(plan) == n and all(sources for _, sources in plan), n


def _index_path_homs():
    """The identity on Z/2 and four distinct seeded nonzero maps between
    nontrivial groups of order at most 6."""
    rng = random.Random(1212)
    homs = [GroupHom.identity(Z2)]
    while len(homs) < 5:
        a, b = random_abelian_group(rng, 6), random_abelian_group(rng, 6)
        if a.orders and b.orders:
            hom = random_hom(rng, a, b)
            if any(any(row) for row in hom.matrix) and hom not in homs:
                homs.append(hom)
    return homs


@pytest.mark.parametrize("hom", _index_path_homs())
def test_compiled_faces_satisfy_the_simplicial_identities(hom):
    # Acceptance criterion 8's face identities d_i d_j = d_{j-1} d_i (i < j),
    # on the index path that homotopy_groups runs, at every level n <= 3; and
    # each compiled face equal to the object path's boundary, read through
    # element indices.
    ix = _PerTupleIndexedHom(hom)
    a_index = {a: i for i, a in enumerate(hom.domain.elements())}
    b_index = {b: i for i, b in enumerate(hom.codomain.elements())}

    def indices(element):
        *a_values, b = element.values
        return tuple(a_index[a] for a in a_values) + (b_index[b],)

    faces = {n: ix.faces(n) for n in range(1, 4)}
    for n in range(1, 4):
        for element, v in zip(simplicial_level(hom, n).elements(), ix.level(n)):
            assert indices(element) == v
            pushed = [ix.push(plan, v) for plan in faces[n]]
            assert pushed == [indices(boundary(j, element)) for j in range(n + 1)]
            if n >= 2:
                for j in range(n + 1):
                    for i in range(j):
                        assert ix.push(faces[n - 1][i], pushed[j]) == ix.push(faces[n - 1][j - 1], pushed[i])


def test_homotopy_path_does_not_import_numpy():
    # dk check runs in a fresh process, where importing numpy would cost about
    # as much as the rest of the command.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, absarith.cli, absarith.dold_kan; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=5).returncode == 0


def test_pruned_search_equals_the_filter_form_on_every_small_hom():
    # The depth-first search behind homotopy_groups against the filter form it
    # replaced, list for list (so in the same order): all 1,202 homs between
    # groups of order <= 8 at levels 1 and 2, and the 151 of order <= 6 at
    # level 3, each with all faces, the lower faces d_0..d_{n-1}, and none.
    for max_order, levels, count in ((8, (1, 2), 1202), (6, (3,), 151)):
        homs = list(small_homs(max_order))
        assert len(homs) == count
        for hom in homs:
            ix = _PerTupleIndexedHom(hom)
            for n in levels:
                faces = ix.faces(n)
                for plans in (faces, faces[:n], []):
                    assert _vanishing(ix, n, plans) == [v for v in ix.level(n) if ix.vanishes(plans, v)]


def test_pruned_search_prunes_a_level_of_a_million_tuples():
    # Level 4 of the identity on Z/16 has 16^5 = 1,048,576 tuples and only
    # the zero one is spherical.
    ix = _IndexedHom(GroupHom.identity(FiniteAbelianGroup((16,))))
    assert _vanishing(ix, 4, ix.faces(4)) == [(0,) * 5]


@pytest.mark.parametrize("hom", FACE_HOMS)
def test_column_pushes_match_the_per_tuple_push(hom):
    # Every face of levels 1-3 over the whole level as columns, against
    # push on each tuple: the same images in the same order.
    ix = _PerTupleIndexedHom(hom)
    for n in (1, 2, 3):
        level = list(ix.level(n))
        columns = [list(column) for column in zip(*level)]
        for plan in ix.faces(n):
            assert list(zip(*ix.push_columns(plan, columns))) == [ix.push(plan, v) for v in level]


@pytest.mark.parametrize("hom", FACE_HOMS)
def test_row_sums_match_the_pairwise_adder(hom):
    # The rows of sums behind the quotient's addition check, against the
    # level adder pair by pair, on the spherical sets of levels 0-2 and on
    # the whole of level 1.
    ix = _PerTupleIndexedHom(hom)
    for n, elements in [(n, _spherical(ix, n)) for n in (0, 1, 2)] + [(1, list(ix.level(1)))]:
        add = ix.adder(n)
        columns = list(zip(*elements))
        for a in elements:
            assert list(_sums(ix.tables(n), a, columns)) == [add(a, b) for b in elements]


def test_addition_tables_equal_the_prepending_construction():
    # Every group of the benchmark's homotopy slots (bench/workloads.py
    # HOMOTOPY_SLOTS), a three-factor group and the trivial group, cell for
    # cell.
    slot_groups = ((4,), (2, 2), (8,), (6,), (12,), (9,), (3, 3), (2, 4), (16,), (4, 4), (2, 8), (32,))
    for orders in slot_groups + ((2, 3, 4), ()):
        assert _add_table(orders) == _prepending_add_table(orders), orders


def test_homotopy_memory_on_the_identity_of_z100():
    # pi_0 relates all 10^4 edges of level 1; the column search keeps that
    # pass near the memory of the tuples it must produce.
    hom = GroupHom.identity(FiniteAbelianGroup((100,)))
    tracemalloc.start()
    try:
        groups = homotopy_groups(hom, n_max=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert groups.pi0 == () and groups.pi1 == ()
    assert peak < 6 * 2**20


def test_homotopy_leaves_no_cyclic_garbage():
    # Whatever homotopy_groups allocates is freed by reference counting, so a
    # caller that runs it in a loop never waits on the cycle collector.
    rng = random.Random(13)
    homs = [
        GroupHom.identity(FiniteAbelianGroup((8,))),
        zero_hom(FiniteAbelianGroup((2, 2)), Z4),
        random_hom(rng, FiniteAbelianGroup((2, 3)), FiniteAbelianGroup((6,))),
    ]
    gc.collect()
    gc.disable()
    try:
        for hom in homs:
            homotopy_groups(hom, n_max=3)
        assert gc.collect() == 0
    finally:
        gc.enable()


Z4_ELEMENTS = [(0,), (1,), (2,), (3,)]


# Addition on Z/4 on its 1-tuples: _z4_translate(g) lists g + x for every x
# in Z4_ELEMENTS, and _z4_add(g, h) is the one sum g + h.
def _z4_translate(g):
    return [((g[0] + x) % 4,) for (x,) in Z4_ELEMENTS]


def _z4_add(g, h):
    return ((g[0] + h[0]) % 4,)


def _z4_relation(*pairs):
    """The diagonal of Z/4 plus the given pairs of residues, as 1-tuples."""
    return {((x,), (x,)) for x in range(4)} | {((x,), (y,)) for x, y in pairs}


@pytest.mark.parametrize(
    "relation, message",
    [
        ({((x,), (x,)) for x in range(3)}, "not reflexive"),
        (_z4_relation((0, 2)), "not symmetric"),
        (_z4_relation((0, 1), (1, 2)), "not symmetric"),  # nor transitive: symmetry is named first
        (_z4_relation((0, 1), (1, 0), (1, 2), (2, 1)), "not transitive"),
        (_z4_relation((0, 1), (1, 0)), "not compatible with addition"),  # 0 ~ 1 but 0 + 1 = 1, 1 + 1 = 2
        (_z4_relation((1, 3), (3, 1)), "not compatible with addition"),  # 1 ~ 3 but 1 + 1 = 2, 1 + 3 = 0
    ],
)
def test_quotient_names_the_property_a_relation_lacks(relation, message):
    with pytest.raises(AssertionError) as info:
        _quotient_divisors(Z4_ELEMENTS, relation, _z4_translate, _z4_add, (0,))
    assert str(info.value) == f"homotopy relation is {message}"


@pytest.mark.parametrize(
    "relation, divisors",
    [
        (_z4_relation(), (4,)),
        (_z4_relation((0, 2), (2, 0), (1, 3), (3, 1)), (2,)),
        ({((x,), (y,)) for x in range(4) for y in range(4)}, ()),
    ],
)
def test_quotient_by_a_congruence(relation, divisors):
    assert _quotient_divisors(Z4_ELEMENTS, relation, _z4_translate, _z4_add, (0,)) == divisors


def test_quotient_names_a_sum_outside_its_elements():
    # {0, 1} in Z/4 is not a subgroup: 1 + 1 = 2 is not listed.
    elements = [(0,), (1,)]
    diagonal = {(e, e) for e in elements}
    with pytest.raises(SelfCheckFailed) as info:
        _quotient_divisors(elements, diagonal, lambda g: [((g[0] + x) % 4,) for (x,) in elements], _z4_add, (0,))
    assert str(info.value) == "homotopy quotient's elements are not closed under addition"


def test_quotient_names_a_class_sum_outside_its_elements():
    # The translations keep Z/4 closed, but an adder that disagrees with them
    # lands outside it when the class table is read: 3 + 1 is sent to 4.
    relation = _z4_relation()
    with pytest.raises(SelfCheckFailed) as info:
        _quotient_divisors(Z4_ELEMENTS, relation, _z4_translate, lambda g, h: (g[0] + h[0],), (0,))
    assert str(info.value) == "homotopy quotient's elements are not closed under addition"


def _sub(x, y, orders):
    return tuple((a - b) % m for a, b, m in zip(x, y, orders))


def _span(gens, orders):
    """The subgroup of Z/orders that gens span, as a set of residue tuples."""
    span = {(0,) * len(orders)}
    for g in gens:
        while True:
            grown = span | {tuple((a + b) % m for a, b, m in zip(h, g, orders)) for h in span}
            if grown == span:
                break
            span = grown
    return span


def _random_relations(rng, elements, orders):
    """A congruence modulo a random subgroup; the same modulo a subgroup H
    of the cyclic group C that the first nonzero element spans, on C only,
    with every element outside C in a class of its own (compatible with
    translation by that element, but with the others only when C is the
    group or H is trivial); or a random partition (an equivalence that is
    rarely compatible).  Sometimes one pair, or one pair and its reverse,
    is added or removed."""
    kind = rng.random()
    if kind < 0.6:
        cyclic = _span([elements[1]], orders) if kind < 0.3 else set(elements)
        span = _span(rng.sample(sorted(cyclic), rng.randint(0, 2)), orders)
        relation = {(x, x) for x in elements}
        relation |= {(x, y) for x in cyclic for y in cyclic if _sub(x, y, orders) in span}
    else:
        label = {e: rng.randrange(rng.randint(1, len(elements))) for e in elements}
        relation = {(x, y) for x in elements for y in elements if label[x] == label[y]}
    x, y = rng.choice(elements), rng.choice(elements)
    change = rng.random()
    if change < 0.2:
        relation ^= {(x, y)}
    elif change < 0.4:
        relation ^= {(x, y), (y, x)}
    return relation


def _outcome(quotient, *args):
    try:
        return quotient(*args)
    except SelfCheckFailed as exc:
        return str(exc)


def test_generator_check_agrees_with_the_pairwise_oracle():
    # Random relations on four small groups: the quotient that checks
    # addition on generators, on integer codes, and the oracle that checks
    # every pair on index tuples give the same divisors or the same message.
    rng = random.Random(2323)
    seen = set()
    for orders in [(4,), (8,), (2, 4), (3, 3)]:
        elements = list(itertools.product(*map(range, orders)))
        tables = [[[(x + y) % m for y in range(m)] for x in range(m)] for m in orders]
        columns = [list(column) for column in zip(*elements)]
        codes = _row_codes(columns, orders)
        code = dict(zip(elements, codes))
        translate = _translations(tables, columns, orders)
        add = _adder(tables, orders)
        for _ in range(150):
            relation = _random_relations(rng, elements, orders)
            expected = _outcome(_pairwise_quotient_divisors, elements, relation, tables, elements[0])
            coded = {(code[x], code[y]) for x, y in relation}
            assert _outcome(_quotient_divisors, codes, coded, translate, add, 0) == expected, (orders, relation)
            seen.add(expected if isinstance(expected, str) else "divisors")
    lacks = ("not reflexive", "not symmetric", "not transitive", "not compatible with addition")
    assert seen == {"divisors"} | {f"homotopy relation is {p}" for p in lacks}


@pytest.mark.parametrize("hom", FACE_HOMS)
def test_row_codes_and_translations_match_the_pairwise_adder(hom):
    # The integer codes are positions in level order, and each translation
    # lists the codes of the level adder's sums, as does the adder on codes
    # pair by pair, on the spherical sets of levels 0-2 and on the whole of
    # level 1.
    ix = _PerTupleIndexedHom(hom)
    for n, elements in [(n, _spherical(ix, n)) for n in (0, 1, 2)] + [(1, list(ix.level(1)))]:
        add = ix.adder(n)
        level = list(ix.level(n))
        columns = [list(column) for column in zip(*elements)]
        codes = _row_codes(columns, ix.sizes(n))
        assert [level[c] for c in codes] == elements
        translate = _translations(ix.tables(n), columns, ix.sizes(n))
        code_add = _adder(ix.tables(n), ix.sizes(n))
        for a, c in zip(elements, codes):
            assert [level[s] for s in translate(c)] == [add(a, b) for b in elements]
            assert [level[code_add(c, d)] for d in codes] == [add(a, b) for b in elements]


@pytest.mark.parametrize("hom", FACE_HOMS + _index_path_homs())
def test_each_relation_search_yields_the_spherical_simplices_above(hom):
    # pi_0's search of level 1 and pi_1's of level 2 return, as columns,
    # the spherical simplices that the search with every face finds.
    ix = _IndexedHom(hom)
    _, above = _pi(ix, 0, [list(range(hom.codomain.order))])
    assert list(zip(*above)) == _spherical(ix, 1)
    _, above = _pi(ix, 1, above)
    assert list(zip(*above)) == _spherical(ix, 2)


def test_addition_table_cells_are_checked_before_any_table_is_built(monkeypatch):
    def no_tables(hom):
        raise AssertionError("a table was built before the budget check")

    monkeypatch.setattr(dold_kan, "_IndexedHom", no_tables)
    hom = zero_hom(TRIVIAL, FiniteAbelianGroup((20_000,)))
    with pytest.raises(CapExceeded, match="addition tables of A and B take 400000001 cells"):
        homotopy_groups(hom, n_max=1)
