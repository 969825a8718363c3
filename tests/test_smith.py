import itertools
import math
import random
from fractions import Fraction

import pytest

from absarith.smith import (
    cokernel_divisors,
    elementary_divisors,
    group_divisors_from_table,
    invariant_factors_of_presentation,
    kernel_divisors,
    smith_normal_form,
)
from helpers import small_groups as _small_groups
from smith_oracles import row_reduce


def _det(m):
    m = [[Fraction(x) for x in row] for row in m]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(col + 1, n):
            factor = m[r][col]
            if factor:
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det


def test_smith_normal_form_random():
    # The determinantal divisors: d_1 ... d_j is the gcd of the j x j minors
    # (0 past the rank), and the diagonal is a nonnegative divisibility chain.
    rng = random.Random(61)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        diag = smith_normal_form(a)
        assert len(diag) == min(m, n) and min(diag) >= 0
        for j in range(1, min(m, n) + 1):
            minors = (
                _det([[a[r][c] for c in cols] for r in rows])
                for rows in itertools.combinations(range(m), j)
                for cols in itertools.combinations(range(n), j)
            )
            assert math.prod(diag[:j]) == math.gcd(*map(int, minors)), (a, diag, j)
        for x, y in zip(diag, diag[1:]):
            assert y == 0 or (x != 0 and y % x == 0)


def test_row_reduce_oracle_on_a_matrix_of_lower_rank():
    # Rank 2 in three columns, with a repeated row and a multiple of one: a
    # pivot row that eliminated itself would leave a third pivot.
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1], [1, 2, 3]]
    reduced, rank = row_reduce(rows)
    assert rank == 2
    assert reduced == [[1, 0, 1], [0, 1, 1], [0, 0, 0], [0, 0, 0]]
    assert row_reduce([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], 0)
    assert row_reduce([]) == ([], 0)


def test_invariant_factors():
    assert invariant_factors_of_presentation([[2, 0], [0, 4]], 2) == [2, 4]
    assert invariant_factors_of_presentation([[2, 0], [0, 3]], 2) == [6]
    with pytest.raises(ValueError):
        invariant_factors_of_presentation([[2, 0]], 2)  # infinite quotient


def test_elementary_divisors():
    assert elementary_divisors([6]) == [2, 3]
    assert elementary_divisors([2, 4]) == [2, 4]
    assert elementary_divisors([12, 2]) == [2, 3, 4]


def test_cokernel_examples():
    # Z/2 -> Z/4, x -> 2x: cokernel Z/2
    assert cokernel_divisors((4,), ((2,),)) == [2]
    # zero map into Z/6: cokernel Z/6 = C2 x C3
    assert cokernel_divisors((6,), ((0,),)) == [2, 3]
    # surjection Z/4 -> Z/4
    assert cokernel_divisors((4,), ((1,),)) == []


def test_kernel_examples():
    assert kernel_divisors((2,), (4,), ((2,),)) == []
    assert kernel_divisors((2,), (2,), ((0,),)) == [2]
    # Z/4 -> Z/2 reduction: kernel 2Z/4Z = Z/2
    assert kernel_divisors((4,), (2,), ((1,),)) == [2]
    # kernel into the trivial codomain is everything
    assert kernel_divisors((4, 3), (), ()) == [3, 4]


def test_kernel_cokernel_sizes_random():
    from helpers import random_abelian_group, random_hom

    rng = random.Random(63)
    for _ in range(40):
        a = random_abelian_group(rng, 16)
        b = random_abelian_group(rng, 16)
        hom = random_hom(rng, a, b)
        ker = kernel_divisors(a.orders, b.orders, hom.matrix)
        cok = cokernel_divisors(b.orders, hom.matrix)
        # brute-force the sizes
        kernel_size = sum(1 for x in a.elements() if hom.apply(x) == b.zero())
        image_size = len({hom.apply(x) for x in a.elements()})
        prod = lambda xs: __import__("math").prod(xs)
        assert prod(ker) == kernel_size
        assert prod(cok) == b.order // image_size
        # brute-force the kernel's structure from its table
        kernel_elements = [x for x in a.elements() if hom.apply(x) == b.zero()]
        assert group_divisors_from_table(kernel_elements, a.add, a.zero()) == ker


def test_group_divisors_from_table():
    z6 = [(i,) for i in range(6)]
    add6 = lambda x, y: ((x[0] + y[0]) % 6,)
    assert group_divisors_from_table(z6, add6, (0,)) == [2, 3]
    klein = [(i, j) for i in range(2) for j in range(2)]
    addk = lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2)
    assert group_divisors_from_table(klein, addk, (0, 0)) == [2, 2]
    assert group_divisors_from_table([(0,)], lambda x, y: (0,), (0,)) == []
    with pytest.raises(ValueError):
        group_divisors_from_table([(1,)], add6, (0,))  # zero missing


def _cyclic_products(max_order, least=2):
    """Every product of cyclic groups of order <= max_order, as nondecreasing
    tuples of cyclic orders (the trivial group is the empty one)."""
    yield ()
    for m in range(least, max_order + 1):
        for rest in _cyclic_products(max_order // m, m):
            yield (m,) + rest


def test_group_divisors_from_table_every_group_up_to_64():
    rng = random.Random(67)
    seen = 0
    for orders in _cyclic_products(64):
        elements = list(itertools.product(*(range(m) for m in orders)))
        rng.shuffle(elements)

        def add(x, y, orders=orders):
            return tuple((u + v) % m for u, v, m in zip(x, y, orders))

        assert group_divisors_from_table(elements, add, (0,) * len(orders)) == elementary_divisors(list(orders))
        seen += 1
    assert seen > 100


def test_group_divisors_from_table_edge_cases():
    assert group_divisors_from_table([()], lambda x, y: (), ()) == []
    add6 = lambda x, y: ((x[0] + y[0]) % 6,)
    with pytest.raises(ValueError, match="not closed"):
        group_divisors_from_table([(0,), (1,)], add6, (0,))
    with pytest.raises(ValueError, match="not closed"):
        group_divisors_from_table([(0,), (2,), (4,), (5,)], add6, (0,))
    with pytest.raises(ValueError, match="zero"):
        group_divisors_from_table([(1,), (2,)], add6, (0,))


# A closed table on {0, 1, 2} where 1 + 1 = 2 and 2 + 1 = 1: the multiples of
# 1 cycle without reaching 0.
_CYCLE = {(0, x): x for x in range(3)} | {(1, 0): 1, (2, 0): 2, (1, 1): 2, (1, 2): 1, (2, 1): 1, (2, 2): 2}
# A closed table on {0, 1, 2, 3} with element orders 1, 2, 3, 3: 1 + 1 = 0,
# 2 + 2 = 3, 2 + 3 = 0, 1 + 2 = 3 and 1 + 3 = 2.
_ORDERS_1233 = {(0, x): x for x in range(4)} | {(x, 0): x for x in range(4)}
_ORDERS_1233 |= {(1, 1): 0, (1, 2): 3, (2, 1): 3, (1, 3): 2, (3, 1): 2, (2, 2): 3, (2, 3): 0, (3, 2): 0, (3, 3): 2}


@pytest.mark.parametrize(
    "elements, add, zero, message",
    [
        ([(0,), (1,), (1,)], lambda x, y: ((x[0] + y[0]) % 2,), (0,), "listed twice"),
        ([0, 1, 2], lambda x, y: _CYCLE[x, y], 0, "never return to zero"),
        ([0, 1, 2, 3], lambda x, y: _ORDERS_1233[x, y], 0, "no abelian group of order 4"),
    ],
)
def test_group_divisors_from_table_refuses_what_is_not_a_group(elements, add, zero, message):
    with pytest.raises(ValueError, match=message):
        group_divisors_from_table(elements, add, zero)


def test_kernel_divisors_match_the_enumerated_kernel_on_every_small_hom():
    from absarith.dold_kan import FiniteAbelianGroup, GroupHom

    groups = [FiniteAbelianGroup(orders) for orders in _small_groups(8)]
    checked = 0
    for a in groups:
        for b in groups:
            # Row i ranges over the images of a generator of order m_i.
            choices = [
                list(itertools.product(*(range(0, n, n // math.gcd(m, n)) for n in b.orders))) for m in a.orders
            ]
            for rows in itertools.product(*choices):
                hom = GroupHom(a, b, rows)
                kernel = [x for x in a.elements() if hom.apply(x) == b.zero()]
                assert kernel_divisors(a.orders, b.orders, rows) == group_divisors_from_table(kernel, a.add, a.zero())
                checked += 1
    assert checked == 1202


def test_kernel_divisors_reject_a_matrix_that_is_not_a_homomorphism():
    with pytest.raises(ValueError):
        kernel_divisors((2,), (3,), ((1,),))


def test_group_divisors_from_table_refuses_a_count_ratio_that_is_no_power_of_p():
    # The walks z1 -> a1 -> b1 -> 0, z2 -> a2 -> b2 -> 0 and z3 -> a1 -> z1 -> 0
    # give the eight elements orders 1, 4, 4, 4, 2, 2, 4, 4, so three have
    # order dividing 2 and c_1 / c_0 = 3 is no power of 2.
    walks = {"z1": ["z1", "a1", "b1", "0"], "z2": ["z2", "a2", "b2", "0"], "z3": ["z3", "a1", "z1", "0"]}

    def add(y, x):
        return walks[x][walks[x].index(y) + 1]

    elements = ["0", "z1", "z2", "z3", "a1", "a2", "b1", "b2"]
    with pytest.raises(ValueError, match="no abelian group of order 8"):
        group_divisors_from_table(elements, add, "0")
