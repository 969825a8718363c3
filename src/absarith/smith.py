"""Integer Smith normal form and elementary divisors of finite abelian groups.

The Smith form serves the closed-form route alone: a cokernel presented on
the codomain generators, and a kernel as the cokernel of the dual map (by
Pontryagin duality).  A brute-force group given only by its addition law
is read off a histogram of its element orders instead, with no matrix
built, so the two routes never share a Smith form.  Every caller reads only
the diagonal, so only the diagonal is computed, by the classic alternating
row/column Euclid with no transforms kept; the tests check it against the
determinantal divisors.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, prod

from .numth import divide_out, factorize

Matrix = list[list[int]]


def smith_normal_form(a: Matrix) -> list[int]:
    """The diagonal of the Smith normal form of an integer matrix: its
    min(rows, columns) entries d_1 | d_2 | ..., nonnegative, zeros last.

    The pivot p starts as an entry of least absolute value.  Euclid down its
    column leaves either zeros or a smaller entry, the next pivot.  Once the
    column is clear, a column operation changes the pivot's row alone, so
    the row's other entries become their remainders mod p, and a nonzero
    one is the next pivot.  Once both are clear p must divide the rest, else
    a row holding an entry it does not divide is added to the pivot's.  A
    finished pivot is one diagonal entry, and its row and column are dropped.
    """
    d = [list(map(int, row)) for row in a]
    size = min(len(d), len(d[0])) if d else 0
    diagonal: list[int] = []
    while any(map(any, d)):
        _, i, j = min((abs(x), i, j) for i, row in enumerate(d) for j, x in enumerate(row) if x)
        while True:
            moved = False
            for r in range(len(d)):
                if r != i and d[r][j]:
                    q = d[r][j] // d[i][j]
                    d[r] = [x - q * y for x, y in zip(d[r], d[i])]
                    if d[r][j]:
                        i, moved = r, True
            if moved:
                continue
            p = d[i][j]
            d[i] = [x % p for x in d[i]]
            d[i][j] = p
            left = [(abs(x), c) for c, x in enumerate(d[i]) if x and c != j]
            if left:
                j = min(left)[1]
                continue
            offender = next((r for r, row in enumerate(d) if any(x % p for x in row)), None)
            if offender is None:
                break
            d[i] = [x + y for x, y in zip(d[i], d[offender])]
        diagonal.append(abs(d[i][j]))
        d = [row[:j] + row[j + 1 :] for r, row in enumerate(d) if r != i]
    return diagonal + [0] * (size - len(diagonal))


def invariant_factors_of_presentation(rows: Matrix, n_generators: int) -> list[int]:
    """Torsion invariant factors of Z^n / (row span), in divisibility order.

    Raises if the quotient is infinite (a zero diagonal slot), since all the
    groups presented here are finite.
    """
    if any(len(r) != n_generators for r in rows):
        raise ValueError("presentation rows must match the number of generators")
    diag = smith_normal_form(rows)
    if len(diag) < n_generators or 0 in diag:
        raise ValueError("presentation does not define a finite group")
    return [x for x in diag if x > 1]


def elementary_divisors(invariant_factors: list[int]) -> list[int]:
    """Split invariant factors into prime powers, sorted ascending."""
    out: list[int] = []
    for f in invariant_factors:
        out.extend(p**e for p, e in factorize(f).items())
    return sorted(out)


def cokernel_divisors(codomain_orders: tuple[int, ...], matrix: tuple[tuple[int, ...], ...]) -> list[int]:
    """Elementary divisors of B / im(phi) for phi into B = prod Z/n_j.

    Presented on the generators of B: relations are the generator orders plus
    the images of the domain generators (rows of matrix).
    """
    t = len(codomain_orders)
    relations = [[codomain_orders[j] if i == j else 0 for j in range(t)] for i in range(t)]
    relations += [list(r) for r in matrix]
    return elementary_divisors(invariant_factors_of_presentation(relations, t))


def kernel_divisors(
    domain_orders: tuple[int, ...],
    codomain_orders: tuple[int, ...],
    matrix: tuple[tuple[int, ...], ...],
) -> list[int]:
    """Elementary divisors of ker(phi) for phi: prod Z/m_i -> prod Z/n_j.

    A finite abelian group is isomorphic to its character group, and
    dualizing is exact, so ker(phi) is isomorphic to the cokernel of the dual
    map.  The dual map sends the character y -> y_j / n_j of B to
    x -> sum_i x_i M_ij / n_j, which is the character of A with coordinates
    (M_ij m_i / n_j)_i on the dual generators x -> x_i / m_i.  These rows are
    integral exactly when m_i M_ij = 0 mod n_j, that is when phi is a
    homomorphism.
    """
    rows = []
    for j, n in enumerate(codomain_orders):
        row = []
        for i, m in enumerate(domain_orders):
            q, r = divmod(matrix[i][j] * m, n)
            if r:
                raise ValueError(f"matrix entry ({i}, {j}) does not give a homomorphism Z/{m} -> Z/{n}")
            row.append(q)
        rows.append(row)
    return cokernel_divisors(domain_orders, rows)


def group_divisors_from_table(elements, add, zero) -> list[int]:
    """Elementary divisors of a finite abelian group given by its addition
    law, read off its element orders.

    Each cyclic subgroup is walked once, x, 2x, ... until zero, which gives
    the order of every multiple, ord(jx) = ord(x) / gcd(j, ord(x)), and the
    orders are counted once into a histogram.  If the p-part is a product of
    Z/p^e_i, then c_k = p^(sum_i min(k, e_i)) elements have order dividing
    p^k, each c_k a sum over the histogram's orders, and log_p(c_k / c_(k-1))
    factors have order p^k or more; the divisors must reproduce every c_k and
    multiply to the order.
    """
    elems = list(elements)
    index = {g: i for i, g in enumerate(elems)}
    if len(index) != len(elems):
        raise ValueError("an element is listed twice")
    if zero not in index:
        raise ValueError("the zero element must be listed")
    m, z = len(elems), index[zero]
    orders = [0] * m
    for i, x in enumerate(elems):
        if orders[i]:
            continue
        walk, y = [i], x
        while walk[-1] != z:
            if len(walk) == m:
                raise ValueError("the multiples of an element never return to zero")
            y = add(y, x)
            if y not in index:
                raise ValueError("the element list is not closed under addition")
            walk.append(index[y])
        for j, k in enumerate(walk, start=1):
            orders[k] = len(walk) // gcd(j, len(walk))
    histogram = Counter(orders)
    consistent = not any(m % n for n in histogram)
    divisors: list[int] = []
    for p, a in factorize(m).items():
        # counts[k] is c_k; Z/p^e has gcd(p^e, p^k) elements of order dividing p^k.
        counts = [sum(c for n, c in histogram.items() if p**k % n == 0) for k in range(a + 1)]
        ranks = [divide_out(c // b, p)[0] for b, c in zip(counts, counts[1:])] + [0]
        part = [p**k for k in range(1, a + 1) for _ in range(ranks[k - 1] - ranks[k])]
        consistent &= counts == [prod(gcd(d, p**k) for d in part) for k in range(a + 1)]
        divisors += part
    if not consistent or prod(divisors) != m:
        raise ValueError(f"the element orders match no abelian group of order {m}")
    return sorted(divisors)
