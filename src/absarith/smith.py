"""Integer Smith normal form and elementary divisors of finite abelian groups.

The Smith form serves the closed-form route alone: a cokernel presented on
the codomain generators, and a kernel as the cokernel of the dual map (by
Pontryagin duality).  A brute-force group given only by its addition table
is read off its element orders instead, with no matrix built, so the two
routes never share a Smith form.  Its diagonal also gives the rank of the
face equations of gamma_space.  Matrices here are small, so the classic
alternating row/column Euclid with explicit transform tracking is plenty.
The package's one Gauss-Jordan elimination over Q lives here too, as the
oracle for that rank.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod

from .numth import divide_out, factorize

Matrix = list[list[int]]


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (d, u, v) with u a v = d, u and v unimodular, d diagonal with
    d[i][i] | d[i+1][i+1] and nonnegative."""
    d = [list(map(int, row)) for row in a]
    m = len(d)
    n = len(d[0]) if m else 0
    u = _identity(m)
    v = _identity(n)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row_dst += q * row_src
        d[dst] = [x + q * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def find_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(m, n):
        pos = find_pivot(t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            # Euclidean reduction of column t, keeping the smallest entry at the pivot.
            reduced = True
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    add_row(t, i, -q)
                    if d[i][t] != 0:
                        swap_rows(t, i)
                        reduced = False
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    add_col(t, j, -q)
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        reduced = False
            if not reduced:
                continue
            # Pivot must divide the remaining block for the divisibility chain.
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % d[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return d, u, v


def invariant_factors_of_presentation(rows: Matrix, n_generators: int) -> list[int]:
    """Torsion invariant factors of Z^n / (row span), in divisibility order.

    Raises if the quotient is infinite (a zero diagonal slot), since all the
    groups presented here are finite.
    """
    if any(len(r) != n_generators for r in rows):
        raise ValueError("presentation rows must match the number of generators")
    d, _, _ = smith_normal_form(rows)
    diag = [d[i][i] for i in range(min(len(d), n_generators))]
    diag += [0] * (n_generators - len(diag))
    if any(x == 0 for x in diag):
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


def row_reduce(rows) -> tuple[list[list[Fraction]], int]:
    """Gauss-Jordan elimination over Q: the reduced row echelon form of an
    integer or rational matrix, and its rank."""
    matrix = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(matrix[0]) if matrix else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col] != 0), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        lead = matrix[rank][col]
        matrix[rank] = [x / lead for x in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [x - factor * y for x, y in zip(matrix[r], matrix[rank])]
        rank += 1
    return matrix, rank


def group_divisors_from_table(elements, add, zero) -> list[int]:
    """Elementary divisors of a finite abelian group given by its addition
    law, read off its element orders.

    Each cyclic subgroup is walked once, x, 2x, ... until zero, which gives
    the order of every multiple, ord(jx) = ord(x) / gcd(j, ord(x)).  If the
    p-part is a product of Z/p^e_i, then c_k = p^(sum_i min(k, e_i)) elements
    have order dividing p^k, and log_p(c_k / c_(k-1)) factors have order p^k
    or more; the divisors must reproduce every c_k and multiply to the order.
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
    consistent = not any(m % n for n in orders)
    divisors: list[int] = []
    for p, a in factorize(m).items():
        # counts[k] is c_k; Z/p^e has gcd(p^e, p^k) elements of order dividing p^k.
        counts = [sum(p**k % n == 0 for n in orders) for k in range(a + 1)]
        ranks = [divide_out(c // b, p)[0] for b, c in zip(counts, counts[1:])] + [0]
        part = [p**k for k in range(1, a + 1) for _ in range(ranks[k - 1] - ranks[k])]
        consistent &= counts == [prod(gcd(d, p**k) for d in part) for k in range(a + 1)]
        divisors += part
    if not consistent or prod(divisors) != m:
        raise ValueError(f"the element orders match no abelian group of order {m}")
    return sorted(divisors)
