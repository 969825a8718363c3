"""Integer Smith normal form and elementary divisors of finite abelian groups.

Two consumers: presenting a cokernel on the codomain generators (a kernel
being the cokernel of the dual map, by Pontryagin duality), and reading
off the isomorphism class of a brute-force group given only by its addition
table (presented by its sum relations against a generating set, reduced to
the generators by a search tree).  Matrices here are small, so the classic
alternating row/column Euclid with explicit transform tracking is plenty.
The package's one Gauss-Jordan elimination over Q lives here too, for the
rank of the face equations.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .numth import factorize

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
    if not rows:
        rows = [[0] * n_generators]
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
    """Elementary divisors of a finite abelian group given by its addition law.

    Presents the group on its m elements with the relations
    e_g + e_s - e_{g+s} for every g and every s in a generating set S, plus
    e_0 = 0: every element is a sum of generators, so these imply all m^2 sum
    relations (Tietze).  S is chosen greedily in list order, an element
    joining it when the subgroup generated so far misses it.  A search tree
    from zero along S then writes each e_g as a sum of generators, which
    eliminates every e_g outside S, and the Smith form of the remaining rows
    in |S| columns yields the isomorphism class with no structure assumed
    beyond the table itself.
    """
    elems = list(elements)
    index = {g: i for i, g in enumerate(elems)}
    if zero not in index:
        raise ValueError("the zero element must be listed")
    generators: list[int] = []
    # coords[i]: e_i as a sum of the generators (trailing zeros omitted);
    # sums[i][k]: the index of elems[i] + elems[generators[k]].
    coords: dict[int, list[int]] = {index[zero]: []}
    sums: dict[int, list[int]] = {index[zero]: []}
    for s in range(len(elems)):
        if s in coords:
            continue
        coords[s] = [0] * len(generators) + [1]
        sums[s] = []
        generators.append(s)
        # Add the new generator to everything spanned so far, and every
        # generator to what that reaches.
        frontier = list(coords)
        while frontier:
            i = frontier.pop()
            for k in range(len(sums[i]), len(generators)):
                total = add(elems[i], elems[generators[k]])
                if total not in index:
                    raise ValueError("the element list is not closed under addition")
                j = index[total]
                sums[i].append(j)
                if j not in coords:
                    coords[j] = coords[i] + [0] * (k + 1 - len(coords[i]))
                    coords[j][k] += 1
                    sums[j] = []
                    frontier.append(j)
    r = len(generators)
    vectors = {i: c + [0] * (r - len(c)) for i, c in coords.items()}
    rows = set()
    for i, targets in sums.items():
        for k, j in enumerate(targets):
            row = tuple(x + (t == k) - y for t, (x, y) in enumerate(zip(vectors[i], vectors[j])))
            if any(row):
                rows.add(row)
    factors = invariant_factors_of_presentation([list(row) for row in rows], r)
    if prod(factors) != len(elems):
        raise ValueError("presentation order mismatch; the table is not a group")
    return elementary_divisors(factors)
