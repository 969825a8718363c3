"""Integer Smith normal form and elementary divisors of finite abelian groups.

Three consumers: presenting a cokernel on the codomain generators, presenting
a kernel via its saturation lattice, and reading off the isomorphism class of
a brute-force group given only by its addition table (presented by all its
elements and their pairwise sum relations).  Matrices here are tiny, so the
classic alternating row/column Euclid with explicit transform tracking is
plenty.  The package's one Gauss-Jordan elimination over Q lives here too:
the rank and the exact inverse are both read off its reduced rows.
"""

from __future__ import annotations

from fractions import Fraction

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
    rows = [[codomain_orders[j] if i == j else 0 for j in range(t)] for i in range(t)]
    rows += [list(r) for r in matrix]
    return elementary_divisors(invariant_factors_of_presentation(rows, t))


def kernel_divisors(
    domain_orders: tuple[int, ...],
    codomain_orders: tuple[int, ...],
    matrix: tuple[tuple[int, ...], ...],
) -> list[int]:
    """Elementary divisors of ker(phi) for phi: prod Z/m_i -> prod Z/n_j.

    Lift to x in Z^s with x M = 0 mod n: the solution lattice K is the
    projection of the left kernel of the stacked matrix [M; diag(n)], and
    ker(phi) = K / diag(m) Z^s, presented by expressing the rows m_i e_i in a
    basis of K.
    """
    s, t = len(domain_orders), len(codomain_orders)
    if s == 0:
        return []
    if t == 0:
        return elementary_divisors(sorted(domain_orders))
    stacked = [list(matrix[i]) for i in range(s)]
    stacked += [[codomain_orders[j] if i == j else 0 for j in range(t)] for i in range(t)]
    d, u, _ = smith_normal_form(stacked)
    rank = sum(1 for i in range(min(len(d), t)) if d[i][i] != 0)
    basis = [u[i][:s] for i in range(rank, s + t)]
    if len(basis) != s:
        raise ValueError("kernel lattice has unexpected rank")
    inv = _fraction_inverse(basis)
    rows: Matrix = []
    for i in range(s):
        coords = [domain_orders[i] * inv[i][j] for j in range(s)]
        if any(x.denominator != 1 for x in coords):
            raise ValueError("relation lattice is not contained in the kernel lattice")
        rows.append([int(x) for x in coords])
    return elementary_divisors(invariant_factors_of_presentation(rows, s))


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


def _fraction_inverse(rows: Matrix) -> list[list[Fraction]]:
    """Exact inverse of a square integer matrix (rows acting on the left)."""
    n = len(rows)
    reduced, _ = row_reduce([list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(rows)])
    # [A | I] reduces to [I | A^-1] exactly when A is invertible.
    if any(reduced[i][i] != 1 for i in range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced]


def group_divisors_from_table(elements, add, zero) -> list[int]:
    """Elementary divisors of a finite abelian group given by its addition law.

    Presents the group on the full element list: the relation lattice of that
    generating set is spanned by e_g + e_h - e_{g+h}, whose Smith form yields
    the isomorphism class with no structure assumed beyond the table itself.
    """
    elems = list(elements)
    index = {g: i for i, g in enumerate(elems)}
    if zero not in index:
        raise ValueError("the zero element must be listed")
    m = len(elems)
    rows: Matrix = []
    for i, g in enumerate(elems):
        for j, h in enumerate(elems):
            total = add(g, h)
            if total not in index:
                raise ValueError("the element list is not closed under addition")
            row = [0] * m
            row[i] += 1
            row[j] += 1
            row[index[total]] -= 1
            rows.append(row)
    factors = invariant_factors_of_presentation(rows, m)
    order = 1
    for f in factors:
        order *= f
    if order != m:
        raise ValueError("presentation order mismatch; the table is not a group")
    return elementary_divisors(factors)
