"""Gauss-Jordan elimination over Q, the oracle for the rank of the face
equations that gamma_space.face_equations counts from the witnesses of
faces 0 and 2 alone: here every face row of the degree is eliminated."""

from fractions import Fraction


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
