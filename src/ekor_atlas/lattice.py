"""Exact lattice arithmetic.

Small helpers for integer matrices stored as tuples of rows, and rational
linear solves, inverses and kernels over ``fractions.Fraction``, all by one
Gauss-Jordan elimination.  No floating point: everything is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, mul
from typing import Optional, Sequence

Vector = tuple
Matrix = tuple


def _same_length(a: Sequence, b: Sequence) -> None:
    if len(a) != len(b):
        raise ValueError(f"vectors of lengths {len(a)} and {len(b)}")


def vec_add(a: Sequence, b: Sequence) -> Vector:
    _same_length(a, b)
    return tuple(map(add, a, b))


def vec_neg(a: Sequence) -> Vector:
    return tuple(-x for x in a)


def vec_dot(a: Sequence, b: Sequence):
    _same_length(a, b)
    return sum(map(mul, a, b))


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    inner = len(b)
    cols = len(b[0])
    return tuple(
        tuple(sum(row[l] * b[l][j] for l in range(inner)) for j in range(cols))
        for row in a)


def mat_vec(a: Sequence[Sequence], v: Sequence) -> Vector:
    return tuple(vec_dot(row, v) for row in a)


def row_mat(r: Sequence, a: Sequence[Sequence]) -> Vector:
    """Row vector times matrix."""
    return tuple(sum(map(mul, r, col)) for col in zip(*a))


def _row_reduce(aug: list[list[Fraction]], ncols: int) -> list[int]:
    """Gauss-Jordan elimination in place on the first ncols columns.

    Row r ends with 1 in the column of the r-th pivot and 0 above and below
    it; the rows past the pivots are 0 on these columns.  Returns the pivot
    columns in order.
    """
    rows = len(aug)
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        f = aug[r][c]
        aug[r] = [v / f for v in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                g = aug[i][c]
                aug[i] = [v - g * u for v, u in zip(aug[i], aug[r])]
        pivots.append(c)
    return pivots


def solve_linear(columns: Sequence[Sequence], target: Sequence) -> Optional[list[Fraction]]:
    """Solve sum_j c_j columns[j] = target exactly over the rationals.

    Returns the coefficient list, or None when the system is inconsistent.
    Free coefficients (underdetermined systems) are set to zero.
    """
    ncols = len(columns)
    aug = [[Fraction(col[i]) for col in columns] + [Fraction(t)]
           for i, t in enumerate(target)]
    pivots = _row_reduce(aug, ncols)
    if any(row[ncols] != 0 for row in aug[len(pivots):]):
        return None
    sol = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        sol[c] = aug[r][ncols]
    return sol


def fraction_matrix_inverse(a: Sequence[Sequence]) -> Optional[Matrix]:
    """Exact inverse of a square matrix, or None when singular."""
    n = len(a)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == k)) for k in range(n)]
           for i, row in enumerate(a)]
    if len(_row_reduce(aug, n)) < n:
        return None
    return tuple(tuple(row[n:]) for row in aug)


def integer_kernel(rows: Sequence[Sequence[int]], rank: int) -> tuple[Vector, ...]:
    """A basis of the rational kernel {v in Q^rank : row . v = 0 for every
    row}, in integer vectors: the reduced-echelon kernel vector of each free
    column, with its denominators cleared."""
    aug = [[Fraction(v) for v in row] for row in rows]
    pivots = _row_reduce(aug, rank)
    basis = []
    for free in (c for c in range(rank) if c not in pivots):
        v = [Fraction(int(c == free)) for c in range(rank)]
        for r, c in enumerate(pivots):
            v[c] = -aug[r][free]
        den = lcm(*(c.denominator for c in v))
        basis.append(tuple(int(c * den) for c in v))
    return tuple(basis)
