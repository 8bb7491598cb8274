"""Exact lattice arithmetic.

Small helpers for integer matrices stored as tuples of rows, rational linear
solves over ``fractions.Fraction``, a Smith normal form with column transform,
and finitely generated abelian quotients Z^k / (relation span).  No floating
point: everything is exact.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul
from typing import Iterable, NamedTuple, Optional, Sequence

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


def smith_normal_form(relations: Sequence[Sequence[int]], rank: int):
    """Diagonalise the relation matrix by unimodular row and column moves.

    Returns (diag, V) where diag is the list of nonzero invariant factors
    d_1 | d_2 | ... and V is the accumulated column transform: writing the
    input rows as a matrix M, there are unimodular U, V with U M V diagonal.
    Only V is tracked; row moves act on copies of the relations.

    One pivot rule: each round moves the smallest nonzero entry of the
    remaining block to position (t, t) and reduces its column and its row
    by it.  A nonzero remainder is smaller than the pivot.  A block entry
    that the pivot does not divide is brought into the pivot row by adding
    its row; the next round then picks a smaller pivot, or the same one and
    leaves a remainder in that row.  Either way the pivot shrinks, so the
    loop ends.
    """
    m = [list(map(int, row)) for row in relations]
    if any(len(row) != rank for row in m):
        raise ValueError("relation length does not match the rank")
    V = [[int(i == j) for j in range(rank)] for i in range(rank)]
    nr = len(m)
    t = 0
    while t < min(nr, rank):
        block = [(abs(m[i][j]), i, j) for i in range(t, nr)
                 for j in range(t, rank) if m[i][j]]
        if not block:
            break
        _, pi, pj = min(block)
        m[t], m[pi] = m[pi], m[t]
        for row in m + V:
            row[t], row[pj] = row[pj], row[t]
        p = m[t][t]
        for i in range(t + 1, nr):
            q = m[i][t] // p
            m[i] = [a - q * b for a, b in zip(m[i], m[t])]
        for j in range(t + 1, rank):
            q = m[t][j] // p
            for row in m + V:
                row[j] -= q * row[t]
        if any(m[i][t] for i in range(t + 1, nr)) or any(m[t][t + 1:]):
            continue
        bad = next((i for i in range(t + 1, nr)
                    if any(v % p for v in m[i][t + 1:])), None)
        if bad is not None:
            m[t] = [a + b for a, b in zip(m[t], m[bad])]
            continue
        if p < 0:
            for row in m + V:
                row[t] = -row[t]
        t += 1
    return [m[i][i] for i in range(t)], tuple(tuple(row) for row in V)


class Pi1Class(NamedTuple):
    """An element of a finitely generated abelian quotient.

    ``free`` are the coordinates of infinite order, ``torsion`` the residues
    modulo the invariant factors in ``moduli`` (factors of 1 are dropped).
    """

    free: tuple[int, ...]
    torsion: tuple[int, ...]
    moduli: tuple[int, ...]

    def __add__(self, other: "Pi1Class") -> "Pi1Class":
        if self.moduli != other.moduli or len(self.free) != len(other.free):
            raise ValueError("classes from different quotients")
        return Pi1Class(vec_add(self.free, other.free),
                        tuple((a + b) % d for a, b, d in
                              zip(self.torsion, other.torsion, self.moduli)),
                        self.moduli)

    def __neg__(self) -> "Pi1Class":
        return Pi1Class(vec_neg(self.free),
                        tuple((-a) % d for a, d in zip(self.torsion, self.moduli)),
                        self.moduli)

    def is_zero(self) -> bool:
        return not any(self.free) and not any(self.torsion)


class AbelianQuotient:
    """Z^rank modulo the row span of integer relations, via Smith form."""

    def __init__(self, rank: int, relations: Iterable[Sequence[int]]):
        self.rank = rank
        diag, V = smith_normal_form(relations, rank)
        self._V = V
        self._torsion_pos = tuple((i, d) for i, d in enumerate(diag) if d > 1)
        self._free_pos = tuple(range(len(diag), rank))
        self.moduli = tuple(d for _, d in self._torsion_pos)

    def class_of(self, x: Sequence[int]) -> Pi1Class:
        if len(x) != self.rank:
            raise ValueError("vector length does not match the rank")
        z = row_mat(tuple(x), self._V)
        return Pi1Class(tuple(z[i] for i in self._free_pos),
                        tuple(z[i] % d for i, d in self._torsion_pos),
                        self.moduli)

    @property
    def zero(self) -> Pi1Class:
        return self.class_of((0,) * self.rank)
