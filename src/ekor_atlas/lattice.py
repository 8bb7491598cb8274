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
    """
    m = [list(map(int, row)) for row in relations]
    nr = len(m)
    V = [[int(i == j) for j in range(rank)] for i in range(rank)]
    if nr == 0:
        return [], tuple(tuple(row) for row in V)
    for row in m:
        if len(row) != rank:
            raise ValueError("relation length does not match the rank")

    def col_swap(a, b):
        for row in m:
            row[a], row[b] = row[b], row[a]
        for row in V:
            row[a], row[b] = row[b], row[a]

    def col_addmul(dst, src, q):
        for row in m:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def col_negate(a):
        for row in m:
            row[a] = -row[a]
        for row in V:
            row[a] = -row[a]

    t = 0
    while t < min(nr, rank):
        # pick the smallest nonzero pivot in the remaining block
        pivot = None
        for i in range(t, nr):
            for j in range(t, rank):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[t], m[pi] = m[pi], m[t]
        if pj != t:
            col_swap(t, pj)
        while True:
            # clear the column below and the row to the right of the pivot
            for i in range(t + 1, nr):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    if q:
                        for j in range(rank):
                            m[i][j] -= q * m[t][j]
            for j in range(t + 1, rank):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    if q:
                        col_addmul(j, t, -q)
            residue = None
            for i in range(t + 1, nr):
                if m[i][t] != 0:
                    residue = True
            for j in range(t + 1, rank):
                if m[t][j] != 0:
                    residue = True
            if not residue:
                # enforce divisibility of the remaining block
                offender = None
                for i in range(t + 1, nr):
                    for j in range(t + 1, rank):
                        if m[i][j] % m[t][t] != 0:
                            offender = j
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                col_addmul(t, offender, 1)
                continue
            # the euclidean steps shrank something; re-select a pivot in row/col t
            best = (t, t)
            for i in range(t, nr):
                if m[i][t] != 0 and abs(m[i][t]) < abs(m[best[0]][best[1]]):
                    best = (i, t)
            for j in range(t, rank):
                if m[t][j] != 0 and abs(m[t][j]) < abs(m[best[0]][best[1]]):
                    best = (t, j)
            bi, bj = best
            if bi != t:
                m[t], m[bi] = m[bi], m[t]
            if bj != t:
                col_swap(t, bj)
        if m[t][t] < 0:
            col_negate(t)
        t += 1
    diag = [m[i][i] for i in range(t)]
    return diag, tuple(tuple(row) for row in V)


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

    def to_json(self) -> dict:
        return {"free": list(self.free), "torsion": list(self.torsion)}


class AbelianQuotient:
    """Z^rank modulo the row span of integer relations, via Smith form."""

    def __init__(self, rank: int, relations: Iterable[Sequence[int]]):
        rel = [tuple(map(int, r)) for r in relations]
        rel = [r for r in rel if any(r)]
        self.rank = rank
        diag, V = smith_normal_form(rel, rank)
        self._V = V
        self._torsion_pos = tuple((i, d) for i, d in enumerate(diag) if d > 1)
        self._free_pos = tuple(range(len(diag), rank))
        self.moduli = tuple(d for _, d in self._torsion_pos)
        self.free_rank = rank - len(diag)

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
