import random
from fractions import Fraction

from ekor_atlas.lattice import (
    _row_reduce,
    fraction_matrix_inverse,
    identity_matrix,
    integer_kernel,
    mat_mul,
    mat_vec,
    solve_linear,
    vec_add,
    vec_dot,
)
from ekor_atlas.siegel import siegel_datum


def test_solve_linear_unique():
    cols = [(1, 0, 1), (0, 1, 1)]
    sol = solve_linear(cols, (2, 3, 5))
    assert sol == [Fraction(2), Fraction(3)]


def test_solve_linear_inconsistent():
    cols = [(1, 0, 1), (0, 1, 1)]
    assert solve_linear(cols, (2, 3, 6)) is None


def test_solve_linear_fractional():
    sol = solve_linear([(2, 0), (0, 3)], (1, 1))
    assert sol == [Fraction(1, 2), Fraction(1, 3)]


def test_matrix_inverse():
    m = ((1, 2), (3, 5))
    inv = fraction_matrix_inverse(m)
    ident = tuple(tuple(Fraction(int(i == j)) for j in range(2)) for i in range(2))
    assert mat_mul(m, inv) == ident
    assert fraction_matrix_inverse(((1, 2), (2, 4))) is None


def random_relations(rng):
    """Up to 4 x 4, with zero rows and rows that are sums of earlier ones."""
    rank = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.random()
        if kind < 0.15:
            rows.append((0,) * rank)
        elif kind < 0.35 and rows:
            rows.append(vec_add(rng.choice(rows), rng.choice(rows)))
        else:
            rows.append(tuple(rng.randint(-6, 6) for _ in range(rank)))
    return rows, rank


def _row_rank(rows, ncols):
    return len(_row_reduce([[Fraction(c) for c in r] for r in rows], ncols))


def test_integer_kernel_random():
    """Each kernel vector is integral and killed by every row, and the
    kernel vectors are rank - (row rank) independent vectors."""
    rng = random.Random(2718)
    for _ in range(400):
        rows, rank = random_relations(rng)
        kernel = integer_kernel(rows, rank)
        for v in kernel:
            assert len(v) == rank and all(isinstance(c, int) for c in v), rows
            assert all(vec_dot(row, v) == 0 for row in rows), rows
        assert len(kernel) + _row_rank(rows, rank) == rank, rows
        assert _row_rank(kernel, rank) == len(kernel), rows
    assert integer_kernel([], 2) == ((1, 0), (0, 1))
    assert integer_kernel([(2, 0), (0, 3)], 2) == ()
    assert integer_kernel([(2, 3, 0)], 3) == ((-3, 2, 0), (0, 0, 1))


def test_integer_kernel_siegel_coroots():
    """The Siegel g=2 coroots, in lattice coordinates, have a
    one-dimensional kernel, the similitude factor up to sign."""
    datum = siegel_datum(2)
    kernel = integer_kernel(datum.coroots_lattice, datum.rank)
    assert len(kernel) == 1
    (phi,) = kernel
    assert all(vec_dot(c, phi) == 0 for c in datum.coroots_lattice)
    mu = datum.to_lattice((1, 1, 0, 0))
    assert abs(vec_dot(mu, phi)) == 1


def test_mat_vec_identity():
    assert mat_vec(identity_matrix(3), (4, 5, 6)) == (4, 5, 6)
