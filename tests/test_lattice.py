import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ekor_atlas.lattice import (
    AbelianQuotient,
    fraction_matrix_inverse,
    identity_matrix,
    mat_mul,
    mat_vec,
    smith_normal_form,
    solve_linear,
    vec_add,
)
from helpers import determinant, invariant_factors_by_minors

small_vec = st.tuples(*([st.integers(min_value=-9, max_value=9)] * 3))


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


def test_smith_diagonal_divides():
    """The invariant factors against determinantal divisors; V is
    unimodular and every relation has class zero in the quotient."""
    rng = random.Random(2718)
    for _ in range(400):
        rows, rank = random_relations(rng)
        diag, v = smith_normal_form(rows, rank)
        assert diag == invariant_factors_by_minors(rows, rank), rows
        assert abs(determinant(v)) == 1
        q = AbelianQuotient(rank, rows)
        assert all(q.class_of(r).is_zero() for r in rows)
    assert smith_normal_form([(2, 0, 0), (0, 6, 0)], 3)[0] == [2, 6]
    assert smith_normal_form([(2, 0), (0, 3)], 2)[0] == [1, 6]
    assert smith_normal_form([(0, 0)], 2)[0] == []


def test_quotient_with_torsion():
    # Z^2 / <(2, 0)> = Z/2 + Z
    q = AbelianQuotient(2, [(2, 0)])
    assert q.class_of((2, 0)).is_zero()
    assert not q.class_of((1, 0)).is_zero()
    assert q.class_of((1, 0)) + q.class_of((1, 0)) == q.zero
    assert not q.class_of((0, 1)).is_zero()
    # every class carries the torsion shape of the whole quotient
    assert q.class_of((0, 1)).moduli == (2,)
    assert q.class_of((0, 1)).torsion == (0,)


def test_quotient_free_rank_one():
    # Z^3 modulo the hexagonal root lattice is infinite cyclic
    q = AbelianQuotient(3, [(1, -1, 0), (0, 1, -1)])
    kappa = q.class_of((1, 0, 0))
    assert kappa.moduli == ()
    assert len(kappa.free) == 1 and abs(kappa.free[0]) == 1
    assert q.class_of((1, 1, 1)) == kappa + kappa + kappa


@settings(max_examples=60, deadline=None)
@given(small_vec, small_vec)
def test_quotient_homomorphism(u, v):
    q = AbelianQuotient(3, [(1, -1, 0), (2, 0, 4)])
    assert q.class_of(vec_add(u, v)) == q.class_of(u) + q.class_of(v)
    assert (q.class_of(u) + (-q.class_of(u))).is_zero()


@settings(max_examples=40, deadline=None)
@given(small_vec)
def test_quotient_kills_exactly_the_relations(coeffs):
    rel = [(1, -1, 0), (0, 1, -1)]
    q = AbelianQuotient(3, rel)
    combo = (0, 0, 0)
    for c, r in zip(coeffs[:2], rel):
        combo = vec_add(combo, tuple(c * t for t in r))
    assert q.class_of(combo).is_zero()


def test_mat_vec_identity():
    assert mat_vec(identity_matrix(3), (4, 5, 6)) == (4, 5, 6)
