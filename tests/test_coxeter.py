import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekor_atlas.coxeter import (
    INFINITE_BOND,
    CoxeterError,
    CoxeterMatrix,
    format_finite_type,
)
from ekor_atlas.ekor import _orbit_closure
from ekor_atlas.oracles import coxeter_group_size

# orders of the irreducible finite groups used below
FINITE_ORDERS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("A", 4): 120,
    ("C", 2): 8, ("C", 3): 48, ("C", 4): 384,
    ("D", 4): 192,
    ("G", 2): 12,
    ("F", 4): 1152,
}


def path(bonds):
    n = len(bonds) + 1
    rows = [[2] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    for i, m in enumerate(bonds):
        rows[i][i + 1] = rows[i + 1][i] = m
    return CoxeterMatrix(rows)


def cycle(n):
    rows = [[2] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
        rows[i][(i + 1) % n] = rows[(i + 1) % n][i] = 3
    return CoxeterMatrix(rows)


def test_finite_paths():
    assert path([]).finite_type(frozenset({0})) == (("A", 1),)
    assert path([3, 3]).finite_type(frozenset({0, 1, 2})) == (("A", 3),)
    assert path([3, 4]).finite_type(frozenset({0, 1, 2})) == (("C", 3),)
    assert path([4, 3]).finite_type(frozenset({0, 1, 2})) == (("C", 3),)
    assert path([6]).finite_type(frozenset({0, 1})) == (("G", 2),)
    assert path([3, 4, 3]).finite_type(frozenset(range(4))) == (("F", 4),)


def test_finite_products():
    mat = path([2, 4])  # A1 next to C2
    assert format_finite_type(mat.finite_type(frozenset({0, 1, 2}))) == "A1xC2"
    assert format_finite_type(mat.finite_type(frozenset())) == "1"


def test_d4_fork():
    rows = [[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]]
    assert CoxeterMatrix(rows).finite_type(frozenset(range(4))) == (("D", 4),)


def test_affine_families():
    inf = CoxeterMatrix([[1, INFINITE_BOND], [INFINITE_BOND, 1]])
    assert inf.affine_components()[0][1] == ("A~", 1)
    assert cycle(3).affine_components()[0][1] == ("A~", 2)
    assert path([4, 4]).affine_components()[0][1] == ("C~", 2)
    assert path([4, 3, 4]).affine_components()[0][1] == ("C~", 3)
    assert path([3, 4, 3, 3]).affine_components()[0][1] == ("F~", 4)
    assert path([3, 6]).affine_components()[0][1] == ("G~", 2)


def test_affine_rejects_finite_and_hyperbolic():
    with pytest.raises(CoxeterError):
        path([3, 3]).affine_components()
    # compact hyperbolic triangle: every proper parabolic is finite but the
    # diagram is not affine
    tri = CoxeterMatrix([[1, 4, 4], [4, 1, 4], [4, 4, 1]])
    with pytest.raises(CoxeterError):
        tri.affine_components()


def test_finite_parabolic_inside_affine():
    mat = path([4, 3, 4])  # three bonds, four nodes
    assert mat.is_finite_parabolic(frozenset({0, 1, 2}))
    assert mat.is_finite_parabolic(frozenset())
    assert not mat.is_finite_parabolic(frozenset({0, 1, 2, 3}))
    # the answers are memoised; a subset out of range is still refused
    assert mat.is_finite_parabolic(frozenset({0, 1, 2}))
    for bad in ({0, 4}, {-1}, {0.0, 1.0, 2.0}):
        with pytest.raises(CoxeterError):
            mat.is_finite_parabolic(bad)


def test_orders_against_bfs():
    cases = [
        (path([3, 3]), frozenset({0, 1, 2}), ("A", 3)),
        (path([4]), frozenset({0, 1}), ("C", 2)),
        (path([3, 4]), frozenset({0, 1, 2}), ("C", 3)),
        (path([6]), frozenset({0, 1}), ("G", 2)),
    ]
    for mat, nodes, label in cases:
        assert mat.finite_type(nodes) == (label,)
        assert coxeter_group_size(mat, nodes, cap=5000) == FINITE_ORDERS[label]


def test_bfs_cap_on_infinite():
    # the cap bounds work on groups that never close up
    assert coxeter_group_size(path([4, 4]), cap=2000) is None


def test_diagram_map_validation():
    mat = path([3, 4])
    with pytest.raises(CoxeterError):
        mat.check_automorphism((2, 1, 0))  # would need the reversed bond pattern
    with pytest.raises(CoxeterError):
        mat.check_automorphism((0, 0, 1))  # not a permutation
    with pytest.raises(CoxeterError):
        mat.check_automorphism((0, 1))  # too short
    assert mat.check_automorphism([0, 1, 2]) == (0, 1, 2)
    sym = path([4, 3, 4])
    flip = sym.check_automorphism((3, 2, 1, 0))
    assert flip == (3, 2, 1, 0)
    assert sym.check_automorphism(flip[i] for i in flip) == (0, 1, 2, 3)


def test_orbit_closure_explicit():
    flip = path([4, 3, 4]).check_automorphism((3, 2, 1, 0))
    assert _orbit_closure(flip, frozenset({0})) == frozenset({0, 3})
    assert _orbit_closure(flip, frozenset()) == frozenset()
    cycle = (1, 2, 0, 3)
    assert _orbit_closure(cycle, frozenset({2})) == frozenset({0, 1, 2})
    assert _orbit_closure(cycle, frozenset({3})) == frozenset({3})


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
def test_orbit_closure_properties(mask_a, mask_b):
    flip = path([4, 3, 4]).check_automorphism((3, 2, 1, 0))
    sub_a = frozenset(i for i in range(4) if mask_a >> i & 1)
    sub_b = frozenset(i for i in range(4) if mask_b >> i & 1)
    closed = _orbit_closure(flip, sub_a)
    assert sub_a <= closed
    assert _orbit_closure(flip, closed) == closed
    assert _orbit_closure(flip, sub_a | sub_b) == closed | _orbit_closure(flip, sub_b)
    assert frozenset(flip[i] for i in closed) == closed


def test_bond_validation():
    with pytest.raises(CoxeterError):
        CoxeterMatrix([[1, 5], [5, 1]])
    with pytest.raises(CoxeterError):
        CoxeterMatrix([[1, 3], [4, 1]])
    with pytest.raises(CoxeterError):
        CoxeterMatrix([[2, 3], [3, 1]])
