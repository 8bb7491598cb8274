from itertools import combinations, product
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekor_atlas.coxeter import (
    INFINITE_BOND,
    CoxeterError,
    CoxeterMatrix,
    format_finite_type,
    reachable,
)
from ekor_atlas.oracles import check_automorphism, coxeter_group_size
from helpers import orbit_closure


def group_order(label):
    """Order of a finite Coxeter group from its type label."""
    orders = {"A": lambda n: factorial(n + 1), "C": lambda n: 2 ** n * factorial(n),
              "D": lambda n: 2 ** (n - 1) * factorial(n), "F": lambda n: 1152,
              "G": lambda n: 12}
    return prod(orders[fam](rank) for fam, rank in label)


def diagram(edges, n=None):
    """Diagram with the given (i, j, order) bonds, on n nodes or on the
    nodes the bonds name."""
    n = 1 + max(max(i, j) for i, j, _ in edges) if n is None else n
    rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, j, m in edges:
        rows[i][j] = rows[j][i] = m
    return CoxeterMatrix(rows)


def path(bonds):
    return diagram([(i, i + 1, m) for i, m in enumerate(bonds)], len(bonds) + 1)


def cycle(n):
    return diagram([(i, (i + 1) % n, 3) for i in range(n)])


def star(arms, centre_bonds=(3, 3, 3)):
    """Node 0 with arms of the given lengths; the bonds at the centre are
    centre_bonds, all others 3."""
    edges, nxt = [], 1
    for length, m in zip(arms, centre_bonds):
        edges.append((0, nxt, m))
        edges += [(k, k + 1, 3) for k in range(nxt, nxt + length - 1)]
        nxt += length
    return diagram(edges)


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


def test_all_small_diagrams_against_oracle():
    """Every diagram on at most three nodes with bonds 2, 3, 4, 6 and
    infinity, on every node set J: W_J is finite iff the breadth-first
    oracle closes up, and then the order of the label is its size.  No
    finite group of rank three or less has more than 48 elements."""
    bonds = (2, 3, 4, 6, INFINITE_BOND)
    for n in (1, 2, 3):
        pairs = list(combinations(range(n), 2))
        for choice in product(bonds, repeat=len(pairs)):
            mat = diagram([(i, j, m) for (i, j), m in zip(pairs, choice)], n)
            for k in range(n + 1):
                for J in combinations(range(n), k):
                    size = coxeter_group_size(mat, J, cap=60)
                    assert mat.is_finite_parabolic(J) == (size is not None), (mat, J)
                    if size is not None:
                        assert group_order(mat.finite_type(J)) == size, (mat, J)


@pytest.mark.parametrize("bonds", [[3, 4, 6], [4, 3, 6], [3, 6, 4]])
def test_paths_mixing_four_and_six_are_infinite(bonds):
    mat = path(bonds)
    nodes = mat.nodes()
    assert not mat.is_finite_parabolic(nodes)
    assert coxeter_group_size(mat, nodes, cap=2000) is None
    with pytest.raises(CoxeterError):
        mat.finite_type(nodes)


def test_star_labels():
    """One node of degree three: (1, 1, k) is D, three arm profiles are E6,
    E7 and E8, and the next three (affine E) are refused, as are a double
    bond at the centre and a centre of degree four."""
    for arms, label in [((1, 1, 1), ("D", 4)), ((1, 1, 4), ("D", 7)),
                        ((1, 2, 2), ("E", 6)), ((1, 2, 3), ("E", 7)),
                        ((1, 2, 4), ("E", 8))]:
        mat = star(arms)
        assert mat.finite_type(mat.nodes()) == (label,)
    for mat in [star((2, 2, 2)), star((1, 3, 3)), star((1, 2, 5)),
                star((1, 1, 1), (3, 3, 4)), star((1, 1, 1, 1), (3, 3, 3, 3))]:
        assert not mat.is_finite_parabolic(mat.nodes())


AFFINE = {
    "A~1": CoxeterMatrix([[1, INFINITE_BOND], [INFINITE_BOND, 1]]),
    "A~2": cycle(3),
    "A~3": cycle(4),
    "C~2": path([4, 4]),
    "C~3": path([4, 3, 4]),
    "B~3": star((1, 1, 1), (3, 3, 4)),
    "D~4": star((1, 1, 1, 1), (3, 3, 3, 3)),
    "D~5": diagram([(0, 1, 3), (0, 2, 3), (0, 3, 3), (3, 4, 3), (3, 5, 3)]),
    "E~6": star((2, 2, 2)),
    "E~7": star((1, 3, 3)),
    "E~8": star((1, 2, 5)),
    "F~4": path([3, 4, 3, 3]),
    "G~2": path([3, 6]),
}


def assert_minimal_infinite(mat):
    """The full node set is infinite, and every set omitting one node is
    finite."""
    nodes = mat.nodes()
    assert not mat.is_finite_parabolic(nodes)
    if mat.n <= 4:
        assert coxeter_group_size(mat, nodes, cap=2000) is None
    for i in nodes:
        assert mat.is_finite_parabolic(nodes - {i})
        mat.finite_type(nodes - {i})


def test_affine_families():
    for mat in AFFINE.values():
        assert_minimal_infinite(mat)


def test_compact_hyperbolic_triangle():
    """The finiteness rule alone does not single out affine diagrams: every
    proper parabolic of this triangle is finite as well."""
    assert_minimal_infinite(CoxeterMatrix([[1, 4, 4], [4, 1, 4], [4, 4, 1]]))


def test_finite_parabolic_inside_affine():
    mat = path([4, 3, 4])  # three bonds, four nodes
    assert mat.is_finite_parabolic(frozenset({0, 1, 2}))
    assert mat.is_finite_parabolic(frozenset())
    assert not mat.is_finite_parabolic(frozenset({0, 1, 2, 3}))
    # the answers are memoised; a subset out of range is still refused
    assert mat.is_finite_parabolic(frozenset({0, 1, 2}))
    for bad in ({0, 4}, {-1}, {0.0, 1.0, 2.0}, {True}, {False, 1}):
        with pytest.raises(CoxeterError):
            mat.is_finite_parabolic(bad)
        with pytest.raises(CoxeterError):
            mat.finite_type(bad)


def test_orders_against_bfs():
    cases = [
        (path([3, 3]), frozenset({0, 1, 2}), ("A", 3)),
        (path([4]), frozenset({0, 1}), ("C", 2)),
        (path([3, 4]), frozenset({0, 1, 2}), ("C", 3)),
        (path([6]), frozenset({0, 1}), ("G", 2)),
        (path([3, 4, 3]), frozenset(range(4)), ("F", 4)),
        (star((1, 1, 1)), frozenset(range(4)), ("D", 4)),
    ]
    for mat, nodes, label in cases:
        assert mat.finite_type(nodes) == (label,)
        assert coxeter_group_size(mat, nodes, cap=5000) == group_order((label,))


def test_bfs_cap_on_infinite():
    # the cap bounds work on groups that never close up
    assert coxeter_group_size(path([4, 4]), cap=2000) is None


def test_diagram_map_validation():
    mat = path([3, 4])
    with pytest.raises(CoxeterError):
        check_automorphism(mat, (2, 1, 0))  # would need the reversed bond pattern
    with pytest.raises(CoxeterError):
        check_automorphism(mat, (0, 0, 1))  # not a permutation
    with pytest.raises(CoxeterError):
        check_automorphism(mat, (0, 1))  # too short
    assert check_automorphism(mat, [0, 1, 2]) == (0, 1, 2)
    sym = path([4, 3, 4])
    flip = check_automorphism(sym, (3, 2, 1, 0))
    assert flip == (3, 2, 1, 0)
    assert check_automorphism(sym, (flip[i] for i in flip)) == (0, 1, 2, 3)


def test_orbit_closure_explicit():
    flip = check_automorphism(path([4, 3, 4]), (3, 2, 1, 0))
    assert orbit_closure(flip, frozenset({0})) == frozenset({0, 3})
    assert orbit_closure(flip, frozenset()) == frozenset()
    cycle = (1, 2, 0, 3)
    assert orbit_closure(cycle, frozenset({2})) == frozenset({0, 1, 2})
    assert orbit_closure(cycle, frozenset({3})) == frozenset({3})


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
def test_orbit_closure_properties(mask_a, mask_b):
    flip = check_automorphism(path([4, 3, 4]), (3, 2, 1, 0))
    sub_a = frozenset(i for i in range(4) if mask_a >> i & 1)
    sub_b = frozenset(i for i in range(4) if mask_b >> i & 1)
    closed = orbit_closure(flip, sub_a)
    assert sub_a <= closed
    assert orbit_closure(flip, closed) == closed
    assert orbit_closure(flip, sub_a | sub_b) == closed | orbit_closure(flip, sub_b)
    assert frozenset(flip[i] for i in closed) == closed


def test_reachable():
    """Each element once, seeds first in their order, then breadth-first:
    a depth-first walk of this graph from 0 would give 0, 1, 3, 5, 2, 4.
    Moves back to a seed or to an element already seen add nothing."""
    moves = {0: [1, 2, 0], 1: [3, 0], 2: [4, 1], 3: [5, 2], 4: [2], 5: [0, 5], 6: [6]}
    assert reachable([0], moves.__getitem__) == [0, 1, 2, 3, 4, 5]
    assert reachable([4, 6, 4, 0], moves.__getitem__) == [4, 6, 0, 2, 1, 3, 5]
    assert reachable([6], moves.__getitem__) == [6]
    assert reachable([], moves.__getitem__) == []


def test_bond_validation():
    with pytest.raises(CoxeterError, match="matrix must be square"):
        CoxeterMatrix([[1, 2], [2]])
    with pytest.raises(CoxeterError):
        CoxeterMatrix([[1, 5], [5, 1]])
    with pytest.raises(CoxeterError):
        CoxeterMatrix([[1, 3], [4, 1]])
    with pytest.raises(CoxeterError):
        CoxeterMatrix([[2, 3], [3, 1]])
