"""The permutation table of the finite Weyl group against its dense-matrix
twin, element by element, on Siegel and non-Siegel data.

Each element is one permutation of the roots and of the W-orbit of the
ambient coordinate functionals.  The lattice action and the ambient
matrix are both read from it, so the twins include split adjoint C3 on
the coweight lattice: its ambient rows are not coordinate functionals and
its lattice is not the coroot lattice.  The refusal tests pin where a
byte per functional stops: more than 256 roots, or more than 256 roots
and ambient functionals together."""

import itertools

import pytest

from ekor_atlas import siegel
from ekor_atlas.affine import ExtendedAffineWeylGroup, GroupError
from ekor_atlas.lattice import identity_matrix, row_mat, vec_dot, vec_neg
from ekor_atlas.oracles import DenseWeylTable, cayley_ball, sigma, twisted_power
from ekor_atlas.rootdata import RootDatum
from ekor_atlas.siegel import siegel_context, siegel_datum
from helpers import (
    build_b2,
    build_from_cartan,
    build_g2,
    build_gl2_gl3,
    build_gl2_unitary,
    build_gl3_twisted,
    build_split_adjoint,
    product_order,
    root_system_by_solving,
)


def _cartan_c(n):
    """Cartan matrix of C_n, with the long simple root last."""
    cartan = [[2 if i == j else -int(abs(i - j) == 1) for j in range(n)]
              for i in range(n)]
    cartan[n - 2][n - 1] = -2
    return cartan


# the name is looked up on the module at call time, so a test can swap
# in the uncached constructor
DATA = {
    "siegel1": lambda: siegel.siegel_context(1).group,
    "siegel2": lambda: siegel.siegel_context(2).group,
    "siegel3": lambda: siegel.siegel_context(3).group,
    "gl3_twisted": build_gl3_twisted,
    "gl2_gl3": build_gl2_gl3,
    "gl2_unitary": build_gl2_unitary,
    "b2": build_b2,
    "g2": build_g2,
    "c3_adjoint": lambda: build_split_adjoint(_cartan_c(3)),
}
ORDERS = {"siegel1": 2, "siegel2": 8, "siegel3": 48, "gl3_twisted": 6,
          "gl2_gl3": 12, "gl2_unitary": 2, "b2": 8, "g2": 12,
          "c3_adjoint": 48}


@pytest.fixture(scope="module", params=sorted(DATA))
def pair(request):
    group = DATA[request.param]()
    return request.param, group, DenseWeylTable(group.datum)


@pytest.mark.parametrize("name", sorted(DATA) + ["siegel4", "siegel5"])
def test_root_closure_against_solving(name):
    """The integer closure in simple-root coordinates finds the roots,
    coroots, coordinates and highest roots of the per-root Fraction solve,
    in the same order, with integer coordinates."""
    datum = DATA[name]().datum if name in DATA else siegel_datum(int(name[-1]))
    for field, want in root_system_by_solving(datum).items():
        assert getattr(datum, field) == want, field
    assert all(type(c) is int for coords in datum.positive_coords for c in coords)


@pytest.mark.parametrize("name", sorted(DATA) + ["siegel4", "siegel5"])
def test_bonds_against_product_orders(name):
    """The bonds read from the wall roots are the orders of the products
    of two generators."""
    group = DATA[name]() if name in DATA else siegel_context(int(name[-1])).group
    gens = group.simple_reflections
    assert group.affine_coxeter.rows == tuple(
        tuple(product_order(group, x, y) for y in gens) for x in gens)


@pytest.mark.parametrize("name", sorted(DATA))
def test_build_forms_no_group_products(name, monkeypatch):
    """A fresh group, or a fresh Siegel context up to genus 3, is built
    from root lookups alone: mult and inv are never called."""
    def refuse(*args):
        raise AssertionError("the group law was called")

    monkeypatch.setattr(siegel, "siegel_context", siegel.SiegelContext)
    monkeypatch.setattr(ExtendedAffineWeylGroup, "mult", refuse)
    monkeypatch.setattr(ExtendedAffineWeylGroup, "inv", refuse)
    DATA[name]()


def test_same_elements_same_indices(pair):
    name, group, dense = pair
    assert group.finite_order == len(dense.mats) == ORDERS[name]
    for i, amb in enumerate(dense.ambient):
        assert group.ambient_matrix(i) == amb


def test_product_and_inverse(pair):
    _, group, dense = pair
    n = group.finite_order
    for i in range(n):
        assert group.winv(i) == dense.inv(i)
        for j in range(n):
            assert group.wmul(i, j) == dense.mul(i, j)


def test_action_on_lattice(pair):
    _, group, dense = pair
    rank = group.rank
    vectors = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    vectors.append(tuple(range(3, 3 - 2 * rank, -2)))
    for i in range(group.finite_order):
        for v in vectors:
            assert group.act(i, v) == dense.act(i, v)


def test_signs_and_descents(pair):
    """is_descent against the one-pairing rule evaluated with the dense
    table's signs, for every w and every translation in {-1, 0, 1}^rank."""
    _, group, dense = pair
    datum = group.datum
    index = datum.positive_roots.index
    walls = [(i + 1, vals, 1, 0) for i, vals in enumerate(datum.root_values)]
    walls += [(group.affine_node_of_component[j], vec_neg(theta), 1, 2)
              for j, theta in enumerate(datum.theta)]
    for w in range(group.finite_order):
        signs = dense.signs(w)
        neg = group._wperm[w][:group._npos].translate(group._negative)
        assert tuple(not b for b in neg) == signs
        for lam in itertools.product((-1, 0, 1), repeat=group.rank):
            x = group.from_parts(lam, w)
            for node, vals, hi, lo in walls:
                positive = signs[index(vals if node in group.finite_nodes
                                       else vec_neg(vals))]
                want = vec_dot(lam, vals) >= (hi if positive else lo)
                assert group.is_descent(x, node) == want


def test_length_against_closed_form(pair):
    """length against the closed form with one vec_dot per positive root
    and the dense table's signs, for every w and every translation in
    {-1, 0, 1}^rank."""
    _, group, dense = pair
    roots = group.datum.positive_roots
    for w in range(group.finite_order):
        signs = dense.signs(w)
        for lam in itertools.product((-1, 0, 1), repeat=group.rank):
            want = sum(abs(vec_dot(lam, vals) + (0 if positive else 1))
                       for vals, positive in zip(roots, signs))
            assert group.length(group.from_parts(lam, w)) == want


def test_wrong_rank_translation_raises(pair):
    """A translation of the wrong rank misses the pairing table, and the
    miss goes through vec_dot's length check."""
    _, group, _ = pair
    for lam in ((0,) * (group.rank + 1), (1,) * (group.rank - 1)):
        x = group.from_parts(lam, 0)
        with pytest.raises(ValueError):
            group.length(x)
        for node in range(group.num_nodes):
            with pytest.raises(ValueError):
                group.is_descent(x, node)


def _ball(group):
    """The Cayley ball of radius 2 around the translations by
    {-1, 0, 1}^rank, which meets several classes of pi_1."""
    seeds = [group.from_parts(lam, 0)
             for lam in itertools.product((-1, 0, 1), repeat=group.rank)]
    return list(cayley_ball(group, 2, seeds))


def test_node_products_against_mult(pair):
    """s_i x and x s_i by root lookup against the group law."""
    _, group, _ = pair
    for x in _ball(group):
        for i, s in enumerate(group.simple_reflections):
            assert group.simple_times(i, x) == group.mult(s, x)
            assert group.times_simple(x, i) == group.mult(x, s)


def test_conjugate_against_mult(pair):
    """The node of x s_j x^-1 by root lookup against the group law; the
    ball has conjugates that are simple reflections and ones that are not."""
    _, group, _ = pair
    found = set()
    for x in _ball(group):
        xinv = group.inv(x)
        for j, s in enumerate(group.simple_reflections):
            y = group.mult(group.mult(x, s), xinv)
            want = next((i for i, r in enumerate(group.simple_reflections) if r == y), None)
            assert group.conjugate_simple(x, j) == want
            found.add(want is None)
    assert found == {True, False}


def test_elements_of_another_group_interchangeable(pair):
    """An element is its (translation, finite index) pair, so one built by
    a second group on the same datum gets the same answers from both."""
    _, group, _ = pair
    other = ExtendedAffineWeylGroup(group.datum)
    for x in _ball(other):
        assert group.length(x) == other.length(x)
        assert group.reduced_word(x) == other.reduced_word(x)
        for i in range(group.num_nodes):
            assert group.simple_times(i, x) == other.simple_times(i, x)
            assert group.times_simple(x, i) == other.times_simple(x, i)
            assert group.conjugate_simple(x, i) == other.conjugate_simple(x, i)


def test_sigma_and_newton_order(pair):
    """sigma w sigma^-1 and the order of w sigma against matrix products,
    and the order against the least n with (x sigma)^n a translation."""
    _, group, dense = pair
    f = group.datum.frobenius_order
    for w in range(group.finite_order):
        x = group.from_parts((0,) * group.rank, w)
        assert sigma(group, x).w == dense.sigma_conjugate(w)
        n = group._newton_key(x)[0]
        assert n == dense.twisted_order(w)
        least = next(m for m in range(1, 10 * n + 1)
                     if m % f == 0 and twisted_power(group, x, m).w == 0)
        assert n == least


def test_newton_order_counts_sigma():
    """The unitary twist of GL2 fixes the root and is -1 on the radical:
    for w = 1 the roots come back after one step, the lattice after two."""
    group = build_gl2_unitary()
    orders = [group._newton_key(group.from_parts((0, 0), w))[0]
              for w in range(group.finite_order)]
    assert orders == [2, 2]


@pytest.mark.parametrize("g", [1, 2, 3])
def test_minus_identity_is_rejected(g):
    """-1 on the Siegel lattice permutes the roots like w0, but negates the
    radical, so no element of either table acts as it."""
    group = siegel_context(g).group
    dense = DenseWeylTable(group.datum)
    basis = identity_matrix(group.rank)
    minus = tuple(map(vec_neg, basis))
    w0 = next(i for i in range(group.finite_order)
              if not any(dense.signs(i)))
    assert all(row_mat(vals, dense.mats[w0]) == vec_neg(vals)
               for vals in group.datum.positive_roots)
    assert dense.index_of(minus) is None
    assert all([group.act(i, e) for e in basis] != list(minus)
               for i in range(group.finite_order))


def test_more_than_256_roots_refused():
    """C12 has 288 roots and 2^12 12! elements: refused before the search."""
    with pytest.raises(GroupError, match="288 roots"):
        build_from_cartan(_cartan_c(12))


def test_more_than_256_functionals_refused():
    """Simply connected C5 has 50 roots, and the W-orbits of its ambient
    coordinate functionals, the fundamental weights, have 10 + 40 + 80 +
    80 + 32 members: 292 functionals do not fit in a byte."""
    with pytest.raises(GroupError, match="292 roots and ambient functionals"):
        build_from_cartan(_cartan_c(5))


def test_split_adjoint_c5_builds():
    """Adjoint C5 has the same 50 roots, but its ambient functionals are
    the roots themselves: 100 functionals, and all 3,840 elements."""
    group = build_split_adjoint(_cartan_c(5))
    assert group.finite_order == 3840
    assert len(group._wperm[0]) == 100


def test_ambient_action_of_infinite_order_refused():
    """An ambient matrix may restrict to the reflection on X and still have
    infinite order off X: here e_1* o s = 2 e_1*, whose orbit never ends.
    The orbit search stops and the datum is refused."""
    datum = RootDatum(dim=2, basis=((1, 0),), simple_roots=((1, 0),),
                      simple_coroots=((2, 0),), ambient_weyl=[((-1, 0), (0, 2))])
    with pytest.raises(GroupError, match="more than 1026 roots and ambient"):
        ExtendedAffineWeylGroup(datum)
