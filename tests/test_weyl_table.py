"""The permutation table of the finite Weyl group against its dense-matrix
twin, element by element, on Siegel and non-Siegel data.

Each element is one permutation of the roots and of the W-orbit of the
ambient coordinate functionals.  The lattice action and the ambient
matrix are both read from it, so the twins include split adjoint C3 on
the coweight lattice: its ambient rows are not coordinate functionals and
its lattice is not the coroot lattice.  The refusal tests pin where a
byte per functional stops: more than 256 roots, or more than 256 roots
and ambient functionals together."""

import functools
import itertools
import random

import pytest

from ekor_atlas import siegel
from ekor_atlas.admissible import admissible_set, weyl_orbit
from ekor_atlas.affine import ExtendedAffineWeylGroup, GroupError
from ekor_atlas.lattice import identity_matrix, row_mat, vec_dot, vec_neg
from ekor_atlas.oracles import (
    DenseWeylTable,
    bruhat_leq_subword,
    cayley_ball,
    check_automorphism,
    reflection_matrices,
    sigma,
    twisted_power,
)
from ekor_atlas.rootdata import RootDatum
from ekor_atlas.siegel import siegel_context, siegel_datum
from helpers import (
    build_b2,
    build_from_cartan,
    build_g2,
    build_gl2_cubic_restriction,
    build_gl2_gl3,
    build_gl2_restriction,
    build_gl2_unitary,
    build_gl3_twisted,
    build_split_adjoint,
    components_by_growth,
    product_order,
    refuse_group_law,
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
    "gl2_restriction": build_gl2_restriction,
    "gl2_cubic": build_gl2_cubic_restriction,
    "b2": build_b2,
    "g2": build_g2,
    "c3_adjoint": lambda: build_split_adjoint(_cartan_c(3)),
}
ORDERS = {"siegel1": 2, "siegel2": 8, "siegel3": 48, "gl3_twisted": 6,
          "gl2_gl3": 12, "gl2_unitary": 2, "gl2_restriction": 4, "gl2_cubic": 8,
          "b2": 8, "g2": 12, "c3_adjoint": 48}


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
    from root lookups alone: no general product is formed."""
    monkeypatch.setattr(siegel, "siegel_context", siegel.SiegelContext)
    refuse_group_law(monkeypatch)
    DATA[name]()


@pytest.mark.parametrize("name", sorted(DATA) + ["siegel4"])
def test_weyl_orbit_against_dense(name):
    """weyl_orbit, a walk of simple_times at the finite nodes, against the
    images of seeded vectors in {-2..2}^rank under every matrix of the
    dense table."""
    group = DATA[name]() if name in DATA else siegel_context(int(name[-1])).group
    dense = DenseWeylTable(group.datum)
    rng = random.Random(f"weyl-orbit/{name}")
    for _ in range(10):
        v = tuple(rng.randint(-2, 2) for _ in range(group.rank))
        assert weyl_orbit(group, v) == sorted({dense.act(w, v) for w in range(len(dense.mats))})


@pytest.mark.parametrize("name", sorted(DATA) + ["siegel4"])
def test_components_against_growth(name):
    """connected_components, a reachable walk per least unseen node, against
    components grown to a fixed point of adjacency, on every node subset of
    the affine diagram."""
    group = DATA[name]() if name in DATA else siegel_context(int(name[-1])).group
    mat = group.affine_coxeter
    for r in range(mat.n + 1):
        for nodes in itertools.combinations(range(mat.n), r):
            assert mat.connected_components(nodes) == components_by_growth(mat, nodes), nodes


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
    """The descent verdicts, read through ``left_minimal`` at one node,
    against the one-pairing rule evaluated with the dense table's signs,
    for every w and every translation in {-1, 0, 1}^rank."""
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
                assert (not group.left_minimal([x], (node,))) == want


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
                group.left_minimal([x], (node,))


def _ball(group):
    """The Cayley ball of radius 2 around the translations by
    {-1, 0, 1}^rank, which meets several classes of pi_1."""
    seeds = [group.from_parts(lam, 0)
             for lam in itertools.product((-1, 0, 1), repeat=group.rank)]
    return list(cayley_ball(group, 2, seeds))


def test_generators_against_matrices(pair):
    """Each generator t^(-e b^vee) s_b against the reflection v -> v -
    <v, b> b^vee, from the datum's lattice reflections at the finite nodes
    and from the highest root and its coroot at the affine ones (b = theta,
    e = 1), on the basis vectors."""
    _, group, dense = pair
    datum = group.datum
    basis = identity_matrix(group.rank)
    refs = [(i + 1, vals, coroot, 0)
            for i, (vals, coroot) in enumerate(zip(datum.root_values, datum.coroots_lattice))]
    refs += [(group.affine_node_of_component[j], theta,
              datum.positive_coroots[datum.positive_roots.index(theta)], 1)
             for j, theta in enumerate(datum.theta)]
    assert sorted(node for node, *_ in refs) == list(range(group.num_nodes))
    for node, b, coroot, e in refs:
        s = group.simple_reflections[node]
        assert s.trans == tuple(-e * c for c in coroot)
        for v in basis:
            assert dense.act(s.w, v) == tuple(x - vec_dot(v, b) * y for x, y in zip(v, coroot))
        if not e:
            assert dense.mats[s.w] == reflection_matrices(datum)[node - 1]


@pytest.mark.parametrize("name", sorted(DATA))
def test_sigma_diagram_keeps_the_bonds(name):
    """The build reads sigma on the nodes with no check: the datum's
    Frobenius check makes it a permutation that keeps every bond."""
    group = DATA[name]()
    assert check_automorphism(group.affine_coxeter, group.sigma_diagram) == group.sigma_diagram


def test_sigma_permutes_components():
    """The Frobenius of the restriction swaps the two GL2 factors: sigma
    exchanges the finite nodes 1 and 2 and the affine nodes 0 and 3, and
    conjugating a finite generator by the Frobenius matrix gives the
    generator of the image node."""
    group = build_gl2_restriction()
    assert group.affine_node_of_component == (0, 3)
    assert group.sigma_diagram == (3, 2, 1, 0)
    dense = DenseWeylTable(group.datum)
    for i in group.finite_nodes:
        s = group.simple_reflections[i]
        assert dense.sigma_conjugate(s.w) == group.simple_reflections[group.sigma_diagram[i]].w
    assert len(admissible_set(group, (1, 0, 1, 0)).elements) == 9


def test_torus_has_no_nodes():
    """A datum with no roots has no components, so no affine node and no
    generator; W is trivial."""
    group = ExtendedAffineWeylGroup(RootDatum(dim=1, basis=((1,),), simple_roots=(),
                                              simple_coroots=()))
    assert group.num_nodes == 0 and group.finite_order == 1
    assert group.affine_node_of_component == group.simple_reflections == group.sigma_diagram == ()


def test_node_products_against_mult(pair):
    """s_i x and x s_i by root lookup against the group law."""
    _, group, _ = pair
    for x in _ball(group):
        for i, s in enumerate(group.simple_reflections):
            assert group.simple_times(i, x) == group.mult(s, x)
            assert group.times_simple(x, i) == group.mult(x, s)


@pytest.mark.parametrize("name", sorted(DATA) + ["siegel4"])
def test_times_word_against_group_law(name, monkeypatch):
    """times_word from seeded start elements along seeded words of length
    0..20 over every node, against the fold of mult with the generators and
    the fold of one-letter times_simple; then again on a fresh group with
    the group law refused."""
    group = DATA[name]() if name in DATA else siegel_context(int(name[-1])).group
    rng = random.Random(f"times-word/{name}")
    cases = []
    for length in [n for n in range(21) for _ in range(3)]:
        x = group.from_parts(tuple(rng.randint(-2, 2) for _ in range(group.rank)),
                             rng.randrange(group.finite_order))
        word = [rng.randrange(group.num_nodes) for _ in range(length)]
        by_law = by_letter = x
        for i in word:
            by_law = group.mult(by_law, group.simple_reflections[i])
            by_letter = group.times_simple(by_letter, i)
        assert group.times_word(x, word) == by_law == by_letter
        cases.append((x, word, by_law))
    fresh = ExtendedAffineWeylGroup(group.datum)
    refuse_group_law(monkeypatch)
    for x, word, want in cases:
        assert fresh.times_word(x, iter(word)) == want


@pytest.mark.parametrize("name", sorted(DATA) + ["siegel4"])
def test_evaluate_word_against_group_law(name, monkeypatch):
    """evaluate_word(word) is the product of the generators, and
    evaluate_word(word, omega) is that times omega, for every length-zero
    omega met as the length-zero part of a translation in {-1, 0, 1}^rank
    and seeded words of length 0..12; then both branches again on a fresh
    group with the group law refused."""
    group = DATA[name]() if name in DATA else siegel_context(int(name[-1])).group
    gens = group.simple_reflections
    omegas = sorted({group.reduced_word(group.from_parts(lam, 0)).omega
                     for lam in itertools.product((-1, 0, 1), repeat=group.rank)})
    rng = random.Random(f"omega-words/{name}")
    cases = []
    for omega in omegas:
        for length in range(0, 13, 3):
            word = tuple(rng.randrange(group.num_nodes) for _ in range(length))
            plain = functools.reduce(group.mult, (gens[i] for i in word), group.identity)
            want = group.mult(plain, omega.element)
            assert group.evaluate_word(word) == plain
            assert group.evaluate_word(word, omega) == want
            cases.append((word, omega, plain, want))
    fresh = ExtendedAffineWeylGroup(group.datum)
    refuse_group_law(monkeypatch)
    for word, omega, plain, want in cases:
        assert fresh.evaluate_word(iter(word)) == plain
        assert fresh.evaluate_word(iter(word), omega) == want


@pytest.mark.parametrize("name", sorted(set(DATA) - {"b2", "g2"}))
def test_bruhat_across_length_zero_cosets(name):
    """On data whose Omega is more than 1 (Z/2 for c3_adjoint, Z or Z^k
    for the others): the length-zero parts of the translations in
    {-1, 0, 1}^rank have distinct translations, which is what lets the
    Bruhat walk end on a translation, and the walk answers as the subword
    oracle on all pairs of the radius-3 ball around four of them, where
    most pairs lie in different cosets of the affine Weyl group."""
    group = DATA[name]()
    omegas = sorted({group.reduced_word(group.from_parts(lam, 0)).omega.element
                     for lam in itertools.product((-1, 0, 1), repeat=group.rank)})
    assert len(omegas) > 1
    assert len({omega.trans for omega in omegas}) == len(omegas)
    ball = list(cayley_ball(group, 3, omegas[:4]))
    cache = {}
    found = set()
    for x in ball:
        for y in ball:
            leq = group.bruhat_leq(x, y)
            assert leq == bruhat_leq_subword(group, x, y, cache)
            found.add((leq, group.length(x) <= group.length(y)))
    assert found == {(False, False), (False, True), (True, True)}


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
