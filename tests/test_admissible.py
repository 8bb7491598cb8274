import itertools
import re
from fractions import Fraction

import pytest

from ekor_atlas import admissible
from ekor_atlas.admissible import (
    AdmissibleSet,
    admissible_set,
    bruhat_hasse_edges,
    kw_elements,
    parahoric_label,
    weyl_orbit,
)
from ekor_atlas.affine import ALWAYS, NEVER, ExtendedAffineWeylGroup, GroupError, element_label
from ekor_atlas.oracles import (
    admissible_by_right_words,
    admissible_by_subwords,
    descents_by_length,
    is_left_minimal,
    straight_classes,
)
from ekor_atlas.siegel import siegel_context, siegel_datum
from helpers import (
    build_b2,
    build_d4_adjoint,
    build_g2,
    build_gl,
    build_gl2_cubic_restriction,
    build_gl2_gl3,
    build_gl2_unitary,
    build_gl3_reversed,
    double_coset_minima,
    hasse_by_reduction,
    is_right_minimal,
    kw_by_sorting_all,
    refuse_group_law,
    saturated_set,
    siegel_levels,
)

SIZES = {1: 3, 2: 13, 3: 79, 4: 633, 5: 6331}
PROFILES = {
    1: {0: 1, 1: 2},
    2: {0: 1, 1: 3, 2: 5, 3: 4},
    3: {0: 1, 1: 4, 2: 9, 3: 17, 4: 22, 5: 18, 6: 8},
    4: {0: 1, 1: 5, 2: 14, 3: 31, 4: 59, 5: 93, 6: 121, 7: 131,
        8: 106, 9: 56, 10: 16},
    5: {0: 1, 1: 6, 2: 20, 3: 51, 4: 110, 5: 211, 6: 362, 7: 555, 8: 766,
        9: 945, 10: 1021, 11: 946, 12: 725, 13: 420, 14: 160, 15: 32},
}


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_sizes_and_length_profile(g):
    from ekor_atlas.siegel import siegel_context
    adm = siegel_context(g).adm()
    assert len(adm) == SIZES[g]
    assert adm.by_length() == PROFILES[g]


@pytest.mark.parametrize("g", [4, 5])
def test_pairing_table_holds_the_orbit_of_mu(g):
    """Building Adm(mu) in a fresh context makes rows only for the 2^g
    translations of the Weyl orbit of mu."""
    from ekor_atlas import siegel
    ctx = siegel.SiegelContext(g)
    ctx.adm()
    group = ctx.group
    orbit = weyl_orbit(group, group.datum.to_lattice(ctx.mu))
    assert len(group._rows) == 2 ** g
    assert set(group._rows) == set(orbit)


@pytest.mark.parametrize("g", [1, 2])
def test_matches_right_word_oracle(g):
    from ekor_atlas.siegel import siegel_context
    ctx = siegel_context(g)
    group = ctx.group
    orbit = weyl_orbit(group, group.datum.to_lattice(ctx.mu))
    maxima = [group.from_parts(lam, 0) for lam in orbit]
    assert set(ctx.adm().elements) == admissible_by_right_words(group, maxima)


def _walk_and_closure(group, mu):
    """The vertex rule and the subword closure for one cocharacter."""
    orbit = weyl_orbit(group, group.datum.to_lattice(mu))
    walk = admissible._vertex_rule(group, orbit)
    assert walk is not None, "datum fell outside the vertex rule"
    assert len(set(walk)) == len(walk)
    closure = admissible_by_subwords(group, [group.from_parts(lam, 0) for lam in orbit])
    return set(walk), closure


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_vertex_rule_matches_closure_siegel(g):
    from ekor_atlas.siegel import siegel_context
    ctx = siegel_context(g)
    walk, closure = _walk_and_closure(ctx.group, ctx.mu)
    assert walk == closure
    assert len(walk) == SIZES[g]


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_vertex_rule_matches_closure_gl(n, twisted):
    group = build_gl(n, twisted)
    for k in range(n + 1):
        walk, closure = _walk_and_closure(group, (1,) * k + (0,) * (n - k))
        assert walk == closure, k


@pytest.mark.parametrize("mu", [(1, 0, 1, 0, 0), (1, 0, 1, 1, 0),
                                (1, 1, 1, 0, 0), (0, 0, 1, 1, 0)])
def test_vertex_rule_matches_closure_gl2_gl3(mu):
    walk, closure = _walk_and_closure(build_gl2_gl3(), mu)
    assert walk == closure


@pytest.mark.parametrize("mu", [(0, 0), (1, 0), (1, 1)])
def test_vertex_rule_matches_closure_unitary(mu):
    walk, closure = _walk_and_closure(build_gl2_unitary(), mu)
    assert walk == closure


def test_vertex_rule_matches_closure_cubic_restriction():
    """sigma of order 3 leaves Adm(mu) alone, as it must: 3^3 elements,
    the product of three GL2 sets of size 3."""
    walk, closure = _walk_and_closure(build_gl2_cubic_restriction(), (1, 0, 1, 0, 1, 0))
    assert walk == closure
    assert len(walk) == 27


def test_vertex_rule_count_g6():
    group = ExtendedAffineWeylGroup(siegel_datum(6))
    mu = (1,) * 6 + (0,) * 6
    orbit = weyl_orbit(group, group.datum.to_lattice(mu))
    assert len(admissible._vertex_rule(group, orbit)) == 75_973


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_vertex_masks_match_coordinates(g):
    """The byte-lane masks of every w against their definition, one
    coordinate at a time: lane r is moved when w^-1(r) != r and forced to
    1 when w^-1(r) < r (ambient_part(w)[r] = w^-1(r))."""
    group = siegel_context(g).group
    masks = list(admissible._vertex_masks(group))
    assert len(masks) == group.finite_order
    for widx, (moved, ones) in enumerate(masks):
        line = group.ambient_part(widx)
        assert moved == sum(0x80 << 8 * r for r, c in enumerate(line) if c != r)
        assert ones == sum(0x80 << 8 * r for r, c in enumerate(line) if c < r)


# data outside the vertex rule: builder, cocharacter, size of Adm(mu)
FALLBACK = {
    "b2": (build_b2, (1, 1), 19),
    "g2": (build_g2, (2, 1), 41),
    "d4_adjoint_w1": (build_d4_adjoint, (1, 0, 0, 0), 115),
    "gl3_211": (lambda: build_gl(3), (2, 1, 1), 7),
    "gl3_reversed": (build_gl3_reversed, (0, 0, 1), 7),
}


def test_outside_vertex_rule_falls_back_to_closure():
    """B2 and G2 from their Cartan matrices and split adjoint D4 have
    non-permutation reflections, a cocharacter that is not 0/1 leaves the
    theorem, and so do roots ordered against the coordinates.  The closure
    by node products equals its twin, which forms general products."""
    for build, mu, size in FALLBACK.values():
        group = build()
        orbit = weyl_orbit(group, group.datum.to_lattice(mu))
        assert admissible._vertex_rule(group, orbit) is None
        maxima = [group.from_parts(lam, 0) for lam in orbit]
        found = set(admissible_set(group, mu))
        assert len(found) == size
        assert found == admissible_by_right_words(group, maxima)


@pytest.mark.parametrize("name", sorted(FALLBACK))
def test_fallback_closure_forms_no_general_product(name, monkeypatch):
    """On a fresh group with the general law refused, the fallback closure
    gives the set of an unrefused fresh group, in the same order."""
    build, mu, _ = FALLBACK[name]
    want = admissible_set(build(), mu)
    refuse_group_law(monkeypatch)
    got = admissible_set(build(), mu)
    assert got.found == want.found and got.maxima == want.maxima


def test_maxima_are_orbit_translations(ctx2):
    group = ctx2.group
    adm = ctx2.adm()
    orbit = weyl_orbit(group, group.datum.to_lattice(ctx2.mu))
    assert len(orbit) == 4
    expected = {group.from_parts(lam, 0) for lam in orbit}
    assert set(adm.maxima) == expected
    for m in adm.maxima:
        assert not any(group.bruhat_leq(m, x) and m != x
                       for x in adm.elements)


def test_every_element_below_a_maximum(ctx2):
    group = ctx2.group
    adm = ctx2.adm()
    for x in adm.elements:
        assert any(group.bruhat_leq(x, m) for m in adm.maxima)


def test_requires_dominant_weight(ctx2):
    with pytest.raises(GroupError):
        admissible_set(ctx2.group, (0, 0, 1, 1))


def test_result_is_cached(ctx2):
    assert ctx2.adm() is ctx2.adm()


def test_membership(ctx2):
    group = ctx2.group
    adm = ctx2.adm()
    assert all(x in adm for x in adm.elements)
    # wrong Kottwitz class, and right class but too long
    assert group.from_parts(group.datum.to_lattice((2, 2, 0, 0)), 0) not in adm
    assert group.from_parts(group.datum.to_lattice((2, 1, 0, -1)), 0) not in adm


# ------------------------------------------------------------ parahorics


def test_parahoric_label_validation(ctx2, gl3_twisted):
    group = ctx2.group
    assert parahoric_label(group, [2, 1]) == frozenset({1, 2})
    with pytest.raises(GroupError):
        parahoric_label(group, [3])
    with pytest.raises(GroupError):
        parahoric_label(group, [0, 1, 2])  # whole affine diagram
    # node 1 maps to node 2 under the twist, so {1} is not stable
    with pytest.raises(GroupError):
        parahoric_label(gl3_twisted, [1])
    assert parahoric_label(gl3_twisted, [1, 2]) == frozenset({1, 2})


@pytest.mark.parametrize("node", [1.7, Fraction(1), "1", 1.0, True],
                         ids=["float", "fraction", "string", "integral_float", "bool"])
def test_parahoric_label_refuses_non_integer_nodes(ctx2, node):
    """A node is kept as given, not cast: 1.7 is not truncated to 1, and
    a value equal to the int 1 is refused too.  The refusal comes before
    the range check."""
    with pytest.raises(GroupError, match=re.escape(f"node {node!r} is not an integer")):
        parahoric_label(ctx2.group, [node])
    with pytest.raises(GroupError, match="is not an integer"):
        parahoric_label(ctx2.group, [node, 99])


def test_kw_hyperspecial_g2(ctx2):
    labels = {element_label(ctx2.group, x)
              for x in kw_elements(ctx2.adm(), ctx2.hyperspecial)}
    assert labels == {"tau", "s0.tau", "s0.s1.tau", "s0.s1.s0.tau"}


def test_kw_iwahori_is_whole_set(ctx2):
    adm = ctx2.adm()
    assert set(kw_elements(adm, frozenset())) == set(adm.elements)


@pytest.mark.parametrize("nodes", [frozenset({1, 2}), frozenset({0}),
                                   frozenset({0, 2}), frozenset({2})])
def test_kw_elements_are_minimal(ctx2, nodes):
    group = ctx2.group
    adm = ctx2.adm()
    chosen = kw_elements(adm, nodes)
    assert len(set(chosen)) == len(chosen)
    for x in chosen:
        assert is_left_minimal(group, x, nodes)
    # every admissible element has a representative below it in the coset
    reps = set(chosen)
    for x in adm.elements:
        candidates = [group.mult(p, x)
                      for p in group.parabolic_subgroup_elements(nodes)]
        assert reps.intersection(candidates)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_kw_order_matches_sorting_all_siegel(g):
    """Filtering, then wording and sorting the survivors, gives the filtered
    canonical order of the whole set, element for element."""
    adm = siegel_context(g).adm()
    for nodes in siegel_levels(g):
        assert kw_elements(adm, nodes) == kw_by_sorting_all(adm, nodes), sorted(nodes)


def test_kw_order_matches_sorting_all_g4(ctx4):
    adm = ctx4.adm()
    for nodes in (ctx4.hyperspecial, frozenset({0})):
        assert kw_elements(adm, nodes) == kw_by_sorting_all(adm, nodes)
    assert adm.elements == kw_by_sorting_all(adm, ctx4.iwahori)


def test_kw_order_matches_sorting_all_subword_fallback():
    """The same on a datum outside the vertex rule, which the subword
    closure enumerates."""
    group = build_b2()
    adm = admissible_set(group, (1, 1))
    orbit = weyl_orbit(group, group.datum.to_lattice((1, 1)))
    assert admissible._vertex_rule(group, orbit) is None
    # every proper subset of the three affine nodes is a level
    for nodes in itertools.chain.from_iterable(
            itertools.combinations(range(3), r) for r in range(3)):
        label = parahoric_label(group, nodes)
        assert kw_elements(adm, label) == kw_by_sorting_all(adm, nodes), nodes


def _filter_agrees(adm, label):
    """``group.left_minimal`` against the per-element oracle, order included, and
    ``kw_elements`` against it as a set."""
    group = adm.group
    want = [x for x in adm.found if is_left_minimal(group, x, label)]
    assert group.left_minimal(adm.found, label) == want, sorted(label)
    assert set(kw_elements(adm, label)) == set(want), sorted(label)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_level_filter_matches_per_element_test_siegel(g):
    """Every level of Siegel g <= 3 (all are Frobenius-stable), and {0} and
    hyperspecial level at g = 4."""
    ctx = siegel_context(g)
    levels = siegel_levels(g) if g <= 3 else [frozenset({0}), ctx.hyperspecial]
    for label in levels:
        _filter_agrees(ctx.adm(), label)


@pytest.mark.parametrize("build, mu", [(lambda: build_gl(4), (1, 1, 0, 0)),
                                       (build_gl2_unitary, (1, 0))])
def test_level_filter_matches_per_element_test_other_data(build, mu):
    """A split and a unitary datum, at every level they have."""
    group = build()
    adm = admissible_set(group, mu)
    for r in range(group.num_nodes):
        for nodes in itertools.combinations(range(group.num_nodes), r):
            try:
                label = parahoric_label(group, nodes)
            except GroupError:
                continue
            _filter_agrees(adm, label)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_level_verdicts_hold_for_every_w(g):
    """Per translation of the orbit of mu and per node, the verdict of
    the row: t^l w has the descent iff perm(w)[kb] >= t (length oracle),
    which holds for every w at ALWAYS, for none at NEVER (a byte is below
    256), and at N exactly when w^-1 b < 0.  Each kind occurs."""
    group = siegel_context(g).group
    npos = group._npos
    orbit = weyl_orbit(group, group.datum.to_lattice((1,) * g + (0,) * g))
    seen = set()
    for lam in orbit:
        for i, (kb, t) in enumerate(group._rows[lam].verdicts):
            assert t in (ALWAYS, npos, NEVER)
            seen.add(t)
            for w in range(group.finite_order):
                has = i in descents_by_length(group, group.from_parts(lam, w))
                assert has == (group._wperm[w][kb] >= t), (lam, i, w)
    assert seen == {ALWAYS, npos, NEVER}


def test_hyperspecial_words_only_its_strata():
    """The hyperspecial comparison at g=4 words its 16 strata and a few
    more elements, not all 633 of Adm(mu): only the survivors of the level
    filter are worded and sorted."""
    from ekor_atlas import siegel
    ctx = siegel.SiegelContext(4)
    ctx.compare(ctx.hyperspecial)
    assert len(ctx.adm()) == 633
    assert len(ctx.group._rd) < 633 // 10


def test_kw_g3_levels(ctx3):
    adm = ctx3.adm()
    assert len(kw_elements(adm, ctx3.hyperspecial)) == 8
    assert len(kw_elements(adm, ctx3.level_nodes("1,2"))) > 8


# levels whose saturation has at most this many products; this leaves out
# only the two 384-element levels at g=4
SATURATION_BUDGET = 100_000
SATURATION_LEVELS = {1: 3, 2: 7, 3: 15, 4: 29}


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_kw_is_left_minimal_part_of_saturation(g):
    """He's identity: the left-minimal admissible elements are the
    left-minimal part of the admissible set saturated on the right."""
    from ekor_atlas.siegel import siegel_context
    ctx = siegel_context(g)
    group = ctx.group
    adm = ctx.adm()
    n = group.num_nodes
    checked = 0
    for mask in range((1 << n) - 1):
        nodes = frozenset(i for i in range(n) if mask >> i & 1)
        wk = group.parabolic_subgroup_elements(nodes)
        if len(adm) * len(wk) > SATURATION_BUDGET:
            continue
        saturated = {group.mult(x, v) for x in adm.elements for v in wk}
        minimal = {y for y in saturated if is_left_minimal(group, y, nodes)}
        assert minimal == set(kw_elements(adm, nodes)), sorted(nodes)
        checked += 1
    assert checked == SATURATION_LEVELS[g]


def test_saturated_contains_admissible(ctx2):
    adm = ctx2.adm()
    nodes = frozenset({1, 2})
    sat = saturated_set(adm, nodes)
    assert set(adm.elements) <= set(sat)
    assert set(kw_elements(adm, nodes)) <= set(sat)


def test_double_coset_minima(ctx2):
    group = ctx2.group
    adm = ctx2.adm()
    nodes = frozenset({1, 2})
    minima = double_coset_minima(adm, nodes)
    assert set(minima) <= set(kw_elements(adm, nodes))
    for x in minima:
        assert is_left_minimal(group, x, nodes)
        assert is_right_minimal(group, x, nodes)


@pytest.mark.parametrize("nodes", [frozenset({1, 2}), frozenset({0, 2})])
def test_right_minimal_matches_lengths(ctx2, nodes):
    group = ctx2.group
    seen = set()
    for x in saturated_set(ctx2.adm(), nodes):
        lx = group.length(x)
        by_length = all(group.length(group.mult(x, group.simple_reflections[i])) > lx
                        for i in nodes)
        assert is_right_minimal(group, x, nodes) == by_length
        seen.add(by_length)
    assert seen == {True, False}


# ------------------------------------------------------------ Hasse edges


def test_hasse_edges_g1(ctx1):
    adm = ctx1.adm()
    edges = bruhat_hasse_edges(ctx1.group, adm.elements)
    assert len(edges) == 2
    for a, b in edges:
        lo, hi = adm.elements[a], adm.elements[b]
        assert ctx1.group.length(hi) == ctx1.group.length(lo) + 1
        assert ctx1.group.bruhat_leq(lo, hi)


def test_hasse_edges_transitive_reduction(ctx2):
    group = ctx2.group
    adm = ctx2.adm()
    edges = bruhat_hasse_edges(group, adm.elements)
    for a, b in edges:
        lo, hi = adm.elements[a], adm.elements[b]
        between = [z for z in adm.elements
                   if z not in (lo, hi)
                   and group.bruhat_leq(lo, z) and group.bruhat_leq(z, hi)]
        assert not between


@pytest.mark.parametrize("level", ["iwahori", "hyperspecial", "0"])
@pytest.mark.parametrize("g", [1, 2, 3])
def test_hasse_edges_against_transitive_reduction(g, level):
    """The covers read from the length grading are the transitive
    reduction of the order, on Adm and on its left-minimal parts."""
    ctx = siegel_context(g)
    elements = kw_elements(ctx.adm(), ctx.level_nodes(level))
    assert bruhat_hasse_edges(ctx.group, elements) == \
        hasse_by_reduction(ctx.group, elements)


# --------------------------------------------------------- straight classes


def test_straight_classes_g1(ctx1):
    classes = straight_classes(ctx1.adm())
    assert len(classes) == 2
    assert classes[0].newton == (Fraction(1, 2), Fraction(1, 2))
    assert classes[0].is_basic
    assert classes[1].newton == (Fraction(1), Fraction(0))
    assert not classes[1].is_basic


def test_straight_classes_g2(ctx2):
    classes = straight_classes(ctx2.adm())
    points = [c.newton for c in classes]
    assert points == [
        (Fraction(1, 2),) * 4,
        (Fraction(1), Fraction(1, 2), Fraction(1, 2), Fraction(0)),
        (Fraction(1), Fraction(1), Fraction(0), Fraction(0)),
    ]
    assert [c.is_basic for c in classes] == [True, False, False]
    for c in classes:
        assert c.representatives
        for x in c.representatives:
            assert ctx2.group.is_sigma_straight(x)
            assert ctx2.group.newton_vector(x) == c.newton


@pytest.mark.parametrize("g,count", [(3, 5), (4, 8)])
def test_straight_class_counts(g, count):
    from ekor_atlas.siegel import siegel_context
    classes = straight_classes(siegel_context(g).adm())
    assert len(classes) == count
    assert sum(c.is_basic for c in classes) == 1


def test_straight_classes_refusals(ctx1):
    """Hand-built sets that no admissible set is: one holding only a
    simple reflection, which is not straight (its square is 1), and one
    holding only t^(2, 0), whose Newton point lies above mu = (1, 0)."""
    group = ctx1.group
    mu = (1, 0)
    no_straight = AdmissibleSet(group, mu, (group.simple_reflections[0],), ())
    with pytest.raises(GroupError, match="contains no straight element"):
        straight_classes(no_straight)
    high = group.from_parts(group.datum.to_lattice((2, 0)), 0)
    above = AdmissibleSet(group, mu, (high,), ())
    with pytest.raises(GroupError, match="exceeds the averaged cocharacter"):
        straight_classes(above)


def test_basic_class_is_newton_least(ctx3):
    group = ctx3.group
    classes = straight_classes(ctx3.adm())
    basic = [c for c in classes if c.is_basic]
    assert len(basic) == 1
    for c in classes:
        assert group.newton_leq(basic[0].newton, c.newton)
