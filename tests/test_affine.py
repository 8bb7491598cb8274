import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekor_atlas.affine import ExtendedAffineWeylGroup, GroupError, element_label
from ekor_atlas.lattice import mat_vec, vec_dot
from ekor_atlas.oracles import (
    DenseWeylTable,
    bruhat_leq_subword,
    cayley_ball,
    descents_by_length,
    dominantize_by_rescan,
    twisted_power,
)
from ekor_atlas.siegel import siegel_context
from helpers import (
    build_b2,
    build_g2,
    build_gl2_gl3,
    build_gl3_twisted,
    dominantize,
    random_element,
    straight_by_definition,
    twisted_conjugates,
)

word_strategy = st.lists(st.integers(min_value=0, max_value=2), max_size=7)


def _tau_powers(ctx, lo=-2, hi=2):
    group = ctx.group
    out = []
    t = ctx.tau.element
    for k in range(lo, hi + 1):
        x = group.identity
        base = t if k >= 0 else group.inv(t)
        for _ in range(abs(k)):
            x = group.mult(x, base)
        out.append(x)
    return out


# ----------------------------------------------------------------- length


def test_generators_have_length_one(ctx2):
    group = ctx2.group
    for s in group.simple_reflections:
        assert group.length(s) == 1
    assert group.length(ctx2.tau.element) == 0
    assert group.length(group.identity) == 0


@pytest.mark.parametrize("g,radius", [(1, 6), (2, 5)])
def test_length_is_word_distance(g, radius):
    from ekor_atlas.siegel import siegel_context
    ctx = siegel_context(g)
    group = ctx.group
    dist = cayley_ball(group, radius, _tau_powers(ctx))
    assert len(dist) > 50
    for x, r in dist.items():
        assert group.length(x) == r


def test_length_word_distance_g3(ctx3):
    group = ctx3.group
    dist = cayley_ball(group, 3, _tau_powers(ctx3, -1, 1))
    for x, r in dist.items():
        assert group.length(x) == r


def test_translation_length_is_pairing(ctx2):
    group = ctx2.group
    datum = ctx2.datum
    rng = random.Random(7)
    for _ in range(40):
        lam = tuple(rng.randrange(0, 4) for _ in range(datum.rank))
        dom = group.dominantize_lattice(lam)
        x = group.from_parts(tuple(int(c) for c in dom), 0)
        assert group.length(x) == vec_dot(dom, datum.two_rho)


def test_length_invariances(ctx2, gl3_twisted):
    rng = random.Random(3)
    for group, omegas in ((ctx2.group, _tau_powers(ctx2)),
                          (gl3_twisted, [gl3_twisted.identity])):
        for _ in range(30):
            x = random_element(rng, group, 6, omegas)
            assert group.length(group.inv(x)) == group.length(x)
            assert group.length(group.sigma(x)) == group.length(x)


@settings(max_examples=50, deadline=None)
@given(word_strategy, st.integers(min_value=0, max_value=3))
def test_length_steps_by_one(word, taupow):
    from ekor_atlas.siegel import siegel_context
    ctx = siegel_context(1)
    group = ctx.group
    x = group.identity
    for k in range(taupow):
        x = group.mult(x, ctx.tau.element)
    for i in word:
        # letters 0..2 exist only partly for g=1; fold into range
        s = group.simple_reflections[i % group.num_nodes]
        before = group.length(x)
        x = group.mult(x, s)
        assert abs(group.length(x) - before) == 1


def _random_sample(group, mus, count, seed):
    """Random elements over the length-zero parts of the given coweights."""
    rng = random.Random(seed)
    omegas = [group.identity] + [group.length_zero_element(mu).element
                                 for mu in mus]
    return [random_element(rng, group, rng.randrange(12), omegas)
            for _ in range(count)]


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_descents_match_length_oracle_siegel(request, g):
    ctx = request.getfixturevalue(f"ctx{g}")
    group = ctx.group
    for x in ctx.adm().elements:
        for y in (x, *(group.mult(s, x) for s in group.simple_reflections)):
            assert group.descents(y) == descents_by_length(group, y)


def test_descents_match_length_oracle_twisted(gl3_twisted):
    group = gl3_twisted
    for x in _random_sample(group, [(1, 0, 0)], 300, 41):
        assert group.descents(x) == descents_by_length(group, x)


def test_descents_match_length_oracle_two_components():
    group = build_gl2_gl3()
    assert group.affine_node_of_component == (0, 4)
    seen = set()
    for x in _random_sample(group, [(1, 0, 0, 0, 0), (0, 0, 1, 0, 0)], 400, 43):
        found = group.descents(x)
        assert found == descents_by_length(group, x)
        seen.update(found)
    assert seen == set(range(group.num_nodes))


# ------------------------------------------------------- words and omegas


def test_reduced_word_round_trip(ctx2):
    group = ctx2.group
    rng = random.Random(11)
    for _ in range(60):
        x = random_element(rng, group, 7, _tau_powers(ctx2))
        rd = group.reduced_word(x)
        assert len(rd.word) == group.length(x)
        assert group.evaluate_word(rd.word, rd.omega) == x


def test_evaluate_word_reads_the_node_map_of_omega(gl3_twisted):
    """The node map that moves omega to the front comes from omega_of, so a
    hand-built wrapper with a wrong map gives the same product, and one
    around an element of positive length is refused."""
    from ekor_atlas.affine import OmegaElement

    group = gl3_twisted
    omega = group.length_zero_element((1, 0, 0))
    wrong = OmegaElement(omega.element, tuple(range(group.num_nodes)))
    assert wrong.node_images != omega.node_images
    for word in [(0,), (1, 2), (2, 0, 1), (0, 1, 0, 2)]:
        assert group.evaluate_word(word, wrong) == \
            group.evaluate_word(word, omega) == \
            group.mult(group.evaluate_word(word), omega.element)
    with pytest.raises(GroupError):
        s0 = group.simple_reflections[0]
        group.evaluate_word((1,), OmegaElement(s0, tuple(range(group.num_nodes))))


def _cold_words(datum, elements):
    """Reduced words from a new group, longest first: every element met
    while stripping is shorter than all those asked so far, so no memoised
    tail is ever found."""
    group = ExtendedAffineWeylGroup(datum)
    out = {}
    fresh = [group.from_parts(x.trans, x.w) for x in elements]
    for x in sorted(fresh, key=group.length, reverse=True):
        rd = group.reduced_word(x)
        out[x] = (rd.word, rd.omega.element.trans, rd.omega.element.w)
    return out


def _check_warm_words(group, elements):
    cold = _cold_words(group.datum, elements)
    for x in elements:
        rd = group.reduced_word(x)
        assert (rd.word, rd.omega.element.trans, rd.omega.element.w) == cold[x]
        assert group.evaluate_word(rd.word, rd.omega) == x


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_reduced_word_reuses_tails_admissible(g):
    """Building Adm asks for the words shortest first, so each one is a
    letter plus a memoised tail."""
    from ekor_atlas.siegel import siegel_context
    ctx = siegel_context(g)
    _check_warm_words(ctx.group, ctx.adm().elements)


@pytest.mark.parametrize("build", [build_gl3_twisted, build_gl2_gl3])
def test_reduced_word_reuses_tails_random(build):
    """Warm the memo with s_i x for every descent i of each sample x, so the
    first stripping step of x always lands on a memoised tail."""
    group = build()
    rng = random.Random(5)
    omegas = [group.length_zero_element((1,) + (0,) * (group.datum.dim - 1)).element]
    sample = [random_element(rng, group, rng.randrange(12), omegas) for _ in range(300)]
    for x in sample:
        for i in group.descents(x):
            group.reduced_word(group.mult(group.simple_reflections[i], x))
    _check_warm_words(group, sample)


def test_node_queries_form_no_group_products(ctx3, monkeypatch):
    """Reduced words, word evaluation, Bruhat comparisons and stable level
    subsets use the node operations only: on a group with cold caches, mult
    and inv are never called, and the answers are those of the warm one."""
    from ekor_atlas.ekor import stable_level_subset

    warm = ctx3.group
    group = ExtendedAffineWeylGroup(warm.datum)
    rng = random.Random(17)
    sample = [random_element(rng, warm, rng.randrange(12), _tau_powers(ctx3))
              for _ in range(60)]
    tops = ctx3.adm().maxima
    want = [(warm.reduced_word(x), [warm.bruhat_leq(x, top) for top in tops],
             stable_level_subset(warm, x, ctx3.hyperspecial)) for x in sample]

    def refuse(*args):
        raise AssertionError("the group law was called")

    monkeypatch.setattr(group, "mult", refuse)
    monkeypatch.setattr(group, "inv", refuse)
    tops = [group.from_parts(top.trans, top.w) for top in tops]
    for x, (rd, below, iset) in zip(sample, want):
        x = group.from_parts(x.trans, x.w)
        got = group.reduced_word(x)
        assert (got.word, got.omega.element, got.omega.node_images) == \
            (rd.word, rd.omega.element, rd.omega.node_images)
        assert group.evaluate_word(got.word, got.omega) == x
        assert [group.bruhat_leq(x, top) for top in tops] == below
        assert stable_level_subset(group, x, ctx3.hyperspecial) == iset


def test_omega_of_rejects_positive_length(ctx2):
    group = ctx2.group
    with pytest.raises(GroupError):
        group.omega_of(group.simple_reflections[0])


def test_tau_node_action(ctx2):
    m = ctx2.tau.node_images
    assert m == (2, 1, 0)
    assert tuple(m[i] for i in m) == (0, 1, 2)  # an involution
    assert ctx2.group.affine_coxeter.check_automorphism(m) == m


def test_twisted_omega_action(gl3_twisted):
    group = gl3_twisted
    mu = (1, 0, 0)
    omega = group.length_zero_element(mu)
    # rotation of the triangle: conjugation permutes the three nodes
    images = omega.node_images
    assert sorted(images) == [0, 1, 2]
    assert images != (0, 1, 2)


def test_length_zero_requires_dominant(ctx2):
    with pytest.raises(GroupError):
        ctx2.group.length_zero_element((0, 1, 0, 1))


# ------------------------------------------------------------- group law


def test_group_axioms(ctx2):
    group = ctx2.group
    rng = random.Random(5)
    sample = [random_element(rng, group, 5, _tau_powers(ctx2)) for _ in range(12)]
    for x in sample:
        assert group.mult(x, group.inv(x)) == group.identity
        for y in sample[:6]:
            assert group.inv(group.mult(x, y)) == \
                group.mult(group.inv(y), group.inv(x))
            for z in sample[:3]:
                assert group.mult(group.mult(x, y), z) == \
                    group.mult(x, group.mult(y, z))


def test_cross_context_rejected(ctx1, ctx2):
    with pytest.raises(GroupError):
        ctx2.group.mult(ctx2.group.identity, ctx1.group.identity)


def test_sigma_is_automorphism(gl3_twisted):
    group = gl3_twisted
    rng = random.Random(13)
    for _ in range(25):
        x = random_element(rng, group, 5, [group.identity])
        y = random_element(rng, group, 5, [group.identity])
        assert group.sigma(group.mult(x, y)) == \
            group.mult(group.sigma(x), group.sigma(y))
        assert group.sigma(group.sigma(x)) == x


# ----------------------------------------------------------- Bruhat order


def test_bruhat_matches_subword_oracle(ctx2):
    """On Adm(mu), and on the radius-3 Cayley ball around e, tau, tau^-1
    and tau^2, where most pairs lie in different cosets of the affine Weyl
    group and the recursion alone has to answer False."""
    group = ctx2.group
    tau = ctx2.tau.element
    seeds = [group.identity, tau, group.inv(tau), group.mult(tau, tau)]
    ball = list(cayley_ball(group, 3, seeds))
    assert len(ball) == 68
    cache = {}
    for elements in (ctx2.adm().elements, ball):
        for x in elements:
            for y in elements:
                assert group.bruhat_leq(x, y) == \
                    bruhat_leq_subword(group, x, y, cache)


def test_bruhat_is_an_order(ctx2):
    group = ctx2.group
    elems = ctx2.adm().elements
    for x in elems:
        assert group.bruhat_leq(x, x)
    for x in elems:
        for y in elems:
            if x != y and group.bruhat_leq(x, y):
                assert not group.bruhat_leq(y, x)
                assert group.length(x) < group.length(y)
                for z in elems:
                    if group.bruhat_leq(y, z):
                        assert group.bruhat_leq(x, z)


def test_bruhat_rejects_other_cosets(ctx2):
    group = ctx2.group
    assert not group.bruhat_leq(group.identity, ctx2.tau.element)
    assert not group.bruhat_leq(ctx2.tau.element,
                                group.simple_reflections[0])


# ------------------------------------------------- Kottwitz and Newton


def test_kottwitz_homomorphism(ctx2, gl3_twisted):
    rng = random.Random(17)
    for group, omegas in ((ctx2.group, _tau_powers(ctx2)),
                          (gl3_twisted, [gl3_twisted.identity])):
        for _ in range(30):
            x = random_element(rng, group, 5, omegas)
            y = random_element(rng, group, 5, omegas)
            assert group.kottwitz(group.mult(x, y)) == \
                group.kottwitz(x) + group.kottwitz(y)
            assert group.kottwitz(group.sigma(x)) == group.kottwitz(x)


def test_kottwitz_gamma_torsion_twisted(gl3_twisted):
    group = gl3_twisted
    kappa = group.kottwitz(group.translation((1, 0, 0)))
    # coinvariants of the duality twist on the rank-one quotient: order two
    assert kappa.moduli == (2,)
    assert not kappa.is_zero()
    assert (kappa + kappa).is_zero()


def test_newton_of_translations(ctx2):
    group = ctx2.group
    assert group.newton_vector(group.translation((1, 1, 0, 0))) == \
        (Fraction(1), Fraction(1), Fraction(0), Fraction(0))
    assert group.newton_vector(group.translation((0, 0, 1, 1))) == \
        (Fraction(1), Fraction(1), Fraction(0), Fraction(0))


def test_newton_of_tau_is_central(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        nu = ctx.group.newton_vector(ctx.tau.element)
        assert len(set(nu)) == 1 and nu[0] == Fraction(1, 2)


def test_newton_constant_on_twisted_classes(ctx2, gl3_twisted):
    rng = random.Random(23)
    for group, omegas in ((ctx2.group, _tau_powers(ctx2, 0, 1)),
                          (gl3_twisted, [gl3_twisted.identity])):
        for _ in range(10):
            x = random_element(rng, group, 4, omegas)
            nu = group.newton_vector(x)
            for y in twisted_conjugates(group, x, 2):
                assert group.newton_vector(y) == nu


def test_straightness_matches_definition(ctx2):
    group = ctx2.group
    for x in ctx2.adm().elements:
        assert group.is_sigma_straight(x) == \
            straight_by_definition(group, x, powers=6)


def test_straightness_twisted(gl3_twisted):
    group = gl3_twisted
    rng = random.Random(29)
    omega = group.length_zero_element((1, 0, 0))
    assert group.is_sigma_straight(omega.element)
    for _ in range(20):
        x = random_element(rng, group, 4, [group.identity, omega.element])
        assert group.is_sigma_straight(x) == \
            straight_by_definition(group, x, powers=6)


def test_twisted_power_length_bound(ctx2):
    group = ctx2.group
    rng = random.Random(31)
    for _ in range(15):
        x = random_element(rng, group, 4, _tau_powers(ctx2, 0, 1))
        for m in (2, 3):
            assert group.length(twisted_power(group, x, m)) <= \
                m * group.length(x)


def newton_by_definition(group, x):
    """Least n with (x sigma)^n = t^m, then m / n made dominant in Fractions."""
    datum = group.datum
    n = 1
    while True:
        y = twisted_power(group, x, n)
        if y.w == 0 and n % datum.frobenius_order == 0:
            break
        n += 1
    nu = tuple(Fraction(t, n) for t in y.trans)
    while True:
        neg = [i for i in range(datum.nsimple)
               if vec_dot(nu, datum.root_values[i]) < 0]
        if not neg:
            return tuple(datum.from_lattice(nu))
        nu = mat_vec(datum.reflections_lattice[neg[0]], nu)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_newton_matches_definition_siegel(request, g):
    ctx = request.getfixturevalue(f"ctx{g}")
    points = set()
    for x in ctx.adm().elements:
        nu = ctx.group.newton_vector(x)
        assert nu == newton_by_definition(ctx.group, x)
        points.add(nu)
    assert len(points) > 1


@pytest.mark.parametrize("g", [2, 3])
def test_newton_of_the_twisted_power(request, g):
    """(x sigma)^n = t^m has Newton point m/n and the translation t^m has m
    (sigma is trivial here): the memo keeps the two apart."""
    ctx = request.getfixturevalue(f"ctx{g}")
    group = ctx.group
    for x in ctx.adm().elements:
        n, _ = group._newton_scaled(x)
        nu = group.newton_vector(x)
        y = twisted_power(group, x, n)
        assert group.newton_vector(y) == tuple(n * c for c in nu)


def test_newton_matches_definition_other_data(gl3_twisted):
    for group, mus in ((gl3_twisted, [(1, 0, 0)]),
                       (build_gl2_gl3(), [(1, 0, 0, 0, 0), (0, 0, 1, 0, 0)])):
        for x in _random_sample(group, mus, 150, 47):
            assert group.newton_vector(x) == newton_by_definition(group, x)


def test_newton_leq_on_known_points(ctx2):
    group = ctx2.group
    basic = (Fraction(1, 2),) * 4
    middle = (Fraction(1), Fraction(1, 2), Fraction(1, 2), Fraction(0))
    top = (Fraction(1), Fraction(1), Fraction(0), Fraction(0))
    assert group.newton_leq(basic, middle)
    assert group.newton_leq(middle, top)
    assert group.newton_leq(basic, top)
    assert not group.newton_leq(top, basic)
    assert group.newton_leq(top, top)
    # different total: difference leaves the coroot span
    other = (Fraction(2), Fraction(1), Fraction(1), Fraction(0))
    assert not group.newton_leq(basic, other)
    assert not group.newton_leq(other, basic)
    # same total but the coefficients mix signs
    skew = (Fraction(5, 4), Fraction(1, 2), Fraction(1, 2), Fraction(-1, 4))
    assert not group.newton_leq(top, skew)
    assert not group.newton_leq(skew, top)


def test_galois_average(ctx2, gl3_twisted):
    assert ctx2.group.galois_average((1, 1, 0, 0)) == \
        (Fraction(1), Fraction(1), Fraction(0), Fraction(0))
    avg = gl3_twisted.galois_average((1, 0, 0))
    assert avg == (Fraction(1, 2), Fraction(0), Fraction(-1, 2))


def test_dominantize(ctx2):
    group = ctx2.group
    vec, elt = dominantize(group, (0, 0, 1, 1))
    assert vec == (1, 1, 0, 0)
    assert group.act(elt.w, group.datum.to_lattice((0, 0, 1, 1))) == \
        group.datum.to_lattice((1, 1, 0, 0))
    assert group.is_dominant(vec)


# -------------------------------------------------------- dominantization


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_dominantize_matches_rescan_on_newton_translations(request, g):
    """For every admissible x, the translation m of (x sigma)^n = t^m,
    dominantized by the Cartan-row update and by the rescanning oracle."""
    ctx = request.getfixturevalue(f"ctx{g}")
    group = ctx.group
    moved = 0
    for x in ctx.adm().elements:
        n, dom = group._newton_scaled(x)
        y = twisted_power(group, x, n)
        assert y.w == 0 and group._newton_translation(x) == (n, y.trans)
        assert dom == group.dominantize_lattice(y.trans) \
            == dominantize_by_rescan(group, y.trans)
        moved += dom != y.trans
    assert moved > 0


@pytest.mark.parametrize("build", [build_gl3_twisted, build_gl2_gl3, build_b2, build_g2])
def test_dominantize_matches_rescan_random(build):
    """Random integer vectors; B2 and G2 have asymmetric Cartan matrices."""
    group = build()
    datum = group.datum
    rng = random.Random(83)
    for _ in range(300):
        v = tuple(rng.randint(-7, 7) for _ in range(group.rank))
        dom = group.dominantize_lattice(v)
        assert dom == dominantize_by_rescan(group, v)
        assert all(type(c) is int for c in dom)
        assert all(vec_dot(dom, vals) >= 0 for vals in datum.root_values)


@pytest.mark.parametrize("build", [build_gl3_twisted, build_b2, build_g2,
                                   lambda: siegel_context(3).group])
def test_dominantize_is_exact_on_fractions(build):
    group = build()
    rng = random.Random(89)
    for _ in range(200):
        v = tuple(Fraction(rng.randint(-15, 15), rng.randint(1, 4))
                  for _ in range(group.rank))
        dom = group.dominantize_lattice(v)
        assert dom == dominantize_by_rescan(group, v)
        assert all(type(c) is Fraction for c in dom)


# ---------------------------------------------------------- serialization


def ambient_json(dense, x):
    """The ``w`` of ``element_to_json`` from the dense ambient matrix: the
    one-line form c -> r of a permutation matrix with ones at (r, c), else
    the rows."""
    amb = dense.ambient[x.w]
    if all(sorted(row) == [0] * (len(row) - 1) + [1] for row in amb):
        line = [0] * len(amb)
        for r, row in enumerate(amb):
            line[row.index(1)] = r
        return line
    return {"rows": [list(row) for row in amb]}


def test_element_json_round_trip(ctx2, gl3_twisted):
    """Each serialized element against its dense ambient matrix, on the
    Siegel, twisted gl3 and B2 data; B2's reflections are not permutation
    matrices, so it takes the ``rows`` form."""
    rng = random.Random(37)
    b2 = build_b2()
    cases = [(ctx2.group, ctx2.adm().elements),
             (gl3_twisted, [random_element(rng, gl3_twisted, 5, [gl3_twisted.identity])
                            for _ in range(20)]),
             (b2, [random_element(rng, b2, 6, [b2.identity]) for _ in range(20)])]
    rows_form = False
    for group, elements in cases:
        dense = DenseWeylTable(group.datum)
        for x in elements:
            data = group.element_to_json(x)
            assert data == {"t": list(group.datum.from_lattice(x.trans)),
                            "w": ambient_json(dense, x)}
            if group is b2:
                rows_form |= isinstance(data["w"], dict)
            else:
                assert isinstance(data["w"], list)  # permutations stay one-line
    assert rows_form


def test_element_label(ctx2):
    group = ctx2.group
    assert element_label(group, group.identity) == "e"
    assert element_label(group, ctx2.tau.element) == "tau"
    assert element_label(group, group.simple_reflections[0]) == "s0"


# ------------------------------------------------------------ parabolics


def test_parabolic_sizes(ctx2):
    group = ctx2.group
    assert len(group.parabolic_subgroup_elements(frozenset({1, 2}))) == 8
    assert len(group.parabolic_subgroup_elements(frozenset({0, 1}))) == 8
    assert len(group.parabolic_subgroup_elements(frozenset({0, 2}))) == 4
    assert len(group.parabolic_subgroup_elements(frozenset())) == 1


def test_parabolic_rejects_infinite(ctx2):
    with pytest.raises(GroupError):
        ctx2.group.parabolic_subgroup_elements(frozenset({0, 1, 2}))


def test_finite_weyl_order(ctx3):
    assert ctx3.group.finite_order == 48
