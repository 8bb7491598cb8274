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
    sigma,
    twisted_power,
)
from ekor_atlas.siegel import siegel_context
from helpers import (
    build_b2,
    build_g2,
    build_gl,
    build_gl2_gl3,
    build_gl2_unitary,
    build_gl3_twisted,
    dominantize,
    left_descents,
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
    datum = ctx2.group.datum
    rng = random.Random(7)
    for _ in range(40):
        lam = tuple(rng.randrange(0, 4) for _ in range(datum.rank))
        dom = dominantize_by_rescan(group, lam)
        x = group.from_parts(tuple(int(c) for c in dom), 0)
        assert group.length(x) == vec_dot(dom, datum.two_rho)


def test_length_invariances(ctx2, gl3_twisted):
    rng = random.Random(3)
    for group, omegas in ((ctx2.group, _tau_powers(ctx2)),
                          (gl3_twisted, [gl3_twisted.identity])):
        for _ in range(30):
            x = random_element(rng, group, 6, omegas)
            assert group.length(group.inv(x)) == group.length(x)
            assert group.length(sigma(group, x)) == group.length(x)


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
            assert left_descents(group, y) == descents_by_length(group, y)


def test_descents_match_length_oracle_twisted(gl3_twisted):
    group = gl3_twisted
    for x in _random_sample(group, [(1, 0, 0)], 300, 41):
        assert left_descents(group, x) == descents_by_length(group, x)


def test_descents_match_length_oracle_two_components():
    group = build_gl2_gl3()
    assert group.affine_node_of_component == (0, 4)
    seen = set()
    for x in _random_sample(group, [(1, 0, 0, 0, 0), (0, 0, 1, 0, 0)], 400, 43):
        found = left_descents(group, x)
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
    for x in sorted(elements, key=group.length, reverse=True):
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
        for i in left_descents(group, x):
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
    for x, (rd, below, iset) in zip(sample, want):
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


def test_sigma_is_automorphism(gl3_twisted):
    group = gl3_twisted
    rng = random.Random(13)
    for _ in range(25):
        x = random_element(rng, group, 5, [group.identity])
        y = random_element(rng, group, 5, [group.identity])
        assert sigma(group, group.mult(x, y)) == \
            group.mult(sigma(group, x), sigma(group, y))
        assert sigma(group, sigma(group, x)) == x


# ----------------------------------------------------------- Bruhat order


def test_bruhat_matches_subword_oracle(ctx2):
    """On Adm(mu), and on the radius-3 Cayley ball around e, tau, tau^-1
    and tau^2, where most pairs lie in different cosets of the affine Weyl
    group and the walk alone has to answer False: it keeps the coset of x,
    so it never ends at the length-zero part of y."""
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


def test_bruhat_matches_subword_oracle_on_random_pairs(ctx3):
    """Random pairs from the radius-4 Cayley ball around e, tau and tau^-1
    at genus 3, with x longer than y, x == y and two cosets among them."""
    group = ctx3.group
    tau = ctx3.tau.element
    ball = list(cayley_ball(group, 4, [group.identity, tau, group.inv(tau)]))
    rng = random.Random(29)
    pairs = [(rng.choice(ball), rng.choice(ball)) for _ in range(600)]
    pairs += [(x, x) for x in rng.sample(ball, 30)]
    cache = {}
    for x, y in pairs:
        assert group.bruhat_leq(x, y) == bruhat_leq_subword(group, x, y, cache)

    def coset(z):
        return group.reduced_word(z).omega.element
    assert any(group.length(x) > group.length(y) for x, y in pairs)
    assert any(coset(x) != coset(y) for x, y in pairs)
    assert any(x != y and group.bruhat_leq(x, y) for x, y in pairs)


def test_bruhat_walks_the_word_of_the_upper_element(ctx3, monkeypatch):
    """On a cold group whose maxima are worded already, comparing Adm(mu)
    with its maxima searches no descent: it walks the memoised words and
    answers as the subword oracle does."""
    warm = ctx3.group
    adm = ctx3.adm()
    cache = {}
    want = [[bruhat_leq_subword(warm, x, top, cache) for top in adm.maxima]
            for x in adm.elements]
    assert all(map(any, want))
    group = ExtendedAffineWeylGroup(warm.datum)
    for top in adm.maxima:
        group.reduced_word(top)

    def refuse(*args):
        raise AssertionError("a descent was searched")

    monkeypatch.setattr(group, "first_descent", refuse)
    got = [[group.bruhat_leq(x, top) for top in adm.maxima] for x in adm.elements]
    assert got == want


def test_bruhat_memo_holds_the_pairs_asked(ctx2):
    """Only the pairs asked are memoised, not the pairs the walk passes."""
    group = ExtendedAffineWeylGroup(ctx2.group.datum)
    adm = ctx2.adm()
    elements, tops = adm.elements, adm.maxima
    rng = random.Random(31)
    pairs = [(rng.choice(elements), rng.choice(tops)) for _ in range(60)]
    pairs += [(top, x) for top in tops for x in elements[:3]] + pairs[:10]
    for x, y in pairs:
        group.bruhat_leq(x, y)
    assert len(group._bruhat) == len(set(pairs))


# ---------------------------------------------- Omega part and Newton


def test_kottwitz_homomorphism(ctx2, gl3_twisted):
    """The length-zero part of the reduced decomposition, the class of x
    in W~/W_a = Omega that the Kottwitz map factors through, is a
    homomorphism and commutes with sigma."""
    def part(group, x):
        return group.reduced_word(x).omega.element

    rng = random.Random(17)
    gl3_omegas = [gl3_twisted.from_parts(gl3_twisted.datum.to_lattice(t), 0)
                  for t in ((0, 0, 0), (1, 0, 0), (-1, 0, 0), (1, 1, 0))]
    for group, omegas in ((ctx2.group, _tau_powers(ctx2)),
                          (gl3_twisted, gl3_omegas)):
        for _ in range(30):
            x = random_element(rng, group, 5, omegas)
            y = random_element(rng, group, 5, omegas)
            assert part(group, group.mult(x, y)) == \
                group.mult(part(group, x), part(group, y))
            assert part(group, sigma(group, x)) == sigma(group, part(group, x))


def test_newton_of_translations(ctx2):
    group = ctx2.group
    for mu in ((1, 1, 0, 0), (0, 0, 1, 1)):
        t_mu = group.from_parts(group.datum.to_lattice(mu), 0)
        assert group.newton_vector(t_mu) == \
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
        n = group._newton_key(x)[0]
        nu = group.newton_vector(x)
        y = twisted_power(group, x, n)
        assert group.newton_vector(y) == tuple(n * c for c in nu)


def test_newton_matches_definition_other_data(gl3_twisted):
    for group, mus in ((gl3_twisted, [(1, 0, 0)]),
                       (build_gl2_gl3(), [(1, 0, 0, 0, 0), (0, 0, 1, 0, 0)])):
        for x in _random_sample(group, mus, 150, 47):
            assert group.newton_vector(x) == newton_by_definition(group, x)


TWIN_DATA = {
    "gl2_unitary": build_gl2_unitary,
    "gl4_twisted": lambda: build_gl(4, twisted=True),
    "gl5_twisted": lambda: build_gl(5, twisted=True),
    "b2": build_b2,
    "g2": build_g2,
    "gl2_gl3": build_gl2_gl3,
    "siegel1": lambda: siegel_context(1).group,
    "siegel2": lambda: siegel_context(2).group,
    "siegel3": lambda: siegel_context(3).group,
}


def _random_parts(group, count, seed):
    """Random translations with entries -4..4 times random finite parts."""
    rng = random.Random(seed)
    return [group.from_parts(tuple(rng.randint(-4, 4) for _ in range(group.rank)),
                             rng.randrange(group.finite_order))
            for _ in range(count)]


@pytest.mark.parametrize("name", sorted(TWIN_DATA))
def test_newton_matches_definition_random_parts(name):
    """The cycle sums of the pairing row against twisted powers: twisted
    and split data, a nontrivial radical (unitary GL2, where sigma is -1
    on it), and asymmetric Cartan matrices."""
    group = TWIN_DATA[name]()
    for x in _random_parts(group, 40, 61):
        assert group.newton_vector(x) == newton_by_definition(group, x)


def test_newton_frame_is_built_on_first_use():
    group = build_gl2_unitary()
    assert "_newton_frame" not in vars(group)
    group.newton_vector(group.identity)
    assert "_newton_frame" in vars(group)


@pytest.mark.parametrize("name", ["b2", "g2", "gl2_unitary"])
def test_straightness_matches_definition_random_parts(name):
    """Six twisted powers decide straightness here: the order n of
    w sigma is at most 6 (dihedral groups of orders 8 and 12, and n <= 2
    for unitary GL2), and l((x sigma)^n) = l(t^(n nu)) = n <nu, 2 rho>."""
    group = TWIN_DATA[name]()
    seen = set()
    for x in _random_parts(group, 150, 67):
        straight = group.is_sigma_straight(x)
        assert straight == straight_by_definition(group, x, powers=6)
        seen.add(straight)
    assert seen == {False, True}


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


def _simple_pairings(group, v):
    return [vec_dot(v, vals) for vals in group.datum.root_values]


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_dominantize_matches_rescan_on_newton_translations(request, g):
    """For every admissible x, the translation m of (x sigma)^n = t^m:
    its Newton key names m, the Cartan-row update turns its pairings into
    those of m dominantized by the rescanning oracle, and that is n nu."""
    ctx = request.getfixturevalue(f"ctx{g}")
    group = ctx.group
    frame = group._newton_frame
    moved = 0
    for x in ctx.adm().elements:
        n, pairs, rad = group._newton_key(x)
        y = twisted_power(group, x, n)
        m = tuple(Fraction(vec_dot(row, pairs + rad), frame.den) for row in frame.inverse)
        assert y.w == 0 and m == y.trans
        dom = dominantize_by_rescan(group, y.trans)
        assert group._dominant_pairings(list(pairs)) == _simple_pairings(group, dom)
        assert tuple(n * c for c in group.newton_vector(x)) == group.datum.from_lattice(dom)
        moved += dom != y.trans
    assert moved > 0


@pytest.mark.parametrize("build", [build_gl3_twisted, build_gl2_gl3, build_b2, build_g2])
def test_dominantize_matches_rescan_random(build):
    """Random integer vectors; B2 and G2 have asymmetric Cartan matrices."""
    group = build()
    rng = random.Random(83)
    for _ in range(300):
        v = tuple(rng.randint(-7, 7) for _ in range(group.rank))
        dom = group._dominant_pairings(_simple_pairings(group, v))
        assert dom == _simple_pairings(group, dominantize_by_rescan(group, v))
        assert all(type(c) is int and c >= 0 for c in dom)


@pytest.mark.parametrize("build", [build_gl3_twisted, build_b2, build_g2,
                                   lambda: siegel_context(3).group])
def test_dominantize_is_exact_on_fractions(build):
    group = build()
    rng = random.Random(89)
    for _ in range(200):
        v = tuple(Fraction(rng.randint(-15, 15), rng.randint(1, 4))
                  for _ in range(group.rank))
        dom = group._dominant_pairings(_simple_pairings(group, v))
        assert dom == _simple_pairings(group, dominantize_by_rescan(group, v))
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
    matrices, so it takes the ``rows`` form, except at permutation matrices
    such as the identity, which are tested element by element."""
    rng = random.Random(37)
    b2 = build_b2()
    cases = [(ctx2.group, ctx2.adm().elements),
             (gl3_twisted, [random_element(rng, gl3_twisted, 5, [gl3_twisted.identity])
                            for _ in range(20)]),
             (b2, [b2.identity] + [random_element(rng, b2, 6, [b2.identity])
                                   for _ in range(20)])]
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
