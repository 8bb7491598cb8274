import json
import random
from collections import Counter

import pytest

from ekor_atlas import ekor
from ekor_atlas.admissible import admissible_set, kw_elements, parahoric_label
from ekor_atlas.affine import GroupError, element_label
from ekor_atlas.cli import record_to_json
from ekor_atlas.coxeter import CoxeterError
from ekor_atlas.ekor import (
    SigmaSupport,
    dl_datum,
    is_basic,
    is_sigma_coxeter,
    sigma_support,
    stable_level_subset,
    stratum_report,
    twist_orbits,
)
from ekor_atlas.oracles import brute_stable_subset, cayley_ball
from ekor_atlas.siegel import siegel_context
from helpers import (
    build_gl2_cubic_restriction,
    build_gl2_restriction,
    build_gl3_twisted,
    orbit_closure,
    random_descent_word,
    random_element,
    siegel_levels,
)

G2_CLOSURES = {
    "tau": frozenset(),
    "s0.tau": frozenset({0, 2}),
    "s1.tau": frozenset({1}),
    "s2.tau": frozenset({0, 2}),
    "s0.s2.tau": frozenset({0, 2}),
}


def _basic_iwahori(ctx):
    return [x for x in ctx.adm().elements
            if is_basic(ctx.group, sigma_support(ctx.group, x))]


# ------------------------------------------------------------ sigma support


def test_raw_support_word_independent(ctx2):
    group = ctx2.group
    rng = random.Random(41)
    for x in ctx2.adm().elements:
        supp = sigma_support(group, x)
        for _ in range(8):
            word, omega = random_descent_word(rng, group, x)
            assert frozenset(word) == supp.raw
            assert group.evaluate_word(word, omega) == x


def test_closure_properties(ctx1, ctx2, ctx3):
    """Every sigma-support of Adm(mu) for g <= 3: the closure is the
    fixed-point one, and the cycle walk agrees with it."""
    for ctx in (ctx1, ctx2, ctx3):
        group = ctx.group
        for x in ctx.adm().elements:
            supp = sigma_support(group, x)
            assert supp.raw <= supp.closure
            assert frozenset(supp.twist[i] for i in supp.closure) == supp.closure
            assert orbit_closure(supp.twist, supp.raw) == supp.closure
            _check_cycle_walk(supp.twist, supp.raw)


def _support_from_scratch(group, x):
    """The twisted support built afresh: the letters of the reduced word,
    the twist s -> omega sigma(s) omega^-1 by conjugation, and the closure."""
    rd = group.reduced_word(x)
    twist = tuple(group.conjugate_simple(rd.omega.element, group.sigma_diagram[s])
                  for s in range(group.num_nodes))
    raw = frozenset(rd.word)
    return SigmaSupport(raw, orbit_closure(twist, raw), twist)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_shared_support_is_the_fresh_one(g):
    ctx = siegel_context(g)
    group = ctx.group
    for level in siegel_levels(g):
        for rec in stratum_report(ctx.adm(), level):
            assert rec.support == _support_from_scratch(group, rec.element)
            assert sigma_support(group, rec.element) is rec.support


def test_shared_support_twisted(gl3_twisted):
    """On a Cayley ball of twisted GL3, around three length-zero parts with
    three different twists, elements with the same length-zero part and the
    same letters share one support, and no other elements do."""
    group = gl3_twisted
    tau = group.length_zero_element((1, 0, 0)).element
    ball = cayley_ball(group, 4, [group.identity, tau, group.mult(tau, tau)])
    by_key = {}
    for x in ball:
        supp = sigma_support(group, x)
        assert supp == _support_from_scratch(group, x)
        rd = group.reduced_word(x)
        assert by_key.setdefault((rd.omega.element, supp.raw), supp) is supp
    assert len({omega for omega, _ in by_key}) == 3
    assert len({supp.twist for supp in by_key.values()}) == 3
    assert len({id(sigma_support(group, x)) for x in ball}) == len(by_key) < len(ball)


def test_genus_five_iwahori_report_shares_64_supports():
    ctx = siegel_context(5)
    recs = stratum_report(ctx.adm(), ctx.iwahori)
    assert len(recs) == 6331
    assert len({id(rec.support) for rec in recs}) == 64


def test_twist_is_a_diagram_automorphism(ctx1, ctx2, ctx3):
    """The twist of every admissible element permutes the affine nodes and
    preserves the bond orders; the engine checks neither this nor sigma."""
    for ctx in (ctx1, ctx2, ctx3):
        group = ctx.group
        bonds = group.affine_coxeter.rows
        nodes = range(group.num_nodes)
        for x in ctx.adm().elements:
            tw = sigma_support(group, x).twist
            assert sorted(tw) == list(nodes)
            assert all(bonds[tw[i]][tw[j]] == bonds[i][j]
                       for i in nodes for j in nodes)


def test_twist_composes_omega_and_sigma(ctx2, gl3_twisted):
    group = ctx2.group
    # tau swaps the horns, and the untwisted frobenius fixes them
    assert group.sigma_diagram == (0, 1, 2)
    assert sigma_support(group, ctx2.tau.element).twist == (2, 1, 0)
    assert sigma_support(group, group.identity).twist == (0, 1, 2)
    # with a nontrivial frobenius the twist is tau after sigma: here sigma
    # swaps nodes 1 and 2 and tau rotates 0 -> 2 -> 1 -> 0
    group = gl3_twisted
    tau = group.length_zero_element((1, 0, 0))
    assert group.sigma_diagram == (0, 2, 1)
    assert tau.node_images == (2, 0, 1)
    assert sigma_support(group, tau.element).twist == (2, 1, 0)
    assert sigma_support(group, group.identity).twist == (0, 2, 1)


def test_g2_basic_closures(ctx2):
    group = ctx2.group
    found = {}
    for x in _basic_iwahori(ctx2):
        found[element_label(group, x)] = sigma_support(group, x).closure
    assert found == G2_CLOSURES


def test_basic_counts_iwahori():
    from ekor_atlas.siegel import siegel_context
    expected = {1: 1, 2: 5, 3: 9, 4: 87}
    for g, count in expected.items():
        ctx = siegel_context(g)
        assert len(_basic_iwahori(ctx)) == count


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_basic_locus_is_closed_iwahori(g):
    """Every admissible element Bruhat-below a basic element is basic."""
    from ekor_atlas.siegel import siegel_context
    ctx = siegel_context(g)
    group = ctx.group
    basic = _basic_iwahori(ctx)
    others = [x for x in ctx.adm().elements
              if not is_basic(group, sigma_support(group, x))]
    assert len(basic) + len(others) == len(ctx.adm())
    below = [(x, b) for b in basic for x in others
             if group.length(x) < group.length(b) and group.bruhat_leq(x, b)]
    assert not below


def test_basicness_via_closure(ctx2):
    group = ctx2.group
    for x in ctx2.adm().elements:
        supp = sigma_support(group, x)
        assert is_basic(group, supp) == \
            group.affine_coxeter.is_finite_parabolic(supp.closure)


# ------------------------------------------------------- stable level subset


@pytest.mark.parametrize("nodes", [frozenset({1, 2}), frozenset({1}),
                                   frozenset({2})])
def test_stable_subset_matches_brute_force(ctx2, nodes):
    group = ctx2.group
    for x in kw_elements(ctx2.adm(), nodes):
        assert stable_level_subset(group, x, nodes) == \
            brute_stable_subset(group, x, nodes)


def test_stable_subset_matches_brute_force_g3(ctx3):
    group = ctx3.group
    nodes = ctx3.hyperspecial
    for x in kw_elements(ctx3.adm(), nodes):
        assert stable_level_subset(group, x, nodes) == \
            brute_stable_subset(group, x, nodes)


def test_stable_subset_random_elements(ctx2):
    group = ctx2.group
    rng = random.Random(43)
    nodes = frozenset({1, 2})
    for _ in range(25):
        x = random_element(rng, group, 5, [group.identity, ctx2.tau.element])
        assert stable_level_subset(group, x, nodes) == \
            brute_stable_subset(group, x, nodes)


def test_stable_subset_matches_brute_force_twisted(gl3_twisted):
    """Every sigma-stable level of twisted GL3, whose sigma swaps nodes 1
    and 2, on a Cayley ball around the powers of its length-zero element."""
    group = gl3_twisted
    tau = group.length_zero_element((1, 0, 0)).element
    ball = cayley_ball(group, 4, [group.identity, tau, group.mult(tau, tau)])
    levels = []
    for mask in range(1 << group.num_nodes):
        nodes = frozenset(i for i in range(group.num_nodes) if mask >> i & 1)
        try:
            levels.append(parahoric_label(group, nodes))
        except GroupError:
            pass
    assert levels == [frozenset(), frozenset({0}), frozenset({1, 2})]
    for nodes in levels:
        found = set()
        for x in ball:
            got = stable_level_subset(group, x, nodes)
            assert got == brute_stable_subset(group, x, nodes)
            found.add(got)
        # every subset of the level occurs as a stable subset on the ball
        assert len(found) == 2 ** len(nodes)


def test_stable_subset_matches_brute_force_cubic_restriction():
    """The three sigma-stable levels of GL2^3 with sigma of order 3, on
    Adm(mu) and on a ball around three length-zero elements.  sigma moves
    every node to another factor and no length-zero element moves the
    factors, so a stable subset is empty or the whole level."""
    group = build_gl2_cubic_restriction()
    mu = (1, 0, 1, 0, 1, 0)
    seeds = [group.identity, group.length_zero_element((1, 0, 0, 0, 0, 0)).element,
             group.length_zero_element(mu).element]
    elements = set(admissible_set(group, mu)) | set(cayley_ball(group, 3, seeds))
    levels = []
    for mask in range(1 << group.num_nodes):
        nodes = frozenset(i for i in range(group.num_nodes) if mask >> i & 1)
        try:
            levels.append(parahoric_label(group, nodes))
        except GroupError:
            pass
    assert levels == [frozenset(), frozenset({1, 2, 3}), frozenset({0, 4, 5})]
    for nodes in levels:
        found = set()
        for x in elements:
            got = stable_level_subset(group, x, nodes)
            assert got == brute_stable_subset(group, x, nodes)
            found.add(got)
        assert found == {frozenset(), nodes}


def test_stable_subset_of_identity(ctx2):
    group = ctx2.group
    nodes = frozenset({1, 2})
    assert stable_level_subset(group, group.identity, nodes) == nodes


def test_stable_subset_at_iwahori_level_skips_the_inverse(ctx2, monkeypatch):
    """The empty level is its own stable subset; x is never inverted."""
    group = ctx2.group
    xs = list(ctx2.adm())

    def no_inverse(x):
        raise AssertionError("inverted at the empty level")

    monkeypatch.setattr(group, "inv", no_inverse)
    for x in xs:
        assert stable_level_subset(group, x, frozenset()) == frozenset()
    monkeypatch.undo()
    for x in xs:
        assert brute_stable_subset(group, x, frozenset()) == frozenset()


# ----------------------------------------------------------------- DL data


def _basic_records(ctx, nodes):
    group = ctx.group
    return {element_label(group, r.element): r
            for r in stratum_report(ctx.adm(), nodes) if r.basic}


def test_dl_datum_g2_iwahori(ctx2):
    recs = _basic_records(ctx2, frozenset())
    tau = recs["tau"]
    # empty ambient diagram: the flag datum of a point
    assert tau.datum.ambient_type == "1"
    assert tau.datum.ambient_nodes == frozenset()
    assert tau.stable_subset == frozenset()
    assert tau.length == 0
    s0 = recs["s0.tau"]
    assert s0.datum.ambient_type == "A1xA1"
    assert s0.datum.ambient_nodes == frozenset({0, 2})
    assert s0.stable_subset == frozenset()
    assert s0.length == 1
    assert recs["s1.tau"].datum.ambient_type == "A1"
    assert recs["s0.s2.tau"].length == 2


def test_dl_datum_g2_hyperspecial(ctx2):
    recs = _basic_records(ctx2, ctx2.hyperspecial)
    tau = recs["tau"]
    assert tau.datum.ambient_type == "A1"
    assert tau.datum.ambient_nodes == frozenset({1})
    assert tau.stable_subset == frozenset({1})
    assert tau.length == 0
    s0 = recs["s0.tau"]
    assert s0.datum.ambient_type == "A1xA1"
    assert s0.datum.ambient_nodes == frozenset({0, 2})
    assert s0.stable_subset == frozenset()
    assert s0.length == 1
    assert set(recs) == {"tau", "s0.tau"}


def test_sigma_coxeter_g2(ctx2):
    recs = _basic_records(ctx2, frozenset())
    flags = {label: is_sigma_coxeter(r.word, r.support) for label, r in recs.items()}
    assert flags == {"tau": True, "s0.tau": True, "s1.tau": True,
                     "s2.tau": True, "s0.s2.tau": False}
    assert flags == {label: r.datum.sigma_coxeter for label, r in recs.items()}


def test_dl_datum_frobenius_stabilizes(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        group = ctx.group
        for rec in stratum_report(ctx.adm(), ctx.hyperspecial):
            if rec.datum is None:
                continue
            d = rec.datum
            twist = rec.support.twist
            assert rec.stable_subset <= d.ambient_nodes
            # the twist covers every affine node once and restricts to a
            # symmetry of the ambient sub diagram
            assert sorted(twist) == list(range(group.num_nodes))
            assert {twist[i] for i in d.ambient_nodes} == d.ambient_nodes
            assert d.stabilizes_parabolic
            assert dl_datum(group, rec.word, rec.support, rec.stable_subset) == d


def test_dl_datum_rejects_nonbasic(ctx2):
    """A support whose closure is of infinite type has no flag datum."""
    group = ctx2.group
    top = max(stratum_report(ctx2.adm(), frozenset()), key=lambda r: r.length)
    assert not top.basic and top.datum is None
    with pytest.raises(CoxeterError):
        dl_datum(group, top.word, top.support, top.stable_subset)


def test_twist_orbits(ctx2):
    group = ctx2.group
    tw = sigma_support(group, ctx2.tau.element).twist
    orbits = twist_orbits(tw, frozenset({0, 2}))
    assert sorted(map(sorted, orbits)) == [[0, 2]]
    # a set that is not stable gets the cycles through it
    assert twist_orbits(tw, frozenset({0})) == [frozenset({0, 2})]
    assert twist_orbits(tw, frozenset({2, 1})) == [frozenset({0, 2}), frozenset({1})]


def _check_cycle_walk(twist, nodes):
    """The cycles through the nodes are disjoint and twist-stable, their
    union is the fixed-point closure, and on that stable closure they come
    out again, ordered by least node."""
    orbits = twist_orbits(twist, nodes)
    closure = orbit_closure(twist, nodes)
    assert frozenset().union(*orbits) == closure
    assert sum(map(len, orbits)) == len(closure)
    for orbit in orbits:
        assert frozenset(twist[i] for i in orbit) == orbit
    again = twist_orbits(twist, closure)
    assert again == orbits
    assert [min(o) for o in again] == sorted(min(o) for o in again)


@pytest.mark.parametrize("build", [build_gl3_twisted, build_gl2_restriction])
def test_twist_orbits_against_closure_twisted(build):
    """Seeded node subsets under the twists of seeded elements, on data
    whose Frobenius moves nodes."""
    group = build()
    tau = group.length_zero_element((1,) + (0,) * (group.datum.dim - 1)).element
    omegas = [group.identity, tau, group.mult(tau, tau)]
    rng = random.Random(31)
    twists = set()
    for _ in range(30):
        twist = sigma_support(group, random_element(rng, group, 5, omegas)).twist
        twists.add(twist)
        for _ in range(8):
            nodes = frozenset(i for i in range(group.num_nodes) if rng.random() < 0.4)
            _check_cycle_walk(twist, nodes)
    assert any(twist != tuple(range(group.num_nodes)) for twist in twists)


# ----------------------------------------------------------------- reports


def test_stratum_report_counts(ctx2):
    recs = stratum_report(ctx2.adm(), frozenset())
    assert len(recs) == 13
    assert sum(r.basic for r in recs) == 5
    assert all((r.datum is not None) == r.basic for r in recs)
    hyper = stratum_report(ctx2.adm(), ctx2.hyperspecial)
    assert len(hyper) == 4
    assert sum(r.basic for r in hyper) == 2


@pytest.mark.parametrize("g", [1, 2, 3])
def test_stratum_report_computes_each_invariant_once(g, monkeypatch):
    """One twisted support and one stable subset per record, basic or not,
    at every level."""
    ctx = siegel_context(g)
    adm = ctx.adm()
    calls = Counter()
    for name in ("sigma_support", "stable_level_subset"):
        def counted(*args, _orig=getattr(ekor, name), _name=name):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(ekor, name, counted)
    for level in siegel_levels(g):
        calls.clear()
        recs = stratum_report(adm, level)
        assert calls == {"sigma_support": len(recs),
                         "stable_level_subset": len(recs)}, level


def test_record_json_shape(ctx2):
    group = ctx2.group
    recs = stratum_report(ctx2.adm(), ctx2.hyperspecial)
    for rec in recs:
        text = record_to_json(group, rec)
        payload = json.loads(text)
        assert set(payload) == {"w", "word", "length", "level", "basic",
                                "supp_sigma", "i_set", "newton", "dl"}
        assert set(payload["supp_sigma"]) == {"raw", "closure"}
        assert (payload["dl"] is None) == (not rec.basic)
        assert record_to_json(group, rec) == text


def test_record_json_newton_strings(ctx3):
    """The writer's Newton strings are those of str, for the tuples the
    records share with the Newton memo, for equal but distinct tuples and
    for tuples of other values: its memo is keyed by the identity of the
    tuple, so it must not hand one tuple's text to another."""
    group = ctx3.group
    for rec in stratum_report(ctx3.adm(), ctx3.iwahori):
        copy = tuple(list(rec.newton))
        assert copy is not rec.newton
        shifted = tuple(c + 1 for c in rec.newton)
        for nu in (rec.newton, copy, shifted, rec.newton):
            got = json.loads(record_to_json(group, rec._replace(newton=nu)))["newton"]
            assert got == [str(c) for c in nu]


def test_record_json_values(ctx2):
    group = ctx2.group
    recs = {element_label(group, r.element): json.loads(record_to_json(group, r))
            for r in stratum_report(ctx2.adm(), frozenset())}
    tau = recs["tau"]
    assert tau["length"] == 0
    assert tau["basic"] is True
    assert tau["newton"] == ["1/2", "1/2", "1/2", "1/2"]
    assert tau["dl"]["type"] == "1"
    assert tau["dl"]["frobenius"] == [2, 1, 0]
    top = recs["s0.s1.s0.tau"]
    assert top["basic"] is False
    assert top["dl"] is None
    assert top["newton"] == ["1", "1", "0", "0"]
