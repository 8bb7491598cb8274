import json
import random

import pytest

from ekor_atlas.affine import GroupError, element_label
from ekor_atlas.ekor import (
    dl_datum,
    is_basic,
    is_basic_element,
    is_sigma_coxeter,
    record_to_json,
    sigma_support,
    stable_level_subset,
    stratum_report,
    support_twist,
    twist_orbits,
)
from ekor_atlas.oracles import brute_stable_subset
from helpers import random_descent_word, random_element

G2_CLOSURES = {
    "tau": frozenset(),
    "s0.tau": frozenset({0, 2}),
    "s1.tau": frozenset({1}),
    "s2.tau": frozenset({0, 2}),
    "s0.s2.tau": frozenset({0, 2}),
}


def _basic_iwahori(ctx):
    return [x for x in ctx.adm().elements
            if is_basic_element(ctx.group, x)]


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


def test_closure_properties(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        group = ctx.group
        for x in ctx.adm().elements:
            supp = sigma_support(group, x)
            assert supp.raw <= supp.closure
            assert supp.twist.apply(supp.closure) == supp.closure
            assert supp.twist.orbit_closure(supp.raw) == supp.closure


def test_twist_composes_omega_and_sigma(ctx2):
    group = ctx2.group
    # tau swaps the horns, and the untwisted frobenius fixes them
    tw = support_twist(group, ctx2.tau.element)
    assert tw.images == (2, 1, 0)
    assert support_twist(group, group.identity).is_identity()


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


def test_basicness_via_closure(ctx2):
    group = ctx2.group
    for x in ctx2.adm().elements:
        supp = sigma_support(group, x)
        assert is_basic(group, supp) == is_basic_element(group, x)
        assert is_basic(group, supp) == \
            group.affine_coxeter.is_finite_parabolic(supp.closure)


# ------------------------------------------------------- stable level subset


@pytest.mark.parametrize("nodes", [frozenset({1, 2}), frozenset({1}),
                                   frozenset({2})])
def test_stable_subset_matches_brute_force(ctx2, nodes):
    group = ctx2.group
    for x in ctx2.adm().kw(nodes):
        assert stable_level_subset(group, x, nodes) == \
            brute_stable_subset(group, x, nodes)


def test_stable_subset_matches_brute_force_g3(ctx3):
    group = ctx3.group
    nodes = ctx3.hyperspecial
    for x in ctx3.adm().kw(nodes):
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


def test_stable_subset_of_identity(ctx2):
    group = ctx2.group
    nodes = frozenset({1, 2})
    assert stable_level_subset(group, group.identity, nodes) == nodes


# ----------------------------------------------------------------- DL data


def test_dl_datum_g2_iwahori(ctx2):
    group = ctx2.group
    data = {}
    for x in _basic_iwahori(ctx2):
        data[element_label(group, x)] = dl_datum(group, x, frozenset())
    tau = data["tau"]
    # empty ambient diagram: the flag datum of a point
    assert tau.ambient_type == "1"
    assert tau.ambient_nodes == frozenset()
    assert tau.parabolic_nodes == frozenset()
    assert tau.dimension == 0
    s0 = data["s0.tau"]
    assert s0.ambient_type == "A1xA1"
    assert s0.ambient_nodes == frozenset({0, 2})
    assert s0.parabolic_nodes == frozenset()
    assert s0.dimension == 1
    assert data["s1.tau"].ambient_type == "A1"
    assert data["s0.s2.tau"].dimension == 2


def test_dl_datum_g2_hyperspecial(ctx2):
    group = ctx2.group
    data = {element_label(group, r.element): r.datum
            for r in stratum_report(ctx2.adm(), ctx2.hyperspecial)
            if r.datum is not None}
    tau = data["tau"]
    assert tau.ambient_type == "A1"
    assert tau.ambient_nodes == frozenset({1})
    assert tau.parabolic_nodes == frozenset({1})
    assert tau.dimension == 0
    s0 = data["s0.tau"]
    assert s0.ambient_type == "A1xA1"
    assert s0.ambient_nodes == frozenset({0, 2})
    assert s0.parabolic_nodes == frozenset()
    assert s0.dimension == 1
    assert set(data) == {"tau", "s0.tau"}


def test_sigma_coxeter_g2(ctx2):
    group = ctx2.group
    flags = {element_label(group, x): is_sigma_coxeter(group, x)
             for x in _basic_iwahori(ctx2)}
    assert flags == {"tau": True, "s0.tau": True, "s1.tau": True,
                     "s2.tau": True, "s0.s2.tau": False}


def test_dl_datum_frobenius_stabilizes(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        group = ctx.group
        for rec in stratum_report(ctx.adm(), ctx.hyperspecial):
            if rec.datum is None:
                continue
            d = rec.datum
            assert d.parabolic_nodes <= d.ambient_nodes
            # frobenius image tuple covers every affine node once and
            # restricts to a symmetry of the ambient sub diagram
            assert sorted(d.frobenius_nodes) == list(range(group.num_nodes))
            assert {d.frobenius_nodes[i] for i in d.ambient_nodes} == \
                d.ambient_nodes
            assert d.stabilizes_parabolic
            assert d.dimension == rec.length


def test_dl_datum_rejects_nonbasic(ctx2):
    group = ctx2.group
    top = max(ctx2.adm().elements, key=group.length)
    assert not is_basic_element(group, top)
    with pytest.raises(GroupError):
        dl_datum(group, top, frozenset())


def test_dl_datum_rejects_nonminimal(ctx2):
    group = ctx2.group
    x = group.mult(group.simple_reflections[1], ctx2.tau.element)
    assert is_basic_element(group, x)
    with pytest.raises(GroupError):
        dl_datum(group, x, frozenset({1}))


def test_twist_orbits(ctx2):
    group = ctx2.group
    tw = support_twist(group, ctx2.tau.element)
    orbits = twist_orbits(tw, frozenset({0, 2}))
    assert sorted(map(sorted, orbits)) == [[0, 2]]
    with pytest.raises(GroupError):
        twist_orbits(tw, frozenset({0}))


# ----------------------------------------------------------------- reports


def test_stratum_report_counts(ctx2):
    recs = stratum_report(ctx2.adm(), frozenset())
    assert len(recs) == 13
    assert sum(r.basic for r in recs) == 5
    assert all((r.datum is not None) == r.basic for r in recs)
    hyper = stratum_report(ctx2.adm(), ctx2.hyperspecial)
    assert len(hyper) == 4
    assert sum(r.basic for r in hyper) == 2


def test_record_json_shape(ctx2):
    group = ctx2.group
    recs = stratum_report(ctx2.adm(), ctx2.hyperspecial)
    for rec in recs:
        payload = record_to_json(group, rec)
        assert set(payload) == {"w", "word", "length", "level", "basic",
                                "supp_sigma", "i_set", "newton", "dl"}
        assert set(payload["supp_sigma"]) == {"raw", "closure"}
        assert (payload["dl"] is None) == (not rec.basic)
        json.dumps(payload)  # no stray non-serializable values
        again = record_to_json(group, rec)
        assert json.dumps(payload, sort_keys=True) == \
            json.dumps(again, sort_keys=True)


def test_record_json_values(ctx2):
    group = ctx2.group
    recs = {element_label(group, r.element): record_to_json(group, r)
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
