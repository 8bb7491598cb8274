import json

import pytest

from ekor_atlas.admissible import kw_elements
from ekor_atlas.affine import GroupError
from ekor_atlas.coxeter import INFINITE_BOND, format_finite_type
from ekor_atlas.ekor import is_basic, sigma_support, stable_level_subset
from ekor_atlas.oracles import brute_stable_subset, coxeter_group_size
from ekor_atlas.rootdata import RootDatumError
from ekor_atlas.siegel import EOStratum, SiegelContext, siegel_context, siegel_datum


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_context_constructs(g):
    ctx = siegel_context(g)
    assert ctx.g == g
    assert ctx.group.num_nodes == g + 1
    assert ctx.hyperspecial == frozenset(range(1, g + 1))
    assert ctx.mu == tuple([1] * g + [0] * g)


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_context_facts(g):
    """The shape of the context: the finite type, the affine bonds (the
    path 4, 3, ..., 3, 4 of affine C_g on the nodes 0..g, or the infinite
    bond of affine A_1), the one-line form and translation of each of the
    g+1 reflections, tau's translation, finite part and node map i -> g-i,
    and tau as the length-zero part of the translation by mu."""
    ctx = siegel_context(g)
    group, d = ctx.group, 2 * g
    assert format_finite_type(group.datum.finite_coxeter.finite_type(range(g))) == \
        ("A1" if g == 1 else f"C{g}")
    bonds = [INFINITE_BOND] if g == 1 else [4] + [3] * (g - 2) + [4]
    assert group.affine_coxeter.edges() == [(i, i + 1, m) for i, m in enumerate(bonds)]

    swaps = {0: (0, d - 1), g: (g - 1, g)}
    for i in range(1, g):
        swaps[i] = (i - 1, i, d - 1 - i, d - i)
    for i, s in swaps.items():
        perm = list(range(d))
        for a, b in zip(s[::2], s[1::2]):
            perm[a], perm[b] = b, a
        t = [0] * d
        if i == 0:
            t[0], t[d - 1] = -1, 1
        assert group.element_to_json(group.simple_reflections[i]) == {"t": t, "w": perm}

    assert group.element_to_json(ctx.tau.element) == {
        "t": [0] * g + [1] * g, "w": [(j + g) % d for j in range(d)]}
    assert ctx.tau.node_images == tuple(g - i for i in range(g + 1))

    t_mu = group.from_parts(group.datum.to_lattice(ctx.mu), 0)
    assert group.reduced_word(t_mu).omega.element == ctx.tau.element


def test_context_is_cached():
    assert siegel_context(2) is siegel_context(2)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_context_builds_itself_from_g(g):
    """A context is built from the genus alone and agrees with the kept
    one.  It keeps its own Adm(mu); the group keeps no admissible cache,
    and the datum is read from the group."""
    fresh, ctx = SiegelContext(g), siegel_context(g)
    assert fresh is not ctx and siegel_context(g) is ctx
    assert fresh.tau.element == ctx.tau.element
    assert (fresh.iwahori, fresh.hyperspecial) == (ctx.iwahori, ctx.hyperspecial)
    assert fresh.group.finite_order == ctx.group.finite_order
    assert len(fresh.adm()) == len(ctx.adm())
    for c in (fresh, ctx):
        assert c.adm() is c.adm()
        assert not hasattr(c.group, "_adm_cache")
        assert not hasattr(c, "datum")


def test_rejects_nonpositive_genus():
    with pytest.raises((GroupError, RootDatumError, ValueError)):
        siegel_context(0)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_datum_shape(g):
    datum = siegel_datum(g)
    assert datum.dim == 2 * g
    assert datum.rank == g + 1
    assert datum.nsimple == g
    assert len(datum.positive_roots) == g * g


@pytest.mark.parametrize("g", [1, 2, 3])
def test_finite_order_matches_coxeter_catalogue(g):
    ctx = siegel_context(g)
    assert ctx.group.finite_order == coxeter_group_size(ctx.group.datum.finite_coxeter)
    assert ctx.group.finite_order == 2 ** g * _factorial(g)


def _factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def test_diagram_types(ctx1, ctx3):
    assert format_finite_type(
        ctx3.group.datum.finite_coxeter.finite_type(range(3))) == "C3"
    # rank one: single finite node, infinite bond in the affine diagram
    assert ctx1.group.affine_coxeter.rows[0][1] == 0


# ------------------------------------------------------------- minimal reps


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_min_rep_count(g):
    ctx = siegel_context(g)
    reps = ctx.embedded_min_reps(ctx.g)
    assert len(reps) == 2 ** g
    assert len(set(reps)) == len(reps)


def test_embedded_reps_nest(ctx4):
    sizes = [len(ctx4.embedded_min_reps(c)) for c in range(5)]
    assert sizes == [1, 2, 4, 8, 16]
    for c in range(4):
        assert set(ctx4.embedded_min_reps(c)) <= \
            set(ctx4.embedded_min_reps(c + 1))


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_embedded_reps_are_support_filter(g):
    ctx = siegel_context(g)
    group = ctx.group
    full = ctx.embedded_min_reps(g)
    for c in range(1, g + 1):
        window = set(range(g - c + 1, g + 1))
        by_support = tuple(w for w in full
                           if set(group.reduced_word(w).word) <= window)
        assert ctx.embedded_min_reps(c) == by_support


def test_superspecial_index(ctx4):
    assert ctx4.superspecial_index(frozenset()) == 0
    assert ctx4.superspecial_index(frozenset({0, 4})) == 1
    assert ctx4.superspecial_index(frozenset({0, 1, 3, 4})) == 2
    assert ctx4.superspecial_index(frozenset({0, 1, 2, 3, 4})) is None
    assert ctx4.superspecial_index(frozenset({2})) == 0


def test_closed_support_formulas(ctx4):
    assert ctx4.closed_support(0) == frozenset()
    assert ctx4.closed_support(1) == frozenset({0, 4})
    assert ctx4.closed_support(2) == frozenset({0, 1, 3, 4})
    assert ctx4.closed_stable_subset(0) == frozenset({1, 2, 3})
    assert ctx4.closed_stable_subset(1) == frozenset({2})
    assert ctx4.closed_stable_subset(2) == frozenset()


def test_canonical_element_realizes_formulas(ctx3, ctx4):
    for ctx in (ctx3, ctx4):
        group = ctx.group
        for c in range(ctx.g // 2 + 1):
            x = ctx.canonical_basic_element(c)
            assert group.length(x) == c
            assert sigma_support(group, x).closure == ctx.closed_support(c)
            assert stable_level_subset(group, x, ctx.hyperspecial) == \
                ctx.closed_stable_subset(c)


def test_closed_form_i_set_fails_off_canonical(ctx4):
    # same defect, different representative: the stable subset changes
    group = ctx4.group
    s = group.simple_reflections
    x = group.mult(ctx4.tau.element, group.mult(s[4], group.mult(s[3], s[4])))
    assert group.length(x) == 3
    c = ctx4.superspecial_index(sigma_support(group, x).raw)
    assert c == 2
    iset = stable_level_subset(group, x, ctx4.hyperspecial)
    assert iset == frozenset({1, 3})
    assert iset == brute_stable_subset(group, x, ctx4.hyperspecial)
    assert ctx4.closed_stable_subset(2) == frozenset()


# -------------------------------------------------------------- EO strata


@pytest.mark.parametrize("g,count", [(1, 1), (2, 2), (3, 2), (4, 4)])
def test_basic_eo_count(g, count):
    strata = siegel_context(g).eo_strata()
    assert len(strata) == count
    labels = [s.label for s in strata]
    assert len(set(labels)) == len(labels)


def test_eo_defect_distribution_g4(ctx4):
    strata = ctx4.eo_strata()
    by_defect = {}
    for s in strata:
        by_defect[s.defect] = by_defect.get(s.defect, 0) + 1
    assert by_defect == {0: 1, 1: 1, 2: 2}
    assert {s.label for s in strata} == \
        {"c0:e", "c1:s4", "c2:s4-s3", "c2:s4-s3-s4"}


def test_eo_dimensions_are_lengths(ctx3):
    """The label c<defect>:s<i>-s<j>-... (c<defect>:e for the empty word)
    carries a word of the stratum after tau, and the dimension is its
    length and the length of the element."""
    group = ctx3.group
    for s in ctx3.eo_strata():
        prefix, word = s.label.split(":")
        assert prefix == f"c{s.defect}"
        letters = [] if word == "e" else [int(t[1:]) for t in word.split("-")]
        x = ctx3.tau.element
        for i in letters:
            x = group.times_simple(x, i)
        assert x == s.element
        assert s.dimension == group.length(s.element) == len(letters)


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_eo_strata_against_window_differences(g):
    """The strata from one enumeration at rank floor(g/2) against the
    windows one defect at a time: tau w for w among the rank-c
    representatives that are not rank-(c-1) ones, labeled c<c>:<word>, of
    dimension l(w)."""
    ctx = siegel_context(g)
    group = ctx.group
    want = []
    for c in range(g // 2 + 1):
        smaller = set(ctx.embedded_min_reps(c - 1)) if c > 0 else set()
        for w in ctx.embedded_min_reps(c):
            if w in smaller:
                continue
            word = group.reduced_word(w).word
            label = f"c{c}:" + ("-".join(f"s{i}" for i in word) or "e")
            want.append(EOStratum(label, c, group.mult(ctx.tau.element, w),
                                  group.length(w)))
    assert len(want) == 2 ** (g // 2)
    assert ctx.eo_strata() == tuple(sorted(want, key=lambda s: (s.dimension, s.label)))


def test_eo_elements_are_kw(ctx2):
    kw = set(kw_elements(ctx2.adm(), ctx2.hyperspecial))
    for s in ctx2.eo_strata():
        assert s.element in kw


# ------------------------------------------------------------- comparisons


@pytest.mark.parametrize("g,basic", [(1, 1), (2, 5), (3, 9)])
def test_compare_iwahori(g, basic):
    ctx = siegel_context(g)
    report = ctx.compare(ctx.iwahori)
    assert report.mode == "gortz-yu"
    assert report.basic == basic
    assert report.expected == basic
    assert report.strata == len(ctx.adm())


@pytest.mark.parametrize("g,dim", [(1, 0), (2, 2), (3, 3), (4, 8), (5, 10)])
def test_longest_basic_iwahori_stratum(g, dim):
    """Goertz-Yu: the supersingular locus at Iwahori level has dimension
    g^2/2 for even g and g(g-1)/2 for odd g, the length of its longest
    basic stratum."""
    assert dim == (g * g // 2 if g % 2 == 0 else g * (g - 1) // 2)
    ctx = siegel_context(g)
    assert ctx.gortz_yu_dimension() == dim
    group = ctx.group
    assert max(group.length(x) for x in ctx.adm()
               if is_basic(group, sigma_support(group, x))) == dim


@pytest.mark.parametrize("g,basic", [(1, 1), (2, 2), (3, 2), (4, 4)])
def test_compare_hyperspecial(g, basic):
    ctx = siegel_context(g)
    report = ctx.compare(ctx.hyperspecial)
    assert report.mode == "hoeve"
    assert report.basic == basic
    assert report.expected == 2 ** (g // 2)
    assert len(report.labels) == basic


def _replace_first(report, pick, change):
    """The report with its first record that ``pick`` accepts changed."""
    i = next(k for k, rec in enumerate(report) if pick(rec))
    return report[:i] + (change(report[i]),) + report[i + 1:]


def _support(rec, **fields):
    return rec._replace(support=rec.support._replace(**fields))


def _flag_non_basic(ctx, report):
    return _replace_first(report, lambda rec: not rec.basic,
                          lambda rec: rec._replace(basic=True))


def _drop_longest_basic(ctx, report):
    longest = max(rec.length for rec in report if rec.basic)
    return tuple(rec for rec in report if not (rec.basic and rec.length == longest))


def _drop_basic(ctx, report):
    i = next(k for k, rec in enumerate(report) if rec.basic)
    return report[:i] + report[i + 1:]


def _empty_raw_support(ctx, report):
    # a record of positive defect, so the empty support reads defect 0
    return _replace_first(
        report, lambda rec: rec.basic and ctx.superspecial_index(rec.support.raw),
        lambda rec: _support(rec, raw=frozenset()))


def _defect_node_in_closure(ctx, report):
    return _replace_first(
        report, lambda rec: rec.basic,
        lambda rec: _support(rec, closure=rec.support.closure
                             | {ctx.superspecial_index(rec.support.raw)}))


def _canonical_stable_subset(ctx, report):
    tau = ctx.canonical_basic_element(0)
    return _replace_first(report, lambda rec: rec.element == tau,
                          lambda rec: rec._replace(stable_subset=rec.stable_subset ^ {1}))


@pytest.mark.parametrize("g", [2, 3, 4])
@pytest.mark.parametrize("level, tamper, message", [
    ("iwahori", _flag_non_basic, "basic flags disagree"),
    ("iwahori", _drop_longest_basic, "Goertz-Yu dimension"),
    ("hyperspecial", _drop_basic, "differ from the predicted"),
    ("hyperspecial", _empty_raw_support, "defect mismatch"),
    ("hyperspecial", _defect_node_in_closure, "support closure mismatch"),
    ("hyperspecial", _canonical_stable_subset, "stable subset mismatch"),
], ids=["basic_flag", "goertz_yu", "predicted", "defect", "closure", "stable_subset"])
def test_compare_detects_a_tampered_report(g, level, tamper, message):
    """Each comparison fails on a report that disagrees with the closed
    forms in one field.  The context is a fresh one, not the cached one."""
    ctx = SiegelContext(g)
    report = ctx.report
    ctx.report = lambda nodes: tamper(ctx, report(nodes))
    with pytest.raises(GroupError, match=message):
        ctx.compare(ctx.level_nodes(level))


@pytest.mark.parametrize("g", [2, 3, 4])
def test_compare_detects_a_missing_stratum(g):
    """One predicted stratum dropped together with its record: the two sets
    agree, and the count of 2^(g//2) does not."""
    ctx = SiegelContext(g)
    report, strata = ctx.report, ctx.eo_strata()
    ctx.eo_strata = lambda: strata[1:]
    ctx.report = lambda nodes: tuple(rec for rec in report(nodes)
                                     if rec.element != strata[0].element)
    with pytest.raises(GroupError, match=rf"expected {2 ** (g // 2)} basic strata, found"):
        ctx.compare(ctx.hyperspecial)


def test_compare_rejects_other_levels(ctx2):
    """Only the Iwahori and the hyperspecial level have a comparison; a
    mode name is not a level."""
    for level in (frozenset({0}), frozenset({0, 1, 2}), "hoeve"):
        with pytest.raises(GroupError):
            ctx2.compare(level)


def test_report_json(ctx2):
    rep = ctx2.compare(ctx2.hyperspecial)
    # to_json keeps the tuple fields; the text is what must hold lists
    data = json.loads(json.dumps(rep.to_json()))
    assert data["mode"] == "hoeve"
    assert data["g"] == 2
    assert data["basic"] == data["expected"] == 2
    assert data["ok"] is True
    assert data["level"] == sorted(ctx2.hyperspecial)
    assert data["labels"] == list(rep.labels)


# ------------------------------------------------------------ level parsing


def test_level_nodes(ctx2):
    assert ctx2.level_nodes("iwahori") == frozenset()
    assert ctx2.level_nodes("hyperspecial") == frozenset({1, 2})
    assert ctx2.level_nodes("1,2") == frozenset({1, 2})
    assert ctx2.level_nodes(" 2 , 1 ") == frozenset({1, 2})
    assert ctx2.level_nodes("0") == frozenset({0})
    with pytest.raises(GroupError):
        ctx2.level_nodes("bogus")
    with pytest.raises(GroupError):
        ctx2.level_nodes("7")
    with pytest.raises(GroupError):
        ctx2.level_nodes("0,1,2")


def test_tau_structure(ctx3):
    group = ctx3.group
    tau = ctx3.tau
    assert group.length(tau.element) == 0
    assert tau.node_images == (3, 2, 1, 0)
    sq = group.mult(tau.element, tau.element)
    assert group.omega_of(sq).node_images == (0, 1, 2, 3)
