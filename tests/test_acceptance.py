"""Acceptance gate: one line of output per criterion, asserted exactly.

Every count below was derived once through an independent oracle and then
frozen; the criterion functions recompute both sides from scratch.
"""

import hashlib
import io
import time
from contextlib import redirect_stdout

from ekor_atlas.admissible import kw_elements
from ekor_atlas.affine import element_label
from ekor_atlas.cli import main
from ekor_atlas.ekor import (
    is_basic,
    sigma_support,
    stable_level_subset,
    stratum_report,
    twist_orbits,
)
from ekor_atlas.oracles import (
    admissible_by_right_words,
    bruhat_leq_subword,
    brute_stable_subset,
    cayley_ball,
    coxeter_group_size,
    galois_average,
    straight_classes,
)
from ekor_atlas.siegel import siegel_context

ADM_SIZES = {1: 3, 2: 13}
ADM_PROFILE_G2 = {0: 1, 1: 3, 2: 5, 3: 4}
BASIC_IWAHORI = {1: 1, 2: 5}


def proper_subsets(n):
    """Every K strictly inside the affine node set {0..n-1}."""
    full = (1 << n) - 1
    return [frozenset(i for i in range(n) if m >> i & 1)
            for m in range(full)]


def tau_powers(ctx):
    group = ctx.group
    tau = ctx.tau.element
    return [group.identity, tau, group.inv(tau), group.mult(tau, tau)]


def closed_form_basic(ctx, x):
    return ctx.superspecial_index(sigma_support(ctx.group, x).raw) is not None


def test_c1_structural_counts(criterion):
    start = time.perf_counter()
    details = []
    ok = True
    for g in (1, 2, 3, 4):
        ctx = siegel_context(g)
        order = 2 ** g
        for k in range(2, g + 1):
            order *= k
        ok &= ctx.group.finite_order == order
        ok &= coxeter_group_size(ctx.group.datum.finite_coxeter) == order
        ok &= len(ctx.embedded_min_reps(ctx.g)) == 2 ** g
    for g, size in ADM_SIZES.items():
        ctx = siegel_context(g)
        group = ctx.group
        adm = ctx.adm()
        maxima = list(adm.maxima)
        oracle = admissible_by_right_words(group, maxima)
        ok &= set(adm.elements) == oracle
        ok &= len(adm) == size
    ok &= siegel_context(2).adm().by_length() == ADM_PROFILE_G2
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    details.append(f"orders and minimal reps g<=4, adm 3/13 with profile "
                   f"1/3/5/4 against the word oracle, {elapsed:.2f}s")
    criterion("C1 structural counts", ok, "; ".join(details))


def test_c2_basic_classification_agreement(criterion):
    mismatches = []
    strata = 0
    levels = 0
    for g in (1, 2, 3, 4):
        ctx = siegel_context(g)
        group = ctx.group
        adm = ctx.adm()
        for nodes in proper_subsets(g + 1):
            levels += 1
            for x in kw_elements(adm, nodes):
                strata += 1
                if is_basic(group, sigma_support(group, x)) != closed_form_basic(ctx, x):
                    mismatches.append((g, tuple(sorted(nodes)),
                                       element_label(group, x)))
    criterion("C2 basic classification agreement", not mismatches,
              f"{strata} strata over {levels} levels, "
              f"{len(mismatches)} mismatches")


def test_c3_closed_form_lemmas(criterion):
    """Closed forms over every defect-c element tau*w at hyperspecial level.

    (a) the support closure is closed_support(c) for every element;
    (b) the stable subset is closed_stable_subset(c) for the canonical
        element, which must lie in its window;
    (c) closure | I is every node but the defect pair {c, g-c}, i.e. the
        ambient type of the flag datum, for every element;
    (d) the stable subset matches the brute-force oracle for every element.
    Other representatives may have a larger stable subset than the closed
    form; those are listed in the detail line, not counted as failures.
    """
    mismatches = []
    off_canonical = []
    checked = 0
    for g in (1, 2, 3, 4):
        ctx = siegel_context(g)
        group = ctx.group
        nodes = frozenset(range(g + 1))
        for c in range(g // 2 + 1):
            window = set(ctx.embedded_min_reps(c))
            if c > 0:
                window -= set(ctx.embedded_min_reps(c - 1))
            elements = sorted((group.mult(ctx.tau.element, w) for w in window),
                              key=group.sort_key)
            canonical = ctx.canonical_basic_element(c)
            closed = ctx.closed_stable_subset(c)
            if canonical not in elements:
                mismatches.append((g, c, element_label(group, canonical),
                                   "canonical outside window"))
            for x in elements:
                checked += 1
                label = element_label(group, x)
                supp = sigma_support(group, x)
                if supp.closure != ctx.closed_support(c):
                    mismatches.append((g, c, label, "supp"))
                iset = stable_level_subset(group, x, ctx.hyperspecial)
                if iset != closed:
                    if x == canonical:
                        mismatches.append(
                            (g, c, label,
                             f"i_set {sorted(iset)} != {sorted(closed)}"))
                    else:
                        off_canonical.append(
                            f"g={g} c={c} {label} i_set {sorted(iset)}")
                ambient = supp.closure | iset
                if ambient != nodes - {c, g - c}:
                    mismatches.append((g, c, label,
                                       f"ambient {sorted(ambient)}"))
                if iset != brute_stable_subset(group, x, ctx.hyperspecial):
                    mismatches.append((g, c, label, "i_set oracle"))
    detail = f"{checked} elements checked"
    if off_canonical:
        detail += "; off-canonical " + "; ".join(off_canonical)
    if mismatches:
        detail += "; " + "; ".join(
            f"g={g} c={c} {label} {kind}" for g, c, label, kind in mismatches)
    criterion("C3 closed form support and parabolic lemmas",
              not mismatches, detail)


def test_c4_basic_stratum_counts(criterion):
    ok = True
    parts = []
    for g, count in BASIC_IWAHORI.items():
        ctx = siegel_context(g)
        found = sum(r.basic for r in stratum_report(ctx.adm(), frozenset()))
        ok &= found == count
        parts.append(f"iwahori g={g}: {found}")
    for g in (1, 2, 3, 4):
        ctx = siegel_context(g)
        found = sum(r.basic
                    for r in stratum_report(ctx.adm(), ctx.hyperspecial))
        ok &= found == 2 ** (g // 2)
        ok &= len(ctx.eo_strata()) == found
        parts.append(f"eo g={g}: {found}")
    criterion("C4 basic stratum counts", ok, ", ".join(parts))


def test_c5_oracle_equivalences(criterion):
    ok = True
    parts = []
    for g in (1, 2, 3):
        ctx = siegel_context(g)
        group = ctx.group
        ball = cayley_ball(group, 6, tau_powers(ctx))
        ok &= all(group.length(x) == r for x, r in ball.items())
        parts.append(f"g={g} ball {len(ball)}")

        adm = ctx.adm()
        cache = {}
        ok &= all(group.bruhat_leq(x, y) == bruhat_leq_subword(group, x, y,
                                                               cache)
                  for x in adm.elements for y in adm.elements)

        for nodes in proper_subsets(g + 1):
            ok &= all(stable_level_subset(group, x, nodes) ==
                      brute_stable_subset(group, x, nodes)
                      for x in adm.elements)

        cm = group.affine_coxeter
        # finite parabolic orders here stay below 48, so the cap separates
        subsets = proper_subsets(g + 1) + [frozenset(range(g + 1))]
        ok &= all(cm.is_finite_parabolic(J) ==
                  (coxeter_group_size(cm, J, cap=5000) is not None)
                  for J in subsets)
    criterion("C5 oracle equivalences", ok,
              "length, bruhat, i_set, finiteness all match: " +
              ", ".join(parts))


def test_c6_straight_class_structure(criterion):
    ok = True
    parts = []
    for g, count in ((1, 2), (2, 3)):
        ctx = siegel_context(g)
        group = ctx.group
        classes = straight_classes(ctx.adm())
        ok &= len(classes) == count
        points = [c.newton for c in classes]
        ok &= len(set(points)) == len(points)
        t_mu = group.from_parts(group.datum.to_lattice(ctx.mu), 0)
        omega_mu = group.reduced_word(t_mu).omega.element
        mu_bar = galois_average(group.datum, ctx.mu)
        basics = [c for c in classes if c.is_basic]
        ok &= len(basics) == 1
        ok &= any(ctx.tau.element in c.representatives for c in basics)
        for c in classes:
            ok &= all(group.reduced_word(x).omega.element == omega_mu
                      for x in c.representatives)
            ok &= group.newton_leq(c.newton, mu_bar)
            if not c.is_basic:
                ok &= group.newton_leq(basics[0].newton, c.newton)
                ok &= c.newton != basics[0].newton
        parts.append(f"g={g}: {len(classes)} classes")
    criterion("C6 straight class structure", ok, ", ".join(parts))


def test_c7_eo_correspondence(criterion):
    ok = True
    parts = []
    for g in (1, 2, 3):
        ctx = siegel_context(g)
        group = ctx.group
        image = {group.mult(ctx.tau.element, w)
                 for w in ctx.embedded_min_reps(ctx.g)}
        ok &= len(image) == 2 ** g
        ok &= image == set(kw_elements(ctx.adm(), ctx.hyperspecial))
        parts.append(f"g={g}: {len(image)}")
    criterion("C7 eo correspondence is a bijection", ok, ", ".join(parts))


def test_c8_dl_datum_sanity(criterion):
    ok = True
    basic_count = 0
    for g in (1, 2, 3):
        ctx = siegel_context(g)
        group = ctx.group
        for nodes in proper_subsets(g + 1):
            for rec in stratum_report(ctx.adm(), nodes):
                if rec.datum is None:
                    continue
                basic_count += 1
                d = rec.datum
                ok &= group.affine_coxeter.is_finite_parabolic(d.ambient_nodes)
                ok &= rec.length == group.length(rec.element)
                if d.sigma_coxeter:
                    orbits = twist_orbits(rec.support.twist,
                                          rec.support.closure)
                    ok &= rec.length == len(orbits)
    criterion("C8 flag datum sanity", ok,
              f"{basic_count} basic strata across all levels, g<=3")


# sha256 of each command's stdout, pinned so that a change of output fails
# even when it is deterministic
C9_DIGESTS = {
    "adm --g 2":
        "7f0be02925456526cda2c395cd46e08a3c379832003edc51ab752502e24178b8",
    "adm --g 2 --format json":
        "ad54a974d0011b875aefe7afefea34c1f6e6831be4ece90048e7a78f20388441",
    "adm --g 1 --format dot":
        "39dfe57883e3e731f41edc5112298bd2b885ca6ebc14b2fa164ba81598c19390",
    "classify --g 2 --level hyperspecial":
        "1b57bbc01dfae43a8413dda238132437409ebe32492180303351f794681df6e0",
    "classify --g 2 --format json":
        "89eedc26d86df2d7cb9f5da4b20c847c2d613a2b3fdd742b1b00c3351bf07885",
    "dl-data --g 2 --format json":
        "0fcd926bb7c19826b1e55a2260bcbeb4f0f02f130ecb1cacef446d34ef48e2ef",
    "compare --g 2":
        "e3e767a89a9e87dbe6f6056125ac63bfbbb7bcee47e9d3657c593cc67b692ede",
    "compare --g 3 --level hyperspecial --format json":
        "ff08fc0c99ac8a2476aad7f5255dcd83143032a8ef718641c453f30a05839e8c",
    "check --g 1":
        "f837a6b72fb3c283588a24a92c2c3de775d03b1f9655a7c4dd7e8a8a290c78c8",
}


def test_c9_cli_determinism(criterion):
    ok = True
    changed = []
    for command, digest in C9_DIGESTS.items():
        runs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(command.split())
            ok &= code == 0
            runs.append(buf.getvalue().encode("ascii"))
        ok &= runs[0] == runs[1]
        if hashlib.sha256(runs[0]).hexdigest() != digest:
            changed.append(command)
    ok &= not changed
    detail = (f"{len(C9_DIGESTS)} commands, two runs each, identical bytes, "
              f"pinned sha256")
    if changed:
        detail += "; changed: " + ", ".join(changed)
    criterion("C9 command line determinism", ok, detail)
