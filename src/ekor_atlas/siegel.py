"""Symplectic similitude contexts on 2g letters.

The cocharacter lattice is the sublattice of Z^(2g) with constant pair sums
x_i + x_(2g+1-i); simple roots are x_i - x_(i+1) and the extra affine
reflection is the swap of the outer pair shifted by the highest coroot.  The
minuscule cocharacter is (1,...,1,0,...,0).

This module also carries the closed-form side of the two comparisons, which
the context picks from the level (Goertz-Yu at Iwahori level, Hoeve at
hyperspecial level): closed supports and canonical stable subsets indexed by
a defect c, and the parameterization of basic strata at maximal level by
minimal coset representatives of small hyperoctahedral groups.

The defect-c basic strata are tau w for the rank-c representatives w that
are not rank-(c-1) ones.  One enumeration at rank floor(g/2) gives them all:
the rank-c ones are those supported on nodes g-c+1..g, since a parabolic
element's left descents lie in its support.  So the defect of w is g + 1
minus its least letter (0 for the identity), its dimension its word length.

At hyperspecial level the longest basic strata have length 0, 1, 1, 3 for
g = 1..4, below Li-Oort's dimension floor(g^2/4) = 0, 1, 2, 4 of the
supersingular locus.  This is not a defect and is not checked: the basic
strata there are the EO strata lying inside the supersingular locus, and
from g = 3 on that locus is not a union of EO strata, so its dimension
need not be the length of any basic stratum.  At Iwahori level the longest
basic stratum does have the Goertz-Yu dimension of the supersingular locus,
and the gortz-yu comparison checks it.

The shape of a context (diagram types, generators, tau, the class of mu)
is fixed by the datum and asserted for g = 1..5 in the tests, not on build.
"""

from __future__ import annotations

import functools
from typing import Iterable, NamedTuple, Optional

from ekor_atlas.admissible import (
    AdmissibleSet,
    admissible_set,
    parahoric_label,
)
from ekor_atlas.affine import (
    ExtAffineElement,
    ExtendedAffineWeylGroup,
    GroupError,
)
from ekor_atlas.ekor import StratumRecord, stratum_report
from ekor_atlas.rootdata import RootDatum


def siegel_datum(g: int) -> RootDatum:
    """Root datum of the similitude group on 2g letters, split form."""
    if g < 1:
        raise GroupError("g must be at least 1")
    d = 2 * g

    def vec(plus, minus=()):
        return tuple((i in plus) - (i in minus) for i in range(d))

    def perm_matrix(*swaps):
        perm = list(range(d))
        for a, b in swaps:
            perm[a], perm[b] = perm[b], perm[a]
        return tuple(tuple(int(perm[c] == r) for c in range(d))
                     for r in range(d))

    basis = [vec([i], [d - 1 - i]) for i in range(g)]
    basis.append(vec(range(g, d)))
    roots = [vec([i], [i + 1]) for i in range(g)]
    coroots = [vec([i, d - 2 - i], [i + 1, d - 1 - i]) for i in range(g - 1)]
    coroots.append(vec([g - 1], [g]))
    weyl = [perm_matrix((i, i + 1), (d - 2 - i, d - 1 - i)) for i in range(g - 1)]
    weyl.append(perm_matrix((g - 1, g)))
    return RootDatum(dim=d, basis=tuple(basis), simple_roots=tuple(roots),
                     simple_coroots=tuple(coroots), ambient_weyl=tuple(weyl))


class SiegelContext:
    """A genus together with its group, cocharacter, named levels and
    admissible set; ``siegel_context`` keeps one per genus."""

    def __init__(self, g: int):
        self.g = g
        self.group = group = ExtendedAffineWeylGroup(siegel_datum(g))
        self.mu = (1,) * g + (0,) * g
        self.tau = group.length_zero_element(self.mu)
        self.iwahori: frozenset[int] = frozenset()
        self.hyperspecial = group.finite_nodes
        self._adm: Optional[AdmissibleSet] = None

    def adm(self) -> AdmissibleSet:
        if self._adm is None:
            self._adm = admissible_set(self.group, self.mu)
        return self._adm

    def report(self, label: frozenset[int]) -> tuple[StratumRecord, ...]:
        return stratum_report(self.adm(), label)

    def level_nodes(self, spec: str) -> frozenset[int]:
        """Parse a level name: iwahori, hyperspecial, or comma separated nodes."""
        text = spec.strip().lower()
        if text == "iwahori":
            return self.iwahori
        if text == "hyperspecial":
            return self.hyperspecial
        try:
            nodes = frozenset(int(p) for p in text.split(",") if p.strip() != "")
        except ValueError:
            raise GroupError(f"cannot parse level {spec!r}") from None
        return parahoric_label(self.group, nodes)

    # ------------------------------------------------ minimal coset reps

    def embedded_min_reps(self, c: int) -> tuple[ExtAffineElement, ...]:
        """Minimal representatives of the rank-c analogue, relettered to the
        last c finite nodes: elements of the parabolic on nodes g-c+1..g
        with no left descent among its first c-1 nodes.  At c = g these are
        the 2^g representatives of the finite Weyl group modulo its
        permutation part.  The rank c runs from 0 to g."""
        g = self.g
        group = self.group
        window = frozenset(range(g - c + 1, g + 1))
        left = frozenset(range(g - c + 1, g))
        return tuple(group.left_minimal(group.parabolic_subgroup_elements(window), left))

    # ---------------------------------------------------- closed forms

    def superspecial_index(self, raw_support: Iterable[int]) -> Optional[int]:
        """Least c with both s_c and s_(g-c) missing from the raw support.

        Defined exactly when the twisted support closure stays finite; the
        closure is symmetric under i -> g - i, so finiteness means some
        mirror pair of nodes is omitted.
        """
        raw = frozenset(raw_support)
        for c in range(self.g // 2 + 1):
            if raw.isdisjoint({c, self.g - c}):
                return c
        return None

    def closed_support(self, c: int) -> frozenset[int]:
        """Support closure of any basic stratum of defect c at maximal level."""
        if c == 0:
            return frozenset()
        g = self.g
        return frozenset(range(c)) | frozenset(range(g - c + 1, g + 1))

    def closed_stable_subset(self, c: int) -> frozenset[int]:
        """Stable level subset of the canonical defect-c stratum.

        Other representatives of the same defect can have a larger stable
        subset (test_closed_form_i_set_fails_off_canonical).
        """
        g = self.g
        if c == 0:
            return frozenset(range(1, g))
        return frozenset(range(c + 1, g - c))

    def gortz_yu_dimension(self) -> int:
        """Dimension of the supersingular locus at Iwahori level (Goertz-Yu):
        g^2/2 for even g, g(g-1)/2 for odd g."""
        g = self.g
        return g * g // 2 if g % 2 == 0 else g * (g - 1) // 2

    def canonical_basic_element(self, c: int) -> ExtAffineElement:
        """tau times the sign flips s_g s_(g-1) ... s_(g-c+1)."""
        return self.group.times_word(self.tau.element, range(self.g, self.g - c, -1))

    # ------------------------------------------------------- basic strata

    def eo_strata(self) -> tuple["EOStratum", ...]:
        """Predicted basic strata at maximal level, labeled by the defect and
        the reduced word of a parabolic element, which the word determines."""
        g = self.g
        out = []
        for w in self.embedded_min_reps(g // 2):
            word = self.group.reduced_word(w).word
            # the least window g-c+1..g holding the word
            c = g + 1 - min(word) if word else 0
            label = f"c{c}:" + ("-".join(f"s{i}" for i in word) or "e")
            out.append(EOStratum(
                label=label,
                defect=c,
                element=self.group.times_word(self.tau.element, word),
                dimension=len(word),
            ))
        return tuple(sorted(out, key=lambda s: (s.dimension, s.label)))

    def compare(self, level: frozenset[int]) -> "ComparisonReport":
        """Goertz-Yu at Iwahori level, Hoeve at hyperspecial level."""
        if level == self.iwahori:
            return self._compare_iwahori()
        if level == self.hyperspecial:
            return self._compare_hyperspecial()
        raise GroupError(f"no comparison at level {sorted(level)}")

    def _compare_iwahori(self) -> "ComparisonReport":
        """Engine basicness against the omitted-mirror-pair criterion, and
        the longest basic stratum against the Goertz-Yu dimension."""
        report = self.report(self.iwahori)
        labels = []
        for rec in report:
            index = self.superspecial_index(rec.support.raw)
            if (index is not None) != rec.basic:
                raise GroupError(
                    f"basic flags disagree at word {rec.word}: "
                    f"closure says {rec.basic}, index says {index is not None}")
            if rec.basic:
                labels.append(f"c{index}:len{rec.length}:"
                              + ("-".join(f"s{i}" for i in rec.word) or "e"))
        # every disagreement raised above, so the index predicts these strata
        basic = len(labels)
        longest = max((rec.length for rec in report if rec.basic), default=None)
        if longest != self.gortz_yu_dimension():
            raise GroupError(
                f"longest basic Iwahori stratum has length {longest}, "
                f"the Goertz-Yu dimension is {self.gortz_yu_dimension()}")
        return ComparisonReport(mode="gortz-yu", g=self.g,
                                level=tuple(sorted(self.iwahori)),
                                strata=len(report), basic=basic,
                                expected=basic, labels=tuple(labels))

    def _compare_hyperspecial(self) -> "ComparisonReport":
        """Engine basic strata against the coset-representative prediction."""
        report = self.report(self.hyperspecial)
        basic = [rec for rec in report if rec.basic]
        strata = self.eo_strata()
        got = {rec.element for rec in basic}
        want = {s.element for s in strata}
        if got != want:
            raise GroupError("basic strata differ from the predicted representatives")
        expected = 2 ** (self.g // 2)
        if len(strata) != expected:
            raise GroupError(
                f"expected {expected} basic strata, found {len(strata)}")
        by_element = {rec.element: rec for rec in basic}
        for s in strata:
            rec = by_element[s.element]
            c = self.superspecial_index(rec.support.raw)
            if c != s.defect:
                raise GroupError(f"defect mismatch at {s.label}")
            if rec.support.closure != self.closed_support(c):
                raise GroupError(f"support closure mismatch at {s.label}")
        # s_g ... s_(g-c+1) is a representative, so its stratum was matched
        for c in range(self.g // 2 + 1):
            rec = by_element[self.canonical_basic_element(c)]
            if rec.stable_subset != self.closed_stable_subset(c):
                raise GroupError(f"stable subset mismatch at defect {c}")
        return ComparisonReport(mode="hoeve", g=self.g,
                                level=tuple(sorted(self.hyperspecial)),
                                strata=len(report), basic=len(basic),
                                expected=expected,
                                labels=tuple(s.label for s in strata))


class EOStratum(NamedTuple):
    """A predicted basic stratum at maximal level."""

    label: str
    defect: int
    element: ExtAffineElement
    dimension: int


class ComparisonReport(NamedTuple):
    """Outcome of one comparison mode; construction already hard-checked."""

    mode: str
    g: int
    level: tuple[int, ...]
    strata: int
    basic: int
    expected: int
    labels: tuple[str, ...]

    def to_json(self) -> dict:
        # json writes the tuples as lists
        return dict(self._asdict(), ok=self.basic == self.expected)


@functools.cache
def siegel_context(g: int) -> SiegelContext:
    return SiegelContext(g)
