"""Stratum invariants: twisted supports, stable level subsets, flag data.

For an element x = w tau with tau of length zero, the twisted support is the
set of letters of a reduced word of w closed under the node map
Ad(tau) . sigma, which is the union of the cycles of that permutation
through the letters (``twist_orbits``).  A stratum is basic exactly when
that closure generates a finite group.  Basic strata carry a finite flag
datum: the closure together with the largest subset of the level that x
sigma-conjugates into itself.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from ekor_atlas.admissible import AdmissibleSet, kw_elements
from ekor_atlas.affine import ExtAffineElement, ExtendedAffineWeylGroup
from ekor_atlas.coxeter import format_finite_type, reachable


class SigmaSupport(NamedTuple):
    """Letters of a reduced word and their closure under the twist.

    ``twist`` is the node map s -> tau sigma(s) tau^-1 for the length-zero
    part tau of x, as its tuple of images.
    """

    raw: frozenset[int]
    closure: frozenset[int]
    twist: tuple[int, ...]


def twist_orbits(twist: tuple[int, ...], nodes: frozenset[int]) -> list[frozenset[int]]:
    """Cycles of the node map through the given nodes, ordered by least node.
    The map is a permutation (a length-zero element's node images after
    sigma's diagram), so the nodes reachable from one are its cycle."""
    remaining = set(nodes)
    orbits = []
    while remaining:
        orbits.append(frozenset(reachable([min(remaining)], lambda s: [twist[s]])))
        remaining -= orbits[-1]
    return sorted(orbits, key=min)


def sigma_support(group: ExtendedAffineWeylGroup,
                  x: ExtAffineElement) -> SigmaSupport:
    """Memoised on the group by the length-zero part and the letters of the
    reduced word, which determine it: the strata of ``Adm(mu)`` share one
    length-zero part, so they share a few supports (64 for the 6,331
    genus-5 strata)."""
    rd = group.reduced_word(x)
    raw = frozenset(rd.word)
    key = (rd.omega.element, raw)
    got = group._supports.get(key)
    if got is None:
        # tau acts by conjugation, which keeps the order of every product, and
        # sigma_diagram keeps the bonds because the datum's Frobenius does
        twist = tuple(rd.omega.node_images[s] for s in group.sigma_diagram)
        closure = frozenset().union(*twist_orbits(twist, raw))
        got = group._supports[key] = SigmaSupport(raw, closure, twist)
    return got


def is_basic(group: ExtendedAffineWeylGroup, supp: SigmaSupport) -> bool:
    """Basic means the closed support still generates a finite group."""
    return group.affine_coxeter.is_finite_parabolic(supp.closure)


def stable_level_subset(group: ExtendedAffineWeylGroup, x: ExtAffineElement,
                        label: frozenset[int]) -> frozenset[int]:
    """Largest subset I of the level with x sigma(I) x^-1 = I.

    ``label`` is a level as ``parahoric_label`` returns it; it is not
    validated again.  Greatest fixed point: repeatedly drop nodes whose
    twisted conjugate by x is not a simple reflection inside the current
    set.  The conjugates are root lookups, one per node of the level.
    """
    # node of x sigma(s_i) x^-1, or None when it is no simple reflection
    image = {i: group.conjugate_simple(x, group.sigma_diagram[i]) for i in label}
    cur = label
    while True:
        nxt = frozenset(i for i in cur if image[i] in cur)
        if nxt == cur:
            return cur
        cur = nxt


def is_sigma_coxeter(word: tuple[int, ...], supp: SigmaSupport) -> bool:
    """The reduced word uses exactly one letter from each twist orbit of the
    closure of its support."""
    return all(sum(map(word.count, orbit)) == 1
               for orbit in twist_orbits(supp.twist, supp.closure))


class DLDatum(NamedTuple):
    """Finite flag datum of a basic stratum, beyond what its record holds:
    the parabolic is the record's stable subset, the dimension its length
    and the Frobenius the twist of its support."""

    ambient_nodes: frozenset[int]
    ambient_type: str
    sigma_coxeter: bool
    stabilizes_parabolic: bool


def dl_datum(group: ExtendedAffineWeylGroup, word: tuple[int, ...],
             supp: SigmaSupport, iset: frozenset[int]) -> DLDatum:
    """The flag datum of a basic stratum from the reduced word, twisted
    support and stable subset of its record; ``finite_type`` raises when
    the ambient set is not of finite type."""
    ambient = supp.closure | iset
    return DLDatum(
        ambient_nodes=ambient,
        ambient_type=format_finite_type(group.affine_coxeter.finite_type(ambient)),
        sigma_coxeter=is_sigma_coxeter(word, supp),
        stabilizes_parabolic=all(supp.twist[i] in iset for i in iset),
    )


class StratumRecord(NamedTuple):
    """One stratum at a fixed level: the element and all its invariants."""

    element: ExtAffineElement
    word: tuple[int, ...]
    length: int
    level: tuple[int, ...]
    basic: bool
    support: SigmaSupport
    stable_subset: frozenset[int]
    newton: tuple[Fraction, ...]
    datum: Optional[DLDatum]


def stratum_report(adm: AdmissibleSet,
                   label: frozenset[int]) -> tuple[StratumRecord, ...]:
    """Classify every stratum of the admissible set at a level as
    ``parahoric_label`` returns it, which is not validated again,
    computing each invariant of a stratum once."""
    group = adm.group
    level = tuple(sorted(label))
    records = []
    for x in kw_elements(adm, label):
        word = group.reduced_word(x).word
        supp = sigma_support(group, x)
        iset = stable_level_subset(group, x, label)
        basic = is_basic(group, supp)
        records.append(StratumRecord(
            element=x,
            word=word,
            length=len(word),
            level=level,
            basic=basic,
            support=supp,
            stable_subset=iset,
            newton=group.newton_vector(x),
            datum=dl_datum(group, word, supp, iset) if basic else None,
        ))
    return tuple(records)
