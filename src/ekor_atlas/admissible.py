"""Admissible sets attached to a dominant cocharacter.

The admissible set of mu collects everything below a translation point
t^(w mu) in Bruhat order.  For minuscule mu in the general linear and
symplectic families it equals the permissible set (Kottwitz-Rapoport,
"Minuscule alcoves for GL_n and GSp_2n", 2000; Haines-Ngo, "Alcoves
associated to special fibers of local models", 2002), which is read off one
vertex at a time with no group products.

The vertex rule.  Let the finite Weyl group act on the ambient Z^d by
permutation matrices, write w in one-line form (w(c) = r when
``ambient_matrix(w)[r][c] == 1``), and let mu be a 0/1 vector.  When each
simple root is a nonnegative sum of the e_j - e_(j+1), so that the positive
roots are positive for GL_d, the rule reads the vertices v_i = -1_[0,i) of
the antidominant base alcove of GL_d: t^l w is admissible iff l lies in
W mu and, for i = 1..d-1,

    t^l w (v_i) - v_i = l + 1_[0,i) - 1_w([0,i))

has every entry in {0, 1}.  Entry r of 1_[0,i) - 1_w([0,i)) is
[r < i] - [w^-1(r) < i], which is 1 for some i iff w^-1(r) > r, -1 for some
i iff w^-1(r) < r, and 0 for all i iff w fixes r.  So the conditions say:
l_r = 0 where w^-1(r) > r, l_r = 1 where w^-1(r) < r, and l is free where w
fixes r.  ``admissible_set`` groups the orbit W mu by its entries on the
moved coordinates and emits, for each w, the orbit points with the forced
entries: each admissible element once.

The one exception.  A datum outside the theorem (B2 or G2 from a Cartan
matrix, whose reflections are not permutations, a mu that is not 0/1, or
simple roots e_(j+1) - e_j ordered against the coordinates) falls back to
the subword closure ``oracles.admissible_by_subwords``.

The canonical order.  ``admissible_set`` keeps the elements unsorted, as
found, with no length, reduced word or sort key.  ``kw_elements`` filters
them by left descents, words the survivors shortest first, sorts them by
``group.sort_key`` and memoises the result per level on the set;
``AdmissibleSet.elements`` is its Iwahori level, where all survive.  The key
(length, reduced word, translation of the length-zero part) is a total
order on distinct elements, since the word and the length-zero part
determine x, so this is exactly the filtered sorted set.  At hyperspecial
level only 2^g elements get words: 32 of 6,331 at g=5.

Parahoric variants (minimal coset representatives) and the straight classes
inside the set are derived from the same data.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from ekor_atlas.affine import (
    ExtAffineElement,
    ExtendedAffineWeylGroup,
    GroupError,
)
from ekor_atlas.lattice import mat_vec
from ekor_atlas.oracles import admissible_by_subwords


def parahoric_label(group: ExtendedAffineWeylGroup,
                    nodes: Iterable[int]) -> frozenset[int]:
    """Validate a level: a Frobenius-stable node set with finite group."""
    label = frozenset(int(i) for i in nodes)
    for i in label:
        if not 0 <= i < group.num_nodes:
            raise GroupError(f"node {i} is out of range")
        if group.sigma_diagram[i] not in label:
            raise GroupError(f"level {sorted(label)} is not Frobenius-stable")
    if not group.affine_coxeter.is_finite_parabolic(label):
        raise GroupError(f"level {sorted(label)} does not give a finite group")
    return label


class AdmissibleSet:
    """The admissible set of a dominant cocharacter, fully enumerated.

    ``len`` and iteration read the elements unsorted, as found;
    ``elements`` is the whole set in canonical order, the Iwahori level of
    ``kw_elements``, worded and sorted on first use (module docstring)."""

    def __init__(self, group: ExtendedAffineWeylGroup, mu: tuple[int, ...],
                 found: tuple[ExtAffineElement, ...],
                 maxima: tuple[ExtAffineElement, ...]):
        self.group = group
        self.mu = mu
        self.found = found
        self.maxima = maxima
        self._levels: dict[frozenset[int], tuple[ExtAffineElement, ...]] = {}

    def __len__(self) -> int:
        return len(self.found)

    def __iter__(self) -> Iterator[ExtAffineElement]:
        return iter(self.found)

    @property
    def elements(self) -> tuple[ExtAffineElement, ...]:
        return kw_elements(self, ())

    def by_length(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for x in self.found:
            lx = self.group.length(x)
            out[lx] = out.get(lx, 0) + 1
        return dict(sorted(out.items()))


def weyl_orbit(group: ExtendedAffineWeylGroup,
               v_lattice: Sequence[int]) -> list[tuple[int, ...]]:
    refl = group.datum.reflections_lattice
    seen = {tuple(v_lattice)}
    frontier = [tuple(v_lattice)]
    while frontier:
        nxt = []
        for v in frontier:
            for mat in refl:
                u = mat_vec(mat, v)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return sorted(seen)


def admissible_set(group: ExtendedAffineWeylGroup,
                   mu_ambient: Sequence[int]) -> AdmissibleSet:
    """All elements below some translation point of the orbit of mu, by the
    vertex rule (module docstring), or by subword closure for a datum
    outside it, kept in the order found."""
    if not group.is_dominant(mu_ambient):
        raise GroupError(f"{tuple(mu_ambient)} is not dominant")
    orbit = weyl_orbit(group, group.datum.to_lattice(mu_ambient))
    maxima = [group.from_parts(lam, 0) for lam in orbit]
    found = _vertex_rule(group, orbit)
    if found is None:
        found = admissible_by_subwords(group, maxima)
    return AdmissibleSet(group, tuple(int(c) for c in mu_ambient), tuple(found),
                         tuple(sorted(maxima, key=group.sort_key)))


def _vertex_rule(group: ExtendedAffineWeylGroup,
                 orbit: Sequence[tuple[int, ...]]) -> Optional[list[ExtAffineElement]]:
    """Perm(mu) from the one-line forms of the finite table, or None when the
    datum is outside the theorem."""
    datum = group.datum
    if not group._permutations:
        return None
    # a nonnegative sum of the e_j - e_(j+1): partial sums >= 0, total 0
    for root in datum.simple_roots:
        if sum(root) != 0 or any(sum(root[:j]) < 0 for j in range(datum.dim)):
            return None
    points = []
    for lam in orbit:
        amb = datum.from_lattice(lam)
        if any(c not in (0, 1) for c in amb):
            return None
        points.append((sum(1 << r for r, c in enumerate(amb) if c), lam))
    by_moved: dict[int, dict[int, list]] = {}
    out = []
    for widx in range(group.finite_order):
        moved = ones = 0
        for r, c in enumerate(group.ambient_part(widx)):  # w(c) = r
            if c != r:
                moved |= 1 << r
                if c < r:
                    ones |= 1 << r
        table = by_moved.get(moved)
        if table is None:
            table = by_moved[moved] = {}
            for mask, lam in points:
                table.setdefault(mask & moved, []).append(lam)
        out += [ExtAffineElement(lam, widx) for lam in table.get(ones, ())]
    return out


def is_left_minimal(group: ExtendedAffineWeylGroup, x: ExtAffineElement,
                    label: frozenset[int]) -> bool:
    return not any(group.is_descent(x, i) for i in label)


def kw_elements(adm: AdmissibleSet,
                nodes: Iterable[int]) -> tuple[ExtAffineElement, ...]:
    """Left-minimal admissible elements at the given level, in canonical
    order: the unsorted set filtered by left descents, then the survivors
    worded shortest first and sorted by ``group.sort_key``, memoised per
    level on the set.  The key is a total order on distinct elements, so
    this is the filtered ``adm.elements`` without wording the rest."""
    group = adm.group
    label = parahoric_label(group, nodes)
    got = adm._levels.get(label)
    if got is None:
        kept = [x for x in adm.found if is_left_minimal(group, x, label)]
        # shortest first, so a word whose greedy tail was worded already
        # stops there and reuses it
        kept.sort(key=group.length)
        for x in kept:
            group.reduced_word(x)
        kept.sort(key=group.sort_key)
        got = adm._levels[label] = tuple(kept)
    return got


def bruhat_hasse_edges(group: ExtendedAffineWeylGroup,
                       elements: Sequence[ExtAffineElement],
                       ) -> tuple[tuple[int, int], ...]:
    """Covers of the induced Bruhat order as index pairs (a, b), a below b,
    in lexicographic order.  ``elements`` must be an order ideal of the
    left-minimal elements of some level, as Adm(mu) and its left-minimal
    parts are: these are graded by length (Bjoerner-Brenti, Combinatorics
    of Coxeter Groups, 2.5), so a cover is a comparable pair one apart."""
    by_length: dict[int, list[int]] = {}
    for b, y in enumerate(elements):
        by_length.setdefault(group.length(y), []).append(b)
    return tuple((a, b) for a, x in enumerate(elements)
                 for b in by_length.get(group.length(x) + 1, ())
                 if group.bruhat_leq(x, elements[b]))


class StraightClass(NamedTuple):
    """A Frobenius-twisted conjugacy class met by the admissible set."""

    newton: tuple[Fraction, ...]
    representatives: tuple[ExtAffineElement, ...]
    is_basic: bool


def straight_classes(adm: AdmissibleSet) -> tuple[StraightClass, ...]:
    """Classes of straight elements inside the set, grouped by Newton point.

    The class with dominance-least Newton point is flagged basic; the
    grouping insists on a unique least point, and that every point is
    bounded by the averaged cocharacter.
    """
    group = adm.group
    buckets: dict[tuple[Fraction, ...], list[ExtAffineElement]] = {}
    for x in adm:
        if group.is_sigma_straight(x):
            buckets.setdefault(group.newton_vector(x), []).append(x)
    if not buckets:
        raise GroupError("admissible set contains no straight element")
    bound = group.galois_average(adm.mu)
    points = sorted(buckets, key=lambda nu: (sum(nu), nu))
    least = [nu for nu in points
             if all(group.newton_leq(nu, other) for other in points)]
    if len(least) != 1:
        raise GroupError("no unique basic Newton point")
    for nu in points:
        if not group.newton_leq(nu, bound):
            raise GroupError("Newton point exceeds the averaged cocharacter")
    return tuple(StraightClass(nu, tuple(sorted(buckets[nu], key=group.sort_key)),
                               nu == least[0])
                 for nu in points)
