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

The masks take no loop over the coordinates.  Read the one-line form as an
integer x with byte lane r holding c = w^-1(r), and the identity as id
with lane r holding r.  While every entry is below 128 the lanes cannot
carry: lane r of t = x ^ id is below 128 and is 0 iff w fixes r, and
adding 0x7f sets its bit 7 iff it is not 0, so bit 7 of
moved = ((t + 0x7f..) | t) & 0x80.. marks the moved coordinates; lane r
of (id | 0x80..) - x is 128 + r - c, in 1..255, with bit 7 set iff c <= r,
so ones = ((id | 0x80..) - x) & moved marks those with w^-1(r) < r.  The
orbit points carry their 1 entries at the same bit 7, so a point fits w
iff it agrees with ones on moved.  A datum of dimension above 127 falls
back to the subword closure.

The one exception.  A datum outside the theorem (B2 or G2 from a Cartan
matrix, whose reflections are not permutations, a mu that is not 0/1, or
simple roots e_(j+1) - e_j ordered against the coordinates) falls back to
the subword closure ``oracles.admissible_by_subwords``, which is built by
node products and so forms no general group product either.

The level filter is ``group.left_minimal``, which reads the descent
verdicts of each translation's row (``affine`` module docstring).

The canonical order.  ``admissible_set`` keeps the elements unsorted, as
found, with no length, reduced word or sort key.  ``kw_elements`` filters
them by ``group.left_minimal``, words the survivors shortest first and
sorts them by ``group.sort_key`` on every call, keeping nothing on the set;
``AdmissibleSet.elements`` is its Iwahori level, where all survive.  The key
(length, reduced word, translation of the length-zero part) is a total
order on distinct elements, since the word and the length-zero part
determine x, so this is exactly the filtered sorted set.  At hyperspecial
level only 2^g elements get words: 32 of 6,331 at g=5.

Parahoric variants (minimal coset representatives) are derived from the
same data.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from ekor_atlas.affine import (
    ExtAffineElement,
    ExtendedAffineWeylGroup,
    GroupError,
)
from ekor_atlas.coxeter import reachable
from ekor_atlas.oracles import admissible_by_subwords


def parahoric_label(group: ExtendedAffineWeylGroup,
                    nodes: Iterable[int]) -> frozenset[int]:
    """Validate a level: a Frobenius-stable node set of ints with finite
    group.  A node is kept as given, so 1.7, "1" or True is refused, not
    cast."""
    label = frozenset(nodes)
    for i in label:
        if type(i) is not int:
            raise GroupError(f"node {i!r} is not an integer")
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
    ``kw_elements``, worded and sorted on each read (module docstring)."""

    def __init__(self, group: ExtendedAffineWeylGroup, mu: tuple[int, ...],
                 found: tuple[ExtAffineElement, ...],
                 maxima: tuple[ExtAffineElement, ...]):
        self.group = group
        self.mu = mu
        self.found = found
        self.maxima = maxima

    def __len__(self) -> int:
        return len(self.found)

    def __iter__(self) -> Iterator[ExtAffineElement]:
        return iter(self.found)

    @property
    def elements(self) -> tuple[ExtAffineElement, ...]:
        return kw_elements(self, frozenset())

    def by_length(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for x in self.found:
            lx = self.group.length(x)
            out[lx] = out.get(lx, 0) + 1
        return dict(sorted(out.items()))


def weyl_orbit(group: ExtendedAffineWeylGroup,
               v_lattice: Sequence[int]) -> list[tuple[int, ...]]:
    """The sorted W-orbit of v, by ``simple_times`` at the finite nodes
    (s_i t^v = t^(s_i v) s_i): it fills the rows of Wv, which ``Adm`` reads."""
    return sorted(reachable([tuple(v_lattice)], lambda v: [
        group.simple_times(i, ExtAffineElement(v, 0)).trans for i in group.finite_nodes]))


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
    datum is outside the theorem or has dimension above 127, where the byte
    lanes of ``_vertex_masks`` would carry."""
    datum = group.datum
    if not group._permutations or datum.dim > 127:
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
        points.append((int.from_bytes(bytes(0x80 * c for c in amb), "little"), lam))
    by_moved: dict[int, dict[int, list]] = {}
    out = []
    for widx, (moved, ones) in enumerate(_vertex_masks(group)):
        table = by_moved.get(moved)
        if table is None:
            table = by_moved[moved] = {}
            for mask, lam in points:
                table.setdefault(mask & moved, []).append(lam)
        out += [ExtAffineElement(lam, widx) for lam in table.get(ones, ())]
    return out


def _vertex_masks(group: ExtendedAffineWeylGroup) -> Iterator[tuple[int, int]]:
    """Per finite index w, the masks of the coordinates r with w^-1(r) != r
    and with w^-1(r) < r, as bit 7 of byte lane r, from a few integer
    operations on the one-line form (module docstring).  Every entry must
    be below 128."""
    d = group.datum.dim
    high = int.from_bytes(b"\x80" * d, "little")
    low = int.from_bytes(b"\x7f" * d, "little")
    ident = int.from_bytes(bytes(range(d)), "little")
    for widx in range(group.finite_order):
        x = int.from_bytes(group.ambient_part(widx), "little")  # lane r: c, w(c) = r
        t = x ^ ident
        moved = ((t + low) | t) & high
        yield moved, ((ident | high) - x) & moved


def kw_elements(adm: AdmissibleSet,
                label: frozenset[int]) -> tuple[ExtAffineElement, ...]:
    """Left-minimal admissible elements at the given level, in canonical
    order: the unsorted set filtered by ``group.left_minimal``, then the
    survivors worded shortest first and sorted by ``group.sort_key``.  The
    key is a total order on distinct elements, so this is the filtered
    ``adm.elements`` without wording the rest.

    ``label`` is a level as ``parahoric_label`` returns it; it is not
    validated again."""
    group = adm.group
    kept = group.left_minimal(adm.found, label)
    # shortest first, so a word whose greedy tail was worded already stops
    # there and reuses it
    kept.sort(key=group.length)
    for x in kept:
        group.reduced_word(x)
    kept.sort(key=group.sort_key)
    return tuple(kept)


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
