"""Admissible sets attached to a dominant cocharacter.

The admissible set of mu collects everything below a translation point
t^(w mu) in Bruhat order.  It is computed by subword closure: walk a reduced
word of each extremal translation and keep all subword products, then glue
the common length-zero factor back on.  Parahoric variants (saturation,
minimal coset representatives) and the straight classes inside the set are
derived from the same data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from ekor_atlas.affine import (
    ExtAffineElement,
    ExtendedAffineWeylGroup,
    GroupError,
    OmegaElement,
)
from ekor_atlas.lattice import mat_vec


def parahoric_label(group: ExtendedAffineWeylGroup,
                    nodes: Iterable[int]) -> frozenset[int]:
    """Validate a level: a Frobenius-stable node set with finite group."""
    label = frozenset(int(i) for i in nodes)
    for i in label:
        if not 0 <= i < group.num_nodes:
            raise GroupError(f"node {i} is out of range")
        if group.sigma_diagram(i) not in label:
            raise GroupError(f"level {sorted(label)} is not Frobenius-stable")
    if not group.affine_coxeter.is_finite_parabolic(label):
        raise GroupError(f"level {sorted(label)} does not give a finite group")
    return label


@dataclass(frozen=True)
class AdmissibleSet:
    """The admissible set of a dominant cocharacter, fully enumerated."""

    group: ExtendedAffineWeylGroup = field(compare=False, repr=False)
    mu: tuple[int, ...]
    elements: tuple[ExtAffineElement, ...]
    maxima: tuple[ExtAffineElement, ...]
    omega: OmegaElement

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[ExtAffineElement]:
        return iter(self.elements)

    def by_length(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for x in self.elements:
            lx = self.group.length(x)
            out[lx] = out.get(lx, 0) + 1
        return dict(sorted(out.items()))

    def kw(self, nodes: Iterable[int]) -> tuple[ExtAffineElement, ...]:
        return kw_elements(self, nodes)


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
    """All elements below some translation point of the orbit of mu."""
    mu_lat = group.datum.to_lattice(mu_ambient)
    cached = group._adm_cache.get(mu_lat)
    if cached is not None:
        return cached
    if not group.is_dominant(mu_ambient):
        raise GroupError(f"{tuple(mu_ambient)} is not dominant")
    orbit = weyl_orbit(group, mu_lat)
    maxima = [group.from_parts(lam, 0) for lam in orbit]
    omega = group.omega_part(maxima[0])
    collected: set[ExtAffineElement] = set()
    for top in maxima:
        rd = group.reduced_word(top)
        if rd.omega.element != omega.element:
            raise GroupError("translation points fall in different cosets")
        prefix = {group.identity}
        for letter in rd.word:
            s = group.simple_reflections[letter]
            prefix |= {group.mult(x, s) for x in prefix}
        collected |= prefix
    elements = tuple(sorted((group.mult(x, omega.element) for x in collected),
                            key=group.sort_key))
    out = AdmissibleSet(group, tuple(int(c) for c in mu_ambient), elements,
                        tuple(sorted(maxima, key=group.sort_key)), omega)
    group._adm_cache[mu_lat] = out
    return out


def is_left_minimal(group: ExtendedAffineWeylGroup, x: ExtAffineElement,
                    label: frozenset[int]) -> bool:
    return not any(group.is_descent(x, i) for i in label)


def is_right_minimal(group: ExtendedAffineWeylGroup, x: ExtAffineElement,
                     label: frozenset[int]) -> bool:
    """Right descents of x are the left descents of x^-1."""
    xinv = group.inv(x)
    return not any(group.is_descent(xinv, i) for i in label)


def kw_elements(adm: AdmissibleSet,
                nodes: Iterable[int]) -> tuple[ExtAffineElement, ...]:
    """Left-minimal admissible elements at the given level."""
    group = adm.group
    label = parahoric_label(group, nodes)
    return tuple(x for x in adm.elements if is_left_minimal(group, x, label))


def saturated_set(adm: AdmissibleSet,
                  nodes: Iterable[int]) -> tuple[ExtAffineElement, ...]:
    """Closure of the admissible set under the level group on both sides."""
    group = adm.group
    label = parahoric_label(group, nodes)
    seen = set(adm.elements)
    frontier = list(adm.elements)
    while frontier:
        nxt = []
        for x in frontier:
            for i in sorted(label):
                s = group.simple_reflections[i]
                for y in (group.mult(s, x), group.mult(x, s)):
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
        frontier = nxt
    return tuple(sorted(seen, key=group.sort_key))


def double_coset_minima(adm: AdmissibleSet,
                        nodes: Iterable[int]) -> tuple[ExtAffineElement, ...]:
    """Minimal length representatives of the level double cosets met."""
    group = adm.group
    label = parahoric_label(group, nodes)
    sat = saturated_set(adm, nodes)
    return tuple(x for x in sat
                 if is_left_minimal(group, x, label)
                 and is_right_minimal(group, x, label))


def bruhat_hasse_edges(group: ExtendedAffineWeylGroup,
                       elements: Sequence[ExtAffineElement],
                       ) -> tuple[tuple[int, int], ...]:
    """Transitive reduction of the induced order; edges point upward."""
    n = len(elements)
    leq = [[a != b and group.bruhat_leq(elements[a], elements[b])
            for b in range(n)] for a in range(n)]
    edges = []
    for a in range(n):
        for b in range(n):
            if leq[a][b] and not any(leq[a][k] and leq[k][b] for k in range(n)):
                edges.append((a, b))
    return tuple(edges)


@dataclass(frozen=True)
class StraightClass:
    """A Frobenius-twisted conjugacy class met by the admissible set."""

    newton: tuple[Fraction, ...]
    representatives: tuple[ExtAffineElement, ...]
    is_basic: bool


def straight_classes(adm: AdmissibleSet) -> tuple[StraightClass, ...]:
    """Classes of straight elements inside the set, grouped by Newton point.

    The class with dominance-least Newton point is flagged basic; the
    grouping insists on a unique least point and a common image under the
    connected-components map, and that every point is bounded by the
    averaged cocharacter.
    """
    group = adm.group
    buckets: dict[tuple[Fraction, ...], list[ExtAffineElement]] = {}
    for x in adm.elements:
        if group.is_sigma_straight(x):
            buckets.setdefault(group.newton_vector(x), []).append(x)
    if not buckets:
        raise GroupError("admissible set contains no straight element")
    kappa = group.kottwitz(adm.maxima[0])
    for reps in buckets.values():
        for x in reps:
            if group.kottwitz(x) != kappa:
                raise GroupError("straight element escapes the class of mu")
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
