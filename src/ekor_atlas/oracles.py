"""Slow independent recomputations used to validate the fast paths.

Everything here is deliberately naive: breadth-first enumeration in a
reflection representation, subword generation, exhaustive subset scans.
The fast code must agree with these on small inputs.  The straight-class
survey of ``atlas check`` (C6) lives here too, and so does the check of
diagram automorphisms, which only tests call.  The subword closure
``admissible_by_subwords`` is production's fallback outside the vertex
rule, so it walks by node products; its twin ``admissible_by_right_words``
keeps the general law, as the other searches here do.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

from ekor_atlas.affine import ExtAffineElement, ExtendedAffineWeylGroup, GroupError
from ekor_atlas.coxeter import INFINITE_BOND, CoxeterError, CoxeterMatrix
from ekor_atlas.lattice import (
    fraction_matrix_inverse,
    identity_matrix,
    mat_mul,
    mat_vec,
    row_mat,
    vec_add,
    vec_dot,
)
from ekor_atlas.rootdata import RootDatum

if TYPE_CHECKING:  # admissible imports this module
    from ekor_atlas.admissible import AdmissibleSet

DEFAULT_CAP = 10 ** 6


def _reflection_generators(mat: CoxeterMatrix, nodes: Sequence[int]):
    """Integer reflection representation with pairing products 4cos^2(pi/m).

    s_i sends a_j to a_j - p(i,j) a_i where p(i,i) = 2 and off the diagonal
    p is 0, -1x-1, -1x-2, -1x-3 or -2x-2 for bonds 2, 3, 4, 6 and infinity
    (the bonds that ``CoxeterMatrix`` admits), the asymmetric weight going to the larger index.  p is a generalized
    Cartan matrix, whose Weyl group is the Coxeter group with these bonds
    (Kac, *Infinite-dimensional Lie algebras*, Prop. 3.13).  The signs
    matter on a cycle: with p >= 0 the triangle of bonds 3 closes up into a
    group of order 24, although affine A2 is infinite.
    """
    weights = {2: (0, 0), 3: (-1, -1), 4: (-1, -2), 6: (-1, -3), INFINITE_BOND: (-2, -2)}
    n = len(nodes)
    pairing = [[0] * n for _ in range(n)]
    for a in range(n):
        pairing[a][a] = 2
        for b in range(a + 1, n):
            pairing[a][b], pairing[b][a] = weights[mat.rows[nodes[a]][nodes[b]]]
    gens = []
    for i in range(n):
        rows = []
        for r in range(n):
            row = [int(r == ccol) for ccol in range(n)]
            if r == i:
                row = [row[ccol] - pairing[i][ccol] for ccol in range(n)]
            rows.append(tuple(row))
        gens.append(tuple(rows))
    return gens


def reflection_matrices(datum: RootDatum) -> tuple:
    """The simple reflections v -> v - <v, a_i> a_i^vee as matrices acting
    on lattice coordinates."""
    return tuple(
        tuple(tuple(int(r == j) - coroot[r] * values[j] for j in range(datum.rank))
              for r in range(datum.rank))
        for values, coroot in zip(datum.root_values, datum.coroots_lattice))


class DenseWeylTable:
    """The finite Weyl group of a root datum as dense lattice and ambient
    matrices, found by breadth-first search with right multiplication by
    the simple reflections in order.  That is the search order of the
    group's root-permutation table, so an element has the same index in
    both."""

    def __init__(self, datum: RootDatum):
        self.datum = datum
        ident = identity_matrix(datum.rank)
        self.mats = [ident]
        self.ambient = [identity_matrix(datum.dim)]
        self.index = {ident: 0}
        refl = reflection_matrices(datum)
        frontier = [0]
        while frontier:
            nxt = []
            for idx in frontier:
                for i in range(datum.nsimple):
                    m = mat_mul(self.mats[idx], refl[i])
                    if m not in self.index:
                        self.index[m] = len(self.mats)
                        self.mats.append(m)
                        self.ambient.append(
                            mat_mul(self.ambient[idx], datum.reflections_ambient[i]))
                        nxt.append(self.index[m])
            frontier = nxt

    def index_of(self, matrix) -> Optional[int]:
        return self.index.get(tuple(tuple(int(v) for v in row) for row in matrix))

    def mul(self, i: int, j: int) -> int:
        return self.index[mat_mul(self.mats[i], self.mats[j])]

    def inv(self, i: int) -> int:
        return self.index_of(fraction_matrix_inverse(self.mats[i]))

    def act(self, i: int, v: Sequence) -> tuple:
        return mat_vec(self.mats[i], v)

    def signs(self, i: int) -> tuple[bool, ...]:
        """Per positive root a: whether w^-1 a is positive."""
        positive = self.datum.positive_roots
        return tuple(row_mat(vals, self.mats[i]) in positive for vals in positive)

    def sigma_conjugate(self, i: int) -> int:
        """Index of sigma w sigma^-1."""
        frob = self.datum.frobenius_lattice
        return self.index_of(mat_mul(mat_mul(frob, self.mats[i]),
                                     fraction_matrix_inverse(frob)))

    def twisted_order(self, i: int) -> int:
        """Least n with (w sigma)^n = 1 on the lattice, by matrix powers."""
        step = mat_mul(self.mats[i], self.datum.frobenius_lattice)
        ident = identity_matrix(self.datum.rank)
        power, n = step, 1
        while power != ident:
            power = mat_mul(power, step)
            n += 1
        return n


def dominantize_by_rescan(group: ExtendedAffineWeylGroup, v: Sequence) -> tuple:
    """Dominant representative of a lattice vector: reflect by the first
    simple root with a negative pairing, rebuilding the vector and
    rescanning from the first root after every reflection."""
    datum = group.datum
    cur = tuple(v)
    while True:
        for vals, coroot in zip(datum.root_values, datum.coroots_lattice):
            p = vec_dot(cur, vals)
            if p < 0:
                cur = tuple(c - p * a for c, a in zip(cur, coroot))
                break
        else:
            return cur


def check_automorphism(mat: CoxeterMatrix, images: Iterable[int]) -> tuple[int, ...]:
    """Validate a node map given as its tuple of images: it must permute
    the nodes and preserve every bond order."""
    images = tuple(images)
    if sorted(images) != list(range(mat.n)):
        raise CoxeterError(f"images {images} are not a permutation of 0..{mat.n - 1}")
    for i in range(mat.n):
        for j in range(mat.n):
            if mat.rows[images[i]][images[j]] != mat.rows[i][j]:
                raise CoxeterError("node map does not preserve the bond orders")
    return images


def coxeter_group_size(mat: CoxeterMatrix, nodes: Optional[Iterable[int]] = None,
                       cap: int = DEFAULT_CAP) -> Optional[int]:
    """Order of the parabolic subgroup on the nodes, by breadth-first search
    in the reflection representation, or None once the cap is passed."""
    picked = sorted(mat.nodes() if nodes is None else nodes)
    gens = _reflection_generators(mat, picked)
    ident = identity_matrix(len(picked))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for gmat in gens:
                p = mat_mul(m, gmat)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
                    if len(seen) > cap:
                        return None
        frontier = nxt
    return len(seen)


def cayley_ball(group: ExtendedAffineWeylGroup, radius: int,
                omegas: Optional[Sequence[ExtAffineElement]] = None):
    """Word distance from the set of length-zero seeds, by blind search."""
    seeds = [group.identity] if omegas is None else list(omegas)
    dist = {x: 0 for x in seeds}
    frontier = seeds
    for r in range(1, radius + 1):
        nxt = []
        for x in frontier:
            for s in group.simple_reflections:
                y = group.mult(x, s)
                if y not in dist:
                    dist[y] = r
                    nxt.append(y)
        frontier = nxt
    return dist


def subword_products(group: ExtendedAffineWeylGroup,
                     y: ExtAffineElement) -> frozenset[ExtAffineElement]:
    """All products of subwords of one reduced word of y, times its
    length-zero part."""
    rd = group.reduced_word(y)
    acc = {rd.omega.element}
    for letter in reversed(rd.word):
        acc |= {group.simple_times(letter, x) for x in acc}
    return frozenset(acc)


def bruhat_leq_subword(group: ExtendedAffineWeylGroup, x: ExtAffineElement,
                       y: ExtAffineElement, cache: dict) -> bool:
    got = cache.get(y)
    if got is None:
        got = cache[y] = subword_products(group, y)
    return x in got


def descents_by_length(group: ExtendedAffineWeylGroup,
                       x: ExtAffineElement) -> list[int]:
    """Left descents found by comparing the length of s_i x with that of x."""
    lx = group.length(x)
    return [i for i in range(group.num_nodes)
            if group.length(group.mult(group.simple_reflections[i], x)) < lx]


def is_left_minimal(group: ExtendedAffineWeylGroup, x: ExtAffineElement,
                    label: Iterable[int]) -> bool:
    """No node of the label is a left descent of x by the length test
    ``descents_by_length``: the twin of ``group.left_minimal``."""
    return set(descents_by_length(group, x)).isdisjoint(label)


def right_greedy_word(group: ExtendedAffineWeylGroup, x: ExtAffineElement):
    """Reduced word built by stripping right descents, plus the leftover
    length-zero factor on the left: x = omega * word."""
    word = []
    y = x
    while True:
        ly = group.length(y)
        for i in range(group.num_nodes):
            if group.length(group.mult(y, group.simple_reflections[i])) < ly:
                word.append(i)
                y = group.mult(y, group.simple_reflections[i])
                break
        else:
            break
    return group.omega_of(y), tuple(reversed(word))


def admissible_by_subwords(group: ExtendedAffineWeylGroup,
                           maxima: Sequence[ExtAffineElement]):
    """Admissible set by subword closure: the subword products of one
    reduced word of each maximum.  ``admissible_set`` falls back on this for
    a datum outside the vertex rule."""
    out: set = set()
    for top in maxima:
        out |= subword_products(group, top)
    return frozenset(out)


def admissible_by_right_words(group: ExtendedAffineWeylGroup,
                              maxima: Sequence[ExtAffineElement]):
    """Admissible set recomputed from right-greedy words, with the
    length-zero factor glued on the left instead of the right."""
    out = set()
    for top in maxima:
        omega, word = right_greedy_word(group, top)
        acc = {group.identity}
        for letter in word:
            s = group.simple_reflections[letter]
            acc |= {group.mult(x, s) for x in acc}
        out |= {group.mult(omega.element, x) for x in acc}
    return frozenset(out)


def brute_stable_subset(group: ExtendedAffineWeylGroup, x: ExtAffineElement,
                        label: frozenset[int]) -> frozenset[int]:
    """Union of all subsets J of the level with x sigma(J) x^-1 = J exactly."""
    nodes = sorted(label)
    xinv = group.inv(x)
    best: set[int] = set()
    for mask in range(1 << len(nodes)):
        sub = frozenset(nodes[i] for i in range(len(nodes)) if mask >> i & 1)
        images = set()
        ok = True
        for i in sub:
            s = group.simple_reflections[group.sigma_diagram[i]]
            y = group.mult(group.mult(x, s), xinv)
            node = next((j for j in sub if group.simple_reflections[j] == y), None)
            if node is None:
                ok = False
                break
            images.add(node)
        if ok and images == set(sub):
            best |= sub
    return frozenset(best)


def sigma(group: ExtendedAffineWeylGroup, x: ExtAffineElement) -> ExtAffineElement:
    """The Frobenius image t^(sigma l) sigma w sigma^-1 of x = t^l w.  The
    conjugate of s_i is the reflection in the coroot sigma(a_i^vee), the
    simple reflection ``sigma_diagram[i]``, so sigma w sigma^-1 is a reduced
    word of w (finite nodes only) with its letters moved by the diagram."""
    finite = group.reduced_word(group.from_parts((0,) * group.rank, x.w))
    w = group.evaluate_word(group.sigma_diagram[i] for i in finite.word)
    return group.from_parts(mat_vec(group.datum.frobenius_lattice, x.trans), w.w)


def twisted_power(group: ExtendedAffineWeylGroup, x: ExtAffineElement,
                  m: int) -> ExtAffineElement:
    """x sigma(x) sigma^2(x) ... sigma^(m-1)(x)."""
    out = group.identity
    cur = x
    for _ in range(m):
        out = group.mult(out, cur)
        cur = sigma(group, cur)
    return out


def galois_average(datum: RootDatum, mu_ambient: Sequence) -> tuple[Fraction, ...]:
    """Average of a vector of X over its Frobenius orbit, in ambient
    coordinates."""
    order = datum.frobenius_order
    acc = cur = datum.to_lattice(mu_ambient)
    for _ in range(order - 1):
        cur = mat_vec(datum.frobenius_lattice, cur)
        acc = vec_add(acc, cur)
    return tuple(Fraction(a, order) for a in datum.from_lattice(acc))


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
    bound = galois_average(group.datum, adm.mu)
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
