"""Sampling helpers, definitional checks and extra root data for the tests.

The brute-force references the engine is checked against stay in
``ekor_atlas.oracles``; what is here only drives the tests.
"""

import random
from itertools import combinations
from typing import Iterable, Sequence

from ekor_atlas.admissible import AdmissibleSet, is_left_minimal, parahoric_label
from ekor_atlas.affine import ExtAffineElement, ExtendedAffineWeylGroup
from ekor_atlas.coxeter import INFINITE_BOND
from ekor_atlas.ekor import StratumRecord
from ekor_atlas.lattice import mat_vec, row_mat, solve_linear
from ekor_atlas.oracles import cayley_ball, sigma, twisted_power
from ekor_atlas.rootdata import RootDatum


def random_element(rng: random.Random, group: ExtendedAffineWeylGroup,
                   letters: int,
                   omegas: Sequence[ExtAffineElement]) -> ExtAffineElement:
    x = rng.choice(list(omegas))
    for _ in range(letters):
        x = group.mult(x, group.simple_reflections[
            rng.randrange(group.num_nodes)])
    return x


def product_order(group: ExtendedAffineWeylGroup, x: ExtAffineElement,
                  y: ExtAffineElement, cap: int = 6) -> int:
    """Order of x y by repeated products, ``INFINITE_BOND`` past ``cap``:
    the reference for the bonds the group reads from its wall roots."""
    p = group.mult(x, y)
    acc = p
    for m in range(1, cap + 1):
        if acc == group.identity:
            return m
        acc = group.mult(acc, p)
    return INFINITE_BOND


def siegel_levels(g: int) -> list[frozenset[int]]:
    """Every level of the genus-g Siegel group: the node sets that leave
    out at least one of the g + 1 affine nodes."""
    return [frozenset(c) for r in range(g + 1)
            for c in combinations(range(g + 1), r)]


def hasse_by_reduction(group: ExtendedAffineWeylGroup,
                       elements: Sequence[ExtAffineElement]):
    """Transitive reduction of the Bruhat order induced on ``elements``,
    edges pointing upward: the reference for ``bruhat_hasse_edges``."""
    n = len(elements)
    leq = [[a != b and group.bruhat_leq(elements[a], elements[b])
            for b in range(n)] for a in range(n)]
    return tuple((a, b) for a in range(n) for b in range(n)
                 if leq[a][b] and not any(leq[a][k] and leq[k][b] for k in range(n)))


def left_descents(group: ExtendedAffineWeylGroup, x: ExtAffineElement) -> list[int]:
    """The left descents of x in node order."""
    return [i for i in range(group.num_nodes) if group.is_descent(x, i)]


def random_descent_word(rng: random.Random, group: ExtendedAffineWeylGroup,
                        x: ExtAffineElement):
    """Reduced word by stripping a random left descent each step."""
    word = []
    y = x
    while True:
        choices = left_descents(group, y)
        if not choices:
            break
        i = rng.choice(choices)
        word.append(i)
        y = group.mult(group.simple_reflections[i], y)
    return tuple(word), group.omega_of(y)


def straight_by_definition(group: ExtendedAffineWeylGroup, x: ExtAffineElement,
                           powers: int = 8) -> bool:
    lx = group.length(x)
    return all(group.length(twisted_power(group, x, m)) == m * lx
               for m in range(1, powers + 1))


def twisted_conjugates(group: ExtendedAffineWeylGroup, x: ExtAffineElement,
                       conjugator_radius: int) -> frozenset[ExtAffineElement]:
    """All g x sigma(g)^-1 over conjugators from a word ball."""
    ball = cayley_ball(group, conjugator_radius)
    out = set()
    for gelt in ball:
        out.add(group.mult(group.mult(gelt, x),
                           group.inv(sigma(group, gelt))))
    return frozenset(out)


def dominantize(group: ExtendedAffineWeylGroup, ambient: Sequence):
    """Dominant form of an ambient vector and the finite element that takes
    it there, by applying simple reflections while some pairing is negative."""
    datum = group.datum
    cur = datum.to_lattice(ambient)
    w = group.identity
    while True:
        for i, vals in enumerate(datum.root_values):
            if sum(c * v for c, v in zip(cur, vals)) < 0:
                s = group.simple_reflections[i + 1]
                cur = group.act(s.w, cur)
                w = group.mult(s, w)
                break
        else:
            return datum.from_lattice(cur), w


def is_right_minimal(group: ExtendedAffineWeylGroup, x: ExtAffineElement,
                     label: frozenset[int]) -> bool:
    """Right descents of x are the left descents of x^-1."""
    xinv = group.inv(x)
    return not any(group.is_descent(xinv, i) for i in label)


def kw_by_sorting_all(adm: AdmissibleSet,
                      nodes: Iterable[int]) -> tuple[ExtAffineElement, ...]:
    """The left-minimal elements at a level as first defined: all of
    Adm(mu) sorted by ``group.sort_key``, then filtered.  The reference
    for ``kw_elements``, which sorts only the survivors."""
    group = adm.group
    label = parahoric_label(group, nodes)
    return tuple(x for x in sorted(adm.found, key=group.sort_key)
                 if is_left_minimal(group, x, label))


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
    return tuple(x for x in saturated_set(adm, nodes)
                 if is_left_minimal(group, x, label)
                 and is_right_minimal(group, x, label))


def root_system_by_solving(datum: RootDatum) -> dict:
    """The positive system the slow way, as the root datum once built it:
    close the simple (root, coroot) pairs under the lattice reflections,
    keyed by root values, then solve each root for its simple-root
    coordinates in Fractions.  The reference for the integer closure of
    ``RootDatum._build_root_system``."""
    pairs = dict(zip(datum.root_values, datum.coroots_lattice))
    frontier = list(pairs)
    while frontier:
        new = []
        for vals in frontier:
            for s_lat in datum.reflections_lattice:
                image = row_mat(vals, s_lat)
                if image not in pairs:
                    pairs[image] = mat_vec(s_lat, pairs[vals])
                    new.append(image)
        frontier = new
    positive = []
    for vals, coroot in pairs.items():
        coeffs = solve_linear(datum.root_values, vals)
        assert coeffs is not None
        assert all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)
        if all(c >= 0 for c in coeffs):
            positive.append((vals, coroot, tuple(coeffs)))
    assert 2 * len(positive) == len(pairs)
    positive.sort(key=lambda t: (sum(t[2]), t[0]))
    highest = [max((p for p in positive
                    if {i for i, c in enumerate(p[2]) if c} <= comp),
                   key=lambda p: sum(p[2]))
               for comp in datum.finite_coxeter.connected_components()]
    return {
        "positive_roots": tuple(p[0] for p in positive),
        "positive_coroots": tuple(p[1] for p in positive),
        "positive_coords": tuple(p[2] for p in positive),
        "theta": tuple(p[0] for p in highest),
        "theta_coroot": tuple(p[1] for p in highest),
    }


def build_gl(n: int, twisted: bool = False):
    """GL_n on Z^n with simple roots e_i - e_(i+1); with ``twisted`` the
    Frobenius is the duality twist x -> -(x_n, ..., x_1)."""
    basis = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    roots = tuple(tuple(int(j == i) - int(j == i + 1) for j in range(n))
                  for i in range(n - 1))
    frob = tuple(tuple(-int(i + j == n - 1) for j in range(n))
                 for i in range(n)) if twisted else None
    return ExtendedAffineWeylGroup(RootDatum(dim=n, basis=basis, simple_roots=roots,
                                             simple_coroots=roots, frobenius=frob))


def build_gl3_twisted():
    """Rank three general linear datum with the duality twist.

    The twist sends x to minus its reversal, which exchanges the two simple
    reflections and has fixed lattice of rank one, so it exercises every
    code path that a trivial Frobenius misses.
    """
    return build_gl(3, twisted=True)


def build_gl2_gl3():
    """Split GL2 x GL3: types A1 and A2, so two affine nodes (0 and 4)."""
    roots = ((1, -1, 0, 0, 0), (0, 0, 1, -1, 0), (0, 0, 0, 1, -1))
    datum = RootDatum(dim=5, basis=[tuple(int(i == j) for j in range(5))
                                    for i in range(5)],
                      simple_roots=roots, simple_coroots=roots)
    return ExtendedAffineWeylGroup(datum)


def build_gl2_unitary():
    """GL2 with the twist x -> -(x2, x1): it fixes the root and is -1 on the
    radical, the line of (1, 1)."""
    datum = RootDatum(dim=2, basis=((1, 0), (0, 1)), simple_roots=((1, -1),),
                      simple_coroots=((1, -1),), frobenius=((0, -1), (-1, 0)))
    return ExtendedAffineWeylGroup(datum)


def build_from_cartan(cartan):
    """Split datum on the coroot lattice: the simple coroots are the
    standard basis of Z^n and root j takes the values cartan[i][j] on them,
    so <coroot i, root j> = cartan[i][j]."""
    n = len(cartan)
    basis = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    roots = tuple(tuple(cartan[i][j] for i in range(n)) for j in range(n))
    return ExtendedAffineWeylGroup(RootDatum(dim=n, basis=basis,
                                             simple_roots=roots,
                                             simple_coroots=basis))


def build_split_adjoint(cartan):
    """Split datum on the coweight lattice: the simple roots are the
    standard basis of Z^n and coroot i is Cartan row i, so again
    <coroot i, root j> = cartan[i][j].  The ambient coordinate functionals
    are the simple roots, whose W-orbit is the whole root system."""
    n = len(cartan)
    basis = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return ExtendedAffineWeylGroup(RootDatum(dim=n, basis=basis,
                                             simple_roots=basis,
                                             simple_coroots=cartan))


def build_b2():
    """Type B2 (root 0 long, root 1 short): one bond of order 4."""
    return build_from_cartan(((2, -1), (-2, 2)))


def build_g2():
    """Type G2 (root 0 short, root 1 long): one bond of order 6."""
    return build_from_cartan(((2, -1), (-3, 2)))


def record_dict(group: ExtendedAffineWeylGroup, rec: StratumRecord) -> dict:
    """A stratum record as the dict whose ``json.dumps`` the command line's
    record writer reproduces: the reference for ``cli.record_to_json``."""
    dl = None
    if rec.datum is not None:
        dl = {
            "ambient": sorted(rec.datum.ambient_nodes),
            "parabolic": sorted(rec.stable_subset),
            "type": rec.datum.ambient_type,
            "dim": rec.length,
            "frobenius": list(rec.support.twist),
            "sigma_coxeter": rec.datum.sigma_coxeter,
            "stabilizes_parabolic": rec.datum.stabilizes_parabolic,
        }
    return {
        "w": group.element_to_json(rec.element),
        "word": list(rec.word),
        "length": rec.length,
        "level": list(rec.level),
        "basic": rec.basic,
        "supp_sigma": {
            "raw": sorted(rec.support.raw),
            "closure": sorted(rec.support.closure),
        },
        "i_set": sorted(rec.stable_subset),
        "newton": [str(c) for c in rec.newton],
        "dl": dl,
    }
