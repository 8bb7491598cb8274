"""Extended affine Weyl groups.

Elements are pairs (translation, finite part) with the product rule
``(l1, w1) (l2, w2) = (l1 + w1 l2, w1 w2)``.  The finite Weyl group is
enumerated once and interned, so the finite part of an element is just an
index into that table; translations are kept in lattice coordinates.

The table stores each w as one permutation of numbered functionals.
Roots are numbered 0..2N-1: the N positive roots in the datum's order (by
height, so the simple roots come first), then their negatives in the same
order.  The W-orbit of the ambient coordinate functionals follows, with
e_c* numbered 2N + c.  The permutation of w sends k to the number of
(functional k) o w, stored as ``bytes``.  A datum with more than 256 roots
is refused, as its Weyl group has more than 10^10 elements, and so is one
with more than 256 functionals in all.  The action on the roots is
faithful: w is trivial on the radical (the common kernel of the roots),
and on the span of the coroots it is fixed by what it does to the roots,
whose restrictions span the dual space because the Cartan matrix is
invertible.  For the same reason the images of the simple roots alone fix
w; these first nsimple entries are the key of the index.  Hence

* w1 w2 sends k to perm(w2)[perm(w1)[k]], so its key takes one lookup in
  perm(w2) per simple root, and the table is built breadth-first from the
  identity by one ``bytes.translate`` per element and simple reflection,
  in the search order of the dense-matrix oracle ``oracles.DenseWeylTable``;
* the key of w^-1 lists the positions of the simple roots in perm(w);
* w^-1 a is positive for the positive root number k iff perm(w)[k] < N;
* row r of the ambient matrix of w is the functional numbered
  perm(w)[2N + r], the coordinate functional e_c* iff that number is
  2N + c < 2N + d.

``act`` reads w v through the Newton frame below: from the pairings of
w v with the simple roots, read off perm(w), and its values under the
radical functionals phi of that frame, which w fixes.  So -1 on the
Siegel lattice, which permutes the roots like w0 but negates the radical,
is no element of W.

The order of w sigma on X comes from the same table: it is the lcm of the
cycle lengths of w sigma on the roots and of the order f of sigma on X.
Write (w sigma)^n = w' sigma^n with w' = w sigma(w) ... sigma^(n-1)(w) in W.
If (w sigma)^n = 1, it fixes every root, and sigma^n = w'^-1 lies in W and
keeps the positive roots positive (sigma permutes the simple roots); the
only such element of W is 1, so f divides n.  Conversely, if f and every
cycle length divide n, then (w sigma)^n = w' fixes every root, so w' = 1
by faithfulness.  The order of sigma cannot be left out: on the radical
w sigma acts as sigma, which the roots do not see.  The cycles of the
simple roots suffice: a power of w sigma that fixes the simple roots fixes
their span, hence every root.

The alcove convention follows the generators: the extra reflection of each
affine component is ``t^(-theta_coroot) s_theta``, the reflection through the
wall where the highest root takes the value -1.  The matching closed-form
length is

    l(t^l w) = sum_{a > 0, w^-1 a > 0} |<l, a>|
             + sum_{a > 0, w^-1 a < 0} |<l, a> + 1|

which the test suite cross-checks against breadth-first word distance.
The pairings <l, a> over the roots depend on l alone, and few
translations occur (the 2^g of the Weyl orbit of mu for the whole Siegel
Adm(mu)), so they are a table memoised per translation, the N positive
roots first and then their negatives.  The sign of
w^-1 a is read off perm(w): translating its first N bytes by a table that
sends k to 1 if k >= N and to 0 otherwise gives 1 exactly where the term
is |<l, a> + 1|, so the length is the sum of |pairing + byte|.

Left descents come from one looked-up pairing each.  Let x = t^l w.

* Finite node i.  s_i x = t^(s_i l) s_i w.  For a > 0 put b = s_i a; then
  (s_i w)^-1 a = w^-1 b and <s_i l, a> = <l, b>.  As a runs over the
  positive roots other than a_i so does b, and their terms are unchanged.
  Only a_i moves (b = -a_i): with p = <l, a_i>, its term goes from |p| to
  |p - 1| when w^-1 a_i > 0 and from |p + 1| to |p| when w^-1 a_i < 0.  So
  i is a descent iff p >= (1 if w^-1 a_i > 0 else 0).
* Affine node of a component with highest root theta.  s_0 x = t^l' s_theta w
  with l' = s_theta l - theta_coroot.  For a > 0 put b = s_theta a; then
  (s_theta w)^-1 a = w^-1 b and <l', a> = <l, b> + <theta_coroot, b>.  As
  theta is long, <theta_coroot, a> is 0 or 1 for a > 0, a != theta.  If it
  is 0, b = a and the term is unchanged.  If it is 1, b = -(theta - a)
  and the term of a in l(s_0 x) equals the term of theta - a in l(x);
  a -> theta - a permutes these roots.  Only theta moves: with
  q = <l, theta>, its term goes from |q| to |q + 1| when w^-1 theta > 0 and
  from |q + 1| to |q + 2| when w^-1 theta < 0.  So the node is a descent
  iff q <= (-1 if w^-1 theta > 0 else -2).

Both cases read: the node with affine simple root b + k (b = a_i, k = 0, or
b = -theta, k = 1) is a descent iff <l, b> >= k + (1 if w^-1 b > 0 else 0),
where <l, b> is the table entry of a_i or minus that of theta.
The length-difference test is kept as ``oracles.descents_by_length``.

Products with one generator, and conjugates of generators, are root
lookups as well.  Let t^l w act on V = X (x) R by v -> w v - l, which
respects the product rule (v -> -v turns it into v -> w v + l, and the
alcove below into the antidominant one).  The generators are then the
reflections in the walls a_i = 0 and theta = 1 of the alcove
{a_i > 0, theta < 1}, whose affine simple roots b + k (the function
v -> <v, b> + k) are a_i + 0 and -theta + 1: the b and k of the descent
rule.  Write the generator of a node as s = t^(-e c^vee) s_c, with c = a_i,
e = 0 or c = theta, e = 1.

* Left: s t^l w = t^(l - (<l, c> + e) c^vee) s_c w, as s_c l =
  l - <l, c> c^vee, and <l, c> is one table entry.  The permutation of
  s_c w sends k to perm(w)[perm(s_c)[k]].
* Right: t^l w s = t^(l - e w(c^vee)) w s_c.  w(c^vee) is the coroot of
  the root w c, whose number is the position of the number of c in
  perm(w), as (w c)(v) = c(w^-1 v).  The key of w s_c is the key of w
  translated by perm(s_c), one ``bytes.translate``.
* Conjugate: x = t^l w sends an affine function f to f o x^-1, and
  x^-1 v = w^-1 (v + l), so x(b + k) = w b + (k + <l, w b>).  Since
  (x f)(x v) = f(v), x s_f x^-1 is the reflection in the zero set of x f,
  that is x s_j x^-1 = s_(x a_j).  A reflection fixes exactly its
  hyperplane, and the affine roots vanishing on it are the two of one sign
  pair (the root system is reduced), so x s_j x^-1 is the generator s_i
  iff x a_j = +-a_i.  A dict keyed by (root number, constant) names i.

Newton points come from the pairing table too, with no matrix power.  Let
x = t^l w and let P be perm(w) translated by the table of sigma, so that
<w sigma v, root k> = <v, root P(k)>.  If (x sigma)^n = t^m, then
m = sum_(k<n) (w sigma)^k l, and for the simple root a_j with cycle C_j
under P

    <m, a_j> = sum_(k<n) <l, root P^k(j)> = (n / |C_j|) sum_(i in C_j) <l, root i>,

as |C_j| divides n.  The least n is lcm(f, |C_1|, ..., |C_r|), the order
above.  The roots do not see the radical part of m.  Take integer
functionals phi that vanish on the coroots, a basis of their rational
kernel by one row reduction.  As s_a v = v - <v, a> a^vee, phi o w = phi
for w in W; and (w sigma)^k = w_k sigma^k with w_k in W, since sigma
normalizes W.  So phi((w sigma)^k l) = phi(sigma^k l), which has period f,
and phi(m) = (n / f) sum_(k<f) phi(sigma^k l), memoised per translation.
The simple roots and the phi are a basis of the rational dual of X:
evaluating a relation sum c_j a_j + sum d phi = 0 on the coroots gives
c = 0, as the Cartan matrix is invertible, and then d = 0.  So the key
(n, <m, a_j>_j, phi(m)) names m.  The same basis gives ``act``:
<w v, a_j> = <v, root perm(w)[a_j]> and phi(w v) = phi(v).

The Newton point is nu = m / n, and <m, a> and <nu, a> have the same sign
for n > 0, so dominantizing m picks the same reflections as dominantizing
nu.  The Cartan-row loop runs on the key's pairings, and the phi, being
W-invariant, do not move, so it returns the key of n times the dominant
nu.  Only a new dominant key is turned back into n nu, by a fixed
rational inverse of the rows [simple roots; phi].  The only division is in
that step, and sigma-straightness, <nu, 2 rho> = l(x), is tested as
<n nu, 2 rho> = n l(x) without one.

Group objects memoise root pairings per translation, lengths, reduced
words, Newton points and the Bruhat comparisons asked (not the pairs that
their walk passes).  An element is the pair (translation, finite index)
and is its own memo key; a comparison is keyed by its pair of elements.
The caches are only ever extended with values that any thread would
recompute identically, so concurrent readers are safe.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add, mul
from typing import Iterable, NamedTuple, Optional, Sequence

from ekor_atlas.coxeter import BOND_OF_PRODUCT, CoxeterMatrix
from ekor_atlas.lattice import (
    fraction_matrix_inverse,
    identity_matrix,
    integer_kernel,
    mat_vec,
    row_mat,
    solve_linear,
    vec_add,
    vec_dot,
    vec_neg,
)
from ekor_atlas.rootdata import RootDatum


class GroupError(ValueError):
    """Refused root datum, element, node set or level."""


class ExtAffineElement(NamedTuple):
    """Element of an extended affine Weyl group: ``trans`` is the
    translation in lattice coordinates, ``w`` the index of the finite part
    in the group's interned Weyl table.  The pair is the element, so groups
    built on one datum share their elements, and it is the memo key."""

    trans: tuple[int, ...]
    w: int


class OmegaElement(NamedTuple):
    """A length-zero element together with its conjugation action on nodes."""

    element: ExtAffineElement
    node_images: tuple[int, ...]


class _NewtonFrame(NamedTuple):
    """Fixed data of the Newton map (``_newton_frame``)."""

    phis: tuple         # the radical functionals
    orbit_sums: tuple   # per phi, sum_(k<f) phi o sigma^k
    inverse: tuple      # den [simple roots; phi]^-1, in integers
    den: int


class ReducedDecomposition(NamedTuple):
    """A reduced word in node letters and the residual length-zero factor."""

    word: tuple[int, ...]
    omega: OmegaElement


class ExtendedAffineWeylGroup:
    """Extended affine Weyl group of a root datum, with exact invariants."""

    def __init__(self, datum: RootDatum):
        self.datum = datum
        self.rank = datum.rank
        self._enumerate_finite()
        self._build_generators()
        self._build_walls()
        self._build_affine_matrix()
        self._build_sigma()
        self._pairs: dict = {}
        self._length: dict = {}
        self._rd: dict = {}
        self._omega: dict = {}
        self._newton: dict = {}
        self._radical: dict = {}
        # ekor.sigma_support by (omega, letters); the record writer's texts
        self._supports: dict = {}
        self._json_texts: dict = {}
        self._bruhat: dict = {}
        self._parabolic: dict = {}
        self.identity = ExtAffineElement((0,) * self.rank, 0)

    # ------------------------------------------------------- finite table

    def _enumerate_finite(self):
        """Breadth-first search of the finite Weyl group over permutations
        of the numbered functionals (module docstring)."""
        datum = self.datum
        self._npos = len(datum.positive_roots)
        self._roots = datum.positive_roots + tuple(vec_neg(v) for v in datum.positive_roots)
        self._root_index = {vals: k for k, vals in enumerate(self._roots)}
        self._simple = tuple(map(self._root_index.__getitem__, datum.root_values))
        # translate table: a root number to 1 if the root is negative, else 0
        self._negative = bytes(int(k >= self._npos) for k in range(256))
        if len(self._roots) > 256:
            raise GroupError(f"{len(self._roots)} roots: the finite Weyl group has "
                             "more than 10^10 elements")
        # the W-orbit of the e_c*, breadth-first as the list grows; the
        # search stops past 1024 members, as an ambient action of infinite
        # order would never end it
        amb = self._ambient = list(identity_matrix(datum.dim))
        amb_index = {f: c for c, f in enumerate(amb)}
        for f in amb:
            if len(amb) > 1024:
                break
            for m in datum.reflections_ambient:
                image = row_mat(f, m)
                if image not in amb_index:
                    amb_index[image] = len(amb)
                    amb.append(image)
        e0 = self._e0 = len(self._roots)
        if e0 + len(amb) > 256:
            count = e0 + len(amb) if len(amb) <= 1024 else f"more than {e0 + 1024}"
            raise GroupError(f"{count} roots and ambient functionals: "
                             "bytes number at most 256")
        self._permutations = len(amb) == datum.dim
        self._shift = bytes(e0) + bytes(range(256 - e0))  # translate: k -> k - e0
        gens = [_table(self._root_perm(lat) + bytes(e0 + amb_index[row_mat(f, m)] for f in amb))
                for lat, m in zip(datum.reflections_lattice, datum.reflections_ambient)]
        base = self._base = datum.nsimple
        ident = bytes(range(e0 + len(amb)))
        wperm = self._wperm = [ident]
        windex = self._windex = {ident[:base]: 0}
        for perm in wperm:  # breadth-first, as the list grows
            for gen in gens:
                child = perm.translate(gen)
                key = child[:base]
                if key not in windex:
                    windex[key] = len(wperm)
                    wperm.append(child)
        self.finite_order = len(wperm)

    def _root_perm(self, matrix):
        """Permutation k -> index of (root k) o matrix, or None when some
        image is not a root."""
        out = [self._root_index.get(row_mat(vals, matrix)) for vals in self._roots]
        return None if None in out else bytes(out)

    def wmul(self, i: int, j: int) -> int:
        return self._windex[bytes(
            map(self._wperm[j].__getitem__, self._wperm[i][:self._base]))]

    def winv(self, i: int) -> int:
        return self._windex[bytes(map(self._wperm[i].index, range(self._base)))]

    def act(self, widx: int, v: Sequence[int]) -> tuple:
        """w v for an integer vector v, from its pairings with the simple
        roots and its radical values (module docstring)."""
        frame = self._newton_frame
        perm, roots, den = self._wperm[widx], self._roots, frame.den
        values = [sum(map(mul, v, roots[perm[k]])) for k in self._simple]
        values += [sum(map(mul, v, phi)) for phi in frame.phis]
        return tuple([sum(map(mul, row, values)) // den for row in frame.inverse])

    def ambient_part(self, widx: int) -> bytes:
        """Row r of the ambient matrix of w is e_r* o w, the functional
        numbered 2N + ambient_part(w)[r]: the coordinate functional e_c*
        iff that entry is c < d."""
        e0 = self._e0
        return self._wperm[widx][e0:e0 + self.datum.dim].translate(self._shift)

    def ambient_matrix(self, widx: int):
        return tuple(map(self._ambient.__getitem__, self.ambient_part(widx)))

    # -------------------------------------------------------- generators

    def _build_generators(self):
        datum = self.datum
        ncomp = len(datum.components)
        r = datum.nsimple
        self.num_nodes = r + ncomp
        # node layout: 0 = affine node of the first component, 1..r the
        # finite nodes (shifted root indices), r+j the affine node of
        # component j for j >= 1
        self.affine_node_of_component = tuple(
            0 if j == 0 else r + j for j in range(ncomp))
        # (translation, lattice reflection) per node; the reflections are
        # in W, so their root keys name them
        parts = {i + 1: ((0,) * self.rank, mat)
                 for i, mat in enumerate(datum.reflections_lattice)}
        for j, (theta, coroot) in enumerate(zip(datum.theta, datum.theta_coroot)):
            parts[self.affine_node_of_component[j]] = (
                vec_neg(coroot), datum._reflection_lattice(theta, coroot))
        self.simple_reflections = tuple(
            ExtAffineElement(trans, self._windex[self._root_perm(mat)[:self._base]])
            for trans, mat in map(parts.__getitem__, range(self.num_nodes)))
        self.finite_nodes = frozenset(range(1, r + 1))

    def _build_affine_matrix(self):
        """Bonds from the wall roots of ``_nodes``, with no group product:
        for the affine roots b + e and b' + e' of two nodes, n = <b, b'^vee>
        <b', b^vee> (the signs of b and b' cancel) is 4 cos^2 of the angle of
        their walls, which ``BOND_OF_PRODUCT`` turns into the order of s s'
        (n = 4: parallel walls, as in affine A1)."""
        roots, coroots = self._roots, self._coroots
        walls = [node[0] for node in self._nodes]
        rows = [[1] * len(walls) for _ in walls]
        for a, k in enumerate(walls):
            for b in range(a + 1, len(walls)):
                q = walls[b]
                n = vec_dot(coroots[q], roots[k]) * vec_dot(coroots[k], roots[q])
                rows[a][b] = rows[b][a] = BOND_OF_PRODUCT[n]
        self.affine_coxeter = CoxeterMatrix(rows)

    def _build_sigma(self):
        datum = self.datum
        r = datum.nsimple
        images = [0] * self.num_nodes
        for i in range(r):
            images[i + 1] = datum.frobenius_nodes[i] + 1
        comp_image = []
        for comp in datum.components:
            probe = min(comp)
            target = datum.frobenius_nodes[probe]
            comp_image.append(next(j for j, c in enumerate(datum.components)
                                   if target in c))
        for j, comp in enumerate(datum.components):
            images[self.affine_node_of_component[j]] = \
                self.affine_node_of_component[comp_image[j]]
        self.sigma_diagram = self.affine_coxeter.check_automorphism(images)
        self._frob_table = _table(self._root_perm(datum.frobenius_lattice))

    # --------------------------------------------------------- group law

    def mult(self, x: ExtAffineElement, y: ExtAffineElement) -> ExtAffineElement:
        trans = vec_add(x.trans, self.act(x.w, y.trans)) if any(y.trans) else x.trans
        return ExtAffineElement(trans, self.wmul(x.w, y.w))

    def inv(self, x: ExtAffineElement) -> ExtAffineElement:
        wi = self.winv(x.w)
        return ExtAffineElement(vec_neg(self.act(wi, x.trans)), wi)

    def from_parts(self, trans_lattice: Sequence[int], widx: int) -> ExtAffineElement:
        return ExtAffineElement(tuple(trans_lattice), widx)

    # ------------------------------------------------------------ length

    def _pairings(self, trans: tuple) -> tuple:
        """<l, a> over all 2N roots in the root numbering, positive roots
        first, memoised per translation."""
        got = self._pairs.get(trans)
        if got is None:
            pos = tuple(vec_dot(trans, vals) for vals in self.datum.positive_roots)
            got = self._pairs[trans] = pos + tuple(-p for p in pos)
        return got

    def length(self, x: ExtAffineElement) -> int:
        got = self._length.get(x)
        if got is None:
            # 1 exactly where w^-1 a < 0, the terms |<l, a> + 1|; map
            # stops with neg, at the last positive root
            neg = self._wperm[x.w][:self._npos].translate(self._negative)
            got = self._length[x] = sum(
                map(abs, map(add, self._pairings(x.trans), neg)))
        return got

    def _build_walls(self):
        """``_nodes``: per node, with affine simple root b + e (b = a_i,
        e = 0 at a finite node, b = -theta, e = 1 at an affine node; module
        docstring), the index k of the positive root +-b, the sign with
        <l, b> = sign <l, root k> (so e = 1 exactly when sign < 0), the
        least descent pairing <l, b> when w^-1 (root k) > 0 and when it is
        < 0, the key of perm(s_b) and its translate table.

        Also ``_coroots``, the coroot of every root in the root numbering,
        and ``_node_of_root``, the node of each affine root +-(b + e) keyed
        by (number of the root, constant)."""
        datum = self.datum
        npos = self._npos
        walls = [None] * self.num_nodes
        for i, k in enumerate(self._simple):
            walls[i + 1] = (k, 1, 1, 0)
        for j, theta in enumerate(datum.theta):
            walls[self.affine_node_of_component[j]] = (self._root_index[theta], -1, 1, 2)
        self._coroots = datum.positive_coroots + tuple(map(vec_neg, datum.positive_coroots))
        nodes = []
        self._node_of_root = {}
        for i, wall in enumerate(walls):
            k, e = wall[0], int(wall[1] < 0)
            perm = self._wperm[self.simple_reflections[i].w]
            nodes.append(wall + (perm[:self._base], _table(perm)))
            self._node_of_root[k + e * npos, e] = i
            self._node_of_root[k + (1 - e) * npos, -e] = i
        self._nodes = tuple(nodes)

    def is_descent(self, x: ExtAffineElement, i: int) -> bool:
        """Whether s_i x is shorter than x, from one looked-up pairing."""
        return _descends(self._pairings(x.trans), self._wperm[x.w], self._npos,
                         self._nodes[i])

    def first_descent(self, x: ExtAffineElement) -> Optional[int]:
        """The least left descent of x, from one read of its pairing row
        and root permutation."""
        pairs = self._pairings(x.trans)
        perm = self._wperm[x.w]
        npos = self._npos
        return next((i for i, node in enumerate(self._nodes)
                     if _descends(pairs, perm, npos, node)), None)

    # ------------------------------------------ products with one node

    def simple_times(self, i: int, x: ExtAffineElement) -> ExtAffineElement:
        """s_i x, from one looked-up pairing (module docstring)."""
        k, sign, _, _, key, _ = self._nodes[i]
        c = self._pairings(x.trans)[k] + (sign < 0)
        trans = x.trans
        if c:
            trans = tuple([a - c * b for a, b in zip(trans, self._coroots[k])])
        w = self._windex[bytes(map(self._wperm[x.w].__getitem__, key))]
        return ExtAffineElement(trans, w)

    def times_simple(self, x: ExtAffineElement, i: int) -> ExtAffineElement:
        """x s_i: one translate for the finite part, and at an affine node
        one looked-up coroot for the translation (module docstring)."""
        k, sign, _, _, _, table = self._nodes[i]
        perm = self._wperm[x.w]
        trans = x.trans
        if sign < 0:
            trans = vec_add(trans, self._coroots[perm.index(k + self._npos)])
        return ExtAffineElement(trans, self._windex[perm[:self._base].translate(table)])

    def conjugate_simple(self, x: ExtAffineElement, j: int) -> Optional[int]:
        """The node i with x s_j x^-1 = s_i, or None when that conjugate is
        not a simple reflection: x(b + e) must be +-(the root of i)
        (module docstring)."""
        k, sign, _, _, _, _ = self._nodes[j]
        e = int(sign < 0)
        q = self._wperm[x.w].index(k + e * self._npos)  # the number of w b
        return self._node_of_root.get((q, e + self._pairings(x.trans)[q]))

    def reduced_word(self, x: ExtAffineElement) -> ReducedDecomposition:
        """Greedy reduced word: strip the least left descent until the rest
        is a memoised word or has length zero.  The greedy word of s_i x is
        the tail of that of x, so a memoised tail is the one the stripping
        would find; only x is stored."""
        got = self._rd.get(x)
        if got is None:
            word = []
            y = x
            tail = None
            for _ in range(self.length(x)):
                i = self.first_descent(y)
                word.append(i)
                y = self.simple_times(i, y)
                tail = self._rd.get(y)
                if tail is not None:
                    break
            if tail is None:
                got = ReducedDecomposition(tuple(word), self.omega_of(y))
            else:
                got = ReducedDecomposition(tuple(word) + tail.word, tail.omega)
            self._rd[x] = got
        return got

    def evaluate_word(self, word: Iterable[int],
                      omega: Optional[OmegaElement] = None) -> ExtAffineElement:
        """s_word[0] ... s_word[-1] omega, by right products.  omega moves
        to the front: s_i omega = omega s_j where omega s_j omega^-1 = s_i,
        so j is the preimage of i under omega's node map, which is read
        from ``omega_of`` (memoised), not from the given wrapper."""
        if omega is None:
            out, back = self.identity, range(self.num_nodes)
        else:
            out, back = omega.element, [0] * self.num_nodes
            for j, i in enumerate(self.omega_of(out).node_images):
                back[i] = j
        for i in word:
            out = self.times_simple(out, back[i])
        return out

    def omega_of(self, x: ExtAffineElement) -> OmegaElement:
        """Wrap a length-zero element with its node permutation: x maps the
        base alcove to itself, so it conjugates each s_j to some s_i."""
        if self.length(x) != 0:
            raise GroupError("element has positive length")
        got = self._omega.get(x)
        if got is None:
            got = OmegaElement(x, tuple(self.conjugate_simple(x, i)
                                        for i in range(self.num_nodes)))
            self._omega[x] = got
        return got

    # ------------------------------------------------------- Bruhat order

    def bruhat_leq(self, x: ExtAffineElement, y: ExtAffineElement) -> bool:
        """x <= y by the lifting property (Bjorner-Brenti, Prop. 2.2.7): if
        s_i y < y, then x <= y iff s_i x <= s_i y when i is a descent of x,
        and iff x <= s_i y otherwise.  So x walks along the memoised reduced
        word of y, stepping down at each letter that is one of its descents,
        and at the end x <= y iff x is the length-zero part of y.  A letter
        that is no descent drops the gap l(rest of y) - l(x) by one, and a
        negative gap answers False.  The steps keep the W_a-coset of x, so
        two cosets need no test.  Only the pair asked is memoised."""
        key = (x, y)
        got = self._bruhat.get(key)
        if got is None:
            rd = self.reduced_word(y)
            gap = len(rd.word) - self.length(x)
            nodes, npos = self._nodes, self._npos
            pairs, perm = self._pairings(x.trans), self._wperm[x.w]
            for i in rd.word:
                if gap < 0:
                    break
                if _descends(pairs, perm, npos, nodes[i]):
                    x = self.simple_times(i, x)
                    pairs, perm = self._pairings(x.trans), self._wperm[x.w]
                else:
                    gap -= 1
            got = self._bruhat[key] = gap >= 0 and x == rd.omega.element
        return got

    # -------------------------------------------------------- Newton map

    def _newton_key(self, x: ExtAffineElement) -> tuple:
        """(n, <m, a_j> over the simple roots, phi(m) over the radical
        functionals) for the least n with (x sigma)^n = t^m: one walk of
        the cycle of each simple root through the pairing row of the
        translation (module docstring)."""
        perm = self._wperm[x.w].translate(self._frob_table)
        ext = self._pairings(x.trans)
        sums, sizes = [], []
        for j in self._simple:
            s, i, c = ext[j], perm[j], 1
            while i != j:
                s += ext[i]
                i = perm[i]
                c += 1
            sums.append(s)
            sizes.append(c)
        f = self.datum.frobenius_order
        n = lcm(f, *sizes)
        rad = self._radical.get(x.trans)
        if rad is None:
            rad = self._radical[x.trans] = tuple(
                vec_dot(x.trans, psi) for psi in self._newton_frame.orbit_sums)
        return (n, tuple([n // c * s for s, c in zip(sums, sizes)]),
                tuple([n // f * p for p in rad]))

    @cached_property
    def _newton_frame(self) -> "_NewtonFrame":
        """Built on first use.  The radical functionals are an integer
        basis of the kernel of the coroots.  ``inverse`` is den
        times the inverse of the rows [simple roots; radical functionals]."""
        datum = self.datum
        phis = integer_kernel(datum.coroots_lattice, self.rank)
        orbit_sums = []
        for phi in phis:
            acc = cur = phi
            for _ in range(datum.frobenius_order - 1):
                cur = row_mat(cur, datum.frobenius_lattice)
                acc = vec_add(acc, cur)
            orbit_sums.append(acc)
        inv = fraction_matrix_inverse(datum.root_values + phis)
        den = lcm(*(c.denominator for row in inv for c in row))
        return _NewtonFrame(phis, tuple(orbit_sums),
                            tuple(tuple(int(den * c) for c in row) for row in inv), den)

    def _newton_entry(self, x: ExtAffineElement):
        """n and the memoised (Newton point, <n nu, 2 rho>) of x.

        The memo is keyed by ``_newton_key``.  A missed key is made
        dominant in pairing coordinates, which gives the key of n nu; only
        a new dominant key rebuilds n nu, with the fixed inverse of the
        frame, so every key that shares a point shares its tuple."""
        key = self._newton_key(x)
        got = self._newton.get(key)
        if got is None:
            n, pairs, rad = key
            dom = (n, tuple(self._dominant_pairings(list(pairs))), rad)
            got = self._newton.get(dom)
            if got is None:
                frame = self._newton_frame
                values = dom[1] + rad
                scaled = [vec_dot(row, values) for row in frame.inverse]
                # den n nu in lattice coordinates; n nu is integral
                got = self._newton[dom] = (
                    tuple(Fraction(t, frame.den * n) for t in self.datum.from_lattice(scaled)),
                    vec_dot(scaled, self.datum.two_rho) // frame.den)
            self._newton[key] = got
        return key[0], got

    def _dominant_pairings(self, pair: list) -> list:
        """The simple-root pairings of the dominant member of an orbit,
        from the pairings of any member: reflecting by s_i with
        p = <v, a_i> < 0 subtracts p a_i^vee from v, so the pairing with a_j
        drops by p <a_i^vee, a_j>, the Cartan entry cartan[i][j].  The
        result does not depend on which negative pairing is reflected
        first, as the orbit has one dominant member.  The rescanning loop
        on vectors is ``oracles.dominantize_by_rescan``."""
        while pair:
            p = min(pair)
            if p >= 0:
                break
            pair = [q - p * c for q, c in zip(pair, self.datum.cartan[pair.index(p)])]
        return pair

    def newton_vector(self, x: ExtAffineElement) -> tuple[Fraction, ...]:
        """Dominant Newton point of the element, in ambient coordinates.

        Memoised by ``_newton_key``, which spares most dominantizations
        (the Siegel Adm has 1,542 such keys for 6,331 elements at genus 5),
        and shared through the key of the dominant form n nu (25 of them
        at genus 5, for 13 Newton points).
        """
        return self._newton_entry(x)[1][0]

    def is_sigma_straight(self, x: ExtAffineElement) -> bool:
        """Length equals the pairing of the Newton point with 2*rho."""
        n, (_, two_rho) = self._newton_entry(x)
        return two_rho == n * self.length(x)

    def newton_leq(self, nu1_ambient: Sequence, nu2_ambient: Sequence) -> bool:
        """Dominance order: nu2 - nu1 a nonnegative rational coroot sum."""
        delta = tuple(b - a for a, b in zip(nu1_ambient, nu2_ambient))
        coeffs = solve_linear(self.datum.simple_coroots, delta)
        return coeffs is not None and all(c >= 0 for c in coeffs)

    def is_dominant(self, ambient: Sequence) -> bool:
        return all(vec_dot(ambient, root) >= 0 for root in self.datum.simple_roots)

    def galois_average(self, mu_ambient: Sequence) -> tuple[Fraction, ...]:
        """Average of a dominant vector of X over its Frobenius orbit,
        in ambient coordinates."""
        order = self.datum.frobenius_order
        acc = cur = tuple(mu_ambient)
        for _ in range(order - 1):
            cur = mat_vec(self.datum.frobenius_ambient, cur)
            acc = vec_add(acc, cur)
        return tuple(Fraction(a, order) for a in acc)

    def length_zero_element(self, mu_ambient: Sequence[int]) -> OmegaElement:
        """The unique length-zero element in the coset attached to mu.

        mu must be a dominant lattice vector; the result is the residual
        length-zero factor omega of the reduced word t^mu = s_word omega,
        so it lies in the W_a-coset of t^mu by construction.
        """
        mu = self.datum.to_lattice(mu_ambient)
        if not self.is_dominant(mu_ambient):
            raise GroupError(f"{tuple(mu_ambient)} is not dominant")
        return self.reduced_word(ExtAffineElement(mu, 0)).omega

    # ------------------------------------------------- parabolic subgroups

    def parabolic_subgroup_elements(self, nodes: Iterable[int]) -> tuple[ExtAffineElement, ...]:
        """All elements of the standard parabolic on the given nodes.

        The node set must generate a finite group, which the finite-type
        recogniser of the affine Coxeter matrix checks first.
        """
        key = frozenset(nodes)
        got = self._parabolic.get(key)
        if got is None:
            if not self.affine_coxeter.is_finite_parabolic(key):
                raise GroupError(f"parabolic on {sorted(key)} is infinite")
            seen = {self.identity}
            frontier = [self.identity]
            while frontier:
                nxt = []
                for x in frontier:
                    for i in sorted(key):
                        y = self.times_simple(x, i)
                        if y not in seen:
                            seen.add(y)
                            nxt.append(y)
                frontier = nxt
            got = tuple(sorted(seen, key=self.sort_key))
            self._parabolic[key] = got
        return got

    # ----------------------------------------------------- canonical order

    def sort_key(self, x: ExtAffineElement):
        rd = self.reduced_word(x)
        return (self.length(x), rd.word, rd.omega.element.trans)

    # ------------------------------------------------------- serialization

    def element_to_json(self, x: ExtAffineElement) -> dict:
        return {"t": list(self.datum.from_lattice(x.trans)), "w": self.finite_to_json(x.w)}

    def finite_to_json(self, w: int):
        """The finite part with table index w: a permutation as the list of
        images, any other matrix as ``{"rows": ...}`` in ambient coordinates.
        An invertible matrix whose rows are coordinate functionals is a
        permutation (``ambient_part``)."""
        rows = self.ambient_part(w)
        if max(rows) < len(rows):
            w_json = [0] * len(rows)
            for r, c in enumerate(rows):
                w_json[c] = r
            return w_json
        return {"rows": [list(r) for r in self.ambient_matrix(w)]}


def _descends(pairs: tuple, perm: bytes, npos: int, node: tuple) -> bool:
    """The descent rule at one node (``_build_walls``), given the pairing
    row and root permutation of x: whether s_i x is shorter than x."""
    k, sign, hi, lo, _, _ = node
    return sign * pairs[k] >= (hi if perm[k] < npos else lo)


def _table(perm: bytes) -> bytes:
    """A permutation padded to the 256 bytes that ``bytes.translate`` takes:
    p.translate(_table(q)) sends k to q[p[k]]."""
    return perm.ljust(256, b"\0")


def element_label(group: ExtendedAffineWeylGroup, x: ExtAffineElement) -> str:
    """Short product form: reduced word letters, then tau for the
    length-zero factor."""
    rd = group.reduced_word(x)
    parts = [f"s{i}" for i in rd.word]
    if rd.omega.element != group.identity:
        parts.append("tau")
    return ".".join(parts) if parts else "e"
