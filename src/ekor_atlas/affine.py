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

* w1 w2 sends k to perm(w2)[perm(w1)[k]], so perm(w1 w2) is perm(w1)
  translated by the padded perm(w2), one ``bytes.translate``, and so is its
  key; the table is built breadth-first from the identity by one translate
  per element and simple reflection, in the search order of the
  dense-matrix oracle ``oracles.DenseWeylTable``;
* the key of w^-1 lists the positions of the simple roots in perm(w);
* w^-1 a is positive for the root number k iff perm(w)[k] < N;
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
affine component is ``t^(-theta^vee) s_theta``, the reflection through the
wall where the highest root takes the value -1.  The matching closed-form
length is

    l(t^l w) = sum_{a > 0, w^-1 a > 0} |<l, a>|
             + sum_{a > 0, w^-1 a < 0} |<l, a> + 1|

which the test suite cross-checks against breadth-first word distance.
The pairings <l, a> over the roots depend on l alone, and few
translations occur (the 2^g of the Weyl orbit of mu for the whole Siegel
Adm(mu)), so they go into the row of the translation (below), the N
positive roots first and then their negatives.  The sign of
w^-1 a is read off perm(w): translating its first N bytes by a table that
sends k to 1 if k >= N and to 0 otherwise gives 1 exactly where the term
is |<l, a> + 1|.  As |p + 1| - |p| is 1 for p >= 0 and -1 for p < 0, the
length is sum |<l, a>| + 2 |Inv & P| - |Inv|, with Inv the roots of those
bytes and P the roots with <l, a> >= 0: two popcounts per element, with
the sum and P on the row.

Left descents come from one looked-up pairing each.  Let x = t^l w.

* Finite node i.  s_i x = t^(s_i l) s_i w.  For a > 0 put b = s_i a; then
  (s_i w)^-1 a = w^-1 b and <s_i l, a> = <l, b>.  As a runs over the
  positive roots other than a_i so does b, and their terms are unchanged.
  Only a_i moves (b = -a_i): with p = <l, a_i>, its term goes from |p| to
  |p - 1| when w^-1 a_i > 0 and from |p + 1| to |p| when w^-1 a_i < 0.  So
  i is a descent iff p >= (1 if w^-1 a_i > 0 else 0).
* Affine node of a component with highest root theta.  s_0 x = t^l' s_theta w
  with l' = s_theta l - theta^vee.  For a > 0 put b = s_theta a; then
  (s_theta w)^-1 a = w^-1 b and <l', a> = <l, b> + <theta^vee, b>.  As
  theta is long, <theta^vee, a> is 0 or 1 for a > 0, a != theta.  If it
  is 0, b = a and the term is unchanged.  If it is 1, b = -(theta - a)
  and the term of a in l(s_0 x) equals the term of theta - a in l(x);
  a -> theta - a permutes these roots.  Only theta moves: with
  q = <l, theta>, its term goes from |q| to |q + 1| when w^-1 theta > 0 and
  from |q + 1| to |q + 2| when w^-1 theta < 0.  So the node is a descent
  iff q <= (-1 if w^-1 theta > 0 else -2).

Both cases read: the node with affine simple root b + e (b = a_i, e = 0, or
b = -theta, e = 1) is a descent iff <l, b> >= e + (1 if w^-1 b > 0 else 0)
(at the affine node, w^-1 b > 0 iff w^-1 theta < 0).  So with v = <l, b>,
the entry of the number kb of b in the pairing row, the verdict is
three-way and read off l alone: every t^l w has the descent when v > e,
none has it when v < e, and when v = e exactly those with w^-1 b < 0, that
is perm(w)[kb] >= N.  The row stores per node kb and a threshold t, 0
(ALWAYS), N or 256 (NEVER), and the node is a descent iff
perm(w)[kb] >= t, one byte comparison; ``first_descent``, ``left_minimal``
and the walk of ``bruhat_leq`` read nothing else.  The length-difference
test is kept as ``oracles.descents_by_length``.

The level filter ``left_minimal`` keeps the elements with no left descent
at a node of the level: per element, one byte comparison per node of the
level, stopping at the first descent, as in ``first_descent``.  The
Iwahori level has no node, so it keeps every element.

Products with one generator, and conjugates of generators, are root
lookups as well.  Let t^l w act on V = X (x) R by v -> w v - l, which
respects the product rule (v -> -v turns it into v -> w v + l, and the
alcove below into the antidominant one).  The generators are then the
reflections in the walls a_i = 0 and theta = 1 of the alcove
{a_i > 0, theta < 1}, whose affine simple roots b + e (the function
v -> <v, b> + e) are a_i + 0 and -theta + 1: the b and e of the descent
rule.  Write the generator of a node as s = t^(-e c^vee) s_c, with c = a_i,
e = 0 or c = theta, e = 1.

* Left: s t^l w = t^(l - (<l, c> + e) c^vee) s_c w, as s_c l =
  l - <l, c> c^vee, and <l, c> is one table entry.  perm(s_c w) is
  perm(s_c) translated by the padded perm(w), so the key of s_c w is
  key(s_c) translated alike.  The Bruhat walk carries the translation and
  this permutation, and reads no table index.
* Right: t^l w s = t^(l - e w(c^vee)) w s_c.  w(c^vee) is the coroot of
  the root w c, whose number is the position of the number of c in
  perm(w), as (w c)(v) = c(w^-1 v).  perm(w s_c) is perm(w) translated by
  perm(s_c), so a word is one translate of the whole permutation per
  letter and one table lookup at the end (``times_word``).
* Conjugate: x = t^l w sends an affine function f to f o x^-1, and
  x^-1 v = w^-1 (v + l), so x(b + k) = w b + (k + <l, w b>).  Since
  (x f)(x v) = f(v), x s_f x^-1 is the reflection in the zero set of x f,
  that is x s_j x^-1 = s_(x a_j).  A reflection fixes exactly its
  hyperplane, and the affine roots vanishing on it are the two of one sign
  pair (the root system is reduced), so x s_j x^-1 is the generator s_i
  iff x a_j = +-a_i.  A dict keyed by (root number, constant) names i.

The generators and sigma on the nodes are read off the same root table,
with no reflection matrix.  As s_c v = v - <v, c> c^vee, the reflection rule
a o s_c = a - <a, c^vee> c gives perm(s_c) on the roots by root lookups:
the finite generators at the simple roots, and the key of each node at
its c.  The translation -e c^vee is the coroot of c, looked up.
sigma permutes the simple roots, so it permutes the components and their
highest roots, and it sends the affine root b + e to sigma(b) + e, with
sigma(b) = b o F^-1 for F the Frobenius of X: sigma maps the wall of a
node to the wall of its image, which the same dict names.

Newton points come from the pairing row too, with no matrix power.  Let
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
and phi(m) = (n / f) sum_(k<f) phi(sigma^k l), one dot product per phi.
The simple roots and the phi are a basis of the rational dual of X:
evaluating a relation sum c_j a_j + sum d phi = 0 on the coroots gives
c = 0, as the Cartan matrix is invertible, and then d = 0.  So the key
(n, <m, a_j>_j, phi(m)) names m.  The same basis gives ``act``:
<w v, a_j> = <v, root perm(w)[a_j]> and phi(w v) = phi(v).

The Newton point is nu = m / n, and <m, a> and <nu, a> have the same sign
for n > 0, so dominantizing m picks the same reflections as dominantizing
nu.  The reflections run on the key's pairings, each in place: s_i turns
the pairing p with a_i into -p and moves only the pairings with the a_j
bonded to a_i, each by p times its Cartan entry, from bonds the frame
keeps per simple root.  The phi, being W-invariant, do not move, so this
gives the key of n times the dominant nu.  Only a new dominant key is
turned back into n nu, by a fixed rational inverse of the rows
[simple roots; phi].  The only division is in that step, and
sigma-straightness, <nu, 2 rho> = l(x), is tested as <n nu, 2 rho> =
n l(x) without one.

Group objects memoise one row per translation (the 2N pairings, the sum
and P of the length, and the descent verdict of each node), reduced
words, the node maps of length-zero elements, Newton points and the
Bruhat comparisons asked (not the pairs that their walk passes).  Each
table is a ``_Memo``, a dict that builds a missed key, so a lookup is the
whole accessor.  Lengths are not memoised: two popcounts on the row are
about as cheap as a lookup.  An element is the pair (translation, finite
index) and is its own memo key; a comparison is keyed by its pair of
elements, a Newton point by its ``_newton_key``.  The caches are only
ever extended with values that any thread would recompute identically,
so concurrent readers are safe.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

from ekor_atlas.coxeter import BOND_OF_PRODUCT, CoxeterMatrix, reachable
from ekor_atlas.lattice import (
    fraction_matrix_inverse,
    identity_matrix,
    integer_kernel,
    row_mat,
    solve_linear,
    vec_add,
    vec_dot,
    vec_neg,
)
from ekor_atlas.rootdata import RootDatum


# descent thresholds on the byte perm(w)[kb] that no byte fails or passes
ALWAYS, NEVER = 0, 256


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
    bonds: tuple        # per simple root i, the nonzero (j, cartan[i][j]) with j != i


class _Row(NamedTuple):
    """Per-translation data of the length and the descents (``_row``)."""

    pairs: tuple      # <l, a> over all 2N roots in the root numbering
    total: int        # sum |<l, a>| over the a > 0
    nonneg: int       # the mask P of the a > 0 with <l, a> >= 0
    verdicts: tuple   # per node, (kb, t): a descent iff perm(w)[kb] >= t


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
        self.sigma_diagram = self._build_nodes()
        self._build_affine_matrix()
        self._rows = _Memo(self._row)
        self._rd = _Memo(self._reduce)
        self._omega = _Memo(self._node_map)
        self._newton = _Memo(self._newton_point)
        self._bruhat = _Memo(self._walk)
        # ekor.sigma_support by (omega, letters); the record writer's texts
        self._supports: dict = {}
        self._json_texts: dict = {}
        self.identity = ExtAffineElement((0,) * self.rank, 0)

    # ------------------------------------------------------- finite table

    def _enumerate_finite(self):
        """Breadth-first search of the finite Weyl group over permutations
        of the numbered functionals (module docstring).  A generator's root
        part is ``_reflection_perm``, which reads ``_coroots``, set first."""
        datum = self.datum
        self._npos = len(datum.positive_roots)
        self._roots = datum.positive_roots + tuple(vec_neg(v) for v in datum.positive_roots)
        self._root_index = {vals: k for k, vals in enumerate(self._roots)}
        self._simple = tuple(map(self._root_index.__getitem__, datum.root_values))
        self._coroots = datum.positive_coroots + tuple(map(vec_neg, datum.positive_coroots))
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
        gens = [_table(self._reflection_perm(k, e0) + bytes(e0 + amb_index[row_mat(f, m)] for f in amb))
                for k, m in zip(self._simple, datum.reflections_ambient)]
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

    def _reflection_perm(self, k: int, count: int) -> bytes:
        """The first count bytes of the root part of perm(s_c), for the root
        c numbered k, by the reflection rule a o s_c = a - <a, c^vee> c
        (module docstring)."""
        c, cv, roots = self._roots[k], self._coroots[k], self._roots[:count]
        pairings = [sum(map(mul, a, cv)) for a in roots]
        return bytes([self._root_index[tuple([x - p * y for x, y in zip(a, c)])]
                      for a, p in zip(roots, pairings)])

    def wmul(self, i: int, j: int) -> int:
        return self._windex[self._wperm[i][:self._base].translate(_table(self._wperm[j]))]

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

    # ------------------------------------------------------------- nodes

    def _build_nodes(self) -> list[int]:
        """One pass over the nodes builds their walls, generators and sigma
        from the root table (module docstring).  Node 0 is the affine node
        of the first component, 1..r the finite nodes in the order of the
        simple roots, r + j the affine node of component j >= 1.  The affine
        simple root of a node is b + e: a_i + 0 at a finite node, -theta + 1
        at an affine node; c = +-b is the positive one, numbered k.  Sets
        ``_nodes`` (per node k, e, perm(s_c) and its translate table),
        ``simple_reflections`` (t^(-e c^vee) s_c, keyed by
        ``_reflection_perm``) and ``_node_of_root`` (the node of each affine
        root +-(b + e), keyed by the root's number and constant).  Returns sigma
        on the nodes: per node, the node whose wall is sigma(b) + e.  It is a
        permutation that keeps the bonds, with no check here: the datum
        checked that F permutes the simple coroots and that b o F^-1 permutes
        the simple roots alike, so sigma permutes the walls and keeps every
        pairing <b, b'^vee> that ``_build_affine_matrix`` reads."""
        datum = self.datum
        npos, roots, index = self._npos, self._roots, self._root_index
        r, ncomp = datum.nsimple, len(datum.components)
        self.num_nodes = r + ncomp
        self.affine_node_of_component = tuple(r + j if j else 0 for j in range(ncomp))
        self.finite_nodes = frozenset(range(1, r + 1))
        walls = [None] * self.num_nodes
        for i, k in enumerate(self._simple):
            walls[i + 1] = (k, 0)
        for j, theta in zip(self.affine_node_of_component, datum.theta):
            walls[j] = (index[theta], 1)
        nodes, gens = [], []
        self._node_of_root = {}
        for i, (k, e) in enumerate(walls):
            w = self._windex[self._reflection_perm(k, self._base)]
            nodes.append((k, e, self._wperm[w], _table(self._wperm[w])))
            gens.append(ExtAffineElement(tuple([-e * y for y in self._coroots[k]]), w))
            self._node_of_root[k + e * npos, e] = i
            self._node_of_root[k + (1 - e) * npos, -e] = i
        self._nodes = tuple(nodes)
        self.simple_reflections = tuple(gens)
        # the datum checked that the Frobenius permutes the roots
        frob = bytes([index[row_mat(a, datum.frobenius_lattice)] for a in roots])
        self._frob_table = _table(frob)
        return tuple([self._node_of_root[frob.index(k + e * npos), e] for k, e, _, _ in nodes])

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

    # --------------------------------------------------------- group law

    def mult(self, x: ExtAffineElement, y: ExtAffineElement) -> ExtAffineElement:
        trans = vec_add(x.trans, self.act(x.w, y.trans)) if any(y.trans) else x.trans
        return ExtAffineElement(trans, self.wmul(x.w, y.w))

    def inv(self, x: ExtAffineElement) -> ExtAffineElement:
        wi = self.winv(x.w)
        return ExtAffineElement(vec_neg(self.act(wi, x.trans)), wi)

    def from_parts(self, trans_lattice: Sequence[int], widx: int) -> ExtAffineElement:
        return ExtAffineElement(tuple(trans_lattice), widx)

    # ------------------------------------------------ rows and descents

    def _row(self, trans: tuple) -> _Row:
        """The row of a translation (module docstring); a verdict holds
        the number kb of the root b of the node and its threshold."""
        npos = self._npos
        pos = tuple(vec_dot(trans, vals) for vals in self.datum.positive_roots)
        pairs = pos + tuple(-p for p in pos)
        verdicts = []
        for k, e, _, _ in self._nodes:
            kb = k + e * npos
            v = pairs[kb]
            verdicts.append((kb, ALWAYS if v > e else npos if v == e else NEVER))
        return _Row(pairs, sum(map(abs, pos)),
                    int.from_bytes(bytes(p >= 0 for p in pos), "little"), tuple(verdicts))

    def length(self, x: ExtAffineElement) -> int:
        """The closed-form length from two popcounts on the row (module
        docstring): Inv, the a > 0 with w^-1 a < 0, is read off perm(w);
        the masks have one byte lane per positive root."""
        _, total, nonneg, _ = self._rows[x.trans]
        inv = int.from_bytes(self._wperm[x.w][:self._npos].translate(self._negative), "little")
        return total + 2 * (inv & nonneg).bit_count() - inv.bit_count()

    def first_descent(self, x: ExtAffineElement) -> Optional[int]:
        """The least left descent of x, from the verdicts of its row and
        its root permutation."""
        perm = self._wperm[x.w]
        for i, (kb, t) in enumerate(self._rows[x.trans].verdicts):
            if perm[kb] >= t:
                return i
        return None

    def left_minimal(self, elements: Iterable[ExtAffineElement],
                     label: Iterable[int]) -> list[ExtAffineElement]:
        """The elements with no left descent in the label, in the given
        order, read as ``first_descent`` reads them: the verdicts of the
        row at the label's nodes against perm(w).
        ``oracles.is_left_minimal`` is the per-element twin."""
        nodes = sorted(label)
        rows, wperm = self._rows, self._wperm
        out = []
        for x in elements:
            perm, verdicts = wperm[x.w], rows[x.trans].verdicts
            for i in nodes:
                kb, t = verdicts[i]
                if perm[kb] >= t:
                    break
            else:
                out.append(x)
        return out

    # ------------------------------------------ products with one node

    def simple_times(self, i: int, x: ExtAffineElement) -> ExtAffineElement:
        """s_i x: ``_left`` and one table lookup of the key."""
        trans, perm = self._left(i, x.trans, self._wperm[x.w])
        return ExtAffineElement(trans, self._windex[perm[:self._base]])

    def _left(self, i: int, trans: tuple, perm: bytes) -> tuple:
        """s_i t^trans w as its translation and perm(s_i w), from one
        looked-up pairing and one translate (module docstring)."""
        k, e, node_perm, _ = self._nodes[i]
        c = self._rows[trans].pairs[k] + e
        if c:
            trans = tuple([a - c * b for a, b in zip(trans, self._coroots[k])])
        return trans, node_perm.translate(_table(perm))

    def times_simple(self, x: ExtAffineElement, i: int) -> ExtAffineElement:
        return self.times_word(x, (i,))

    def times_word(self, x: ExtAffineElement, word: Iterable[int]) -> ExtAffineElement:
        """x s_word[0] s_word[1] ...: the translation and the whole of
        perm(w) walk the word, one translate per letter and at an affine
        letter one looked-up coroot; the finite index is looked up once, at
        the end (module docstring)."""
        nodes, coroots, npos = self._nodes, self._coroots, self._npos
        trans, perm = x.trans, self._wperm[x.w]
        for i in word:
            k, e, _, table = nodes[i]
            if e:
                trans = vec_add(trans, coroots[perm.index(k + npos)])
            perm = perm.translate(table)
        return ExtAffineElement(trans, self._windex[perm[:self._base]])

    def conjugate_simple(self, x: ExtAffineElement, j: int) -> Optional[int]:
        """The node i with x s_j x^-1 = s_i, or None when that conjugate is
        not a simple reflection: x(b + e) must be +-(the root of i)
        (module docstring)."""
        k, e, _, _ = self._nodes[j]
        q = self._wperm[x.w].index(k + e * self._npos)  # the number of w b
        return self._node_of_root.get((q, e + self._rows[x.trans].pairs[q]))

    def reduced_word(self, x: ExtAffineElement) -> ReducedDecomposition:
        return self._rd[x]

    def _reduce(self, x: ExtAffineElement) -> ReducedDecomposition:
        """Greedy reduced word: strip the least left descent until the rest
        is a memoised word or has no descent, that is length zero.  The
        greedy word of s_i x is the tail of that of x, so a memoised tail is
        the one the stripping would find; only x is stored.  Each step
        lowers the length by one, so the loop ends after at most l(x) steps
        with no bound computed up front."""
        word = []
        y = x
        while (i := self.first_descent(y)) is not None:
            word.append(i)
            y = self.simple_times(i, y)
            tail = self._rd.get(y)
            if tail is not None:
                return ReducedDecomposition(tuple(word) + tail.word, tail.omega)
        return ReducedDecomposition(tuple(word), self.omega_of(y))

    def evaluate_word(self, word: Iterable[int],
                      omega: Optional[OmegaElement] = None) -> ExtAffineElement:
        """s_word[0] ... s_word[-1] omega, by right products.  omega moves
        to the front: s_i omega = omega s_j where omega s_j omega^-1 = s_i,
        so j is the preimage of i under omega's node map, which is read
        from ``omega_of`` (memoised), not from the given wrapper."""
        x = self.identity if omega is None else omega.element
        back = [0] * self.num_nodes
        for j, i in enumerate(self.omega_of(x).node_images):
            back[i] = j
        return self.times_word(x, map(back.__getitem__, word))

    def omega_of(self, x: ExtAffineElement) -> OmegaElement:
        return self._omega[x]

    def _node_map(self, x: ExtAffineElement) -> OmegaElement:
        """Wrap a length-zero element with its node permutation: x maps the
        base alcove to itself, so it conjugates each s_j to some s_i.  An
        element of positive length is refused, and nothing is stored."""
        if self.length(x) != 0:
            raise GroupError("element has positive length")
        return OmegaElement(x, tuple(self.conjugate_simple(x, i)
                                     for i in range(self.num_nodes)))

    # ------------------------------------------------------- Bruhat order

    def bruhat_leq(self, x: ExtAffineElement, y: ExtAffineElement) -> bool:
        return self._bruhat[x, y]

    def _walk(self, key: tuple) -> bool:
        """x <= y for the key (x, y), by the lifting property
        (Bjorner-Brenti, Prop. 2.2.7): if s_i y < y, then x <= y iff
        s_i x <= s_i y when i is a descent of x, and iff x <= s_i y
        otherwise.  So x walks along the memoised reduced word of y,
        stepping down at each letter that is one of its descents, and at
        the end x <= y iff x is the length-zero part of y.  A letter
        that is no descent drops the gap l(rest of y) - l(x) by one, and a
        negative gap answers False.  The steps keep the W_a-coset of x, so
        two cosets need no test.  An end with gap >= 0 has gap = -l(x), so
        x has length zero and is the length-zero part of y iff the
        translations agree (their quotient is finite of length zero, so 1).
        x walks as translation and perm(w).  Only the pair asked is memoised."""
        x, y = key
        rd = self.reduced_word(y)
        gap = len(rd.word) - self.length(x)
        rows, trans, perm = self._rows, x.trans, self._wperm[x.w]
        verdicts = rows[trans].verdicts
        for i in rd.word:
            if gap < 0:
                break
            kb, t = verdicts[i]
            if perm[kb] >= t:
                trans, perm = self._left(i, trans, perm)
                verdicts = rows[trans].verdicts
            else:
                gap -= 1
        return gap >= 0 and trans == rd.omega.element.trans

    # -------------------------------------------------------- Newton map

    def _newton_key(self, x: ExtAffineElement) -> tuple:
        """(n, <m, a_j> over the simple roots, phi(m) over the radical
        functionals) for the least n with (x sigma)^n = t^m: one walk of
        the cycle of each simple root through the pairing row of the
        translation (module docstring)."""
        perm = self._wperm[x.w].translate(self._frob_table)
        ext = self._rows[x.trans].pairs
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
        return (n, tuple([n // c * s for s, c in zip(sums, sizes)]),
                tuple([n // f * vec_dot(x.trans, psi) for psi in self._newton_frame.orbit_sums]))

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
        bonds = tuple(tuple((j, c) for j, c in enumerate(row) if c and j != i)
                      for i, row in enumerate(datum.cartan))
        return _NewtonFrame(phis, tuple(orbit_sums),
                            tuple(tuple(int(den * c) for c in row) for row in inv), den, bonds)

    def _newton_point(self, key: tuple):
        """The memo entry (nu, <n nu, 2 rho>, n) of a ``_newton_key``.  The
        key is made dominant in pairing coordinates, which gives the key of
        n nu with the same n; a non-dominant key takes the entry of that
        one, and only a dominant key rebuilds n nu, with the fixed inverse
        of the frame, so every key that shares a point shares its tuple."""
        n, pairs, rad = key
        dom = (n, tuple(self._dominant_pairings(list(pairs))), rad)
        if dom != key:
            return self._newton[dom]
        frame = self._newton_frame
        scaled = [vec_dot(row, pairs + rad) for row in frame.inverse]
        # den n nu in lattice coordinates; n nu is integral
        return (tuple(Fraction(t, frame.den * n) for t in self.datum.from_lattice(scaled)),
                vec_dot(scaled, self.datum.two_rho) // frame.den, n)

    def _dominant_pairings(self, pair: list) -> list:
        """The simple-root pairings of the dominant member of an orbit,
        from the pairings of any member, reflected in place at the first
        negative pairing until there is none: reflecting by s_i with
        p = <v, a_i> < 0 subtracts p a_i^vee from v, so the pairing
        with a_j drops by p <a_i^vee, a_j>, the Cartan entry cartan[i][j].
        That entry is 2 at j = i, which turns p into -p, and zero at every
        a_j not bonded to a_i, so only the frame's bonds of i are touched.
        The result does not depend on which negative pairing is reflected
        first, as the orbit has one dominant member.  The rescanning loop
        on vectors is ``oracles.dominantize_by_rescan``."""
        bonds = self._newton_frame.bonds
        i, n = 0, len(pair)
        while i < n:
            p = pair[i]
            if p < 0:
                pair[i] = -p
                for j, c in bonds[i]:
                    pair[j] -= p * c
                i = 0
            else:
                i += 1
        return pair

    def newton_vector(self, x: ExtAffineElement) -> tuple[Fraction, ...]:
        """Dominant Newton point of the element, in ambient coordinates.

        Memoised by ``_newton_key``, which spares most dominantizations
        (the Siegel Adm has 1,542 such keys for 6,331 elements at genus 5),
        and shared through the key of the dominant form n nu (25 of them
        at genus 5, for 13 Newton points).
        """
        return self._newton[self._newton_key(x)][0]

    def is_sigma_straight(self, x: ExtAffineElement) -> bool:
        """Length equals the pairing of the Newton point with 2*rho."""
        _, two_rho, n = self._newton[self._newton_key(x)]
        return two_rho == n * self.length(x)

    def newton_leq(self, nu1_ambient: Sequence, nu2_ambient: Sequence) -> bool:
        """Dominance order: nu2 - nu1 a nonnegative rational coroot sum."""
        delta = tuple(b - a for a, b in zip(nu1_ambient, nu2_ambient))
        coeffs = solve_linear(self.datum.simple_coroots, delta)
        return coeffs is not None and all(c >= 0 for c in coeffs)

    def is_dominant(self, ambient: Sequence) -> bool:
        return all(vec_dot(ambient, root) >= 0 for root in self.datum.simple_roots)

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
        if not self.affine_coxeter.is_finite_parabolic(key):
            raise GroupError(f"parabolic on {sorted(key)} is infinite")
        return tuple(sorted(reachable([self.identity], lambda x: [
            self.times_simple(x, i) for i in key]), key=self.sort_key))

    # ----------------------------------------------------- canonical order

    def sort_key(self, x: ExtAffineElement):
        rd = self.reduced_word(x)
        return (len(rd.word), rd.word, rd.omega.element.trans)

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


class _Memo(dict):
    """A dict that computes a missed key with ``build``, so a hit is one
    lookup."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        got = self[key] = self.build(key)
        return got


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
