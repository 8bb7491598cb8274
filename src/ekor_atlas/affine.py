"""Extended affine Weyl groups.

Elements are pairs (translation, finite part) with the product rule
``(l1, w1) (l2, w2) = (l1 + w1 l2, w1 w2)``.  The finite Weyl group is
enumerated once and interned, so the finite part of an element is just an
index into that table; translations are kept in lattice coordinates.

The table stores each w as a permutation of the root set.  Roots are
numbered 0..2N-1: the N positive roots in the datum's order (by height, so
the simple roots come first), then their negatives in the same order.  The
permutation of w sends k to the number of (root k) o w = w^-1 (root k),
stored as ``bytes``; a datum with more than 256 roots is refused, as its
Weyl group has more than 10^10 elements.  The action is faithful: w is
trivial on the radical (the common kernel of the roots), and on the span
of the coroots it is fixed by what it does to the roots, whose
restrictions span the dual space because the Cartan matrix is invertible.
For the same reason the images of the simple roots alone fix w; these
first nsimple entries are the key of the index.  Hence

* w1 w2 sends k to perm(w2)[perm(w1)[k]], so its key takes one lookup in
  perm(w2) per simple root;
* the key of w^-1 lists the positions of the simple roots in perm(w);
* w^-1 a is positive for the positive root number k iff perm(w)[k] < N.

The table is built breadth-first from the identity, multiplying on the
right by the simple reflections in order.  A new element's lattice and
ambient matrices are kept as sparse rows, its parent's rows times the
reflection, so no dense matrix is stored per element.  Each reflection has
two lookup tables, for lattice and for ambient rows: a dict from a row to
its product that computes and interns the product on a miss, so a child's
rows are its parent's rows mapped through the table, with no Python call
on a hit.  The dense-matrix table is kept as
``oracles.DenseWeylTable``; its search finds the elements in the same
order, so indices agree.  A matrix lookup cannot stop at the permutation:
-1 on the Siegel lattice permutes the roots like w0 but negates the
radical.  ``weyl_index`` therefore compares the matrix with the element's
own.

The order of w sigma on X comes from the same table: it is the lcm of the
cycle lengths of w sigma on the roots and of the order f of sigma on X.
Write (w sigma)^n = w' sigma^n with w' = w sigma(w) ... sigma^(n-1)(w) in W.
If (w sigma)^n = 1, it fixes every root, and sigma^n = w'^-1 lies in W and
keeps the positive roots positive (sigma permutes the simple roots); the
only such element of W is 1, so f divides n.  Conversely, if f and every
cycle length divide n, then (w sigma)^n = w' fixes every root, so w' = 1
by faithfulness.  The order of sigma cannot be left out: on the radical
w sigma acts as sigma, which the roots do not see.

The alcove convention follows the generators: the extra reflection of each
affine component is ``t^(-theta_coroot) s_theta``, the reflection through the
wall where the highest root takes the value -1.  The matching closed-form
length is

    l(t^l w) = sum_{a > 0, w^-1 a > 0} |<l, a>|
             + sum_{a > 0, w^-1 a < 0} |<l, a> + 1|

which the test suite cross-checks against breadth-first word distance.
The pairings <l, a> over the positive roots depend on l alone, and few
translations occur (the 2^g of the Weyl orbit of mu for the whole Siegel
Adm(mu)), so they are a table memoised per translation.  The sign of
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

Newton points are computed in integers.  If (x sigma)^n = t^m then the
Newton point is nu = m / n, and <m, a> and <nu, a> have the same sign for
n > 0, so dominantizing m picks the same reflections as dominantizing nu and
returns n times its dominant form.  The only division is the last step
of ``newton_vector``, and sigma-straightness, <nu, 2 rho> = l(x), is tested
as <n nu, 2 rho> = n l(x) without one.

Group objects memoise root pairings per translation, lengths, reduced
words and Bruhat comparisons.  The caches are only ever extended with
values that any thread would recompute identically, so concurrent readers
are safe.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, NamedTuple, Optional, Sequence

from ekor_atlas.coxeter import BOND_OF_PRODUCT, CoxeterMatrix
from ekor_atlas.lattice import (
    AbelianQuotient,
    Pi1Class,
    identity_matrix,
    mat_vec,
    row_mat,
    solve_linear,
    vec_add,
    vec_dot,
    vec_neg,
)
from ekor_atlas.rootdata import RootDatum


class GroupError(ValueError):
    """Invalid element construction or cross-context operation."""


class ExtAffineElement:
    """Element of an extended affine Weyl group.

    ``trans`` is the translation in lattice coordinates, ``w`` the index of
    the finite part in the group's interned Weyl table.  Equality and the
    hash (computed once) see only these two, so elements of two groups
    built from one datum compare equal; ``group`` is the owning group.
    """

    __slots__ = ("trans", "w", "group", "_hash")

    def __init__(self, trans: tuple[int, ...], w: int, group: "ExtendedAffineWeylGroup"):
        self.trans = trans
        self.w = w
        self.group = group
        self._hash = hash((trans, w))

    def __eq__(self, other):
        if other.__class__ is not ExtAffineElement:
            return NotImplemented
        return self.w == other.w and self.trans == other.trans

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"ExtAffineElement(trans={self.trans!r}, w={self.w!r})"

    def is_identity(self) -> bool:
        return self.w == 0 and not any(self.trans)


class OmegaElement(NamedTuple):
    """A length-zero element together with its conjugation action on nodes."""

    element: ExtAffineElement
    node_images: tuple[int, ...]


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
        self._build_pi1()
        self._pairs: dict = {}
        self._length: dict = {}
        self._rd: dict = {}
        self._omega: dict = {}
        self._newton: dict = {}
        self._newton_json: dict = {}
        self._bruhat: dict = {}
        self._parabolic: dict = {}
        self._adm_cache: dict = {}
        self.identity = ExtAffineElement((0,) * self.rank, 0, self)

    # ------------------------------------------------------- finite table

    def _enumerate_finite(self):
        """Breadth-first search of the finite Weyl group over root
        permutations (module docstring), with sparse lattice and ambient
        rows for each element."""
        datum = self.datum
        self._npos = len(datum.positive_roots)
        self._roots = datum.positive_roots + tuple(vec_neg(v) for v in datum.positive_roots)
        self._root_index = {vals: k for k, vals in enumerate(self._roots)}
        # translate table: a root number to 1 if the root is negative, else 0
        self._negative = bytes(int(k >= self._npos) for k in range(256))
        if len(self._roots) > 256:
            raise GroupError(f"{len(self._roots)} roots: the finite Weyl group has "
                             "more than 10^10 elements")
        interned: dict = {}
        # per reflection: its translate table and the lookups of row products
        steps = [(_table(self._root_perm(lat)), _RowProducts(lat, interned).__getitem__,
                  _RowProducts(amb, interned).__getitem__)
                 for lat, amb in zip(datum.reflections_lattice, datum.reflections_ambient)]
        base = self._base = datum.nsimple
        ident = bytes(range(len(self._roots)))
        wperm = self._wperm = [ident]
        wrows = self._wrows = [tuple(((i, 1),) for i in range(self.rank))]
        wambient = self._wambient = [tuple(((i, 1),) for i in range(datum.dim))]
        windex = self._windex = {ident[:base]: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for idx in frontier:
                perm = wperm[idx]
                head = perm[:base]
                rows, amb_rows = wrows[idx], wambient[idx]
                for gen, lat, amb in steps:
                    key = head.translate(gen)
                    if key not in windex:
                        windex[key] = len(wperm)
                        nxt.append(len(wperm))
                        wperm.append(perm.translate(gen))
                        wrows.append(tuple(map(lat, rows)))
                        wambient.append(tuple(map(amb, amb_rows)))
            frontier = nxt
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

    def weyl_index(self, matrix) -> int:
        """Index of a lattice matrix in the finite table; validates membership."""
        mat = tuple(tuple(int(v) for v in row) for row in matrix)
        perm = self._root_perm(mat)
        idx = None if perm is None else self._windex.get(perm[:self._base])
        # the roots do not see the radical: -1 on the Siegel lattice
        # permutes them like w0 but is not in the group
        if idx is None or _dense(self._wrows[idx], self.rank) != mat:
            raise GroupError("matrix is not an element of the finite Weyl group")
        return idx

    def act(self, widx: int, v: Sequence) -> tuple:
        return _apply(self._wrows[widx], v)

    def reflection_node(self, x: "ExtAffineElement") -> Optional[int]:
        """Node index if x is one of the simple reflections, else None."""
        return self._node_of_reflection.get(x)

    def ambient_matrix(self, widx: int):
        return _dense(self._wambient[widx], self.datum.dim)

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
        gens: dict[int, ExtAffineElement] = {}
        for i in range(r):
            widx = self.weyl_index(datum.reflections_lattice[i])
            gens[i + 1] = ExtAffineElement((0,) * self.rank, widx, self)
        for j, comp in enumerate(datum.components):
            theta_vals = datum.theta[j]
            theta_cov = datum.theta_coroot[j]
            mat = datum._reflection_lattice(theta_vals, theta_cov)
            widx = self.weyl_index(mat)
            node = self.affine_node_of_component[j]
            gens[node] = ExtAffineElement(vec_neg(theta_cov), widx, self)
        self.simple_reflections = tuple(gens[i] for i in range(self.num_nodes))
        self._node_of_reflection = {gens[i]: i for i in range(self.num_nodes)}
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
        frob = datum.frobenius_lattice
        frob_perm = self._root_perm(frob)
        self._frob_table = _table(frob_perm)
        self._frob_inv = bytes(map(frob_perm.index, range(len(frob_perm))))
        split = frob == identity_matrix(self.rank)
        self._frob_rows = None if split else tuple(_sparse(row) for row in frob)

    def _build_pi1(self):
        sig = self.datum.frobenius_lattice
        extra = [tuple(sig[i][j] - int(i == j) for i in range(self.rank))
                 for j in range(self.rank)]
        self.pi1_gamma = AbelianQuotient(self.rank, [*self.datum.coroots_lattice, *extra])

    # --------------------------------------------------------- group law

    def _check(self, x: ExtAffineElement):
        if x.group is not self:
            raise GroupError("element belongs to a different group context")

    def mult(self, x: ExtAffineElement, y: ExtAffineElement) -> ExtAffineElement:
        self._check(x)
        self._check(y)
        trans = vec_add(x.trans, self.act(x.w, y.trans)) if any(y.trans) else x.trans
        return ExtAffineElement(trans, self.wmul(x.w, y.w), self)

    def inv(self, x: ExtAffineElement) -> ExtAffineElement:
        self._check(x)
        wi = self.winv(x.w)
        return ExtAffineElement(vec_neg(self.act(wi, x.trans)), wi, self)

    def translation(self, mu_ambient: Sequence[int]) -> ExtAffineElement:
        return ExtAffineElement(self.datum.to_lattice(mu_ambient), 0, self)

    def from_parts(self, trans_lattice: Sequence[int], widx: int) -> ExtAffineElement:
        return ExtAffineElement(tuple(trans_lattice), widx, self)

    def sigma(self, x: ExtAffineElement) -> ExtAffineElement:
        """Apply the Frobenius automorphism to a group element."""
        self._check(x)
        datum = self.datum
        trans = mat_vec(datum.frobenius_lattice, x.trans)
        # root k o sigma w sigma^-1 = root (finv o perm o f)(k)
        perm = self._wperm[x.w]
        conj = bytes(self._frob_inv[perm[k]] for k in self._frob_table[:self._base])
        return ExtAffineElement(trans, self._windex[conj], self)

    # ------------------------------------------------------------ length

    def _pairings(self, trans: tuple) -> tuple:
        """<l, a> over the positive roots, memoised per translation."""
        got = self._pairs.get(trans)
        if got is None:
            got = self._pairs[trans] = tuple(
                vec_dot(trans, vals) for vals in self.datum.positive_roots)
        return got

    def length(self, x: ExtAffineElement) -> int:
        self._check(x)
        key = (x.trans, x.w)
        got = self._length.get(key)
        if got is None:
            # 1 exactly where w^-1 a < 0, the terms |<l, a> + 1|
            neg = self._wperm[x.w][:self._npos].translate(self._negative)
            got = self._length[key] = sum(
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
        index = datum.positive_roots.index
        walls = [None] * self.num_nodes
        for i, vals in enumerate(datum.root_values):
            walls[i + 1] = (index(vals), 1, 1, 0)
        for j, theta in enumerate(datum.theta):
            walls[self.affine_node_of_component[j]] = (index(theta), -1, 1, 2)
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
        self._check(x)
        return _descends(self._pairings(x.trans), self._wperm[x.w], self._npos,
                         self._nodes[i])

    def _descent_nodes(self, x: ExtAffineElement):
        """The left descents of x in node order, lazily, from one read of
        its pairing row and root permutation."""
        self._check(x)
        pairs = self._pairings(x.trans)
        perm = self._wperm[x.w]
        npos = self._npos
        return (i for i, node in enumerate(self._nodes)
                if _descends(pairs, perm, npos, node))

    def descents(self, x: ExtAffineElement) -> list[int]:
        return list(self._descent_nodes(x))

    def first_descent(self, x: ExtAffineElement) -> Optional[int]:
        return next(self._descent_nodes(x), None)

    # ------------------------------------------ products with one node

    def simple_times(self, i: int, x: ExtAffineElement) -> ExtAffineElement:
        """s_i x, from one looked-up pairing (module docstring)."""
        self._check(x)
        k, sign, _, _, key, _ = self._nodes[i]
        c = self._pairings(x.trans)[k] + (sign < 0)
        trans = x.trans
        if c:
            trans = tuple([a - c * b for a, b in zip(trans, self._coroots[k])])
        w = self._windex[bytes(map(self._wperm[x.w].__getitem__, key))]
        return ExtAffineElement(trans, w, self)

    def times_simple(self, x: ExtAffineElement, i: int) -> ExtAffineElement:
        """x s_i: one translate for the finite part, and at an affine node
        one looked-up coroot for the translation (module docstring)."""
        self._check(x)
        k, sign, _, _, _, table = self._nodes[i]
        perm = self._wperm[x.w]
        trans = x.trans
        if sign < 0:
            trans = vec_add(trans, self._coroots[perm.index(k + self._npos)])
        return ExtAffineElement(trans, self._windex[perm[:self._base].translate(table)], self)

    def conjugate_simple(self, x: ExtAffineElement, j: int) -> Optional[int]:
        """The node i with x s_j x^-1 = s_i, or None when that conjugate is
        not a simple reflection: x(b + e) must be +-(the root of i)
        (module docstring)."""
        self._check(x)
        k, sign, _, _, _, _ = self._nodes[j]
        e = int(sign < 0)
        npos = self._npos
        q = self._wperm[x.w].index(k + e * npos)  # the number of w b
        p = self._pairings(x.trans)[q % npos]
        return self._node_of_root.get((q, e + (p if q < npos else -p)))

    def reduced_word(self, x: ExtAffineElement) -> ReducedDecomposition:
        """Greedy reduced word: strip the least left descent until the rest
        is a memoised word or has length zero.  The greedy word of s_i x is
        the tail of that of x, so a memoised tail is the one the stripping
        would find; only x is stored."""
        self._check(x)
        key = (x.trans, x.w)
        got = self._rd.get(key)
        if got is None:
            word = []
            y = x
            tail = None
            for _ in range(self.length(x)):
                i = self.first_descent(y)
                word.append(i)
                y = self.simple_times(i, y)
                tail = self._rd.get((y.trans, y.w))
                if tail is not None:
                    break
            if tail is None:
                got = ReducedDecomposition(tuple(word), self.omega_of(y))
            else:
                got = ReducedDecomposition(tuple(word) + tail.word, tail.omega)
            self._rd[key] = got
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
        """Wrap a length-zero element with its node permutation."""
        self._check(x)
        if self.length(x) != 0:
            raise GroupError("element has positive length")
        key = (x.trans, x.w)
        got = self._omega.get(key)
        if got is None:
            images = tuple(self.conjugate_simple(x, i) for i in range(self.num_nodes))
            if None in images:
                raise GroupError("conjugation does not permute the simple reflections")
            got = OmegaElement(x, images)
            self._omega[key] = got
        return got

    # ------------------------------------------------------- Bruhat order

    def bruhat_leq(self, x: ExtAffineElement, y: ExtAffineElement) -> bool:
        """x <= y by the lifting property, stripping a left descent of y.
        Two W_a-cosets need no test: s_i x and s_i y stay in the cosets of x
        and y, so the recursion ends at x = y only within one coset."""
        self._check(x)
        self._check(y)
        return self._bruhat_rec(x, y)

    def _bruhat_rec(self, x: ExtAffineElement, y: ExtAffineElement) -> bool:
        if x == y:
            return True
        lx = self.length(x)
        ly = self.length(y)
        if lx >= ly:
            return False
        key = (x.trans, x.w, y.trans, y.w)
        got = self._bruhat.get(key)
        if got is None:
            i = self.first_descent(y)
            sy = self.simple_times(i, y)
            if self.is_descent(x, i):
                got = self._bruhat_rec(self.simple_times(i, x), sy)
            else:
                got = self._bruhat_rec(x, sy)
            self._bruhat[key] = got
        return got

    # --------------------------------------------- Kottwitz and Newton maps

    def kottwitz(self, x: ExtAffineElement) -> Pi1Class:
        """Class of the translation part in the Frobenius coinvariants."""
        self._check(x)
        return self.pi1_gamma.class_of(x.trans)

    def _newton_translation(self, x: ExtAffineElement):
        """Smallest n with (x sigma)^n a translation t^m, and m."""
        # the order of w sigma: the lcm of the order of its permutation of
        # the roots and of the order of sigma (module docstring)
        perm = self._wperm[x.w].translate(self._frob_table)
        step = _table(perm)
        order, power = 1, perm
        while power != self._wperm[0]:
            power = power.translate(step)
            order += 1
        n = lcm(self.datum.frobenius_order, order)
        lam = x.trans
        rows = self._wrows[x.w]
        m = lam
        for _ in range(n - 1):
            if self._frob_rows is not None:
                m = _apply(self._frob_rows, m)
            m = tuple(map(add, lam, _apply(rows, m)))
        return n, m

    def _newton_scaled(self, x: ExtAffineElement):
        """Smallest n with (x sigma)^n a translation t^m, and the dominant
        form of m, which is n times the dominant Newton point."""
        n, m = self._newton_translation(x)
        return n, self.dominantize_lattice(m)

    def dominantize_lattice(self, v: Sequence) -> tuple:
        """Dominant representative of a lattice vector.

        The simple-root pairings are taken once.  Reflecting by s_i with
        p = <v, a_i> < 0 subtracts p a_i^vee from v, so the pairing with a_j
        drops by p <a_i^vee, a_j>, the Cartan entry cartan[i][j]; the coroot
        coefficients are summed and the vector is built at the end.  The
        result does not depend on which negative pairing is reflected first:
        the orbit has one dominant member, and the coroots are independent.
        The rescanning loop is kept as ``oracles.dominantize_by_rescan``.
        Exact in whatever numbers it is given: integers stay integers.
        """
        datum = self.datum
        pair = [vec_dot(v, vals) for vals in datum.root_values]
        coef = [0] * len(pair)
        while pair:
            p = min(pair)
            if p >= 0:
                break
            i = pair.index(p)
            coef[i] -= p
            pair = [q - p * c for q, c in zip(pair, datum.cartan[i])]
        out = list(v)
        for c, coroot in zip(coef, datum.coroots_lattice):
            if c:
                for k, a in enumerate(coroot):
                    out[k] += c * a
        return tuple(out)

    def newton_vector(self, x: ExtAffineElement) -> tuple[Fraction, ...]:
        """Dominant Newton point of the element, in ambient coordinates.

        Memoised by (n, m) for (x sigma)^n = t^m, which spares most
        dominantizations (the Siegel Adm has 1,542 such keys for 6,331
        elements at genus 5), and shared through the key (n, n nu) of the
        dominant form, a key of the same kind with the same point (25 of
        them at genus 5).
        """
        self._check(x)
        key = self._newton_translation(x)
        got = self._newton.get(key)
        if got is None:
            n, m = key
            scaled = (n, self.dominantize_lattice(m))
            got = self._newton.get(scaled)
            if got is None:
                got = self._newton[scaled] = tuple(
                    Fraction(t, n) for t in self.datum.from_lattice(scaled[1]))
            self._newton[key] = got
        return got

    def is_sigma_straight(self, x: ExtAffineElement) -> bool:
        """Length equals the pairing of the Newton point with 2*rho."""
        self._check(x)
        n, dom = self._newton_scaled(x)
        return vec_dot(dom, self.datum.two_rho) == n * self.length(x)

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
        avg = tuple(Fraction(a, order) for a in acc)
        if not self.is_dominant(avg):
            raise GroupError("galois average of a dominant vector must stay dominant")
        return avg

    def length_zero_element(self, mu_ambient: Sequence[int]) -> OmegaElement:
        """The unique length-zero element in the coset attached to mu.

        mu must be a dominant lattice vector; the result is the residual
        length-zero factor omega of the reduced word t^mu = s_word omega,
        so it lies in the W_a-coset of t^mu by construction.
        """
        mu = self.datum.to_lattice(mu_ambient)
        if not self.is_dominant(mu_ambient):
            raise GroupError(f"{tuple(mu_ambient)} is not dominant")
        return self.reduced_word(ExtAffineElement(mu, 0, self)).omega

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
        self._check(x)
        rows = self._wambient[x.w]
        # an invertible matrix whose rows are single ones is a permutation
        if all(len(row) == 1 and row[0][1] == 1 for row in rows):
            w_json = [0] * len(rows)
            for r, ((c, _),) in enumerate(rows):
                w_json[c] = r
        else:
            w_json = {"rows": [list(r) for r in _dense(rows, self.datum.dim)]}
        return {"t": list(self.datum.from_lattice(x.trans)), "w": w_json}

    def newton_to_json(self, nu: tuple) -> list[str]:
        """A Newton point's coordinates as strings.  Memoised by the identity
        of the tuple: records share the tuples of the Newton memo, a few
        dozen per genus, and hashing Fractions costs more than printing
        them.  The entry holds the tuple, so its id is not reused while the
        entry exists."""
        got = self._newton_json.get(id(nu))
        if got is None:
            got = self._newton_json[id(nu)] = (nu, tuple(map(str, nu)))
        return list(got[1])


def _descends(pairs: tuple, perm: bytes, npos: int, node: tuple) -> bool:
    """The descent rule at one node (``_build_walls``), given the pairing
    row and root permutation of x: whether s_i x is shorter than x."""
    k, sign, hi, lo, _, _ = node
    return sign * pairs[k] >= (hi if perm[k] < npos else lo)


class _RowProducts(dict):
    """Sparse rows times one matrix, memoised per row: a miss computes the
    product, interns it in the shared dict and stores it, so a hit is a
    plain dict lookup."""

    def __init__(self, mat, interned: dict):
        self.mat = mat
        self.interned = interned

    def __missing__(self, row):
        dense = [0] * len(self.mat[0])
        for j, c in row:
            for l, a in enumerate(self.mat[j]):
                dense[l] += c * a
        new = _sparse(dense)
        got = self[row] = self.interned.setdefault(new, new)
        return got


def _table(perm: bytes) -> bytes:
    """A permutation padded to the 256 bytes that ``bytes.translate`` takes:
    p.translate(_table(q)) sends k to q[p[k]]."""
    return perm.ljust(256, b"\0")


def _sparse(dense: Sequence[int]) -> tuple:
    """A matrix row as its nonzero (column, entry) pairs."""
    return tuple((j, c) for j, c in enumerate(dense) if c)


def _dense(rows, n: int) -> tuple:
    out = []
    for row in rows:
        vals = [0] * n
        for j, c in row:
            vals[j] = c
        out.append(tuple(vals))
    return tuple(out)


def _apply(rows, v: Sequence) -> tuple:
    """Sparse matrix times vector; most rows have a single entry."""
    return tuple([v[row[0][0]] * row[0][1] if len(row) == 1
                  else sum([c * v[j] for j, c in row]) for row in rows])


def element_label(group: ExtendedAffineWeylGroup, x: ExtAffineElement) -> str:
    """Short product form: reduced word letters, then tau for the
    length-zero factor."""
    rd = group.reduced_word(x)
    parts = [f"s{i}" for i in rd.word]
    if not rd.omega.element.is_identity():
        parts.append("tau")
    return ".".join(parts) if parts else "e"
