"""Based root data with a Frobenius action.

A :class:`RootDatum` fixes an ambient Z^d with the standard dot pairing, a
cocharacter lattice X given by an integral basis, simple roots as integral
functionals on Z^d, simple coroots as vectors of X, and a lattice
automorphism playing the role of Frobenius (identity for split groups).

Internally everything is converted once to lattice coordinates (the basis of
X); the ambient picture only reappears at serialization boundaries.  The
constructor derives the full root system, the positive system, 2*rho, the
highest root per irreducible component, and the finite Coxeter matrix,
validating the crystallographic axioms along the way.
"""

from __future__ import annotations

from math import lcm
from operator import mul
from typing import Optional, Sequence

from ekor_atlas.coxeter import BOND_OF_PRODUCT, CoxeterMatrix, reachable
from ekor_atlas.lattice import (
    fraction_matrix_inverse,
    identity_matrix,
    mat_mul,
    mat_vec,
    row_mat,
    vec_dot,
)


class RootDatumError(ValueError):
    """Input data violating the root datum axioms."""


class RootDatum:
    """Validated based root datum.

    Parameters
    ----------
    dim:
        ambient rank d; vectors and functionals are integer d-tuples.
    basis:
        integral basis of the cocharacter lattice X inside Z^d.
    simple_roots:
        integral functionals on Z^d (evaluation is the dot product).
    simple_coroots:
        elements of X, listed parallel to ``simple_roots``.
    frobenius:
        optional d x d integer matrix acting on Z^d and preserving X, the
        identity when omitted; either way it goes through one check.
    ambient_weyl:
        optional d x d integer matrices, one per simple reflection,
        fixing how reflections act on all of Z^d.  A lattice automorphism
        of X has no preferred extension when X spans a proper subspace, so
        callers that want a specific shape (say, coordinate permutations)
        must pass it; the default is the formula v - <v, a_i> a_i^vee.
        Every matrix m, passed or not, is checked to restrict to the
        reflection on X, on the basis: m b_j = b_j - <b_j, a_i> a_i^vee.
    """

    def __init__(self, dim: int, basis: Sequence[Sequence[int]],
                 simple_roots: Sequence[Sequence[int]],
                 simple_coroots: Sequence[Sequence[int]],
                 frobenius: Optional[Sequence[Sequence[int]]] = None,
                 ambient_weyl: Optional[Sequence[Sequence[Sequence[int]]]] = None):
        self.dim = int(dim)
        self.basis = tuple(tuple(int(v) for v in b) for b in basis)
        self.rank = len(self.basis)
        self.simple_roots = tuple(tuple(int(v) for v in r) for r in simple_roots)
        self.simple_coroots = tuple(tuple(int(v) for v in c) for c in simple_coroots)
        self.nsimple = len(self.simple_roots)
        if len(self.simple_coroots) != self.nsimple:
            raise RootDatumError("roots and coroots must come in parallel lists")
        for vecs in (self.basis, self.simple_roots, self.simple_coroots):
            for v in vecs:
                if len(v) != self.dim:
                    raise RootDatumError("all vectors must have the ambient length")

        if self.rank == 0:
            raise RootDatumError("empty basis")
        # independence: the Gram matrix G of the basis B must be invertible.
        # A vector v = c B of the span has c = v B^T G^-1; ``to_lattice``
        # keeps the columns of the integer matrix den B^T G^-1.
        inv = fraction_matrix_inverse(
            tuple(tuple(vec_dot(a, b) for b in self.basis) for a in self.basis))
        if inv is None:
            raise RootDatumError("basis vectors are not independent")
        den = self._den = lcm(*(f.denominator for row in inv for f in row))
        scaled = [[int(den * f) for f in row] for row in inv]
        self._coord_cols = tuple(
            tuple(sum(row[i] * b[j] for row, b in zip(scaled, self.basis))
                  for j in range(self.dim))
            for i in range(self.rank))

        self.coroots_lattice = tuple(self.to_lattice(c) for c in self.simple_coroots)
        # root functionals restricted to X: values on the basis
        self.root_values = tuple(
            tuple(vec_dot(r, b) for b in self.basis) for r in self.simple_roots)

        # Cartan pairings <alpha_i^vee, alpha_j> = alpha_j(alpha_i^vee)
        self.cartan = tuple(
            tuple(vec_dot(self.simple_roots[j], self.simple_coroots[i])
                  for j in range(self.nsimple))
            for i in range(self.nsimple))
        for i in range(self.nsimple):
            if self.cartan[i][i] != 2:
                raise RootDatumError(f"<coroot {i}, root {i}> = {self.cartan[i][i]}, expected 2")

        finite_rows = [[1] * self.nsimple for _ in range(self.nsimple)]
        for i in range(self.nsimple):
            for j in range(self.nsimple):
                if i == j:
                    continue
                # a generalized Cartan matrix: a_ij <= 0, zero iff a_ji is
                a, b = self.cartan[i][j], self.cartan[j][i]
                if a > 0 or (a == 0) != (b == 0) or not 0 <= a * b < 4:
                    raise RootDatumError(
                        f"pairing of simple roots {i}, {j} is not of finite crystallographic type")
                finite_rows[i][j] = BOND_OF_PRODUCT[a * b]
        self.finite_coxeter = CoxeterMatrix(finite_rows)
        if not self.finite_coxeter.is_finite_parabolic(self.finite_coxeter.nodes()):
            raise RootDatumError("the Cartan matrix is not of finite type")

        # simple reflections in ambient coordinates (class docstring)
        if ambient_weyl is None:
            ambient_weyl = [[[int(r == c) - coroot[r] * root[c] for c in range(self.dim)]
                             for r in range(self.dim)]
                            for root, coroot in zip(self.simple_roots, self.simple_coroots)]
        mats = tuple(tuple(tuple(int(v) for v in row) for row in m)
                     for m in ambient_weyl)
        if len(mats) != self.nsimple or any(
                len(m) != self.dim or any(len(row) != self.dim for row in m)
                for m in mats):
            raise RootDatumError("need one d x d matrix per simple reflection")
        for i, (m, coroot) in enumerate(zip(mats, self.simple_coroots)):
            for b, p in zip(self.basis, self.root_values[i]):
                if mat_vec(m, b) != tuple(x - p * y for x, y in zip(b, coroot)):
                    raise RootDatumError(
                        f"ambient matrix {i} does not restrict to reflection {i} on X")
        self.reflections_ambient = mats

        self._build_root_system()
        self._build_frobenius(identity_matrix(self.dim) if frobenius is None
                              else frobenius)

    # ---------------------------------------------------------- coordinates

    def to_lattice(self, ambient: Sequence) -> tuple:
        """Integer coordinates of a vector of X in its basis: den times them
        is one integer product, checked exactly against the basis."""
        v = tuple(ambient)
        if len(v) != self.dim:
            raise RootDatumError(f"vector {v} does not have the ambient length {self.dim}")
        den = self._den
        num = tuple(sum(map(mul, v, col)) for col in self._coord_cols)
        if self.from_lattice(num) != tuple(den * t for t in v):
            raise RootDatumError(f"vector {v} does not lie in the span of X")
        if any(c % den for c in num):
            raise RootDatumError(f"vector {v} is not in the lattice X")
        return tuple(c // den for c in num)

    def from_lattice(self, coords: Sequence) -> tuple:
        """Ambient vector with the given lattice coordinates."""
        return tuple(sum(map(mul, coords, col)) for col in zip(*self.basis))

    # --------------------------------------------------------- root system

    def _build_root_system(self):
        """Close the simple roots under the simple reflections in simple-root
        coordinates.  For a root b = sum_j b_j a_j, s_i b = b - <b, a_i^vee> a_i
        changes coordinate i alone, by the integer <b, a_i^vee> =
        sum_j b_j cartan[i][j]; its coroot is s_i b^vee = b^vee -
        <a_i, b^vee> a_i^vee.  The constructor checked that the Cartan matrix
        is a generalized one of finite type, so it is invertible and the
        coordinates name each root once; each root has coordinates of one
        sign (Kac, Lemma 1.3), and the Weyl group, the Coxeter group of the
        bonds (Prop. 3.13), is finite (Prop. 4.9).  With each root b it holds
        -b, as b = w a_i gives -b = w s_i a_i."""
        n = self.nsimple
        coroots = {tuple(int(i == j) for j in range(n)): self.coroots_lattice[i]
                   for i in range(n)}

        def reflect(coords):
            # the coroot of a root is set once, when the root is first met
            coroot = coroots[coords]
            for i, row in enumerate(self.cartan):
                p = sum(map(mul, coords, row))
                image = coords[:i] + (coords[i] - p,) + coords[i + 1:]
                if image not in coroots:
                    q = vec_dot(self.root_values[i], coroot)
                    coroots[image] = tuple(
                        c - q * a for c, a in zip(coroot, self.coroots_lattice[i]))
                yield image

        reachable(list(coroots), reflect)

        positive = [(row_mat(coords, self.root_values), coroot, coords)
                    for coords, coroot in coroots.items() if min(coords) >= 0]

        # deterministic order: by height then by values
        positive.sort(key=lambda t: (sum(t[2]), t[0]))
        self.positive_roots = tuple(p[0] for p in positive)
        self.positive_coroots = tuple(p[1] for p in positive)
        self.positive_coords = tuple(p[2] for p in positive)
        self.two_rho = tuple(sum(col) for col in zip(*self.positive_roots)) \
            if positive else (0,) * self.rank

        # highest root per finite component: the positive root of maximal
        # height supported on it (the component's simple roots qualify)
        self.components = self.finite_coxeter.connected_components()
        self.theta = tuple(
            max((p for p in positive if {i for i, c in enumerate(p[2]) if c} <= comp),
                key=lambda p: sum(p[2]))[0]
            for comp in self.components)

    # ----------------------------------------------------------- frobenius

    def _build_frobenius(self, frobenius):
        amb = tuple(tuple(int(v) for v in row) for row in frobenius)
        if len(amb) != self.dim or any(len(r) != self.dim for r in amb):
            raise RootDatumError("frobenius must be a d x d integer matrix")
        cols = []
        for j in range(self.rank):
            image = mat_vec(amb, self.basis[j])
            cols.append(self.to_lattice(image))
        self.frobenius_lattice = tuple(tuple(cols[j][i] for j in range(self.rank))
                                       for i in range(self.rank))
        inv = fraction_matrix_inverse(self.frobenius_lattice)
        if inv is None or any(f.denominator != 1 for row in inv for f in row):
            raise RootDatumError("frobenius is not an automorphism of X")
        # must permute the simple coroots, F c_i = c_j, with r_j o F = r_i on
        # the root functionals; as F is injective, a map that sends each
        # simple coroot to one simple coroot is a permutation
        for i in range(self.nsimple):
            target = mat_vec(self.frobenius_lattice, self.coroots_lattice[i])
            matches = [j for j in range(self.nsimple) if self.coroots_lattice[j] == target]
            if len(matches) != 1:
                raise RootDatumError("frobenius does not permute the simple coroots")
            if row_mat(self.root_values[matches[0]], self.frobenius_lattice) != self.root_values[i]:
                raise RootDatumError("frobenius acts inconsistently on roots and coroots")
        power = self.frobenius_lattice
        order = 1
        ident = identity_matrix(self.rank)
        while power != ident:
            power = mat_mul(power, self.frobenius_lattice)
            order += 1
            if order > 10000:
                raise RootDatumError("frobenius has unreasonably large order on X")
        self.frobenius_order = order
