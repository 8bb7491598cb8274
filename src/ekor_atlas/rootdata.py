"""Based root data with a Frobenius action.

A :class:`RootDatum` fixes an ambient Z^d with the standard dot pairing, a
cocharacter lattice X given by an integral basis, simple roots as integral
functionals on Z^d, simple coroots as vectors of X, and a lattice
automorphism playing the role of Frobenius (identity for split groups).

Internally everything is converted once to lattice coordinates (the basis of
X); the ambient picture only reappears at serialization boundaries.  The
constructor derives the full root system, the positive system, 2*rho, the
highest root and its coroot per irreducible component, and the finite Coxeter
matrix, validating the crystallographic axioms along the way.
"""

from __future__ import annotations

from math import lcm
from operator import mul
from typing import Optional, Sequence

from ekor_atlas.coxeter import BOND_OF_PRODUCT, CoxeterMatrix
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
        optional d x d integer matrix acting on Z^d and preserving X;
        identity when omitted.
    ambient_weyl:
        optional d x d integer matrices, one per simple reflection,
        fixing how reflections act on all of Z^d.  A lattice automorphism
        of X has no preferred extension when X spans a proper subspace, so
        callers that want a specific shape (say, coordinate permutations)
        must pass it.  Each matrix is checked to restrict to the reflection
        on X.  Without this the reflection formula v - <v, a> a^vee is used.
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
                prod = self.cartan[i][j] * self.cartan[j][i]
                if not 0 <= prod < 4 or self.cartan[i][j] > 0:
                    raise RootDatumError(
                        f"pairing of simple roots {i}, {j} is not of finite crystallographic type")
                finite_rows[i][j] = BOND_OF_PRODUCT[prod]
        self.finite_coxeter = CoxeterMatrix(finite_rows)
        if not self.finite_coxeter.is_finite_parabolic(self.finite_coxeter.nodes()):
            raise RootDatumError("the Cartan matrix is not of finite type")

        # simple reflections, in lattice and in ambient coordinates
        self.reflections_lattice = tuple(
            self._reflection_lattice(self.root_values[i], self.coroots_lattice[i])
            for i in range(self.nsimple))
        if ambient_weyl is None:
            self.reflections_ambient = tuple(
                self._reflection_ambient(self.simple_roots[i], self.simple_coroots[i])
                for i in range(self.nsimple))
        else:
            mats = tuple(tuple(tuple(int(v) for v in row) for row in m)
                         for m in ambient_weyl)
            if len(mats) != self.nsimple or any(
                    len(m) != self.dim or any(len(row) != self.dim for row in m)
                    for m in mats):
                raise RootDatumError("need one d x d matrix per simple reflection")
            for i, m in enumerate(mats):
                for j in range(self.rank):
                    image = mat_vec(self.reflections_lattice[i],
                                    tuple(int(j == t) for t in range(self.rank)))
                    if tuple(mat_vec(m, self.basis[j])) != self.from_lattice(image):
                        raise RootDatumError(
                            f"ambient matrix {i} does not restrict to reflection {i} on X")
            self.reflections_ambient = mats

        self._build_root_system()
        self._build_frobenius(frobenius)

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

    def _reflection_lattice(self, values, coroot):
        cols = []
        for j in range(self.rank):
            col = [int(i == j) for i in range(self.rank)]
            for i in range(self.rank):
                col[i] -= values[j] * coroot[i]
            cols.append(col)
        return tuple(tuple(cols[j][i] for j in range(self.rank)) for i in range(self.rank))

    def _reflection_ambient(self, root, coroot):
        return tuple(tuple(int(i == j) - coroot[i] * root[j] for j in range(self.dim))
                     for i in range(self.dim))

    # --------------------------------------------------------- root system

    def _build_root_system(self):
        """Close the simple roots under the simple reflections in simple-root
        coordinates.  For a root b = sum_j b_j a_j, s_i b = b - <b, a_i^vee> a_i
        changes coordinate i alone, by the integer <b, a_i^vee> =
        sum_j b_j cartan[i][j]; its coroot is s_i b^vee = b^vee -
        <a_i, b^vee> a_i^vee.  The constructor checked that the Cartan matrix
        is of finite type, so it is invertible: the simple roots are
        independent on X, the coordinates name each root once, and the
        closure is finite unless some root has coordinates of both signs,
        which is refused as soon as it appears."""
        n = self.nsimple
        coroots = {tuple(int(i == j) for j in range(n)): self.coroots_lattice[i]
                   for i in range(n)}
        frontier = list(coroots)
        while frontier:
            new = []
            for coords in frontier:
                coroot = coroots[coords]
                for i, row in enumerate(self.cartan):
                    p = sum(map(mul, coords, row))
                    image = coords[:i] + (coords[i] - p,) + coords[i + 1:]
                    if image not in coroots:
                        if min(image) < 0 < max(image):
                            raise RootDatumError("root with mixed-sign simple coordinates")
                        q = vec_dot(self.root_values[i], coroot)
                        coroots[image] = tuple(
                            c - q * a for c, a in zip(coroot, self.coroots_lattice[i]))
                        new.append(image)
            frontier = new

        positive = [(row_mat(coords, self.root_values), coroot, coords)
                    for coords, coroot in coroots.items() if min(coords) >= 0]
        if 2 * len(positive) != len(coroots):
            raise RootDatumError("root system is not symmetric under negation")

        # deterministic order: by height then by values
        positive.sort(key=lambda t: (sum(t[2]), t[0]))
        self.positive_roots = tuple(p[0] for p in positive)
        self.positive_coroots = tuple(p[1] for p in positive)
        self.positive_coords = tuple(p[2] for p in positive)
        self._positive_index = {v: i for i, v in enumerate(self.positive_roots)}
        self.two_rho = tuple(sum(col) for col in zip(*self.positive_roots)) \
            if positive else (0,) * self.rank

        # highest root per finite component, found by maximal height
        self.components = self.finite_coxeter.connected_components()
        self.theta = []
        self.theta_coroot = []
        for comp in self.components:
            best = None
            for idx, coords in enumerate(self.positive_coords):
                support = {i for i, c in enumerate(coords) if c != 0}
                if support <= comp:
                    if best is None or sum(coords) > sum(self.positive_coords[best]):
                        best = idx
            assert best is not None
            self.theta.append(self.positive_roots[best])
            self.theta_coroot.append(self.positive_coroots[best])
        self.theta = tuple(self.theta)
        self.theta_coroot = tuple(self.theta_coroot)

    def root_sign(self, values) -> int:
        """+1 / -1 for a positive / negative root functional, in lattice values."""
        if values in self._positive_index:
            return 1
        if tuple(-v for v in values) in self._positive_index:
            return -1
        raise RootDatumError(f"{values} is not a root")

    # ----------------------------------------------------------- frobenius

    def _build_frobenius(self, frobenius):
        if frobenius is None:
            self.frobenius_ambient = identity_matrix(self.dim)
            self.frobenius_lattice = identity_matrix(self.rank)
            self.frobenius_nodes = tuple(range(self.nsimple))
            self.frobenius_order = 1
            return
        amb = tuple(tuple(int(v) for v in row) for row in frobenius)
        if len(amb) != self.dim or any(len(r) != self.dim for r in amb):
            raise RootDatumError("frobenius must be a d x d integer matrix")
        self.frobenius_ambient = amb
        cols = []
        for j in range(self.rank):
            image = mat_vec(amb, self.basis[j])
            cols.append(self.to_lattice(image))
        self.frobenius_lattice = tuple(tuple(cols[j][i] for j in range(self.rank))
                                       for i in range(self.rank))
        inv = fraction_matrix_inverse(self.frobenius_lattice)
        if inv is None or any(f.denominator != 1 for row in inv for f in row):
            raise RootDatumError("frobenius is not an automorphism of X")
        inv_int = tuple(tuple(int(f) for f in row) for row in inv)
        # must permute the simple coroots, and the same permutation must
        # govern the root functionals
        images = []
        for i in range(self.nsimple):
            target = mat_vec(self.frobenius_lattice, self.coroots_lattice[i])
            matches = [j for j in range(self.nsimple) if self.coroots_lattice[j] == target]
            if len(matches) != 1:
                raise RootDatumError("frobenius does not permute the simple coroots")
            j = matches[0]
            if row_mat(self.root_values[i], inv_int) != self.root_values[j]:
                raise RootDatumError("frobenius acts inconsistently on roots and coroots")
            images.append(j)
        if sorted(images) != list(range(self.nsimple)):
            raise RootDatumError("frobenius does not permute the simple coroots")
        self.frobenius_nodes = tuple(images)
        power = self.frobenius_lattice
        order = 1
        ident = identity_matrix(self.rank)
        while power != ident:
            power = mat_mul(power, self.frobenius_lattice)
            order += 1
            if order > 10000:
                raise RootDatumError("frobenius has unreasonably large order on X")
        self.frobenius_order = order
