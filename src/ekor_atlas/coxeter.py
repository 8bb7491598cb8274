"""Coxeter diagram combinatorics.

A :class:`CoxeterMatrix` records the bond orders between abstract generators.
Only crystallographic orders (2, 3, 4, 6 and infinity) are admitted, which is
all the affine Weyl machinery ever produces.  On top of the matrix we provide
connected components, validation of diagram automorphisms (node maps kept as
plain tuples of images), and one recogniser of finite types, which answers
both whether a standard parabolic subgroup is finite and which finite type it
has.

W_J is finite exactly when every connected component of J is the diagram of
a finite Coxeter group.  With the bonds above, the classification of finite
Coxeter groups (Humphreys, *Reflection Groups and Coxeter Groups*,
2.4-2.7) leaves the trees A_n, B_n = C_n, D_n, E_6, E_7, E_8, F_4 and G_2:
H_3, H_4 and I_2(5) need a bond of order 5, and I_2(m) for m > 6 an order
that is not admitted.  So the catalogue below is complete, and a component
it does not recognise generates an infinite group.

Everything here is immutable and pure, hence safe to share between threads.
"""

from __future__ import annotations

from typing import Iterable, Optional

#: Sentinel for an infinite bond order.  Deliberately not a large integer so
#: it can never be confused with a finite label.
INFINITE_BOND = 0

#: The bond of two reflections s_a, s_b, indexed by n = <a, b^vee><b, a^vee>,
#: which is 4 cos^2 of the angle of their walls: n = 0, 1, 2, 3, 4 gives the
#: order 2, 3, 4, 6, infinity of s_a s_b.  These are the only bonds admitted.
BOND_OF_PRODUCT = (2, 3, 4, 6, INFINITE_BOND)

#: A finite Coxeter type: sorted tuple of (family, rank) pairs, one per
#: connected component.  The empty tuple is the trivial group.
FiniteTypeLabel = tuple[tuple[str, int], ...]

#: Arm lengths of a simply laced tree with one node of degree three, beyond
#: the (1, 1, k) of D_n.
_E_ARMS = {(1, 2, 2): ("E", 6), (1, 2, 3): ("E", 7), (1, 2, 4): ("E", 8)}


class CoxeterError(ValueError):
    """Malformed diagram, or a type query outside the finite catalogue."""


class CoxeterMatrix:
    """Symmetric matrix of bond orders with 1 on the diagonal.

    Nodes are the integers ``0 .. n-1``.  Off-diagonal entries lie in
    {2, 3, 4, 6, INFINITE_BOND}; an absent bond is recorded as 2.
    """

    def __init__(self, rows: Iterable[Iterable[int]]):
        mat = tuple(tuple(int(v) for v in row) for row in rows)
        n = len(mat)
        for i, row in enumerate(mat):
            if len(row) != n:
                raise CoxeterError("matrix must be square")
            if row[i] != 1:
                raise CoxeterError("diagonal entries must equal 1")
            for j in range(n):
                if mat[i][j] != mat[j][i]:
                    raise CoxeterError("matrix must be symmetric")
                if i != j and mat[i][j] not in BOND_OF_PRODUCT:
                    raise CoxeterError(f"unsupported bond order {mat[i][j]!r}")
        self.rows = mat
        self.n = n
        self._components: Optional[tuple[frozenset[int], ...]] = None
        self._finite: dict[frozenset[int], Optional[FiniteTypeLabel]] = {}

    def bond(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def nodes(self) -> frozenset[int]:
        return frozenset(range(self.n))

    def __repr__(self):
        return f"CoxeterMatrix({list(map(list, self.rows))})"

    def check_automorphism(self, images: Iterable[int]) -> tuple[int, ...]:
        """Validate a node map given as its tuple of images: it must permute
        the nodes and preserve every bond order."""
        images = tuple(images)
        if sorted(images) != list(range(self.n)):
            raise CoxeterError(f"images {images} are not a permutation of 0..{self.n - 1}")
        for i in range(self.n):
            for j in range(self.n):
                if self.rows[images[i]][images[j]] != self.rows[i][j]:
                    raise CoxeterError("node map does not preserve the bond orders")
        return images

    def _check_subset(self, J: Iterable[int]) -> frozenset[int]:
        J = frozenset(J)
        if not all(isinstance(i, int) and 0 <= i < self.n for i in J):
            raise CoxeterError(f"node subset {sorted(J)} out of range 0..{self.n - 1}")
        return J

    def edges(self, J: Optional[Iterable[int]] = None) -> list[tuple[int, int, int]]:
        """Bonds of order != 2 between nodes of J, as (i, j, order) with i < j."""
        J = self.nodes() if J is None else self._check_subset(J)
        out = []
        for i in sorted(J):
            for j in sorted(J):
                if i < j and self.rows[i][j] != 2:
                    out.append((i, j, self.rows[i][j]))
        return out

    def connected_components(self, J: Optional[Iterable[int]] = None) -> tuple[frozenset[int], ...]:
        """Connected components of the sub-diagram on J, sorted by least node."""
        if J is None and self._components is not None:
            return self._components
        Jset = self.nodes() if J is None else self._check_subset(J)
        seen: set[int] = set()
        comps: list[frozenset[int]] = []
        for start in sorted(Jset):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                i = stack.pop()
                for j in Jset:
                    if j not in comp and self.rows[i][j] != 2:
                        comp.add(j)
                        stack.append(j)
            seen |= comp
            comps.append(frozenset(comp))
        result = tuple(comps)
        if J is None:
            self._components = result
        return result

    def _finite_label(self, Jset: frozenset[int]) -> Optional[FiniteTypeLabel]:
        """The finite type of the sub-diagram on a validated node set, or
        None when W_J is infinite.  Memoised per node set."""
        if Jset not in self._finite:
            labels = [_finite_component(self, comp)
                      for comp in self.connected_components(Jset)]
            self._finite[Jset] = None if None in labels else tuple(sorted(labels))
        return self._finite[Jset]

    def is_finite_parabolic(self, J: Iterable[int]) -> bool:
        """True when the standard parabolic on J is a finite group, that is
        when every component of J is in the finite catalogue."""
        return self._finite_label(self._check_subset(J)) is not None

    def finite_type(self, J: Iterable[int]) -> FiniteTypeLabel:
        """Classify the sub-diagram on J as a product of finite types.

        A path with one terminal bond of order 4 is reported as C, since the
        B and C diagrams coincide.  Raises CoxeterError when W_J is infinite.
        """
        Jset = self._check_subset(J)
        label = self._finite_label(Jset)
        if label is None:
            raise CoxeterError(f"subset {sorted(Jset)} is not of finite type")
        return label


def format_finite_type(label: FiniteTypeLabel) -> str:
    """Render ('A',1),('C',2) as 'A1xC2'; the trivial type as '1'."""
    if not label:
        return "1"
    return "x".join(f"{fam}{rank}" for fam, rank in label)


def _finite_component(mat: CoxeterMatrix, comp: frozenset[int]) -> Optional[tuple[str, int]]:
    """(family, rank) of a connected diagram of finite type, or None.

    The diagram must be a tree with finite bonds, and then either a path
    (A_n; C_n with one terminal 4; F_4 = [3, 4, 3]; G_2 = [6]) or a simply
    laced tree with one node of degree three, whose arms, the components
    left when it is removed, have lengths (1, 1, k) for D_n and (1, 2, 2),
    (1, 2, 3), (1, 2, 4) for E_6, E_7, E_8.
    """
    n = len(comp)
    edges = mat.edges(comp)
    # a connected diagram on n nodes with n - 1 edges is a tree
    if len(edges) != n - 1 or any(m == INFINITE_BOND for _, _, m in edges):
        return None
    adj: dict[int, list[int]] = {v: [] for v in comp}
    for i, j, _ in edges:
        adj[i].append(j)
        adj[j].append(i)
    branch = [v for v in comp if len(adj[v]) > 2]
    if not branch:
        order = [min(v for v in comp if len(adj[v]) < 2)]
        while len(order) < n:
            order.append(next(u for u in adj[order[-1]] if u not in order[-2:]))
        bonds = [mat.bond(a, b) for a, b in zip(order, order[1:])]
        if all(m == 3 for m in bonds):
            return "A", n
        if bonds == [6]:
            return "G", 2
        if bonds == [3, 4, 3]:
            return "F", 4
        if 4 in (bonds[0], bonds[-1]) and sorted(bonds) == [3] * (n - 2) + [4]:
            return "C", n
        return None
    if len(branch) > 1 or len(adj[branch[0]]) > 3 or any(m != 3 for _, _, m in edges):
        return None
    arms = tuple(sorted(map(len, mat.connected_components(comp - {branch[0]}))))
    if arms[:2] == (1, 1):
        return "D", n
    return _E_ARMS.get(arms)
