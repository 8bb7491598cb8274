"""Coxeter diagram combinatorics.

A :class:`CoxeterMatrix` records the bond orders between abstract generators.
Only crystallographic orders (2, 3, 4, 6 and infinity) are admitted, which is
all the affine Weyl machinery ever produces.  On top of the matrix we provide
connected components, recognition of finite and affine component types,
validation of diagram automorphisms (node maps kept as plain tuples of
images), and the finiteness test for standard parabolic subgroups of affine
diagrams.

Everything here is immutable and pure, hence safe to share between threads.
"""

from __future__ import annotations

from typing import Iterable, Optional

#: Sentinel for an infinite bond order.  Deliberately not a large integer so
#: it can never be confused with a finite label.
INFINITE_BOND = 0

_ALLOWED_BONDS = (2, 3, 4, 6, INFINITE_BOND)

#: A finite Coxeter type: sorted tuple of (family, rank) pairs, one per
#: connected component.  The empty tuple is the trivial group.
FiniteTypeLabel = tuple[tuple[str, int], ...]


class CoxeterError(ValueError):
    """Malformed diagram, or a type query outside the supported catalogue."""


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
                if i != j and mat[i][j] not in _ALLOWED_BONDS:
                    raise CoxeterError(f"unsupported bond order {mat[i][j]!r}")
        self.rows = mat
        self.n = n
        self._components: Optional[tuple[frozenset[int], ...]] = None
        self._affine_labels: Optional[tuple[tuple[str, int], ...]] = None
        self._finite_parabolic: dict[frozenset[int], bool] = {}

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

    def affine_components(self) -> tuple[tuple[frozenset[int], tuple[str, int]], ...]:
        """Components of the full diagram, each recognised as an affine type.

        Raises CoxeterError when some component is not an irreducible affine
        diagram.  The result is cached.
        """
        comps = self.connected_components()
        if self._affine_labels is None:
            labels = []
            for comp in comps:
                kind, label = _classify_component(self, comp)
                if kind != "affine":
                    raise CoxeterError(
                        f"component {sorted(comp)} is not an affine diagram (got {kind})")
                labels.append(label)
            self._affine_labels = tuple(labels)
        return tuple(zip(comps, self._affine_labels))

    def is_finite_parabolic(self, J: Iterable[int]) -> bool:
        """True when the standard parabolic on J is a finite group.

        Requires the full diagram to be affine per component; then W_J is
        finite exactly when J omits at least one node of every component.
        Memoised per node set, after the set is validated.
        """
        Jset = self._check_subset(J)
        got = self._finite_parabolic.get(Jset)
        if got is None:
            got = self._finite_parabolic[Jset] = all(
                not comp <= Jset for comp, _ in self.affine_components())
        return got

    def finite_type(self, J: Iterable[int]) -> FiniteTypeLabel:
        """Classify the sub-diagram on J as a product of finite types.

        Every connected component must match the crystallographic finite
        catalogue (families A, C, D, E, F, G; a path with one terminal bond
        of order 4 is reported as C since the B and C diagrams coincide).
        """
        Jset = self._check_subset(J)
        labels = []
        for comp in self.connected_components(Jset):
            kind, label = _classify_component(self, comp)
            if kind != "finite":
                raise CoxeterError(
                    f"subset {sorted(comp)} is not of finite type (got {kind})")
            labels.append(label)
        return tuple(sorted(labels))


def format_finite_type(label: FiniteTypeLabel) -> str:
    """Render ('A',1),('C',2) as 'A1xC2'; the trivial type as '1'."""
    if not label:
        return "1"
    return "x".join(f"{fam}{rank}" for fam, rank in label)


def _path_order(nodes: list[int], adj: dict[int, list[int]]) -> Optional[list[int]]:
    """Nodes of a degree<=2 tree in path order, or None when not a path."""
    if len(nodes) == 1:
        return nodes
    ends = [v for v in nodes if len(adj[v]) == 1]
    if len(ends) != 2 or any(len(adj[v]) > 2 for v in nodes):
        return None
    order = [min(ends)]
    prev = None
    while len(order) < len(nodes):
        nxt = [u for u in adj[order[-1]] if u != prev]
        if len(nxt) != 1:
            return None
        prev = order[-1]
        order.append(nxt[0])
    return order


def _arm_profile(center: int, adj: dict[int, list[int]]) -> Optional[list[list[int]]]:
    """Arms hanging off a branch node, as node lists walking outward."""
    arms = []
    for nb in sorted(adj[center]):
        arm = [nb]
        prev = center
        while True:
            nxt = [u for u in adj[arm[-1]] if u != prev]
            if not nxt:
                break
            if len(nxt) > 1:
                return None  # a second branch point on this arm
            prev = arm[-1]
            arm.append(nxt[0])
        arms.append(arm)
    return arms


def _classify_component(mat: CoxeterMatrix, comp: frozenset[int]):
    """Classify one connected diagram: ('finite', (family, rank)),
    ('affine', (family~, rank)), or ('other', None)."""
    nodes = sorted(comp)
    n = len(nodes)
    if n == 1:
        return "finite", ("A", 1)
    edges = mat.edges(comp)
    adj: dict[int, list[int]] = {v: [] for v in nodes}
    for i, j, _ in edges:
        adj[i].append(j)
        adj[j].append(i)

    orders = [m for _, _, m in edges]
    if INFINITE_BOND in orders:
        if n == 2 and len(edges) == 1:
            return "affine", ("A~", 1)
        return "other", None

    if len(edges) == n:  # unique cycle
        if all(len(adj[v]) == 2 for v in nodes) and all(m == 3 for m in orders):
            return "affine", ("A~", n - 1)
        return "other", None
    if len(edges) != n - 1:
        return "other", None

    # tree from here on
    maxdeg = max(len(adj[v]) for v in nodes)
    if maxdeg <= 2:
        order = _path_order(nodes, adj)
        assert order is not None
        labels = [mat.bond(order[i], order[i + 1]) for i in range(n - 1)]
        canon = min(labels, labels[::-1])
        n4 = labels.count(4)
        n6 = labels.count(6)
        if n6 == 1 and n4 == 0:
            if n == 2:
                return "finite", ("G", 2)
            if n == 3 and canon == [3, 6]:
                return "affine", ("G~", 2)
            return "other", None
        if n6 > 1:
            return "other", None
        if n4 == 0:
            return "finite", ("A", n)
        if n4 == 1:
            if labels[0] == 4 or labels[-1] == 4:
                # terminal bond of order 4: the B and C diagrams agree, we
                # use the C label throughout
                return "finite", ("C", n)
            if n == 4 and labels[1] == 4:
                return "finite", ("F", 4)
            if n == 5 and canon == [3, 3, 4, 3]:
                return "affine", ("F~", 4)
            return "other", None
        if n4 == 2:
            if labels[0] == 4 and labels[-1] == 4 and all(m == 3 for m in labels[1:-1]):
                return "affine", ("C~", n - 1)
            return "other", None
        return "other", None

    if maxdeg >= 4:
        if maxdeg == 4 and n == 5 and all(m == 3 for m in orders):
            return "affine", ("D~", 4)
        return "other", None

    branch = [v for v in nodes if len(adj[v]) == 3]
    if len(branch) == 1:
        center = branch[0]
        arms = _arm_profile(center, adj)
        if arms is None:
            return "other", None
        sizes = tuple(sorted(len(a) for a in arms))
        if all(m == 3 for m in orders):
            if sizes[:2] == (1, 1):
                return "finite", ("D", n)
            table = {
                (1, 2, 2): ("finite", ("E", 6)),
                (1, 2, 3): ("finite", ("E", 7)),
                (1, 2, 4): ("finite", ("E", 8)),
                (2, 2, 2): ("affine", ("E~", 6)),
                (1, 3, 3): ("affine", ("E~", 7)),
                (1, 2, 5): ("affine", ("E~", 8)),
            }
            if sizes in table:
                return table[sizes]
            return "other", None
        fours = [(i, j) for i, j, m in edges if m == 4]
        if len(fours) == 1 and sizes[:2] == (1, 1) and all(m in (3, 4) for m in orders):
            # a single order-4 bond at the leaf end of the long arm
            long_arm = max(arms, key=len)
            i, j = fours[0]
            if len(long_arm) >= 2 and {i, j} == {long_arm[-1], long_arm[-2]}:
                return "affine", ("B~", n - 1)
            if len(long_arm) == 1 and long_arm[0] in (i, j) and center in (i, j):
                return "affine", ("B~", n - 1)
        return "other", None
    if len(branch) == 2 and all(m == 3 for m in orders):
        b1, b2 = branch
        ok = True
        for b in (b1, b2):
            leaf_arms = [u for u in adj[b] if len(adj[u]) == 1]
            if len(leaf_arms) < 2:
                ok = False
        if ok:
            return "affine", ("D~", n - 1)
    return "other", None
