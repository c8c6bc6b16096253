"""Labeled trees with exact matching, nullity, independence and rank.

Vertices are labeled 1..n.  Every tree is validated on construction, and
one rule, :func:`_is_label`, decides what a label is: an int in 1..n.
Anything else, as an edge end, a vertex argument or a Prüfer symbol, raises
:class:`LabelOutOfRange`.  A :class:`Matching` is tied to no tree, so it
refuses only ends that are no int; :meth:`Matching.is_valid_in` tests the
range.  Every operation is pure and exact.  The matching comes from one
rule, children first along the BFS from n kept at construction: match a
vertex to its parent when both are free.  A vertex still free when it is
reached has only its parent edge left, and a pendant edge lies in some
maximum matching; the rule is exact on trees with no blossom machinery.

One BFS from n at construction proves connectivity and keeps its order and
parents for the matching and the 2-coloring.  n - 1 edges that
reach all n vertices hold no loop or repeat, so the edge set is built only
to name the error of a rejected tree.

The adjacency rank comes from elimination over GF(2) on integer bitmasks,
so no floating-point rank decision is ever made.  For any forest the
adjacency rank is 2 * nu over every field (deleting a pendant vertex and
its neighbor lowers the rank by exactly 2 and nu by 1; Cvetković–Gutman
1972), so the GF(2) rank equals the rational rank, and it is an independent
cross-check of the matching code and vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable

from .degseq import DegreeSequence
from .errors import (
    LabelOutOfRange,
    LoopOrDuplicate,
    NotConnected,
    ParseError,
    SizeLimitExceeded,
    WrongEdgeCount,
)

DEFAULT_RANK_LIMIT = 64

Edge = tuple[int, int]


def _is_label(v, n: int) -> bool:
    """The one label rule: ``v`` is a vertex of a tree on 1..n."""
    return isinstance(v, int) and 1 <= v <= n


@dataclass(frozen=True)
class Matching:
    """A set of pairwise non-adjacent edges, kept in sorted normal form."""

    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        try:
            canon = tuple(sorted([(u, v) if u <= v else (v, u) for u, v in self.edges]))
            ints = all(map(int.__instancecheck__, chain.from_iterable(canon)))
        except (TypeError, ValueError):
            ints = False
        if not ints:  # the label rule of _is_label, short of the range
            raise LabelOutOfRange("matching edges must be pairs of integer labels")
        object.__setattr__(self, "edges", canon)

    @property
    def size(self) -> int:
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)

    def is_valid_in(self, tree: "LabeledTree") -> bool:
        """Every edge belongs to the tree and no two edges share a vertex."""
        n, adj, edges = tree.n, tree._adj, self.edges  # int labels, u <= v
        # Disjoint ends first: then v in adj[u] is O(deg u) and u occurs once.
        return len(set(chain.from_iterable(edges))) == 2 * len(edges) and all(
            1 <= u <= v <= n and v in adj[u] for u, v in edges
        )


class LabeledTree:
    """Immutable labeled tree on vertices 1..n stored as an edge set."""

    __slots__ = ("n", "edges", "_adj", "_order", "_parent", "_matching")

    def __init__(self, n: int, edges: Iterable[Edge]):
        if not isinstance(n, int):
            raise LabelOutOfRange(f"vertex count must be an int, got {n!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_matching", None)
        adj: list[list[int]] = [[] for _ in range(n + 1)]
        # This is _is_label at no cost per edge: a label that is no int fails
        # in the sort or as a list index, and an edge that is no pair unpacking.
        try:
            canon = sorted([(u, v) if u <= v else (v, u) for u, v in edges])
            for u, v in canon:
                if not (1 <= u <= v <= n):
                    raise LabelOutOfRange(f"edge ({u},{v}) outside 1..{n}")
                adj[u].append(v)
                adj[v].append(u)
        except (TypeError, ValueError):
            raise LabelOutOfRange(f"edges must be pairs of integer labels in 1..{n}") from None
        object.__setattr__(self, "edges", tuple(canon))
        # canon is sorted with u <= v, so every list was filled in ascending order
        object.__setattr__(self, "_adj", tuple(map(tuple, adj)))
        self._validate()

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("LabeledTree is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LabeledTree)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"LabeledTree(n={self.n}, edges={list(self.edges)})"

    def _validate(self) -> None:
        """n - 1 edges that reach all n vertices from n leave none for a loop
        or a repeat, so they make a tree: that BFS is kept, and the edge set
        is built only to name the error of a rejection."""
        n, m = self.n, len(self.edges)
        if m == n - 1:  # so n >= 1 and n is a vertex
            order, parent = self._bfs(n)
            if len(order) == n:
                object.__setattr__(self, "_order", order)
                object.__setattr__(self, "_parent", parent)
                return
        if len(set(self.edges)) != m or any(u == v for u, v in self.edges):
            raise LoopOrDuplicate("loops or repeated edges are not allowed")
        if m != n - 1:
            raise WrongEdgeCount(f"{m} edges, a tree on {n} vertices has {n - 1}")
        count = len(self._bfs(1)[0])
        raise NotConnected(f"only {count} of {n} vertices reachable")

    def _bfs(self, source: int) -> tuple[list[int], list[int]]:
        """BFS order from ``source``, and parents by label: 0 for ``source``
        and -1 unreached, entry 0 too.  ``_validate`` keeps the BFS from n."""
        adj = self._adj
        parent = [-1] * (self.n + 1)
        parent[source] = 0
        order = [source]
        for x in order:
            for y in adj[x]:
                if parent[y] < 0:
                    parent[y] = x
                    order.append(y)
        return order, parent

    # -- basic accessors ---------------------------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_label(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check_label(v)
        return len(self._adj[v])

    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.n + 1) if len(self._adj[v]) == 1)

    def _check_label(self, v: int) -> None:
        if not _is_label(v, self.n):
            raise LabelOutOfRange(f"label {v!r} outside 1..{self.n}")

    # -- derived quantities --------------------------------------------------

    def degree_multiset(self) -> DegreeSequence:
        return DegreeSequence(tuple(len(self._adj[v]) for v in range(1, self.n + 1)))

    def maximum_matching(self) -> Matching:
        """Maximum matching: children first along the kept BFS from n, each
        vertex is matched to its parent when both are free.

        Exact on trees: reversed BFS order reaches a vertex after all of its
        descendants, so if it is still free its parent edge is pendant in
        what is left, and some maximum matching of that forest contains a
        given pendant edge.  The tree is immutable, so the result is
        memoised on it.
        """
        if self._matching is None:
            parent, covered = self._parent, bytearray(self.n + 1)
            matched: list[Edge] = []
            for v in self._order[:0:-1]:  # all but the root n, children first
                p = parent[v]
                if not (covered[v] or covered[p]):
                    covered[v] = covered[p] = 1
                    matched.append((v, p))
            object.__setattr__(self, "_matching", Matching(tuple(matched)))
        return self._matching

    def nullity(self) -> int:
        """Multiplicity of the zero eigenvalue: n - 2 * nu for trees."""
        return self.n - 2 * self.maximum_matching().size

    def independence_number(self) -> int:
        """n - nu: minimum vertex cover equals nu in bipartite graphs, and
        the independent sets are exactly the cover complements."""
        return self.n - self.maximum_matching().size

    def adjacency_rank_exact(self, limit: int = DEFAULT_RANK_LIMIT) -> int:
        """Exact rank of the 0/1 adjacency matrix, by elimination over GF(2).

        Each row is one integer bitmask and rows are reduced by XOR against
        a basis keyed by leading bit.  For a forest the rank is 2 * nu over
        every field: a pendant vertex's row is the unit vector of its
        neighbor, so eliminating with it splits off a rank-2 block and leaves
        the forest without that edge's two vertices.  The GF(2) rank is thus
        the true rank over the rationals.  Guarded by ``limit`` since this is
        a cross-check oracle, not a production path.
        """
        n = self.n
        if n > limit:
            raise SizeLimitExceeded(f"n={n} exceeds rank limit {limit}")
        basis: dict[int, int] = {}
        for v in range(1, n + 1):
            row = 0
            for w in self._adj[v]:
                row |= 1 << w
            while row:
                lead = row.bit_length()
                pivot = basis.get(lead)
                if pivot is None:
                    basis[lead] = row
                    break
                row ^= pivot
        return len(basis)

    def distance(self, u: int, v: int) -> int:
        """Edge count of the unique u-v path: the parents of a BFS from u,
        climbed from v."""
        self._check_label(u)
        self._check_label(v)
        parent, d = self._bfs(u)[1], 0
        while v != u:
            v, d = parent[v], d + 1
        return d

    def two_coloring(self) -> list[int]:
        """Proper 2-coloring (trees are bipartite); entry 0 is unused (-1).

        Colors alternate along the BFS from n kept at construction, flipped
        so that vertex 1 has color 0.  Two vertices are at even distance
        exactly when they share a color.
        """
        parent, color = self._parent, [1] * (self.n + 1)  # entry 0 gives n color 0
        for v in self._order:
            color[v] = 1 - color[parent[v]]
        return [-1] + [c ^ color[1] for c in color[1:]]

    # -- serialization -------------------------------------------------------

    def to_edge_list(self) -> str:
        """First line n, then one "u v" line per edge, sorted."""
        lines = [str(self.n)]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"

    def to_dot(self) -> str:
        """Undirected DOT with node names v1..vn, edges in sorted order."""
        lines = ["graph {"]
        lines.extend(f"  v{u} -- v{v};" for u, v in self.edges)
        lines.append("}")
        return "\n".join(lines) + "\n"


def from_edges(n: int, pairs: Iterable[Edge]) -> LabeledTree:
    """Validated tree from an edge list over labels 1..n."""
    return LabeledTree(n, pairs)


def parse_edge_list(text: str) -> LabeledTree:
    """Inverse of :meth:`LabeledTree.to_edge_list`."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty edge-list input")
    try:
        n = int(lines[0])
    except ValueError:
        raise ParseError(f"first line must be the vertex count, got {lines[0]!r}") from None
    pairs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {ln!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"expected integers, got {ln!r}") from None
    return from_edges(n, pairs)
