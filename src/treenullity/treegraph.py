"""Labeled trees with exact matching, nullity, independence and rank.

Vertices are labeled 1..n.  Every tree is validated on construction, and
one rule, :func:`_is_label`, decides what a label is: an int in 1..n.
Anything else, as an edge end, a vertex argument or a Prüfer symbol, raises
:class:`LabelOutOfRange`.  A :class:`Matching` is tied to no tree, so it
refuses only ends that are no int; :meth:`Matching.is_valid_in` tests the
range.  Every operation is pure and exact.  The matching comes from one
rule, applied along the Prüfer elimination walk (smallest current leaf
first, rooted at n): match a leaf to its parent when both are free.  Leaves
go children-first, so a vertex still free when it goes has only its parent
edge left, and a pendant edge lies in some maximum matching; the rule is
exact on trees with no blossom machinery.  The same walk yields the Prüfer
code.

The adjacency rank comes from elimination over GF(2) on integer bitmasks,
so no floating-point rank decision is ever made.  For any forest the
adjacency rank is 2 * nu over every field (deleting a pendant vertex and
its neighbor lowers the rank by exactly 2 and nu by 1; Cvetković–Gutman
1972), so the GF(2) rank equals the rational rank, and it is an independent
cross-check of the matching code and vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass
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
            ints = all(isinstance(u, int) and isinstance(v, int) for u, v in canon)
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
        n, adj = tree.n, tree._adj
        seen: set[int] = set()
        for u, v in self.edges:  # int labels with u <= v, by construction
            if not 1 <= u <= v <= n or u in seen or v in seen or v not in adj[u]:
                return False  # v in adj[u] is O(deg u): u occurs once
            seen.add(u)
            seen.add(v)
        return True


class LabeledTree:
    """Immutable labeled tree on vertices 1..n stored as an edge set."""

    __slots__ = ("n", "edges", "_adj", "_matching")

    def __init__(self, n: int, edges: Iterable[Edge]):
        if not isinstance(n, int):
            raise LabelOutOfRange(f"vertex count must be an int, got {n!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_matching", None)
        adj: list[list[int]] = [[] for _ in range(n + 1)]
        loops = False
        # This is _is_label at no cost per edge: a label that is no int fails
        # in the sort or as a list index, and an edge that is no pair unpacking.
        try:
            canon = sorted([(u, v) if u <= v else (v, u) for u, v in edges])
            for u, v in canon:
                if not (1 <= u < v <= n):
                    if not (1 <= u and v <= n):
                        raise LabelOutOfRange(f"edge ({u},{v}) outside 1..{n}")
                    loops = True
                adj[u].append(v)
                adj[v].append(u)
        except (TypeError, ValueError):
            raise LabelOutOfRange(f"edges must be pairs of integer labels in 1..{n}") from None
        object.__setattr__(self, "edges", tuple(canon))
        # canon is sorted with u <= v, so every list was filled in ascending order
        object.__setattr__(self, "_adj", tuple(map(tuple, adj)))
        self._validate(loops)

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

    def _validate(self, loops: bool) -> None:
        n = self.n
        if loops or len(set(self.edges)) != len(self.edges):
            raise LoopOrDuplicate("loops or repeated edges are not allowed")
        if len(self.edges) != n - 1:
            raise WrongEdgeCount(f"{len(self.edges)} edges, a tree on {n} vertices has {n - 1}")
        # n - 1 edges and connected <=> tree; check connectivity by BFS from 1.
        count = n + 1 - self._bfs(1).count(-1)
        if count != n:
            raise NotConnected(f"only {count} of {n} vertices reachable")

    def _bfs(self, source: int) -> list[int]:
        """Edge distances from ``source``, indexed by label; -1 marks the
        unreached entries, among them the unused entry 0."""
        adj = self._adj
        dist = [-1] * (self.n + 1)
        dist[source] = 0
        queue = [source]
        for x in queue:
            dx = dist[x] + 1
            for y in adj[x]:
                if dist[y] < 0:
                    dist[y] = dx
                    queue.append(y)
        return dist

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

    def _elimination(self) -> list[Edge]:
        """The (leaf, parent) pairs of the Prüfer elimination, in order.

        Rooted at n, the vertex of smallest label with no children left goes
        next, paired with its parent (its neighbor toward n, read off the
        ``_bfs(n)`` distances); the last pair is (leaf, n).  This is the walk
        :func:`treenullity.oracle._decode_edges` makes on the tree's Prüfer
        code, pair for pair, in linear time: a removal can make only its
        parent a leaf, and one below the pointer is taken at once.
        """
        n = self.n
        if n < 2:
            return []
        dist = self._bfs(n)
        parent = [0] * (n + 1)
        for u, v in self.edges:
            if dist[u] < dist[v]:
                parent[v] = u
            else:
                parent[u] = v
        kids = [len(a) - 1 for a in self._adj]  # children left; n has no parent
        kids[n] += 1
        ptr = 1
        while kids[ptr]:
            ptr += 1
        leaf = ptr
        pairs: list[Edge] = []
        for _ in range(n - 2):
            p = parent[leaf]
            pairs.append((leaf, p))
            kids[p] -= 1
            if p < ptr and not kids[p]:
                leaf = p
            else:
                ptr += 1
                while kids[ptr]:
                    ptr += 1
                leaf = ptr
        pairs.append((leaf, n))
        return pairs

    def maximum_matching(self) -> Matching:
        """Maximum matching: along :meth:`_elimination`, each leaf is
        matched to its parent when both are free.

        Exact on trees: all children of a leaf have gone before it, so if it
        is still free its parent edge is pendant in what is left, and some
        maximum matching of that forest contains a given pendant edge.  The
        tree is immutable, so the result is memoised on it.
        """
        if self._matching is None:
            covered = bytearray(self.n + 1)
            matched: list[Edge] = []
            for v, p in self._elimination():
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
        """Edge count of the unique u-v path (breadth-first from u)."""
        self._check_label(u)
        self._check_label(v)
        d = self._bfs(u)[v]
        if d < 0:
            raise NotConnected(f"no path from {u} to {v}")  # pragma: no cover
        return d

    def two_coloring(self) -> list[int]:
        """Proper 2-coloring (trees are bipartite); entry 0 is unused.

        Two vertices are at even distance exactly when they share a color.
        """
        return [d % 2 if d >= 0 else -1 for d in self._bfs(1)]

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
