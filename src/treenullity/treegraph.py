"""Labeled trees with exact matching, nullity and rank.

Vertices are labeled 1..n.  Every tree is validated on construction.  A
label is an int in 1..n; anything else raises :class:`LabelOutOfRange`, but
a tree's edge list applies the exact type test of :func:`_is_label` only at
label 1, so it refuses a bool yet keeps an int subclass (an IntEnum member)
elsewhere; edges that are not n - 1 make no tree and take it at every label,
and a vertex count, a vertex argument and a :class:`Matching` end take it too.
A matching is tied to no tree, so its ends get no range test;
:meth:`Matching.is_valid_in` tests the range.  Every operation is pure and
exact.  The matching comes from one rule, children first towards the root
n: match a vertex to its parent when both are free.  A vertex still free
when it is reached has only its parent edge left, and a pendant edge lies
in some maximum matching; the rule is exact on trees with no blossom
machinery.  The walk marks only the parent end of each matched edge, and
the marks are a vertex cover as large as the matching, which no matching
exceeds (König 1931, Egerváry 1931): a proof of nu that trusts no walk.

A tree is validated by peeling leaves, with no container per vertex: two
flat lists hold each vertex's degree and the XOR of its neighbours, so a
leaf's one neighbour is its XOR.  Leaves other than n are peeled until
none is left, and n - 1 edges that peel down to n make a tree.  The tree
keeps the degrees, the parents towards n and the peel order, which lists
children first.  Only a rejected tree builds adjacency lists, to name its
error.

A tree and a matching keep each edge they are given that is already a
plain ``tuple`` (u, v) with u <= v, and rebuild any other.  So a tree
rebuilt from another's edges, or from a Prüfer decode, allocates no pair.
The edges of a tree or a matching are a tuple.

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
from typing import Iterable, NoReturn

from .degseq import DegreeSequence, _check_int_tokens, _ints
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
    """The one label rule: ``v`` is a vertex of a tree on 1..n.  The type
    test is exact, so a bool, which is an int, is no label."""
    return type(v) is int and 1 <= v <= n


def _pair(e) -> Edge:
    u, v = e  # fails on anything that is no pair
    return (u, v) if u <= v else (v, u)


def _canonical(pairs: Iterable) -> list[Edge]:
    """The pairs as (u, v) with u <= v, sorted.  A plain tuple that is
    already such a pair is kept itself; any other pair is rebuilt."""
    return sorted([
        e if type(e) is tuple and len(e) == 2 and e[0] <= e[1] else _pair(e) for e in pairs
    ])


@dataclass(frozen=True)
class Matching:
    """A set of pairwise non-adjacent edges, kept in sorted normal form."""

    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        try:
            canon = tuple(_canonical(self.edges))
            ints = _ints(chain.from_iterable(canon))
        except (TypeError, ValueError):
            ints = False
        if not ints:  # the label rule of _is_label, short of the range
            raise LabelOutOfRange("matching edges must be pairs of integer labels")
        object.__setattr__(self, "edges", canon)

    @property
    def size(self) -> int:
        return len(self.edges)

    def is_valid_in(self, tree: "LabeledTree") -> bool:
        """Every edge belongs to the tree and no two edges share a vertex."""
        n, parent, edges = tree.n, tree._parent, self.edges  # int labels, u <= v
        return len(set(chain.from_iterable(edges))) == 2 * len(edges) and all(
            1 <= u <= v <= n and (parent[u] == v or parent[v] == u) for u, v in edges
        )


class LabeledTree:
    """Immutable labeled tree on vertices 1..n stored as an edge set."""

    __slots__ = ("n", "edges", "_deg", "_parent", "_order")

    def __init__(self, n: int, edges: Iterable[Edge]):
        if type(n) is not int:  # the exact type test of _is_label
            raise LabelOutOfRange(f"vertex count must be an int, got {n!r}")
        object.__setattr__(self, "n", n)
        # This is _is_label at almost no cost per edge: a label that is no int
        # fails in the sort, as a list index or in the XOR, and an edge that is
        # no pair in unpacking.  A bool passes the range check only as 1, and
        # the edges at 1 lead canon (u <= v), so only they take the exact test.
        try:
            canon = _canonical(edges)
            if len(canon) == n - 1:
                deg, x = [0] * (n + 1), [0] * (n + 1)  # x[v]: XOR of v's neighbours
                for u, v in canon:
                    if not (1 <= u <= v <= n):
                        raise LabelOutOfRange(f"edge ({u},{v}) outside 1..{n}")
                    deg[u] += 1
                    deg[v] += 1
                    x[u] ^= v
                    x[v] ^= u
            else:  # no tree, so no n + 1 entries, and every label takes the exact test
                deg = []
                for u, v in canon:
                    if not (1 <= u <= v <= n):
                        raise LabelOutOfRange(f"edge ({u},{v}) outside 1..{n}")
            ints = _ints(chain.from_iterable(canon[: deg[1] if deg else None]))
        except (TypeError, ValueError):
            ints = False
        if not ints:
            raise LabelOutOfRange(f"edges must be pairs of integer labels in 1..{n}")
        object.__setattr__(self, "edges", tuple(canon))
        if deg:
            # Peel leaves other than n: a leaf's one neighbour is its XOR,
            # which stays as its parent.  A leaf peeled with no edge left
            # (x[v] = 0) ends a component apart from n and counts at rem[0].
            rem = deg.copy()
            order = [v for v in range(1, n) if rem[v] == 1]
            for v in order:
                p = x[v]
                x[p] ^= v
                rem[p] -= 1
                if rem[p] == 1 and p != n:
                    order.append(p)
            if len(order) == n - 1 and not rem[0]:  # each peel took one edge
                x[0] = -1  # x[n] is 0: all its neighbours were peeled
                object.__setattr__(self, "_deg", deg)
                object.__setattr__(self, "_parent", x)
                object.__setattr__(self, "_order", order)
                return
        _reject(n, canon)

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

    # -- derived quantities --------------------------------------------------

    def degree_multiset(self) -> DegreeSequence:
        return DegreeSequence(tuple(self._deg[1:]))

    def _cover(self) -> bytearray:
        """The walk of the one matching rule, children first along the kept
        peel order, marking only the parent end of each edge it matches.

        At v's turn v is taken exactly when a child took it, which marked
        it, and its parent exactly when another child did, so the marks are
        the walk's whole state.  They cover every edge (v, p): v is marked,
        or p was, or p is marked now; so they are a cover C with |C| = nu.
        Any order with children first gives the same marks: v is marked
        exactly when some child of v is unmarked.
        """
        parent, cover = self._parent, bytearray(self.n + 1)
        for v in self._order:  # all but the root n, children first
            p = parent[v]
            if not (cover[v] or cover[p]):
                cover[p] = 1
        return cover

    def maximum_matching(self) -> Matching:
        """The matching of :meth:`_cover`'s marks: each marked vertex with
        its largest unmarked child.

        Exact on trees: a marked vertex has an unmarked child, and every
        unmarked vertex but n has a marked parent, so the pairs are
        disjoint and number the marks, which cover every edge.
        """
        parent, cover = self._parent, self._cover()
        # Labels ascend, so p keeps its largest unmarked child.
        mate = {parent[v]: v for v in range(1, self.n) if cover[parent[v]] and not cover[v]}
        return Matching(tuple(mate.items()))

    def nullity(self) -> int:
        """Multiplicity of the zero eigenvalue: n - 2 * nu for trees."""
        return self.n - 2 * self._cover().count(1)

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
        rows = [0] * (n + 1)
        for u, v in self.edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        basis: dict[int, int] = {}
        for row in rows:
            while row:
                lead = row.bit_length()
                pivot = basis.get(lead)
                if pivot is None:
                    basis[lead] = row
                    break
                row ^= pivot
        return len(basis)

    def distance(self, u: int, v: int) -> int:
        """Edge count of the unique u-v path: u's depth below n is noted
        at each ancestor, and v climbs its parents to the first of them."""
        for x in (u, v):
            if not _is_label(x, self.n):
                raise LabelOutOfRange(f"label {x!r} outside 1..{self.n}")
        parent, up, d = self._parent, {}, 0
        while u:  # parent[n] = 0 ends the climb
            up[u] = d
            u, d = parent[u], d + 1
        d = 0
        while v not in up:
            v, d = parent[v], d + 1
        return d + up[v]

    def two_coloring(self) -> list[int]:
        """Proper 2-coloring (trees are bipartite); entry 0 is unused (-1).

        Colors alternate down from n along the peel order reversed, parents
        first, flipped so that vertex 1 has color 0.  Two vertices are at
        even distance exactly when they share a color.
        """
        parent, color = self._parent, [0] * (self.n + 1)  # n keeps color 0
        for v in reversed(self._order):
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


def _reject(n: int, canon: list[Edge]) -> NoReturn:
    """Raise the error of edges that make no tree, in order of precedence.
    n - 1 edges with no loop or repeat that do not peel down to n are not
    connected; the vertices reachable from 1 are counted on adjacency lists."""
    if len(set(canon)) != len(canon) or any(u == v for u, v in canon):
        raise LoopOrDuplicate("loops or repeated edges are not allowed")
    if len(canon) != n - 1:
        raise WrongEdgeCount(f"{len(canon)} edges, a tree on {n} vertices has {n - 1}")
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in canon:
        adj[u].append(v)
        adj[v].append(u)
    reached = bytearray(n + 1)
    reached[1], order = 1, [1]
    for u in order:
        for w in adj[u]:
            if not reached[w]:
                reached[w] = 1
                order.append(w)
    raise NotConnected(f"only {len(order)} of {n} vertices reachable")


def parse_edge_list(text: str) -> LabeledTree:
    """Inverse of :meth:`LabeledTree.to_edge_list`."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty edge-list input")
    _check_int_tokens(text)
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
    return LabeledTree(n, pairs)
