"""Labeled trees with exact matching, nullity and rank.

Vertices are labeled 1..n.  Every tree is validated on construction.  A
label is an int in 1..n; anything else raises :class:`LabelOutOfRange`.  The
type test of :func:`_is_label` is exact at a vertex count, a vertex argument
and every edge end, so a bool or another int subclass (an IntEnum member) is
no label.  One helper, :func:`_label_pairs`, owns the pair rule of a tree
and a :class:`Matching`; a tree then tests the range once, before its fill.
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
children first, as tuples that no caller can change in place.  Only a
rejected tree builds adjacency lists, to name its error.

The last two validations are kept as records of the edge tuple a tree
stores, its n and its three structure tuples.  A tree built from that very
tuple object and the same n, such as a rebuild from ``t.edges``, takes the
record and is not validated again.  That proves as much as a validation:
the constructor is a function of n and of the tuple's contents, and a tuple
of plain pairs of ints cannot change.  A rewritten ``edges`` slot is another
object, so its rebuild is validated in full, and a rewritten structure slot
is never read by a rebuild, which reads the record.

A tree and a matching keep each edge they are given that is already a
plain ``tuple`` (u, v) with u <= v, and rebuild any other.  So a tree
rebuilt from another's edges, or from a Prüfer decode, allocates no pair.
The edges of a tree or a matching are a tuple.  A tree keeps a given tuple
whose every pair it keeps, so a rebuild from an evicted tree's edges takes a
record again.

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
from operator import is_, itemgetter
from typing import Iterable, NoReturn

from .degseq import DegreeSequence, _ints
from .errors import (
    LabelOutOfRange,
    LoopOrDuplicate,
    NotConnected,
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


def _label_pairs(pairs: Iterable) -> list[Edge]:
    """The pairs as (u, v) with u <= v, sorted, every label an exact int.  A
    plain tuple that is already such a pair is kept itself; any other pair
    is rebuilt.  A label that is no int may fail before the type test, in a
    comparison, and an edge that is no pair fails in unpacking."""
    try:
        canon = sorted([
            e if type(e) is tuple and len(e) == 2 and e[0] <= e[1] else _pair(e) for e in pairs
        ])
        if _ints(chain.from_iterable(canon)):
            return canon
    except (TypeError, ValueError):
        pass
    raise LabelOutOfRange("edges must be pairs of integer labels")


@dataclass(frozen=True)
class Matching:
    """A set of pairwise non-adjacent edges, kept in sorted normal form."""

    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(_label_pairs(self.edges)))

    @property
    def size(self) -> int:
        return len(self.edges)

    def is_valid_in(self, tree: "LabeledTree") -> bool:
        """Every edge belongs to the tree and no two edges share a vertex."""
        n, parent, edges = tree.n, tree._parent, self.edges  # int labels, u <= v
        return len(set(chain.from_iterable(edges))) == 2 * len(edges) and all(
            1 <= u <= v <= n and (parent[u] == v or parent[v] == u) for u, v in edges
        )


# How many validations a tree keeps for reuse.  A certification builds a
# sequence's min and max trees before verifying either, so two records let
# both of verify's rebuilds reuse the builders' validations; the CLI's
# ``verify`` builds and verifies one tree at a time and needs one.
_RECORDS_KEPT = 2
# The last validations, newest first: (edges, n, deg, parent, order), where
# edges is the tuple the tree stores.  A rebuild finds its record by that
# tuple's identity, which no other object can take while the record holds
# it.  The tuple of records is replaced whole, never changed in place, so a
# thread reads a consistent one; a record lost to a racing thread's update
# costs only a validation.
_records: tuple[tuple, ...] = ()


def _remember(record: tuple) -> None:
    global _records
    _records = (record,) + _records[: _RECORDS_KEPT - 1]


class LabeledTree:
    """Immutable labeled tree on vertices 1..n stored as an edge set."""

    __slots__ = ("edges", "n", "_deg", "_parent", "_order")  # the order of a record

    def __init__(self, n: int, edges: Iterable[Edge]):
        if type(n) is not int:  # the exact type test of _is_label
            raise LabelOutOfRange(f"vertex count must be an int, got {n!r}")
        for record in _records:  # edges is a tree's own tuple: reuse its validation
            if record[0] is edges and record[1] == n:
                self._keep(record)
                return
        canon = _label_pairs(edges)
        # One range test: sorted pairs (u, v) with u <= v lead with the least.
        if canon and (canon[0][0] < 1 or max(map(itemgetter(1), canon)) > n):
            u, v = next(e for e in canon if e[0] < 1 or e[1] > n)
            raise LabelOutOfRange(f"edge ({u},{v}) outside 1..{n}")
        if len(canon) == n - 1:  # else no tree, so no n + 1 entries
            deg, x = [0] * (n + 1), [0] * (n + 1)  # x[v]: XOR of v's neighbours
            for u, v in canon:
                deg[u] += 1
                deg[v] += 1
                x[u] ^= v
                x[v] ^= u
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
                # A tuple whose every pair was kept is stored itself, so a
                # rebuild from this tree's edges finds the record.
                if not (type(edges) is tuple and all(map(is_, edges, canon))):
                    edges = tuple(canon)
                record = (edges, n, tuple(deg), tuple(x), tuple(order))
                _remember(record)
                self._keep(record)
                return
        _reject(n, canon)

    def _keep(self, record: tuple) -> None:
        for name, value in zip(self.__slots__, record):
            object.__setattr__(self, name, value)

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
