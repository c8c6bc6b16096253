"""Shared hypothesis strategies and oracle helpers for the test suite."""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from fractions import Fraction

from hypothesis import strategies as st

from treenullity import DegreeSequence, LabeledTree, count_trees
from treenullity.oracle import _code_nu, _codes, _column_edges
from treenullity.treegraph import Edge


@st.composite
def prufer_codes(draw, min_n: int = 2, max_n: int = 12):
    """(code, n) pairs; every code is a valid Prüfer code for its n."""
    n = draw(st.integers(min_n, max_n))
    code = draw(st.lists(st.integers(1, n), min_size=n - 2, max_size=n - 2))
    return tuple(code), n


def prufer_decode(code, n: int) -> LabeledTree:
    """The tree on 1..n with Prüfer code ``code``, by the textbook decode:
    a heap of the current leaves, each symbol in turn joined to the
    smallest of them, and the last two leaves, one of which is n, joined.
    It shares no code with the library's decode (:func:`library_decode`)."""
    deg = [1] * (n + 1)
    for x in code:
        deg[x] += 1
    heap = [v for v in range(1, n + 1) if deg[v] == 1]
    heapq.heapify(heap)
    edges = []
    for x in code:
        edges.append((heapq.heappop(heap), x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(heap, x)
    edges.append((heapq.heappop(heap), n))
    return LabeledTree(n, edges)


def library_decode(code, n: int) -> list[Edge]:
    """The library's decode of ``code``, edges in walk order: the leaf
    column of ``_code_nu`` read by ``_column_edges``, as the conjecture
    scan and ``random_tree`` read it."""
    deg = [1] * (n + 1)
    for x in code:
        deg[x] += 1
    return _column_edges(code, _code_nu(code, deg)[1])


def prufer_encode(tree: LabeledTree) -> tuple[int, ...]:
    """Inverse of :func:`prufer_decode`, by the textbook elimination over
    ``tree.edges`` alone: n - 2 times, remove the smallest leaf and write
    down its neighbour.  It shares no code with the library's decode."""
    adj: list[set[int]] = [set() for _ in range(tree.n + 1)]
    for a, b in tree.edges:
        adj[a].add(b)
        adj[b].add(a)
    leaves = [v for v in range(1, tree.n + 1) if len(adj[v]) == 1]
    heapq.heapify(leaves)
    code = []
    for _ in range(tree.n - 2):
        leaf = heapq.heappop(leaves)
        (p,) = adj[leaf]
        code.append(p)
        adj[p].remove(leaf)
        if len(adj[p]) == 1:
            heapq.heappush(leaves, p)
    return tuple(code)


def enumerate_trees(s: DegreeSequence, visitor) -> int:
    """Visit every labeled tree realizing ``s`` once, in the lexicographic
    order of its Prüfer code, and return how many there were."""
    total = count_trees(s)
    for code in _codes(s, 0, total):
        visitor(prufer_decode(code, s.n))
    return total


def every_labeled_tree(max_n: int) -> list[LabeledTree]:
    """Every labeled tree with n <= ``max_n``: the one-vertex tree, then one
    tree per Prüfer code (18,249 trees for ``max_n`` = 7)."""
    return [LabeledTree(1, [])] + [
        prufer_decode(code, n)
        for n in range(2, max_n + 1)
        for code in itertools.product(range(1, n + 1), repeat=n - 2)
    ]


@st.composite
def labeled_trees(draw, min_n: int = 2, max_n: int = 12) -> LabeledTree:
    code, n = draw(prufer_codes(min_n, max_n))
    return prufer_decode(code, n)


@st.composite
def degree_sequences(draw, min_n: int = 2, max_n: int = 12) -> DegreeSequence:
    """Valid tree degree sequences via random Prüfer symbol counts."""
    code, n = draw(prufer_codes(min_n, max_n))
    counts = [0] * (n + 1)
    for x in code:
        counts[x] += 1
    return DegreeSequence(tuple(c + 1 for c in counts[1:]))


def fraction_rank(tree: LabeledTree) -> int:
    """Independent rank oracle: Gaussian elimination over exact rationals."""
    n = tree.n
    m = [[Fraction(0)] * n for _ in range(n)]
    for u, v in tree.edges:
        m[u - 1][v - 1] = Fraction(1)
        m[v - 1][u - 1] = Fraction(1)
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, n) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, n):
            f = m[i][col] / m[rank][col]
            if f:
                for j in range(col, n):
                    m[i][j] -= f * m[rank][j]
        rank += 1
    return rank


def neighbours(tree: LabeledTree, v: int) -> list[int]:
    """The neighbours of ``v`` in ascending order, read off ``tree.edges``."""
    return sorted(b if a == v else a for a, b in tree.edges if v in (a, b))


def degrees(tree: LabeledTree) -> list[int]:
    """The degree of each label of ``tree``, counted off ``tree.edges`` in
    one pass; entry 0 is unused."""
    deg = [0] * (tree.n + 1)
    for a, b in tree.edges:
        deg[a] += 1
        deg[b] += 1
    return deg


def distance(tree: LabeledTree, u: int, v: int) -> int:
    """Edge count of the u-v path, by a breadth-first search of its own over
    ``tree.edges``; it shares no code with the library's parent climb."""
    seen, frontier, d = {u}, [u], 0
    while v not in seen:
        assert frontier, f"{v} is not reachable from {u}"
        frontier = [y for x in frontier for y in neighbours(tree, x) if y not in seen]
        seen.update(frontier)
        d += 1
    return d


def matching_number(tree: LabeledTree) -> int:
    """Matching number by the two-state tree DP over ``tree.edges`` alone,
    rooted at 1: ``free[v]`` is the largest matching of v's subtree that
    leaves v unmatched, ``best[v]`` the largest one.  It takes no greedy
    step, so it shares no rule with the library's walks."""
    adj: list[list[int]] = [[] for _ in range(tree.n + 1)]
    for a, b in tree.edges:
        adj[a].append(b)
        adj[b].append(a)
    parent = [0] * (tree.n + 1)
    order = [1]
    for v in order:  # the list grows as it is read: a BFS from 1
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    free = [0] * (tree.n + 1)
    best = [0] * (tree.n + 1)
    for v in reversed(order):
        kids = [w for w in adj[v] if w != parent[v]]
        free[v] = sum(best[w] for w in kids)
        best[v] = max([free[v]] + [free[v] - best[w] + free[w] + 1 for w in kids])
    return best[1]


def slow_matching_histogram(s: DegreeSequence) -> dict[int, int]:
    """Histogram of matching numbers over every tree of ``s``, each decoded
    by :func:`prufer_decode` and measured by :func:`matching_number`, so it
    shares neither the decode nor the greedy rule with the counting DP."""
    hist: Counter[int] = Counter()
    enumerate_trees(s, lambda t: hist.update([matching_number(t)]))
    return dict(hist)


def code_histogram(s: DegreeSequence) -> dict[int, int]:
    """Histogram of matching numbers by walking every Prüfer code of ``s``
    through the fused decode-and-match loop."""
    deg = [0, *s.degrees]
    return dict(Counter(_code_nu(code, deg)[0] for code in _codes(s, 0, count_trees(s))))
