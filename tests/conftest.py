"""Shared hypothesis strategies and oracle helpers for the test suite."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from hypothesis import strategies as st

from treenullity import (
    DegreeSequence,
    LabeledTree,
    count_trees,
    enumerate_trees,
    prufer_decode,
)
from treenullity.oracle import _code_nu, _codes


@st.composite
def prufer_codes(draw, min_n: int = 2, max_n: int = 12):
    """(code, n) pairs; every code is a valid Prüfer code for its n."""
    n = draw(st.integers(min_n, max_n))
    code = draw(st.lists(st.integers(1, n), min_size=n - 2, max_size=n - 2))
    return tuple(code), n


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


def slow_matching_histogram(s: DegreeSequence) -> dict[int, int]:
    """Histogram of matching numbers via the public enumeration API and
    ``LabeledTree.maximum_matching``.  That applies the same rule as the
    fused loop (along the elimination walk, a leaf to its parent when both
    are free, exact on trees because a free leaf's edge is pendant), but
    walks each built tree on its own, not the code being decoded."""
    hist: Counter[int] = Counter()
    enumerate_trees(s, lambda t: hist.update([t.maximum_matching().size]))
    return dict(hist)


def code_histogram(s: DegreeSequence) -> dict[int, int]:
    """Histogram of matching numbers by walking every Prüfer code of ``s``
    through the fused decode-and-match loop."""
    deg = [0, *s.degrees]
    return dict(Counter(_code_nu(code, deg)[0] for code in _codes(s, 0, count_trees(s))))
