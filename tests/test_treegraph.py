"""Labeled-tree structure, matching, nullity, rank and serialization."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis.strategies import randoms

from conftest import fraction_rank, labeled_trees
from treenullity import (
    LabelOutOfRange,
    LoopOrDuplicate,
    NotConnected,
    SizeLimitExceeded,
    WrongEdgeCount,
    bounds,
    from_edges,
    parse_edge_list,
    prufer_decode,
    prufer_encode,
    stats,
)
from treenullity.treegraph import Matching, _is_label


def path(n):
    return from_edges(n, [(i, i + 1) for i in range(1, n)])


def star(n):
    return from_edges(n, [(i, n) for i in range(1, n)])


FIG_1A_EDGES = [
    (1, 11), (10, 11), (9, 11), (8, 11),
    (2, 10), (7, 10), (3, 9), (6, 9), (4, 8), (5, 7),
]


class TestConstruction:
    @given(labeled_trees(max_n=20), randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_neighbors_ascending(self, t, rng):
        # Edges in any order and orientation give the same ascending lists.
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in t.edges]
        rng.shuffle(edges)
        rebuilt = from_edges(t.n, edges)
        assert rebuilt == t
        for v in range(1, t.n + 1):
            nbrs = rebuilt.neighbors(v)
            assert list(nbrs) == sorted(nbrs) and nbrs == t.neighbors(v)

    def test_single_edge(self):
        t = from_edges(2, [(1, 2)])
        assert t.edges == ((1, 2),)

    def test_wrong_edge_count(self):
        with pytest.raises(WrongEdgeCount):
            from_edges(3, [(1, 2), (1, 3), (2, 3)])

    def test_loop_or_duplicate(self):
        with pytest.raises(LoopOrDuplicate):
            from_edges(4, [(1, 2), (3, 4), (3, 4)])
        with pytest.raises(LoopOrDuplicate):
            from_edges(2, [(1, 1)])

    def test_not_connected(self):
        # Triangle plus path: n - 1 distinct edges but two components.
        with pytest.raises(NotConnected):
            from_edges(6, [(1, 2), (2, 3), (3, 1), (5, 6), (4, 5)])

    def test_not_connected_counts_from_vertex_1(self):
        # Vertex 1 reaches 3 vertices and vertex n only 2.
        with pytest.raises(NotConnected, match="only 3 of 5"):
            from_edges(5, [(1, 2), (2, 3), (3, 1), (4, 5)])

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            from_edges(3, [(1, 2), (2, 4)])

    @pytest.mark.parametrize(
        "n, edges, error",
        [
            (3, [(1, 1), (2, 9)], LabelOutOfRange),  # a range error outranks a loop
            (3, [(1, 2), (1, 2), (2, 3)], LoopOrDuplicate),  # outranks the edge count
            (2, [(1, 1)], LoopOrDuplicate),  # one edge, the right count, but a loop
            (3, [(1, 2), (1, 2)], LoopOrDuplicate),  # n - 1 edges, a repeat, disconnected
            (4, [(1, 2), (2, 1), (3, 4)], LoopOrDuplicate),  # a repeat in either orientation
        ],
    )
    def test_error_precedence(self, n, edges, error):
        with pytest.raises(error):
            from_edges(n, edges)

    @pytest.mark.parametrize("bad", [(1, 2, 3), (1,)])
    def test_edge_not_a_pair(self, bad):
        with pytest.raises(LabelOutOfRange, match="edges must be pairs"):
            from_edges(3, [bad, (2, 3)])

    @pytest.mark.parametrize("label", [2.0, "2", None])
    def test_label_not_an_int(self, label):
        with pytest.raises(LabelOutOfRange):
            from_edges(3, [(1, label), (label, 3)])

    def test_immutable(self):
        t = path(3)
        with pytest.raises(AttributeError):
            t.n = 5


class TestLabelRule:
    """Every way a label gets in agrees with ``_is_label``: 2 is a label of
    a tree on 1..3, and each other value raises LabelOutOfRange."""

    @pytest.mark.parametrize(
        "x, ok", [(2, True), (2.0, False), ("2", False), (None, False),
                  (0, False), (4, False), (-1, False)],
    )
    def test_entry_points(self, x, ok):
        assert _is_label(x, 3) is ok
        t = path(3)
        entry_points = [
            lambda: from_edges(3, [(1, x), (x, 3)]),
            lambda: t.degree(x),
            lambda: t.neighbors(x),
            lambda: t.distance(1, x),
            lambda: prufer_decode((x,), 3),
        ]
        for call in entry_points:
            if ok:
                call()
            else:
                with pytest.raises(LabelOutOfRange):
                    call()
        if isinstance(x, int):  # an int label is in or out of range in the tree
            assert Matching(((1, x),)).is_valid_in(t) is ok
        else:  # anything else is no label, so no matching edge end either
            with pytest.raises(LabelOutOfRange):
                Matching(((1, x),))

    def test_vertex_count_not_an_int(self):
        with pytest.raises(LabelOutOfRange):
            from_edges(3.0, [(1, 2), (2, 3)])
        with pytest.raises(LabelOutOfRange):
            prufer_decode((2,), 3.0)


class TestDegreeMultiset:
    def test_star_9(self):
        assert star(9).degree_multiset().degrees == (1,) * 8 + (8,)

    def test_path_4(self):
        assert path(4).degree_multiset().degrees == (1, 1, 2, 2)

    def test_figure_1a(self):
        t = from_edges(11, FIG_1A_EDGES)
        assert t.degree_multiset().degrees == (1, 1, 1, 1, 1, 1, 2, 2, 3, 3, 4)


class TestMatching:
    def test_path_4(self):
        m = path(4).maximum_matching()
        assert m.size == 2
        assert m.edges == ((1, 2), (3, 4))

    def test_star_9(self):
        m = star(9).maximum_matching()
        assert m.size == 1
        assert m.edges == ((8, 9),)

    def test_figure_1a(self):
        t = from_edges(11, FIG_1A_EDGES)
        assert t.maximum_matching().size == 5  # n - l

    def test_deterministic(self):
        t = prufer_decode((3, 3, 5, 5), 6)
        assert t.maximum_matching() == t.maximum_matching()

    def test_memoised_on_the_tree(self):
        t = prufer_decode((3, 3, 5, 5), 6)
        fresh = prufer_decode((3, 3, 5, 5), 6)
        assert t.maximum_matching() is t.maximum_matching()
        # Equality and hashing see only n and the edges, not the cached matching.
        assert t == fresh and hash(t) == hash(fresh)
        assert fresh.maximum_matching() == t.maximum_matching()

    @pytest.mark.parametrize(
        "edges", [((1, "2"),), ((1, 2, 3),), ((1,),), ((1, None),), (("a", "b"),)]
    )
    def test_normal_form_follows_the_label_rule(self, edges):
        with pytest.raises(LabelOutOfRange):
            Matching(edges)

    def test_validity_predicate(self):
        from treenullity import Matching

        t = path(4)
        assert Matching(((1, 2), (3, 4))).is_valid_in(t)
        assert not Matching(((1, 3),)).is_valid_in(t)  # not a tree edge
        assert not Matching(((1, 2), (2, 3))).is_valid_in(t)  # shares vertex 2

    @pytest.mark.parametrize(
        "edges",
        [
            ((0, 1),),  # label 0
            ((4, 5),),  # label n + 1
            ((-1, 4),),  # would wrap around as a list index
            ((2, 4),),  # not a tree edge
            ((1, 2), (2, 3)),  # two edges share vertex 2
            ((1, 2), (1, 2)),  # one edge twice
            ((2, 3.0),),  # not an integer label
            ((2.0, 3.0),),  # no integer label at all
            (("2", "3"),),  # strings
            (([2], [3]),),  # unhashable lists, refused when the matching is built
            ((2, 2),),  # a loop
            ((1, 2), (3, 4.0)),  # a bad label after a good edge
        ],
    )
    def test_forged_matching_is_invalid(self, edges):
        # A label that is no int is refused when the matching is built; an
        # int pair that is not a matching of the tree fails is_valid_in.
        if all(isinstance(x, int) for e in edges for x in e):
            assert Matching(edges).is_valid_in(path(4)) is False
        else:
            with pytest.raises(LabelOutOfRange):
                Matching(edges)

    def test_bool_label_keeps_its_verdict(self):
        # bool is an int, so True names vertex 1.
        assert Matching(((True, 2),)).is_valid_in(path(4)) is True
        assert Matching(((True, 3),)).is_valid_in(path(4)) is False

    @given(labeled_trees())
    @settings(max_examples=200, deadline=None)
    def test_valid_and_bounded(self, t):
        m = t.maximum_matching()
        assert m.is_valid_in(t)
        n = t.n
        leaf_count = len(t.leaves())
        if n > 2:
            assert m.size <= min(n - leaf_count, n // 2)
        st = stats(t.degree_multiset())
        assert m.size >= n - st.a
        assert t.independence_number() <= st.a
        assert t.nullity() <= 2 * st.a - n

    @pytest.mark.parametrize("shape", ["path", "near-star"])
    def test_large_trees_are_fast(self, shape):
        # A near-star: center 1, joined to n through n - 1.
        n = 10**5
        if shape == "path":
            t, nu = path(n), n // 2
        else:
            t, nu = from_edges(n, [(1, v) for v in range(2, n)] + [(n - 1, n)]), 2
        start = time.perf_counter()
        assert t.maximum_matching().size == nu
        assert time.perf_counter() - start < 5.0
        start = time.perf_counter()
        assert len(prufer_encode(t)) == n - 2
        assert time.perf_counter() - start < 5.0


class TestNullityIndependence:
    def test_path_3(self):
        assert path(3).nullity() == 1

    def test_star_9(self):
        assert star(9).nullity() == 7

    def test_figure_2b_tree(self):
        edges = [(1, 15), (2, 15), (3, 15), (4, 15), (4, 14), (5, 14), (6, 14),
                 (7, 14), (7, 13), (7, 12), (7, 11), (8, 11), (9, 11), (10, 11)]
        t = from_edges(15, edges)
        assert t.nullity() == 7
        assert t.adjacency_rank_exact() == 2 * t.maximum_matching().size

    def test_independence_examples(self):
        assert path(4).independence_number() == 2
        assert star(9).independence_number() == 8
        assert from_edges(11, FIG_1A_EDGES).independence_number() == 6

    @given(labeled_trees())
    @settings(max_examples=150, deadline=None)
    def test_gallai_and_parity(self, t):
        nu = t.maximum_matching().size
        assert t.independence_number() + nu == t.n
        assert t.nullity() == t.n - 2 * nu >= 0
        assert t.nullity() % 2 == t.n % 2


class TestRank:
    def test_single_edge(self):
        assert from_edges(2, [(1, 2)]).adjacency_rank_exact() == 2

    def test_star_4(self):
        assert star(4).adjacency_rank_exact() == 2

    def test_size_limit(self):
        t = path(5)
        with pytest.raises(SizeLimitExceeded):
            t.adjacency_rank_exact(limit=4)

    def test_against_fraction_elimination(self):
        rng = random.Random(0xBA5E)
        for _ in range(60):
            n = rng.randint(2, 12)
            code = tuple(rng.randint(1, n) for _ in range(n - 2))
            t = prufer_decode(code, n)
            assert t.adjacency_rank_exact() == fraction_rank(t)

    def test_every_labeled_tree_up_to_7(self):
        # One tree per Prüfer code is every labeled tree: 18,248 of them.
        # The rational rank is independent of both the GF(2) rank and the
        # walk along the kept BFS behind maximum_matching.
        count = 0
        for n in range(2, 8):
            for code in itertools.product(range(1, n + 1), repeat=n - 2):
                t = prufer_decode(code, n)
                rank = fraction_rank(t)
                assert t.adjacency_rank_exact() == rank, t
                m = t.maximum_matching()
                assert 2 * m.size == rank and m.is_valid_in(t), t
                count += 1
        assert count == 18_248

    @given(labeled_trees(max_n=16))
    @settings(max_examples=150, deadline=None)
    def test_rank_is_twice_matching(self, t):
        assert t.adjacency_rank_exact() == 2 * t.maximum_matching().size

    def test_rank_at_default_limit_boundary(self):
        rng = random.Random(64)
        code = tuple(rng.randint(1, 64) for _ in range(62))
        t = prufer_decode(code, 64)
        assert t.adjacency_rank_exact() == 2 * t.maximum_matching().size


class TestDistance:
    def test_path_ends(self):
        assert path(4).distance(1, 4) == 3

    def test_identity(self):
        assert path(4).distance(2, 2) == 0

    def test_bad_label(self):
        with pytest.raises(LabelOutOfRange):
            path(4).distance(1, 9)

    @given(labeled_trees())
    @settings(max_examples=100, deadline=None)
    def test_two_coloring_matches_parity(self, t):
        color = t.two_coloring()
        for u, v in t.edges:
            assert color[u] != color[v]
        assert (color[1] == color[t.n]) == (t.distance(1, t.n) % 2 == 0)

    @given(labeled_trees())
    @settings(max_examples=100, deadline=None)
    def test_two_coloring_is_distance_parity_from_1(self, t):
        assert t.two_coloring() == [-1] + [t.distance(1, v) % 2 for v in range(1, t.n + 1)]


class TestSerialization:
    def test_edge_list_round_trip(self):
        t = from_edges(11, FIG_1A_EDGES)
        assert parse_edge_list(t.to_edge_list()) == t

    def test_edge_list_format(self):
        assert path(3).to_edge_list() == "3\n1 2\n2 3\n"

    def test_dot_stable(self):
        assert star(4).to_dot() == "graph {\n  v1 -- v4;\n  v2 -- v4;\n  v3 -- v4;\n}\n"

    def test_nullity_bounds_interplay(self):
        t = from_edges(11, FIG_1A_EDGES)
        b = bounds(t.degree_multiset())
        assert b.nullity_min <= t.nullity() <= b.nullity_max
