"""Extremal tree constructions and their certificates."""

import dataclasses
import random
import time
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    degree_sequences,
    degrees,
    distance,
    every_labeled_tree,
    labeled_trees,
    matching_number,
    neighbours,
)
from treenullity import (
    ConstructionInvariantViolated,
    DegreeSequence,
    LabeledTree,
    MaxCertificate,
    bounds,
    build_max,
    build_min,
    internal_leaf_adjacency_violations,
    parse_sequence,
    random_degree_sequence,
    random_tree,
    tree_degree_sequences,
    verify_certificate,
)
from treenullity.extremal import BRANCH_FEW_LEAVES, BRANCH_MANY_LEAVES
from treenullity.treegraph import Matching

FIG_1A = parse_sequence("1,1,1,1,1,1,2,2,3,3,4")
FIG_1B = parse_sequence("1,1,1,1,2,2,2,2,2,3,3")
STAR_9 = parse_sequence("1,1,1,1,1,1,1,1,8")
FIG_2B = DegreeSequence((1,) * 10 + (2, 4, 4, 4, 4))
FIG_2C = DegreeSequence((1,) * 11 + (3, 3, 3, 3, 3, 4, 4))
FEW_LEAVES = parse_sequence("1,1,1,2,2,2,2,2,3")  # min: path block (4, 5, 6)
MANY_LEAVES = parse_sequence("1,1,1,1,1,2,3,4")  # min: no path block
OMEGA_3 = parse_sequence("1,1,1,1,1,1,2,2,2,2,3,3,4")  # max: omega = 3


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def _shape(*fields):
    """The one failure of a certificate whose named fields have the wrong shape."""
    return {"certificate-shape": "bad " + ", ".join(fields)}


class TestBuildMin:
    def test_figure_1a_exact_edges(self):
        cert = build_min(FIG_1A)
        want = {(1, 11), (10, 11), (9, 11), (8, 11), (2, 10),
                (7, 10), (3, 9), (6, 9), (4, 8), (5, 7)}
        assert set(cert.tree.edges) == want
        assert cert.branch == BRANCH_MANY_LEAVES
        assert cert.matching.size == 5
        assert cert.tree.nullity() == 1

    def test_figure_1b_values(self):
        cert = build_min(FIG_1B)
        assert cert.branch == BRANCH_FEW_LEAVES
        assert cert.tree.degree_multiset() == FIG_1B
        assert cert.matching.size == 5
        assert cert.tree.nullity() == 1
        # Path block v_{l+1}..v_{n-l} joined to the leafy part at v_1.
        assert cert.path_block == (5, 6, 7)
        assert (1, 5) in cert.tree.edges

    def test_path_3(self):
        cert = build_min(parse_sequence("1,1,2"))
        assert cert.tree.degree_multiset().degrees == (1, 1, 2)
        assert cert.matching.size == 1
        assert cert.tree.nullity() == 1

    def test_single_edge(self):
        cert = build_min(parse_sequence("1,1"))
        assert cert.tree.edges == ((1, 2),)
        assert cert.matching.edges == ((1, 2),)
        assert cert.branch == BRANCH_MANY_LEAVES
        assert cert.path_block == ()

    def test_singleton_path_block(self):
        cert = build_min(parse_sequence("1,1,2,2,2"))
        assert cert.branch == BRANCH_FEW_LEAVES
        assert cert.path_block == (3,)
        assert cert.matching.size == 2

    def test_deterministic_bytes(self):
        import json

        a = json.dumps(build_min(FIG_1B).to_json_dict())
        b = json.dumps(build_min(FIG_1B).to_json_dict())
        assert a == b


class TestBuildMax:
    def test_star(self):
        cert = build_max(STAR_9)
        assert cert.tree.degree_multiset() == STAR_9
        assert cert.omega == 0
        assert cert.v_k == ()
        assert cert.v_mk is None
        assert cert.p_k == ()
        assert cert.tree.nullity() == 7
        assert cert.m_s.size == 1

    def test_figure_2b(self):
        cert = build_max(FIG_2B)
        assert cert.tree.degree_multiset() == FIG_2B
        assert cert.omega == 2
        assert len(cert.v_k) == 2
        assert cert.l_mk == 2
        assert cert.m_s.size == 4
        assert cert.tree.nullity() == 7
        assert distance(cert.tree, cert.v_k[0], cert.v_k[1]) == 2

    def test_figure_2c(self):
        cert = build_max(FIG_2C)
        assert cert.omega == 2
        assert cert.l_mk == 0
        assert cert.m_s.size == 5
        assert cert.tree.nullity() == 8

    def test_single_edge(self):
        cert = build_max(parse_sequence("1,1"))
        assert cert.omega == 0
        assert cert.m_s.edges == ((1, 2),)

    def test_path_realization(self):
        # All internal degrees 2: the unique realization is a path.
        cert = build_max(parse_sequence("1,1,2,2,2"))
        assert sorted(cert.tree.degree_multiset().degrees) == [1, 1, 2, 2, 2]
        assert cert.omega == 1
        assert cert.m_s.size == 2

    def test_on_path_exceptions_are_only_between_connectors(self):
        # Degree-2 vertices wedged between two connectors have no leaf
        # neighbor; everything off the connector path must have one.
        cert = build_max(parse_sequence("1,1,2,2,2,2,2"))
        strict = internal_leaf_adjacency_violations(cert.tree, cert.v_k)
        assert strict  # the documented exception exists on paths with n >= 6
        assert set(strict) <= set(cert.p_k)

    def test_deterministic_bytes(self):
        import json

        a = json.dumps(build_max(FIG_2C).to_json_dict())
        b = json.dumps(build_max(FIG_2C).to_json_dict())
        assert a == b


# Well-formed forgeries of the min path block and the max P_K and V_K:
# (kind, s, forged fields, failed checks).
REORDERED_FORGERIES = [
    # FEW_LEAVES has the path block (4, 5, 6), reversed, rotated by
    # one, and with a repeated label.
    ("min", FEW_LEAVES, {"path_block": (6, 5, 4)}, set()),
    ("min", FEW_LEAVES, {"path_block": (5, 6, 4)}, {"path-block"}),
    ("min", FEW_LEAVES, {"path_block": (4, 5, 4)}, {"path-block"}),
    ("min", FEW_LEAVES, {"path_block": (5, 4, 5)}, {"path-block"}),
    (
        "min",
        MANY_LEAVES,
        {"branch": BRANCH_FEW_LEAVES, "path_block": ()},
        {"branch-condition", "path-block"},
    ),
    # OMEGA_3 has P_K (4, 12, 6, 11, 8) and M_K ((4, 12), (6, 11)).
    ("max", OMEGA_3, {"p_k": (8, 11, 6, 12, 4)}, {"p_k-path"}),
    # Along this P_K, V_K's members 8 and 4 are at distance 4.
    (
        "max",
        OMEGA_3,
        {"p_k": (12, 6, 11, 8, 4)},
        {"p_k-path", "m_k-on-path", "v_k-consecutive-distance-2"},
    ),
    # No consecutive pair is a tree edge, although both M_K edges
    # join two P_K vertices that are adjacent in the tree.
    ("max", OMEGA_3, {"p_k": (4, 6, 8, 12, 11)}, {"p_k-path", "m_k-on-path"}),
    # Each forgery below breaks one clause of p_k-path and keeps the
    # others.  A repeated vertex: the walk 6-11-8-10-8 over the forged
    # V_K (6, 8, 10) has the right length, ends and steps.
    (
        "max",
        OMEGA_3,
        {"v_k": (6, 8, 10), "p_k": (6, 11, 8, 10, 8)},
        {"p_k-path", "m_k-on-path", "matching-m_j-valid",
         "v_k-consecutive-distance-2", "v_k-pairwise-even-distance",
         "internal-off-path-leaf-adjacency"},
    ),
    # A V_K member off P_K: the leaf 5 takes the place of 6.
    (
        "max",
        OMEGA_3,
        {"v_k": (4, 5, 8)},
        {"p_k-path", "v_k-internal-increasing", "v_k-consecutive-distance-2",
         "internal-edge-identity"},
    ),
    # A non-edge step, 4-11, between the right ends.
    (
        "max",
        OMEGA_3,
        {"p_k": (6, 12, 4, 11, 8)},
        {"p_k-path", "m_k-on-path", "v_k-consecutive-distance-2"},
    ),
    # P_K walked toward n, each step from a child to its parent,
    # to the connector 4 named as v_mk (both ends have no leaf).
    ("max", OMEGA_3, {"p_k": (8, 11, 6, 12, 4), "v_mk": 4}, set()),
]


def _relabelled(cert, label):
    """``cert`` with every vertex v renamed ``label[v]``: V_K re-sorted, and
    P_K in its own order, which still ends at v_mk."""
    def edges(m):
        return tuple((label[u], label[v]) for u, v in m.edges)

    fields = {"tree": LabeledTree(cert.tree.n, edges(cert.tree))}
    if isinstance(cert, MaxCertificate):
        fields.update(
            v_k=tuple(sorted(label[v] for v in cert.v_k)),
            v_mk=label.get(cert.v_mk),
            p_k=tuple(label[v] for v in cert.p_k),
            m_k=Matching(edges(cert.m_k)),
            m_j=Matching(edges(cert.m_j)),
            m_s=Matching(edges(cert.m_s)),
        )
    else:
        fields.update(
            matching=Matching(edges(cert.matching)),
            path_block=tuple(label[v] for v in cert.path_block),
        )
    return dataclasses.replace(cert, **fields)


class TestVerify:
    @pytest.mark.parametrize("s", [FIG_1A, FIG_1B, STAR_9, FIG_2B, FIG_2C])
    def test_produced_certificates_pass(self, s):
        for cert in (build_min(s), build_max(s)):
            report = verify_certificate(cert, s)
            assert report.ok, report.failures()

    def test_reversed_labels_verify(self):
        # v -> n + 1 - v puts the leaves on the large labels and walks P_K
        # from the largest connector down; a random relabelling, or swapping
        # the connectors 3 and 4 of P_K (2, 7, 3, 6, 4), also breaks the
        # connectors' label order along P_K.  Verify reads no label order.
        swap = parse_sequence("1,1,2,2,2,2,2,2")
        cases = [(swap, build_max(swap), {**{v: v for v in range(1, 9)}, 3: 4, 4: 3})]
        rng = random.Random(1)
        for n in range(2, 10):
            labels = range(1, n + 1)
            reverse = {v: n + 1 - v for v in labels}
            for s in tree_degree_sequences(n):
                for cert in (build_min(s), build_max(s)):
                    cases.append((s, cert, reverse))
                    cases += [(s, cert, dict(zip(labels, rng.sample(labels, n)))) for _ in range(5)]
        assert len(cases) == 1 + 90 * 6
        for s, cert, label in cases:
            report = verify_certificate(_relabelled(cert, label), s)
            assert report.ok, (s, label, report.failures())

    def test_star_with_its_hub_off_n_verifies(self):
        s = parse_sequence("1,1,1,1,4")
        cert = build_max(s)
        assert cert.m_s.edges == ((1, 5),)
        relabelled = _relabelled(cert, {1: 1, 2: 5, 3: 3, 4: 4, 5: 2})
        assert relabelled.m_s.edges == ((1, 2),)
        report = verify_certificate(relabelled, s)
        assert report.ok, report.failures()
        assert _check(report, "m_s-size-formula").detail == "1 vs n - a = 1"

    def test_detects_deleted_edge(self):
        cert = build_min(FIG_1A)
        # Outside input may carry any object as its tree.
        broken = types.SimpleNamespace(n=cert.tree.n, edges=cert.tree.edges[1:])
        report = verify_certificate(dataclasses.replace(cert, tree=broken), FIG_1A)
        assert not report.ok
        assert report.checks[0].name == "tree-structure"
        assert report.checks[0].detail in ("WrongEdgeCount", "NotConnected")

    def test_detects_degree_mismatch(self):
        cert = build_min(FIG_1A)
        report = verify_certificate(cert, FIG_1B)
        assert not report.ok
        entry = _check(report, "degree-multiset")
        assert not entry.passed
        assert entry.detail == f"tree {FIG_1A} vs input {FIG_1B}"

    def test_detects_wrong_omega(self):
        cert = build_max(FIG_2B)
        report = verify_certificate(dataclasses.replace(cert, omega=3), FIG_2B)
        assert any(c.name == "omega-counts-v_k" and not c.passed for c in report.checks)

    def test_detects_bad_matching(self):
        cert = build_max(FIG_2B)
        bad = dataclasses.replace(cert, m_s=cert.m_k)
        report = verify_certificate(bad, FIG_2B)
        assert not report.ok

    def test_rank_check_skipped_above_limit(self):
        report = verify_certificate(build_min(FIG_1A), FIG_1A, rank_limit=5)
        entry = _check(report, "rank-cross-check")
        assert entry.passed and "skipped" in entry.detail

    @pytest.mark.parametrize("build", [build_min, build_max])
    def test_rank_check_runs_at_the_limit(self, build):
        # n = 11: a limit of n runs the exact rank, a limit of n - 1 skips it.
        cert = build(FIG_1A)
        entry = _check(verify_certificate(cert, FIG_1A, rank_limit=11), "rank-cross-check")
        nu = cert.matching.size if build is build_min else cert.m_s.size
        assert entry.passed and entry.detail == f"rank {2 * nu} vs 2 nu = {2 * nu}"
        entry = _check(verify_certificate(cert, FIG_1A, rank_limit=10), "rank-cross-check")
        assert entry.detail == "skipped (n = 11 > limit 10)"

    def test_omega_above_the_annihilation_window(self):
        # FIG_2B has a - l = 1 and l_mk = 2 > 0, so omega = a - l + 1 = 2.
        # omega = 3 keeps (omega == a - l) == (l_mk == 0) true; only the
        # upper bound of the window and the counts tied to omega fail.
        cert = build_max(FIG_2B)
        b = bounds(FIG_2B)
        assert cert.l_mk == 2 and cert.omega == b.a - b.l + 1 == 2
        report = verify_certificate(dataclasses.replace(cert, omega=b.a - b.l + 2), FIG_2B)
        assert {c.name for c in report.failures()} == {
            "omega-counts-v_k", "omega-annihilation-bounds", "p_k-path", "m_k-on-path",
        }

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
    def test_consecutive_distance_2(self, d):
        # V_K is replaced by each pair of vertices at distance d, so siblings
        # and grandparents in the tree rooted at n both occur; only d = 2 may pass.
        cert = build_max(FIG_2B)
        labels = range(1, cert.tree.n + 1)
        pairs = [(u, v) for u in labels for v in labels if distance(cert.tree, u, v) == d]
        assert pairs
        for u, v in pairs:
            report = verify_certificate(dataclasses.replace(cert, v_k=(u, v)), FIG_2B)
            assert _check(report, "v_k-consecutive-distance-2").passed is (d == 2)

    @pytest.mark.parametrize(
        "forged, failing",
        [
            # A value that is no label of the tree on 1..15 fails the shape
            # step, which names the field and ends the report.
            ({"v_k": (0, 7)}, _shape("v_k")),
            ({"v_k": (4, 99)}, _shape("v_k")),
            ({"v_mk": 99}, _shape("v_mk")),
            ({"v_mk": 7.0}, _shape("v_mk")),
            ({"v_k": ("4", 7)}, _shape("v_k")),
            ({"v_k": (99,), "omega": 1, "v_mk": 99, "p_k": (99,)}, _shape("v_k", "v_mk", "p_k")),
            # Labels of the tree are well-formed, so the checks judge them.
            # Without 7 in V_K, M_J's edge (8, 13) serves no V_J vertex.
            (
                {"v_k": (4, 4)},
                {"v_k-internal-increasing", "v_k-consecutive-distance-2",
                 "internal-edge-identity", "matching-m_j-valid"},
            ),
            # M_J's (7, 11) and (5, 14) are tree edges to a leaf, but 7 = v_mk
            # and 14 on P_K are not in V_J = {13, 15}, and 13 goes unserved.
            ({"m_j": Matching(((1, 15), (7, 11)))}, {"matching-m_j-valid", "m_s-size-formula"}),
            ({"m_j": Matching(((1, 15), (5, 14)))}, {"matching-m_j-valid", "m_s-size-formula"}),
            # P_K is (4, 14, 7).
            ({"p_k": (4, 14.0, 7)}, _shape("p_k")),
            ({"p_k": (4, 0, 7)}, _shape("p_k")),
            ({"p_k": (4, -1, 7)}, _shape("p_k")),
            ({"p_k": (4, 16, 7)}, _shape("p_k")),
            ({"p_k": (4, "14", 7)}, _shape("p_k")),
        ],
    )
    def test_forged_labels_fail_without_raising(self, forged, failing):
        cert = build_max(FIG_2B)
        assert cert.v_k == (4, 7) and cert.v_mk == 7 and cert.p_k == (4, 14, 7)
        report = verify_certificate(dataclasses.replace(cert, **forged), FIG_2B)
        assert {c.name for c in report.failures()} == set(failing)
        if isinstance(failing, dict):
            assert {c.name: c.detail for c in report.failures()} == failing

    @pytest.mark.parametrize(
        "block", [(4.0, 5.0, 6.0), (4, "5", 6), (0, 5, 6), (4, 5, 10)],
    )
    def test_forged_path_block_fails_without_raising(self, block):
        s = parse_sequence("1,1,1,2,2,2,2,2,3")
        cert = build_min(s)
        assert cert.path_block == (4, 5, 6) and verify_certificate(cert, s).ok
        report = verify_certificate(dataclasses.replace(cert, path_block=block), s)
        assert {c.name: c.detail for c in report.failures()} == _shape("path_block")

    @pytest.mark.parametrize("kind, s, forged, failing", REORDERED_FORGERIES)
    def test_reordered_path_block_and_p_k(self, kind, s, forged, failing):
        cert = build_min(s) if kind == "min" else build_max(s)
        assert verify_certificate(cert, s).ok
        report = verify_certificate(dataclasses.replace(cert, **forged), s)
        assert {c.name for c in report.failures()} == failing

    def test_detects_leafless_internal_vertex_off_path(self):
        # Hanging a two-edge path at a leaf x makes x internal, off P_K and
        # without a leaf neighbor; x's old neighbor keeps two other leaves.
        cert = build_max(FIG_2B)
        tree = cert.tree
        n = tree.n
        x = degrees(tree).index(1)
        planted = LabeledTree(n + 2, tree.edges + ((x, n + 1), (n + 1, n + 2)))
        report = verify_certificate(dataclasses.replace(cert, tree=planted), FIG_2B)
        entry = _check(report, "internal-off-path-leaf-adjacency")
        assert not entry.passed
        assert entry.detail == f"off-path violations [{x}]"

    def test_verify_max_is_fast_on_a_long_path(self):
        # On a path about half the vertices are connectors, so a check that
        # costs O(n) per V_K pair is quadratic here.
        s = DegreeSequence((1, 1) + (2,) * (10**5 - 2))
        cert = build_max(s)
        start = time.perf_counter()
        report = verify_certificate(cert, s)
        elapsed = time.perf_counter() - start
        assert report.ok, report.failures()
        assert elapsed < 5.0

    def test_cached_matching_gives_the_same_report(self):
        # Verify reads only its own rebuild, so a built tree and a fresh
        # tree on the same edges give the same report.
        sequences = [s for n in range(2, 13) for s in tree_degree_sequences(n)]
        sequences += [random_degree_sequence(2 + seed % 199, seed) for seed in range(200)]
        for s in sequences:
            for cert in (build_min(s), build_max(s)):
                rebuilt = dataclasses.replace(cert, tree=LabeledTree(cert.tree.n, cert.tree.edges))
                report = verify_certificate(cert, s).to_json_dict()
                assert report == verify_certificate(rebuilt, s).to_json_dict()
                assert report["ok"]

    def test_rewritten_tree_slot_fails_the_rebuild(self):
        cert = build_min(FIG_1A)
        tree = LabeledTree(cert.tree.n, cert.tree.edges)
        object.__setattr__(tree, "edges", tree.edges[1:])
        report = verify_certificate(dataclasses.replace(cert, tree=tree), FIG_1A)
        assert report.checks[0].name == "tree-structure"
        assert report.checks[0].detail == "WrongEdgeCount"

    def test_rewritten_edges_do_not_reuse_the_stale_slots(self):
        # The edges slot alone is rewritten to a valid tree, so the rebuild
        # succeeds; _deg, _parent and _order still describe the old tree and
        # must not be read, so the report is that of an honest path tree.
        s = parse_sequence("1,1,1,1,2,2,3,3")
        cert = build_max(s)
        path = tuple((i, i + 1) for i in range(1, 8))
        object.__setattr__(cert.tree, "edges", path)
        report = verify_certificate(cert, s)
        honest = dataclasses.replace(cert, tree=LabeledTree(8, path))
        assert report == verify_certificate(honest, s)
        assert report.checks[0].passed and not report.ok
        assert not _check(report, "degree-multiset").passed

    def test_one_vertex_tree_fails_without_raising(self):
        # Its degree multiset (0,) is no DegreeSequence; verify compares the
        # degrees as a tuple, so this is a failed check, not TooSmall.
        s = parse_sequence("1,1,2")
        for cert in (build_min(s), build_max(s)):
            report = verify_certificate(dataclasses.replace(cert, tree=LabeledTree(1, [])), s)
            assert not _check(report, "degree-multiset").passed

    def test_report_serializes(self):
        report = verify_certificate(build_max(STAR_9), STAR_9)
        d = report.to_json_dict()
        assert d["ok"] is True
        assert all(set(c) == {"name", "passed", "detail"} for c in d["checks"])


def _leafless_internal(tree):
    """The definition, read off the tree's edges: every internal vertex
    with no neighbour of degree 1, before V_K is taken out."""
    deg = degrees(tree)
    return [
        v for v in range(1, tree.n + 1)
        if deg[v] > 1 and all(deg[u] != 1 for u in neighbours(tree, v))
    ]


class TestInternalLeafAdjacency:
    def test_matches_the_definition_on_every_small_tree(self):
        # Every labeled tree with n <= 7, with V_K empty, each single vertex
        # and three seeded subsets.
        rng = random.Random(17)
        trees = every_labeled_tree(7)
        assert len(trees) == 1 + sum(n ** (n - 2) for n in range(2, 8))
        for tree in trees:
            labels = range(1, tree.n + 1)
            bare = _leafless_internal(tree)
            subsets = [()] + [(v,) for v in labels]
            if tree.n >= 2:
                sizes = [rng.randint(2, tree.n) for _ in range(3)]
                subsets += [tuple(sorted(rng.sample(labels, k))) for k in sizes]
            for v_k in subsets:
                want = tuple(v for v in bare if v not in v_k)
                assert internal_leaf_adjacency_violations(tree, v_k) == want, (tree, v_k)


# One value of each kind a forged field may hold.  () and (1, 2) are tuples
# of labels and True is the int 1, so they pass the shape step wherever a
# tuple of labels or an int is asked for; the checks then judge them.
FORGERIES = ([4], None, "2", 2.5, (), (1, 2), object(), True)
SHAPE, TREE = {"certificate-shape"}, {"tree-structure"}
# The failed checks for each field, one entry per value of FORGERIES.
FORGED_FIELDS = {
    "min": {
        "tree": [TREE] * 8,
        "branch": [SHAPE] * 8,
        "matching": [SHAPE] * 8,
        "path_block": [SHAPE] * 4 + [{"path-block"}] * 2 + [SHAPE] * 2,
    },
    "max": {
        "tree": [TREE] * 8,
        # M_J serves the internal neighbours of V_K off P_K, so a forged
        # V_K or P_K changes the vertices M_J must serve.
        "v_k": [SHAPE] * 4
        + [
            {"omega-counts-v_k", "internal-edge-identity", "p_k-path", "matching-m_j-valid"},
            {"omega-counts-v_k", "v_k-internal-increasing", "internal-edge-identity",
             "p_k-path", "matching-m_j-valid"},
        ]
        + [SHAPE] * 2,
        "omega": [SHAPE] * 7
        + [{"omega-counts-v_k", "omega-annihilation-bounds", "p_k-path", "m_k-on-path"}],
        "v_mk": [SHAPE, {"omega-counts-v_k", "p_k-path"}] + [SHAPE] * 6,  # True is no label
        "l_mk": [SHAPE] * 7
        + [{"l_mk-count", "internal-edge-identity", "omega-annihilation-bounds"}],
        "p_k": [SHAPE] * 4
        + [{"p_k-path", "m_k-on-path", "matching-m_j-valid"}] * 2
        + [SHAPE] * 2,
        "m_k": [SHAPE] * 8,
        "m_j": [SHAPE] * 8,
        "m_s": [SHAPE] * 8,
    },
}


# Forged M_J and M_s of build_max(OMEGA_3): (forged fields, failed checks).
CONNECTOR_FORGERIES = [
    # OMEGA_3 has V_J = {10, 13}, the internal neighbours of
    # V_K = (4, 6, 8) off P_K, and M_J = ((1, 13), (9, 10)).
    ({"m_j": Matching(())}, {"matching-m_j-valid", "m_s-size-formula"}),
    # 8 is no leaf; M_s holds M_K and this M_J, so only M_J fails.
    (
        {
            "m_j": Matching(((1, 13), (8, 10))),
            "m_s": Matching(((1, 13), (4, 12), (6, 11), (8, 10))),
        },
        {"matching-m_j-valid"},
    ),
    # l_mk = 0, so M_s holds no edge beyond M_K and M_J; this one
    # trades M_J's (9, 10) for (8, 10), at v_mk.
    ({"m_s": Matching(((1, 13), (4, 12), (6, 11), (8, 10)))}, {"m_s-size-formula"}),
    # The same M_s with M_J cut to match: M_s is then M_K and M_J plus
    # one edge at v_mk, which l_mk = 0 forbids, and 10 goes unserved.
    (
        {
            "m_j": Matching(((1, 13),)),
            "m_s": Matching(((1, 13), (4, 12), (6, 11), (8, 10))),
        },
        {"matching-m_j-valid", "m_s-size-formula"},
    ),
]


# Forged star compositions: (sequence, forged fields, failed checks).
STAR_FORGERIES = [
    # A star (omega = 0) has M_K = M_J = {} and M_s one edge at the hub.
    ("1,1,1,1,4", {"m_k": Matching(((1, 5),))}, {"m_k-on-path", "m_s-size-formula"}),
    ("1,1,1,1,4", {"m_j": Matching(((2, 5),))}, {"matching-m_j-valid", "m_s-size-formula"}),
    # omega forged to 0 beside the built M_s, whose two edges are
    # n - a: only the star's one-edge rule refuses that M_s.
    (
        "1,1,1,1,3,3",
        {
            "omega": 0, "v_k": (), "p_k": (), "v_mk": None, "l_mk": 0,
            "m_k": Matching(()), "m_j": Matching(()),
        },
        {"internal-edge-identity", "m_s-size-formula"},
    ),
]


def _certified(kind):
    s = FEW_LEAVES if kind == "min" else OMEGA_3
    return (build_min(s) if kind == "min" else build_max(s)), s


# Values for the property: wrong types, labels in and out of range, tuples
# and lists of them, matchings over any int pairs, branch names, and trees,
# both LabeledTrees and duck-typed ones that may not rebuild.
_any_label = st.one_of(st.integers(-1, 16), st.floats(), st.text(max_size=2), st.none())
_forged_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 16),
    st.floats(),
    st.text(max_size=3),
    st.builds(object),
    st.sampled_from([BRANCH_MANY_LEAVES, BRANCH_FEW_LEAVES]),
    st.lists(st.integers(-1, 16), max_size=5).map(tuple),
    st.lists(_any_label, max_size=4).map(tuple),
    st.lists(st.integers(1, 13), max_size=3),
    st.lists(st.tuples(st.integers(-1, 16), st.integers(-1, 16)), max_size=4).map(
        lambda edges: Matching(tuple(edges))
    ),
    labeled_trees(max_n=14),
    st.builds(
        types.SimpleNamespace,
        n=st.integers(-1, 15),
        edges=st.lists(st.tuples(_any_label, _any_label), max_size=14),
    ),
)


class TestCertificateBoundary:
    """A forged certificate gives a failed report and never raises."""

    @pytest.mark.parametrize(
        "kind, field, i",
        [(k, f, i) for k, fields in FORGED_FIELDS.items() for f in fields for i in range(8)],
        ids=str,
    )
    def test_every_forged_field_fails_without_raising(self, kind, field, i):
        cert, s = _certified(kind)
        report = verify_certificate(dataclasses.replace(cert, **{field: FORGERIES[i]}), s)
        failing = FORGED_FIELDS[kind][field][i]
        assert {c.name for c in report.failures()} == failing
        # Both boundary checks end the report; the shape check names the field.
        if failing == TREE:
            assert [c.name for c in report.checks] == ["tree-structure"]
        if failing == SHAPE:
            assert [c.name for c in report.checks] == ["tree-structure", "certificate-shape"]
            assert report.checks[-1].detail == f"bad {field}"

    def test_bool_in_v_k_fails_the_shape_check(self):
        cert = build_max(OMEGA_3)
        forged = dataclasses.replace(cert, v_k=cert.v_k[:-1] + (True,))
        report = verify_certificate(forged, OMEGA_3)
        assert [(c.name, c.passed, c.detail) for c in report.checks[1:]] == [
            ("certificate-shape", False, "bad v_k")
        ]

    def test_empty_v_k_with_omega_3(self):
        cert = build_max(OMEGA_3)
        assert cert.omega == 3
        report = verify_certificate(dataclasses.replace(cert, v_k=()), OMEGA_3)
        assert {c.name for c in report.failures()} == {
            "omega-counts-v_k", "internal-edge-identity", "p_k-path", "matching-m_j-valid"
        }
        assert _check(report, "omega-counts-v_k").detail == "omega = 3, |v_k| = 0"

    @pytest.mark.parametrize("forged, failing", CONNECTOR_FORGERIES)
    def test_m_j_and_m_s_witness_the_connectors(self, forged, failing):
        cert = build_max(OMEGA_3)
        assert cert.m_j.edges == ((1, 13), (9, 10)) and cert.l_mk == 0
        report = verify_certificate(dataclasses.replace(cert, **forged), OMEGA_3)
        assert {c.name for c in report.failures()} == failing
        m_j, m_s = forged.get("m_j", cert.m_j), forged.get("m_s", cert.m_s)
        assert _check(report, "matching-m_j-valid").detail == f"{m_j.size} edges"
        assert _check(report, "m_s-size-formula").detail == f"{m_s.size} vs n - a = 4"

    @pytest.mark.parametrize("text, forged, failing", STAR_FORGERIES)
    def test_forged_star_composition(self, text, forged, failing):
        s = parse_sequence(text)
        cert = build_max(s)
        assert cert.m_s.size == s.n - bounds(s).a
        report = verify_certificate(dataclasses.replace(cert, **forged), s)
        assert {c.name for c in report.failures()} == failing

    @pytest.mark.parametrize("end", [0, -1, 18, -18])  # 18 = n + 5
    @pytest.mark.parametrize(
        "m_j", [((1, 13), (9, 10), (10, "w")), ((1, 13), (10, "w")), ((13, "w"), (9, 10))],
        ids=["added", "for-(9,10)", "for-(1,13)"],
    )
    def test_m_j_end_outside_the_labels(self, m_j, end):
        # M_J's ends get no range test, and parent[-1] is parent[n]: an end
        # outside 1..n is no leaf of V_J, and the report is as at the parent.
        cert = build_max(OMEGA_3)
        m_j = Matching(tuple(tuple(end if x == "w" else x for x in e) for e in m_j))
        report = verify_certificate(dataclasses.replace(cert, m_j=m_j), OMEGA_3)
        assert {c.name for c in report.failures()} == {"matching-m_j-valid", "m_s-size-formula"}

    def test_m_j_edge_from_the_smaller_label_to_no_leaf(self):
        # Reversed labels give OMEGA_3's V_J = {1, 4} labels below their
        # neighbours'; (4, 6) is a tree edge from V_J to v_mk, which is no leaf.
        cert = _relabelled(build_max(OMEGA_3), {v: 14 - v for v in range(1, 14)})
        assert cert.m_j.edges == ((1, 13), (4, 5)) and cert.v_mk == 6
        forged = dataclasses.replace(cert, m_j=Matching(((1, 13), (4, 6))))
        report = verify_certificate(forged, OMEGA_3)
        assert {c.name for c in report.failures()} == {"matching-m_j-valid", "m_s-size-formula"}

    def test_second_v_mk_edge_in_m_s(self):
        cert = build_max(FIG_2B)
        assert cert.v_mk == 7 and cert.l_mk == 2 and (7, 11) in cert.m_s.edges
        forged = dataclasses.replace(cert, m_s=Matching(cert.m_s.edges + ((7, 12),)))
        report = verify_certificate(forged, FIG_2B)
        assert {c.name for c in report.failures()} == {
            "matching-m_s-valid", "matching-m_s-maximum", "m_s-size-formula"
        }

    def test_forged_reports_do_not_depend_on_labels(self):
        # The well-formed forgeries above, relabelled by v -> n + 1 - v,
        # which moves the leaves to the large labels and reverses P_K.
        cases = [(kind, s, forged) for kind, s, forged, _ in REORDERED_FORGERIES]
        cases += [("max", OMEGA_3, forged) for forged, _ in CONNECTOR_FORGERIES]
        cases += [("max", parse_sequence(text), forged) for text, forged, _ in STAR_FORGERIES]
        m_s = build_max(FIG_2B).m_s.edges + ((7, 12),)  # test_second_v_mk_edge_in_m_s
        cases.append(("max", FIG_2B, {"m_s": Matching(m_s)}))
        assert len(cases) == 12 + 4 + 3 + 1
        for kind, s, fields in cases:
            cert = build_min(s) if kind == "min" else build_max(s)
            forged = dataclasses.replace(cert, **fields)
            failing = {c.name for c in verify_certificate(forged, s).failures()}
            label = {v: s.n + 1 - v for v in range(1, s.n + 1)}
            report = verify_certificate(_relabelled(forged, label), s)
            assert {c.name for c in report.failures()} == failing, (s, fields)

    @staticmethod
    def _lying_oracle():
        """A tree of OMEGA_3 with nu = 5 > nu_min = 4, put in the built max
        certificate with its maximum matching cut to n - a = 4 edges."""
        tree = random_tree(OMEGA_3, 0)
        m_s = Matching(tree.maximum_matching().edges[:4])
        assert matching_number(tree) == 5 > bounds(OMEGA_3).nu_min == 4
        return dataclasses.replace(build_max(OMEGA_3), tree=tree, m_s=m_s), tree, m_s

    def test_lying_matching_walk_proves_nothing(self, monkeypatch):
        # Verify proves nu by a cover of its own rebuild, so a matching walk
        # that calls the cut matching maximum is never asked.
        cert, _, m_s = self._lying_oracle()
        monkeypatch.setattr(LabeledTree, "maximum_matching", lambda self: m_s)
        report = verify_certificate(cert, OMEGA_3)
        assert {"matching-m_s-maximum", "nullity-formula"} <= {c.name for c in report.failures()}
        assert _check(report, "matching-m_s-maximum").detail == "|m_s| = 4, nu = 5, formula = 4"

    def test_lying_cover_walk_proves_nothing(self, monkeypatch):
        # n - a marks that miss an edge bound no matching, so a walk that
        # marks them fails the proof however well their count fits.
        cert, tree, _ = self._lying_oracle()
        marks = tree._cover()
        marks[marks.index(1)] = 0  # nu = 5, so 4 marks are no cover
        monkeypatch.setattr(LabeledTree, "_cover", lambda self: bytearray(marks))
        report = verify_certificate(cert, OMEGA_3)
        assert {"matching-m_s-maximum", "nullity-formula"} <= {c.name for c in report.failures()}
        assert _check(report, "matching-m_s-maximum").detail == "|m_s| = 4, nu = 4, formula = 4"
        assert _check(report, "nullity-formula").detail == "nullity 5 vs 5"

    @pytest.mark.parametrize("kind", ["min", "max"])
    def test_duck_typed_tree_verifies(self, kind):
        cert, s = _certified(kind)
        duck = types.SimpleNamespace(n=cert.tree.n, edges=cert.tree.edges)
        report = verify_certificate(dataclasses.replace(cert, tree=duck), s)
        assert report.ok, report.failures()
        assert report == verify_certificate(cert, s)

    @pytest.mark.parametrize(
        "forged, bad",
        [
            ({"branch": "nonsense"}, ("branch",)),
            ({"branch": None}, ("branch",)),
            ({"branch": None, "path_block": (99, "x")}, ("branch", "path_block")),
        ],
    )
    def test_forged_branch_fails_the_shape(self, forged, bad):
        cert = build_min(FEW_LEAVES)
        assert cert.branch == BRANCH_FEW_LEAVES
        report = verify_certificate(dataclasses.replace(cert, **forged), FEW_LEAVES)
        assert {c.name: c.detail for c in report.failures()} == _shape(*bad)

    def test_leafy_branch_has_no_path_block(self):
        cert = build_min(MANY_LEAVES)
        assert cert.branch == BRANCH_MANY_LEAVES and cert.path_block == ()
        forged = dataclasses.replace(cert, path_block=(1, 2, 99))
        report = verify_certificate(forged, MANY_LEAVES)
        assert {c.name: c.detail for c in report.failures()} == _shape("path_block")
        # A block of labels is well-formed, but the leafy branch has none.
        forged = dataclasses.replace(cert, path_block=(1, 2, 3))
        report = verify_certificate(forged, MANY_LEAVES)
        assert {c.name for c in report.failures()} == {"branch-condition"}
        assert _check(report, "branch-condition").detail == "branch l_ge_half, l = 5, n = 8"

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_no_forged_field_raises(self, data):
        sequences = [FEW_LEAVES, MANY_LEAVES, OMEGA_3, FIG_2B, parse_sequence("1,1")]
        s = data.draw(st.sampled_from(sequences))
        cert = data.draw(st.sampled_from([build_min(s), build_max(s)]))
        field = data.draw(st.sampled_from([f.name for f in dataclasses.fields(cert)]))
        forged = dataclasses.replace(cert, **{field: data.draw(_forged_values)})
        assert isinstance(verify_certificate(forged, s).ok, bool)
        assert verify_certificate(cert, s).ok


class TestConstructionProperties:
    @given(degree_sequences(max_n=40))
    @settings(max_examples=150, deadline=None)
    def test_both_builders_hit_the_formulas(self, s):
        b = bounds(s)
        cmin = build_min(s)
        cmax = build_max(s)
        assert cmin.tree.degree_multiset() == s == cmax.tree.degree_multiset()
        assert cmin.matching.size == b.nu_max
        assert cmax.m_s.size == b.nu_min
        assert cmin.tree.nullity() == b.nullity_min
        assert cmax.tree.nullity() == b.nullity_max

    @given(degree_sequences(max_n=30))
    @settings(max_examples=80, deadline=None)
    def test_certificates_verify(self, s):
        assert verify_certificate(build_min(s), s).ok
        assert verify_certificate(build_max(s), s).ok

    @given(degree_sequences(min_n=3, max_n=30))
    @settings(max_examples=80, deadline=None)
    def test_max_lemma_invariants(self, s):
        cert = build_max(s)
        st = bounds(s)
        tree = cert.tree
        assert st.a - st.l <= cert.omega <= st.a - st.l + 1
        assert (cert.omega == st.a - st.l) == (cert.l_mk == 0)
        assert s.n - 1 - st.l == -cert.l_mk + sum(degrees(tree)[v] for v in cert.v_k)
        color = tree.two_coloring()
        assert len({color[v] for v in cert.v_k}) <= 1
