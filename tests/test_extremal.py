"""Extremal tree constructions and their certificates."""

import dataclasses
import time
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import degree_sequences, labeled_trees
from treenullity import (
    ConstructionInvariantViolated,
    DegreeSequence,
    bounds,
    build_max,
    build_min,
    internal_leaf_adjacency_violations,
    parse_sequence,
    random_degree_sequence,
    stats,
    tree_degree_sequences,
    verify_certificate,
)
from treenullity.extremal import BRANCH_FEW_LEAVES, BRANCH_MANY_LEAVES
from treenullity.treegraph import Matching, from_edges

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
        assert cert.tree.distance(cert.v_k[0], cert.v_k[1]) == 2

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


class TestVerify:
    @pytest.mark.parametrize("s", [FIG_1A, FIG_1B, STAR_9, FIG_2B, FIG_2C])
    def test_produced_certificates_pass(self, s):
        for cert in (build_min(s), build_max(s)):
            report = verify_certificate(cert, s)
            assert report.ok, report.failures()

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
        assert any(c.name == "degree-multiset" and not c.passed for c in report.checks)

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

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
    def test_consecutive_distance_2(self, d):
        # The second connector is replaced by a vertex at distance d from the
        # first; only d = 2 may pass.
        cert = build_max(FIG_2B)
        u = cert.v_k[0]
        v = min(w for w in range(1, cert.tree.n + 1) if cert.tree.distance(u, w) == d)
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
            (
                {"v_k": (4, 4)},
                {"v_k-internal-increasing", "v_k-consecutive-distance-2",
                 "internal-edge-identity"},
            ),
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

    def test_detects_leafless_internal_vertex_off_path(self):
        # Hanging a two-edge path at a leaf x makes x internal, off P_K and
        # without a leaf neighbor; x's old neighbor keeps two other leaves.
        cert = build_max(FIG_2B)
        tree = cert.tree
        n = tree.n
        x = tree.leaves()[0]
        planted = from_edges(n + 2, tree.edges + ((x, n + 1), (n + 1, n + 2)))
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
        # The builders leave nu memoised on their trees (build_min's n = 2
        # shortcut computes none); a rebuilt tree has none, so verify computes
        # it afresh and must say the same.
        sequences = [s for n in range(2, 13) for s in tree_degree_sequences(n)]
        sequences += [random_degree_sequence(2 + seed % 199, seed) for seed in range(200)]
        for s in sequences:
            for cert in (build_min(s), build_max(s)):
                rebuilt = dataclasses.replace(cert, tree=from_edges(cert.tree.n, cert.tree.edges))
                assert (cert.tree._matching is not None or s.n == 2)
                assert rebuilt.tree._matching is None
                report = verify_certificate(cert, s).to_json_dict()
                assert report == verify_certificate(rebuilt, s).to_json_dict()
                assert report["ok"]

    def test_rewritten_tree_slot_fails_the_rebuild(self):
        cert = build_min(FIG_1A)
        tree = from_edges(cert.tree.n, cert.tree.edges)
        object.__setattr__(tree, "edges", tree.edges[1:])
        report = verify_certificate(dataclasses.replace(cert, tree=tree), FIG_1A)
        assert report.checks[0].name == "tree-structure"
        assert report.checks[0].detail == "WrongEdgeCount"

    def test_report_serializes(self):
        report = verify_certificate(build_max(STAR_9), STAR_9)
        d = report.to_json_dict()
        assert d["ok"] is True
        assert all(set(c) == {"name", "passed", "detail"} for c in d["checks"])


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
        "v_k": [SHAPE] * 4
        + [
            {"omega-counts-v_k", "internal-edge-identity", "p_k-path"},
            {"omega-counts-v_k", "v_k-internal-increasing", "internal-edge-identity",
             "p_k-path"},
        ]
        + [SHAPE] * 2,
        "omega": [SHAPE] * 7
        + [{"omega-counts-v_k", "omega-annihilation-bounds", "p_k-path", "m_k-on-path"}],
        "v_mk": [SHAPE, {"omega-counts-v_k", "p_k-path"}] + [SHAPE] * 5 + [{"p_k-path"}],
        "l_mk": [SHAPE] * 7
        + [{"l_mk-count", "internal-edge-identity", "omega-annihilation-bounds"}],
        "p_k": [SHAPE] * 4 + [{"p_k-path", "m_k-on-path"}] * 2 + [SHAPE] * 2,
        "m_k": [SHAPE] * 8,
        "m_j": [SHAPE] * 8,
        "m_s": [SHAPE] * 8,
    },
}


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

    def test_empty_v_k_with_omega_3(self):
        cert = build_max(OMEGA_3)
        assert cert.omega == 3
        report = verify_certificate(dataclasses.replace(cert, v_k=()), OMEGA_3)
        assert {c.name for c in report.failures()} == {
            "omega-counts-v_k", "internal-edge-identity", "p_k-path"
        }
        assert _check(report, "omega-counts-v_k").detail == "omega = 3, |v_k| = 0"

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
        st = stats(s)
        tree = cert.tree
        assert st.a - st.l <= cert.omega <= st.a - st.l + 1
        assert (cert.omega == st.a - st.l) == (cert.l_mk == 0)
        assert s.n - 1 - st.l == -cert.l_mk + sum(tree.degree(v) for v in cert.v_k)
        color = tree.two_coloring()
        assert len({color[v] for v in cert.v_k}) <= 1
