"""Certified constructions of minimum- and maximum-nullity trees.

Both constructors realize a given tree degree sequence while pinning the
matching number to its extreme value, and return the tree bundled with the
witnesses that make the extremality checkable: an explicit maximum matching
for the minimum-nullity tree, and the connector structure (V_K, omega, v_mk,
l_mk, P_K plus the matchings M_K, M_J, M_s) for the maximum-nullity tree.

The published pseudocode for both constructions contains label-level
inconsistencies; the repairs used here are:

* minimum builder, sparse-leaf branch: the edge joining the leafy block to
  the path block is v_1 v_{l+1} (either path endpoint gives isomorphic
  trees, but the trees' degree multiset only works out with an endpoint).
* maximum builder: connector vertices consume the smallest internal degrees
  in ascending order, while the expansion frontier consumes the largest
  remaining internal degrees, assigned in decreasing frontier-index order;
  once all n vertices are placed the remaining frontier vertices stay
  leaves.  This reproduces the known-good fixtures up to relabeling and
  satisfies every certificate invariant below.

One caution on a folklore claim about the maximum builder: it is *not* true
that every internal vertex outside V_K has a leaf neighbor.  Degree-2
vertices sitting on the connector path P_K between two V_K members have no
room for one (any realization of a path degree sequence with n >= 6 is
already a counterexample).  The load-bearing fact, checked here, is that
every internal vertex *off* P_K has a leaf neighbor, which is what the
matching M_J needs.  :func:`internal_leaf_adjacency_violations` exposes the
on-path exceptions for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .degseq import DegreeSequence, bounds, stats
from .errors import ConstructionInvariantViolated, InputError
from .treegraph import (
    DEFAULT_RANK_LIMIT,
    Edge,
    LabeledTree,
    Matching,
    _is_label,
    from_edges,
)

BRANCH_MANY_LEAVES = "l_ge_half"  # l >= ceil(n/2): every internal vertex pairs with a leaf
BRANCH_FEW_LEAVES = "l_lt_half"  # l < ceil(n/2): a path block absorbs the surplus


@dataclass(frozen=True)
class MinCertificate:
    """Minimum-nullity tree plus the matching witnessing nu = nu_max(s)."""

    tree: LabeledTree
    branch: str
    matching: Matching
    path_block: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "kind": "min-nullity",
            "sequence": list(self.tree.degree_multiset().degrees),
            "tree": {"n": self.tree.n, "edges": [list(e) for e in self.tree.edges]},
            "branch": self.branch,
            "matching": [list(e) for e in self.matching.edges],
            "path_block": list(self.path_block),
            "nu": self.matching.size,
            "nullity": self.tree.n - 2 * self.matching.size,
        }


@dataclass(frozen=True)
class MaxCertificate:
    """Maximum-nullity tree plus its connector structure and matchings."""

    tree: LabeledTree
    v_k: tuple[int, ...]
    omega: int
    v_mk: int | None
    l_mk: int
    p_k: tuple[int, ...]
    m_k: Matching
    m_j: Matching
    m_s: Matching

    def to_json_dict(self) -> dict:
        return {
            "kind": "max-nullity",
            "sequence": list(self.tree.degree_multiset().degrees),
            "tree": {"n": self.tree.n, "edges": [list(e) for e in self.tree.edges]},
            "v_k": list(self.v_k),
            "omega": self.omega,
            "v_mk": self.v_mk,
            "l_mk": self.l_mk,
            "p_k": list(self.p_k),
            "m_k": [list(e) for e in self.m_k.edges],
            "m_j": [list(e) for e in self.m_j.edges],
            "m_s": [list(e) for e in self.m_s.edges],
            "nu": self.m_s.size,
            "nullity": self.tree.n - 2 * self.m_s.size,
        }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConstructionInvariantViolated(message)


def _finish_tree(n: int, edges: list[Edge], s: DegreeSequence, what: str) -> LabeledTree:
    """Validate the raw edge list and its degree multiset."""
    try:
        tree = from_edges(n, edges)
    except InputError as exc:
        raise ConstructionInvariantViolated(f"{what}: bad edge set ({exc})") from exc
    _require(
        tuple(sorted(map(len, tree._adj[1:]))) == s.degrees,
        f"{what}: degree multiset mismatch",
    )
    return tree


# ---------------------------------------------------------------------------
# Minimum nullity (maximum matching) construction
# ---------------------------------------------------------------------------


def build_min(s: DegreeSequence) -> MinCertificate:
    """Tree realizing ``s`` with the largest possible matching number.

    Hub v_n takes v_1 and the top d_n - 1 vertices as neighbors; each further
    internal vertex v_{n-i+1} (largest remaining degrees first) takes the
    private leaf v_i plus fresh pool vertices handed out in descending label
    order.  When leaves are scarce (l < ceil(n/2)) only l - 1 internal
    vertices pair with leaves and the degree-2 surplus v_{l+1}..v_{n-l}
    forms a path joined to the rest at v_1.

    The witness matching pairs v_i with v_{n-i+1} and adds a maximum
    matching of the path block; its size min(n - l, floor(n/2)) is verified
    against an independently computed maximum matching before returning.
    """
    n = s.n
    if n == 2:
        tree = from_edges(2, [(1, 2)])
        return MinCertificate(
            tree=tree,
            branch=BRANCH_MANY_LEAVES,
            matching=Matching(((1, 2),)),
            path_block=(),
        )

    d = (0,) + s.degrees  # 1-based degree access
    st = stats(s)
    l = st.l

    k = n - (d[n] - 1)
    edges: list[Edge] = [(1, n)]
    edges.extend((j, n) for j in range(n - 1, k - 1, -1))

    leafy = (n - l) <= n // 2
    pair_count = (n - l) if leafy else l
    for i in range(2, pair_count + 1):
        v = n - i + 1
        pool = [k - 1 - x for x in range(d[v] - 2)]
        edges.append((i, v))
        edges.extend((p, v) for p in pool)
        k -= d[v] - 2

    if leafy:
        matching = Matching(tuple((i, n - i + 1) for i in range(1, n - l + 1)))
        block: tuple[int, ...] = ()
        branch = BRANCH_MANY_LEAVES
    else:
        # Tree-sum arithmetic forces all middle degrees to be 2 here.
        _require(
            all(d[j] == 2 for j in range(l + 1, n - l + 1)),
            "path block expects degree 2 throughout",
        )
        block = tuple(range(l + 1, n - l + 1))
        edges.extend((block[t], block[t + 1]) for t in range(len(block) - 1))
        edges.append((1, l + 1))
        pairs = [(i, n - i + 1) for i in range(1, l + 1)]
        pairs.extend((block[2 * t], block[2 * t + 1]) for t in range(len(block) // 2))
        matching = Matching(tuple(pairs))
        branch = BRANCH_FEW_LEAVES

    tree = _finish_tree(n, edges, s, "build_min")
    expected_nu = bounds(s).nu_max
    _require(matching.is_valid_in(tree), "build_min: witness is not a matching")
    _require(
        matching.size == expected_nu,
        f"build_min: witness size {matching.size} != {expected_nu}",
    )
    _require(
        tree.maximum_matching().size == expected_nu,
        "build_min: tree does not reach the extremal matching number",
    )
    return MinCertificate(
        tree=tree,
        branch=branch,
        matching=matching,
        path_block=block,
    )


# ---------------------------------------------------------------------------
# Maximum nullity (minimum matching) construction
# ---------------------------------------------------------------------------


def build_max(s: DegreeSequence) -> MaxCertificate:
    """Tree realizing ``s`` with the smallest possible matching number.

    Growth alternates between connector vertices (added to V_K, consuming
    the smallest unused internal degrees) and their expansion frontier
    (consuming the largest remaining internal degrees).  Consecutive V_K
    members end up at distance exactly 2, and the matching M_s built from
    M_K (along the connector path), M_J (off-path internal vertices matched
    to private leaves) and at most one leaf of v_mk has size n - a(s).
    """
    n = s.n
    d = (0,) + s.degrees
    st = stats(s)
    l, a = st.l, st.a

    dn = d[n]
    edges: list[Edge] = [(j, n) for j in range(1, dn + 1)]

    placed = dn + 1
    k = dn
    h = n
    bottom = l + 1  # next (smallest) unused internal degree, for connectors
    top = n - 1  # next (largest) unused internal degree, for the frontier
    connectors: list[int] = []
    middles: list[int] = []

    while placed < n:
        c = k
        connectors.append(c)
        dc = d[bottom]
        bottom += 1
        frontier = [h - 1 - x for x in range(dc - 1)]
        edges.extend((c, f) for f in frontier)
        placed += dc - 1
        if placed == n:
            break
        last_processed = frontier[0]
        for vj in frontier:  # decreasing index: first takes the largest degree
            dj = d[top]
            top -= 1
            children = list(range(k + 1, k + dj))
            edges.extend((vj, ch) for ch in children)
            placed += dj - 1
            k += dj - 1
            last_processed = vj
            if placed == n:
                break
        if placed == n:
            break
        middles.append(last_processed)
        h -= dc - 1

    omega = len(connectors)
    tree = _finish_tree(n, edges, s, "build_max")

    if omega == 0:
        v_mk: int | None = None
        l_mk = 0
        p_k: tuple[int, ...] = ()
        m_k = Matching(())
        m_j = Matching(())
        m_s = Matching(((1, n),))
    else:
        v_mk, adj = connectors[-1], tree._adj
        leaf_neighbors = [u for u in adj[v_mk] if len(adj[u]) == 1]
        l_mk = len(leaf_neighbors)
        _require(len(middles) == omega - 1, "build_max: connector path bookkeeping broke")
        p_k_list: list[int] = []
        for i, c in enumerate(connectors):
            p_k_list.append(c)
            if i < len(middles):
                p_k_list.append(middles[i])
        p_k = tuple(p_k_list)
        m_k = Matching(tuple((connectors[i], middles[i]) for i in range(omega - 1)))
        on_path = set(p_k)
        v_j: list[int] = []
        for c in connectors:
            for u in adj[c]:
                if u not in on_path and len(adj[u]) > 1:
                    v_j.append(u)
        v_j = sorted(set(v_j))
        m_j_edges: list[Edge] = []
        for u in v_j:
            leaf = min((w for w in adj[u] if len(adj[w]) == 1), default=0)
            _require(leaf > 0, f"build_max: off-path internal vertex {u} lacks a leaf")
            m_j_edges.append((u, leaf))
        m_j = Matching(tuple(m_j_edges))
        m_s_edges = list(m_k.edges) + list(m_j.edges)
        if l_mk > 0:
            u = min(leaf_neighbors)
            m_s_edges.append((u, v_mk))
        m_s = Matching(tuple(m_s_edges))

    expected_nu = n - a
    _require(m_s.is_valid_in(tree), "build_max: M_s is not a matching")
    _require(m_s.size == expected_nu, f"build_max: |M_s| = {m_s.size} != n - a = {expected_nu}")
    _require(
        tree.maximum_matching().size == expected_nu,
        "build_max: tree does not reach the extremal matching number",
    )
    return MaxCertificate(
        tree=tree,
        v_k=tuple(connectors),
        omega=omega,
        v_mk=v_mk,
        l_mk=l_mk,
        p_k=p_k,
        m_k=m_k,
        m_j=m_j,
        m_s=m_s,
    )


# ---------------------------------------------------------------------------
# Independent certificate verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    kind: str
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def internal_leaf_adjacency_violations(
    tree: LabeledTree, v_k: tuple[int, ...]
) -> tuple[int, ...]:
    """Internal vertices outside ``v_k`` with no leaf neighbor.

    For a certificate produced by :func:`build_max`, the result is exactly
    the degree-2 vertices wedged between two connector vertices on P_K;
    every such vertex is a counterexample to the folklore claim that all
    internal non-connector vertices touch a leaf.  For an arbitrary
    ``(tree, v_k)`` pair it is simply every leafless internal vertex
    outside ``v_k``, wherever it lies.
    """
    members, adj = set(v_k), tree._adj
    out = []
    for v in range(1, tree.n + 1):
        if len(adj[v]) > 1 and v not in members:
            if not any(len(adj[u]) == 1 for u in adj[v]):
                out.append(v)
    return tuple(out)


def _revalidated(tree) -> tuple[LabeledTree | None, str]:
    """The tree the checks read, rebuilt from ``tree.n`` and ``tree.edges``.

    The rebuild is the one check that catches a duck-typed or rewritten
    tree: any object goes in, and ``(None, reason)`` comes out when it does
    not rebuild.  A ``LabeledTree`` equal to its rebuild is returned itself,
    so the matching its builder memoised is reused.
    """
    try:
        rebuilt = from_edges(tree.n, tree.edges)
    except (AttributeError, InputError) as exc:
        return None, type(exc).__name__
    return (tree if rebuilt == tree else rebuilt), ""


def _bad_fields(cert: MinCertificate | MaxCertificate, n: int) -> list[str]:
    """The names of the fields whose values have the wrong shape.

    This is the one place that decides what a field may hold: matchings are
    :class:`Matching` values, vertex lists are tuples of labels of the tree
    on 1..n, ``omega`` and ``l_mk`` are ints, ``v_mk`` is a label or None,
    and ``branch`` is one of the two branch names.  Past it, every check
    may index the tree by any label a field holds.
    """

    def labels(vs) -> bool:
        return isinstance(vs, tuple) and all(_is_label(v, n) for v in vs)

    if isinstance(cert, MinCertificate):
        shapes = {
            "branch": cert.branch in (BRANCH_MANY_LEAVES, BRANCH_FEW_LEAVES),
            "matching": isinstance(cert.matching, Matching),
            "path_block": labels(cert.path_block),
        }
    else:
        shapes = {
            "v_k": labels(cert.v_k),
            "omega": isinstance(cert.omega, int),
            "v_mk": cert.v_mk is None or _is_label(cert.v_mk, n),
            "l_mk": isinstance(cert.l_mk, int),
            "p_k": labels(cert.p_k),
            "m_k": isinstance(cert.m_k, Matching),
            "m_j": isinstance(cert.m_j, Matching),
            "m_s": isinstance(cert.m_s, Matching),
        }
    return [name for name, ok in shapes.items() if not ok]


def _common_checks(
    tree: LabeledTree,
    s: DegreeSequence,
    expected_nu: int,
    matchings: dict[str, Matching],
    primary: str,
    rank_limit: int,
) -> list[CheckResult]:
    checks: list[CheckResult] = []
    degrees = tree.degree_multiset()
    checks.append(
        CheckResult(
            "degree-multiset", degrees.degrees == s.degrees, f"tree {degrees} vs input {s}"
        )
    )
    for name, m in matchings.items():
        checks.append(
            CheckResult(f"matching-{name}-valid", m.is_valid_in(tree), f"{m.size} edges")
        )
    nu = tree.maximum_matching().size
    checks.append(
        CheckResult(
            f"matching-{primary}-maximum",
            matchings[primary].size == nu == expected_nu,
            f"|{primary}| = {matchings[primary].size}, nu = {nu}, formula = {expected_nu}",
        )
    )
    checks.append(
        CheckResult(
            "nullity-formula",
            tree.n - 2 * nu == tree.n - 2 * expected_nu,
            f"nullity {tree.n - 2 * nu} vs {tree.n - 2 * expected_nu}",
        )
    )
    if tree.n <= rank_limit:
        rank = tree.adjacency_rank_exact(limit=rank_limit)
        checks.append(
            CheckResult("rank-cross-check", rank == 2 * nu, f"rank {rank} vs 2 nu = {2 * nu}")
        )
    else:
        checks.append(
            CheckResult("rank-cross-check", True, f"skipped (n = {tree.n} > limit {rank_limit})")
        )
    return checks


def _verify_min(
    cert: MinCertificate, tree: LabeledTree, s: DegreeSequence, rank_limit: int
) -> list[CheckResult]:
    b = bounds(s)
    checks = _common_checks(tree, s, b.nu_max, {"witness": cert.matching}, "witness", rank_limit)
    n, l = s.n, b.l
    leafy = l >= (n + 1) // 2
    block = cert.path_block
    # The leafy branch has no path block, so a nonempty one is forged.
    many = cert.branch == BRANCH_MANY_LEAVES
    checks.append(
        CheckResult(
            "branch-condition",
            many == leafy and not (many and block),
            f"branch {cert.branch}, l = {l}, n = {n}",
        )
    )
    if not many:
        block_set = set(block)
        induced = [(u, v) for u, v in tree.edges if u in block_set and v in block_set]
        is_path = (
            len(block) == n - 2 * l
            and len(induced) == len(block) - 1
            and set(induced)
            == {
                (min(block[t], block[t + 1]), max(block[t], block[t + 1]))
                for t in range(len(block) - 1)
            }
        )
        checks.append(
            CheckResult("path-block", is_path, f"{len(block)} vertices, expected {n - 2 * l}")
        )
    return checks


def _verify_max(
    cert: MaxCertificate, tree: LabeledTree, s: DegreeSequence, rank_limit: int
) -> list[CheckResult]:
    b = bounds(s)
    checks = _common_checks(
        tree,
        s,
        b.nu_min,
        {"m_k": cert.m_k, "m_j": cert.m_j, "m_s": cert.m_s},
        "m_s",
        rank_limit,
    )
    n, l, a = s.n, b.l, b.a
    omega, v_k, v_mk = cert.omega, cert.v_k, cert.v_mk
    adj = tree._adj
    checks.append(
        CheckResult(
            "omega-counts-v_k",
            omega == len(v_k) and (omega == 0) == (v_mk is None),
            f"omega = {omega}, |v_k| = {len(v_k)}",
        )
    )
    checks.append(
        CheckResult(
            "v_k-internal-increasing",
            all(len(adj[v]) > 1 for v in v_k)
            and all(v_k[i] < v_k[i + 1] for i in range(len(v_k) - 1)),
            f"v_k = {list(v_k)}",
        )
    )
    # Distinct tree vertices are at distance 2 exactly when they share a
    # neighbor (they cannot also be adjacent: a tree has no triangle).  Each
    # member is in at most two pairs, so this costs O(sum of degrees).
    around = [set(adj[v]) for v in v_k]
    consec = all(
        v_k[i] != v_k[i + 1] and not around[i].isdisjoint(around[i + 1])
        for i in range(len(v_k) - 1)
    )
    checks.append(CheckResult("v_k-consecutive-distance-2", consec, ""))
    color = tree.two_coloring()
    checks.append(
        CheckResult(
            "v_k-pairwise-even-distance",
            len({color[v] for v in v_k}) <= 1,
            "all members share a bipartition class",
        )
    )
    actual_l_mk = 0 if v_mk is None else sum(1 for u in adj[v_mk] if len(adj[u]) == 1)
    checks.append(
        CheckResult("l_mk-count", cert.l_mk == actual_l_mk, f"{cert.l_mk} vs {actual_l_mk}")
    )

    if n == 2:
        checks.append(CheckResult("internal-edge-identity", True, "skipped (n = 2)"))
        checks.append(CheckResult("omega-annihilation-bounds", True, "skipped (n = 2)"))
    else:
        lhs = n - 1 - l
        rhs = -cert.l_mk + sum(len(adj[v]) for v in v_k)
        detail = f"n-1-l = {lhs}, -l_mk + sum deg(v_k) = {rhs}"
        checks.append(CheckResult("internal-edge-identity", lhs == rhs, detail))
        omega_ok = (a - l) <= omega <= (a - l + 1) and (omega == a - l) == (cert.l_mk == 0)
        checks.append(
            CheckResult(
                "omega-annihilation-bounds",
                omega_ok,
                f"omega = {omega}, a - l = {a - l}, l_mk = {cert.l_mk}",
            )
        )

    # Distinct members of P_K keep the adjacency lookups within O(sum of
    # degrees).  V_K may be shorter than omega says, so its head is sliced.
    p_k = cert.p_k
    if omega == 0:
        p_k_ok = p_k == ()
    else:
        p_k_ok = (
            len(p_k) == 2 * omega - 1
            and len(set(p_k)) == len(p_k)
            and p_k[:1] == v_k[:1]
            and p_k[-1] == v_mk
            and set(v_k) <= set(p_k)
            and all(b in adj[a] for a, b in zip(p_k, p_k[1:]))
        )
    checks.append(CheckResult("p_k-path", p_k_ok, f"{len(p_k)} vertices"))
    p_k_edges = {(min(a, b), max(a, b)) for a, b in zip(p_k, p_k[1:])}
    checks.append(
        CheckResult(
            "m_k-on-path",
            set(cert.m_k.edges) <= p_k_edges and cert.m_k.size == max(omega - 1, 0),
            f"|m_k| = {cert.m_k.size}",
        )
    )
    checks.append(
        CheckResult(
            "m_s-size-formula", cert.m_s.size == n - a, f"{cert.m_s.size} vs n - a = {n - a}"
        )
    )

    # Off-path internal vertices must touch a leaf (this is what M_J uses).
    # Degree-2 vertices *on* P_K between two connectors legitimately have no
    # leaf neighbor; they are listed in the detail for visibility.
    strict = internal_leaf_adjacency_violations(tree, v_k)
    on_path = set(p_k)
    off_path = tuple(v for v in strict if v not in on_path)
    detail = "no exceptions" if not strict else (
        f"on-path degree-2 exceptions {list(strict)}" if not off_path
        else f"off-path violations {list(off_path)}"
    )
    checks.append(CheckResult("internal-off-path-leaf-adjacency", off_path == (), detail))
    return checks


def verify_certificate(
    cert: MinCertificate | MaxCertificate,
    s: DegreeSequence,
    rank_limit: int = DEFAULT_RANK_LIMIT,
) -> VerificationReport:
    """Re-derive every certificate invariant independently of construction.

    Returns a structured pass/fail report; failures are report entries,
    never exceptions, whatever the certificate's fields hold.  Two checks
    end the report early when they fail: ``tree-structure``, when the tree
    does not rebuild from its ``n`` and ``edges``, and then
    ``certificate-shape``, when a field holds a value of the wrong shape
    (its detail names the fields); ``certificate-shape`` is listed only
    when it fails.  Certificates produced by :func:`build_min` and
    :func:`build_max` pass all checks.
    """
    if isinstance(cert, MinCertificate):
        kind, verify = "min-nullity", _verify_min
    elif isinstance(cert, MaxCertificate):
        kind, verify = "max-nullity", _verify_max
    else:
        raise TypeError(f"not a certificate: {type(cert).__name__}")
    tree, detail = _revalidated(cert.tree)
    checks = [CheckResult("tree-structure", tree is not None, detail)]
    if tree is not None:
        bad = _bad_fields(cert, tree.n)
        if bad:
            checks.append(CheckResult("certificate-shape", False, f"bad {', '.join(bad)}"))
        else:
            checks.extend(verify(cert, tree, s, rank_limit))
    return VerificationReport(kind=kind, checks=tuple(checks))
