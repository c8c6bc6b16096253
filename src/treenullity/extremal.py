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
already a counterexample).  The load-bearing fact, checked by verify, is that
every internal vertex *off* P_K has a leaf neighbor, which is what the
matching M_J needs.  :func:`internal_leaf_adjacency_violations` exposes the
on-path exceptions for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, islice
from operator import not_

from .degseq import DegreeSequence, _ints, bounds
from .errors import ConstructionInvariantViolated, InputError
from .treegraph import DEFAULT_RANK_LIMIT, Edge, LabeledTree, Matching, _is_label

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


def _proved_tree(
    s: DegreeSequence, edges: list[Edge], m: Matching, nu: int, what: str
) -> LabeledTree:
    """The tree on ``edges``, once its degree multiset is ``s`` and the
    builder's witness ``m`` is a matching of it with ``nu`` edges that the
    cover of :func:`_cover_nu` proves maximum."""
    try:
        tree = LabeledTree(s.n, edges)
    except InputError as exc:
        raise ConstructionInvariantViolated(f"{what}: bad edge set ({exc})") from exc
    _require(
        tuple(sorted(tree._deg[1:])) == s.degrees,
        f"{what}: degree multiset mismatch",
    )
    _require(m.is_valid_in(tree), f"{what}: the witness is not a matching")
    _require(m.size == nu, f"{what}: the witness has {m.size} edges, the formula {nu}")
    _require(_cover_nu(tree) == (nu, True), f"{what}: the witness is no maximum matching")
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
    matching of the path block; before returning, its size nu_max of
    :func:`~treenullity.degseq.bounds` is checked against a vertex cover of
    the tree of that size, which no matching exceeds.
    """
    n = s.n
    d = (0,) + s.degrees  # 1-based degree access
    b = bounds(s)
    l = b.l

    leafy = l >= (n + 1) // 2
    pair_count = b.nu_max if leafy else l
    pairs = [(i, n - i + 1) for i in range(1, pair_count + 1)]  # hub first
    edges: list[Edge] = list(pairs)  # v_{n-i+1} takes its private leaf v_i
    fresh = iter(range(n - 1, 0, -1))
    for _, v in pairs:  # the hub has no parent edge, so it takes one more
        edges.extend((p, v) for p in islice(fresh, d[v] - (1 if v == n else 2)))

    if leafy:
        block: tuple[int, ...] = ()
        branch = BRANCH_MANY_LEAVES
    else:
        # Tree-sum arithmetic forces all middle degrees to be 2; _proved_tree checks it.
        block = tuple(range(l + 1, n - l + 1))
        edges.extend(zip(block, block[1:]))
        edges.append((1, l + 1))
        pairs.extend(zip(block[::2], block[1::2]))
        branch = BRANCH_FEW_LEAVES
    matching = Matching(tuple(pairs))

    tree = _proved_tree(s, edges, matching, b.nu_max, "build_min")
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

    The growth itself yields the witnesses.  M_J pairs n with its leaf 1,
    and each frontier vertex given children with its first child, a leaf,
    except the middle that leads to the next connector.  The last round
    breaks off once all n vertices are placed: its connector is v_mk, its
    frontier vertices left without children are v_mk's l_mk leaves, and
    M_s takes the smallest of them.
    """
    n = s.n
    d = (0,) + s.degrees
    b = bounds(s)
    l, a = b.l, b.a

    dn = d[n]
    edges: list[Edge] = [(j, n) for j in range(1, dn + 1)]

    placed = dn + 1
    k = dn
    h = n
    bottom = l + 1  # next (smallest) unused internal degree, for connectors
    top = n - 1  # next (largest) unused internal degree, for the frontier
    path: list[int] = []  # P_K in walk order: connector, middle, ..., connector
    m_j_edges: list[Edge] = [(1, n)]  # V_J to a leaf: n, then the frontier off P_K

    while placed < n:
        c = k
        path.append(c)
        dc = d[bottom]
        bottom += 1
        frontier = [h - 1 - x for x in range(dc - 1)]
        edges.extend((c, f) if c < f else (f, c) for f in frontier)
        placed += dc - 1
        served: list[Edge] = []  # (first child, vj) for each vj given children
        if placed == n:
            break
        for vj in frontier:  # decreasing index: first takes the largest degree
            dj = d[top]
            top -= 1
            children = list(range(k + 1, k + dj))
            edges.extend((vj, ch) if vj < ch else (ch, vj) for ch in children)
            served.append((k + 1, vj))
            placed += dj - 1
            k += dj - 1
            if placed == n:
                break
        else:  # vertices remain, so vj is the middle to the next connector, off V_J
            path.append(served.pop()[1])
        m_j_edges.extend(served)
        h -= dc - 1

    v_k, p_k = tuple(path[::2]), tuple(path)
    omega = len(v_k)
    m_k = Matching(tuple(zip(p_k[::2], p_k[1::2])))
    if omega == 0:  # a star: V_J is empty, and M_s is the hub's edge to 1
        v_mk: int | None = None
        l_mk = 0
        m_j = Matching(())
    else:
        # The last round broke off, so its unserved frontier is v_mk's leaves.
        v_mk, l_mk = path[-1], len(frontier) - len(served)
        m_j = Matching(tuple(m_j_edges))
    extra = ((frontier[-1], v_mk),) if l_mk > 0 else ()
    m_s = Matching(m_k.edges + tuple(m_j_edges) + extra)

    tree = _proved_tree(s, edges, m_s, n - a, "build_max")
    return MaxCertificate(
        tree=tree,
        v_k=v_k,
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

    Each leaf's neighbour is marked in a ``bytearray``: its parent, or
    n's one child when n is the leaf; one more pass filters the vertices,
    and no set of pairs over the tree is built.
    """
    deg, parent, n = tree._deg, tree._parent, tree.n
    near_leaf = bytearray(n + 1)
    for p in compress(parent, map((1).__eq__, deg)):  # n's parent 0 is no vertex
        near_leaf[p] = 1
    if deg[n] == 1:
        near_leaf[parent.index(n)] = 1
    members = set(v_k)
    return tuple(
        v for v, d in enumerate(deg) if d > 1 and not near_leaf[v] and v not in members
    )


def _cover_nu(tree: LabeledTree) -> tuple[int, bool]:
    """|C| for the marks C of the matching walk on ``tree``, and whether C
    covers every edge.  Each edge of a matching needs its own vertex of a
    cover, so a covering C proves a matching of size |C| maximum (König
    1931, Egerváry 1931), whatever walk made C; so every nonzero mark counts."""
    cover, parent, n = tree._cover(), tree._parent, tree.n
    # The edges are (v, parent[v]) for v < n; C misses one when both ends are unmarked.
    unmarked_parents = compress(parent[1:n], map(not_, cover[1:n]))
    return len(cover) - cover.count(0), all(map(cover.__getitem__, unmarked_parents))


def _bad_fields(cert: MinCertificate | MaxCertificate, n: int) -> list[str]:
    """The names of the fields whose values have the wrong shape.

    This is the one place that decides what a field may hold: matchings are
    :class:`Matching` values, vertex lists are tuples of labels of the tree
    on 1..n, ``omega`` and ``l_mk`` are ints, ``v_mk`` is a label or None,
    and ``branch`` is one of the two branch names.  Past it, every check
    may index the tree by any label a field holds.
    """

    def labels(vs) -> bool:  # _is_label on every entry, at C speed
        ints = isinstance(vs, tuple) and _ints(vs)
        return ints and 1 <= min(vs, default=1) and max(vs, default=n) <= n

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
    roles: dict[str, bool],
    primary: str,
    rank_limit: int,
) -> list[CheckResult]:
    """The checks both kinds share.  ``matching-<name>-valid`` passes when
    the matching is one of the tree and plays its role, where ``roles``
    gives the verdict on that role.  nu is |C| of :func:`_cover_nu`, and
    the checks that read it pass only when C covers."""
    checks: list[CheckResult] = []
    degrees = tuple(sorted(tree._deg[1:]))
    same = degrees == s.degrees
    text = str(s)  # rendered once: the tree's half is the same bytes when same
    detail = f"tree {text if same else ','.join(map(str, degrees))} vs input {text}"
    checks.append(CheckResult("degree-multiset", same, detail))
    for name, m in matchings.items():
        valid = m.is_valid_in(tree) and roles.get(name, True)
        checks.append(CheckResult(f"matching-{name}-valid", valid, f"{m.size} edges"))
    nu, covers = _cover_nu(tree)
    size, n = matchings[primary].size, tree.n
    detail = f"|{primary}| = {size}, nu = {nu}, formula = {expected_nu}"
    checks.append(
        CheckResult(f"matching-{primary}-maximum", covers and size == nu == expected_nu, detail)
    )
    detail = f"nullity {n - 2 * nu} vs {n - 2 * expected_nu}"
    checks.append(CheckResult("nullity-formula", covers and nu == expected_nu, detail))
    if n <= rank_limit:
        rank = tree.adjacency_rank_exact(limit=rank_limit)
        rank_ok, detail = covers and rank == 2 * nu, f"rank {rank} vs 2 nu = {2 * nu}"
    else:
        rank_ok, detail = True, f"skipped (n = {n} > limit {rank_limit})"
    checks.append(CheckResult("rank-cross-check", rank_ok, detail))
    return checks


def _verify_min(
    cert: MinCertificate, tree: LabeledTree, s: DegreeSequence, rank_limit: int
) -> list[CheckResult]:
    b = bounds(s)
    checks = _common_checks(
        tree, s, b.nu_max, {"witness": cert.matching}, {}, "witness", rank_limit
    )
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
        # The block must induce exactly the path of its consecutive pairs.  A
        # forest on k vertices has at most k - 1 edges, and a repeated label
        # leaves fewer than k vertices for the k - 1 pairs; so k distinct
        # labels whose consecutive pairs are tree edges, by the tree's
        # parents towards n, induce those pairs and no other edge.
        parent = tree._parent
        is_path = (
            0 < len(block) == n - 2 * l
            and len(set(block)) == len(block)
            and all(parent[u] == v or parent[v] == u for u, v in zip(block, block[1:]))
        )
        checks.append(
            CheckResult("path-block", is_path, f"{len(block)} vertices, expected {n - 2 * l}")
        )
    return checks


def _verify_max(
    cert: MaxCertificate, tree: LabeledTree, s: DegreeSequence, rank_limit: int
) -> list[CheckResult]:
    b = bounds(s)
    n, l, a = s.n, b.l, b.a
    omega, v_k, v_mk, p_k = cert.omega, cert.v_k, cert.v_mk, cert.p_k
    deg, parent = tree._deg, tree._parent  # rooted at n: parent[n] = 0, parent[0] = -1
    on_path = {v: i for i, v in enumerate(p_k)}  # P_K's vertices and their places
    # The children of V_K and of v_mk, in one pass over the parents.
    members = set(v_k)
    kids = list(compress(range(len(parent)), map({*v_k, v_mk}.__contains__, parent)))
    # V_J, the vertices M_J serves: the internal neighbours of V_K off P_K
    # (none for omega = 0).  M_J gives each of them one edge to a leaf.  That
    # its edges are tree edges is matching-m_j-valid's own test, so the role
    # needs only a leaf end, tested as a label first: M_J may hold any int.
    near_v_k = chain((u for u in kids if parent[u] in members), map(parent.__getitem__, v_k))
    v_j = {u for u in near_v_k if deg[u] > 1 and u not in on_path}
    m_j_serves = cert.m_j.size == len(v_j) and all(
        (u in v_j and _is_label(w, tree.n) and deg[w] == 1)
        or (w in v_j and _is_label(u, tree.n) and deg[u] == 1)
        for u, w in cert.m_j.edges
    )
    checks = _common_checks(
        tree,
        s,
        b.nu_min,
        {"m_k": cert.m_k, "m_j": cert.m_j, "m_s": cert.m_s},
        {"m_j": m_j_serves},
        "m_s",
        rank_limit,
    )
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
            all(deg[v] > 1 for v in v_k)
            and all(v_k[i] < v_k[i + 1] for i in range(len(v_k) - 1)),
            f"v_k = {list(v_k)}",
        )
    )
    # Distinct tree vertices are at distance 2 exactly when they share a
    # neighbor (they cannot also be adjacent: a tree has no triangle).  On
    # the tree rooted at n that neighbor is the parent of both, or the
    # parent of one and the child of the other.  Members are consecutive
    # along P_K, whatever their labels; those off P_K come first.
    along = sorted(v_k, key=lambda v: on_path.get(v, -1))
    consec = all(
        u != w
        and (parent[u] == parent[w] or parent[parent[u]] == w or parent[parent[w]] == u)
        for u, w in zip(along, along[1:])
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
    actual_l_mk = 0 if v_mk is None else (deg[parent[v_mk]] == 1) + sum(
        deg[u] == 1 for u in kids if parent[u] == v_mk
    )
    checks.append(
        CheckResult("l_mk-count", cert.l_mk == actual_l_mk, f"{cert.l_mk} vs {actual_l_mk}")
    )

    if n == 2:
        checks.append(CheckResult("internal-edge-identity", True, "skipped (n = 2)"))
        checks.append(CheckResult("omega-annihilation-bounds", True, "skipped (n = 2)"))
    else:
        lhs = n - 1 - l
        rhs = -cert.l_mk + sum(map(deg.__getitem__, v_k))
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

    # P_K runs from a connector to v_mk, which orients it whatever the
    # labels.  A consecutive pair is a tree edge when one is the other's
    # parent.
    if omega == 0:
        p_k_ok = p_k == ()
    else:
        p_k_ok = (
            len(p_k) == 2 * omega - 1
            and len(on_path) == len(p_k)
            and p_k[0] in v_k
            and p_k[-1] == v_mk
            and on_path.keys() >= set(v_k)
            and all(parent[u] == w or parent[w] == u for u, w in zip(p_k, p_k[1:]))
        )
    checks.append(CheckResult("p_k-path", p_k_ok, f"{len(p_k)} vertices"))
    # M_K's edges are canonical, P_K's pairs are in path order: look up both.
    p_k_pairs = set(zip(p_k, p_k[1:]))
    checks.append(
        CheckResult(
            "m_k-on-path",
            all((u, w) in p_k_pairs or (w, u) in p_k_pairs for u, w in cert.m_k.edges)
            and cert.m_k.size == max(omega - 1, 0),
            f"|m_k| = {cert.m_k.size}",
        )
    )
    # M_s is M_K and M_J plus one edge at v_mk exactly when v_mk has a leaf;
    # a star (omega = 0) has M_K = M_J = {} and M_s one edge, which meets
    # the hub whatever its label.
    m_k, m_j, m_s = cert.m_k.edges, cert.m_j.edges, cert.m_s.edges
    if omega == 0:
        composed = not m_k and not m_j and len(m_s) == 1
    else:
        kept = set(m_s)
        extra = kept.difference(m_k, m_j)
        composed = (
            kept.issuperset(m_k)
            and kept.issuperset(m_j)
            and len(extra) == (1 if actual_l_mk else 0)
            and all(v_mk in e for e in extra)
        )
    checks.append(
        CheckResult(
            "m_s-size-formula",
            cert.m_s.size == n - a and composed,
            f"{cert.m_s.size} vs n - a = {n - a}",
        )
    )

    # Off-path internal vertices must touch a leaf (this is what M_J uses).
    # Degree-2 vertices *on* P_K between two connectors legitimately have no
    # leaf neighbor; they are listed in the detail for visibility.
    strict = internal_leaf_adjacency_violations(tree, v_k)
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
    when it fails.  Any object goes in as the tree: it is judged by its
    ``n`` and ``edges`` alone, so a duck-typed or rewritten tree is
    rebuilt from them.  Certificates produced by :func:`build_min` and
    :func:`build_max` pass all checks.
    """
    if isinstance(cert, MinCertificate):
        kind, verify = "min-nullity", _verify_min
    elif isinstance(cert, MaxCertificate):
        kind, verify = "max-nullity", _verify_max
    else:
        raise TypeError(f"not a certificate: {type(cert).__name__}")
    try:  # the rebuild keeps the canonical pairs of ``edges``: it allocates no pair
        tree = LabeledTree(cert.tree.n, cert.tree.edges)
    except (AttributeError, InputError) as exc:
        checks = [CheckResult("tree-structure", False, type(exc).__name__)]
    else:
        checks = [CheckResult("tree-structure", True, "")]
        bad = _bad_fields(cert, tree.n)
        if bad:
            checks.append(CheckResult("certificate-shape", False, f"bad {', '.join(bad)}"))
        else:
            checks.extend(verify(cert, tree, s, rank_limit))
    return VerificationReport(kind=kind, checks=tuple(checks))
