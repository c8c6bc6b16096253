"""Output checker for the benchmark, written apart from ``treenullity``.

Nothing here imports the package.  Trees are checked by union-find, the
matching number comes from a rooted tree DP (the library strips leaves
greedily), the extremes come from the paper's closed formulas, realization
counts from Moon's formula, and small spectra from a brute force over this
module's own heap-based Prüfer decode.  Every check returns a list of error
strings; an empty list means the output is correct.

``python3 bench/check.py`` runs the self-test, which shows that each check
catches the fault it is there for.
"""

from __future__ import annotations

import heapq
import json
import math
import sys
from collections import Counter
from types import SimpleNamespace

# Spectra with at most this many trees are also brute-forced.
BRUTE_FORCE_MAX_TREES = 10_000


# ---------------------------------------------------------------------------
# Independent computations
# ---------------------------------------------------------------------------


def tree_errors(n: int, edges, degrees) -> list[str]:
    """``edges`` form a tree on labels 1..n with degree multiset ``degrees``."""
    edges = [tuple(e) for e in edges]
    if len(edges) != n - 1:
        return [f"{len(edges)} edges on {n} vertices"]
    parent = list(range(n + 1))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    deg = [0] * (n + 1)
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            return [f"edge {u}-{v} outside 1..{n}"]
        ru, rv = root(u), root(v)
        if ru == rv:
            return [f"edge {u}-{v} closes a cycle or repeats"]
        parent[ru] = rv
        deg[u] += 1
        deg[v] += 1
    if sorted(deg[1:]) != sorted(degrees):
        return ["degree multiset differs from the sequence"]
    return []


def matching_number(n: int, edges) -> int:
    """Maximum matching size of a tree by DP over a rooted order.

    free[v]: best matching of v's subtree with v unmatched;
    best[v]: best matching of v's subtree.
    """
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    order = [1]
    up = [0] * (n + 1)
    up[1] = -1
    for v in order:
        for w in adj[v]:
            if w != up[v]:
                up[w] = v
                order.append(w)
    free = [0] * (n + 1)
    best = [0] * (n + 1)
    gain = [0] * (n + 1)  # best extra from matching v to one child
    for v in reversed(order):
        best[v] = max(free[v], free[v] + gain[v])
        p = up[v]
        if p > 0:
            free[p] += best[v]
            gain[p] = max(gain[p], free[v] + 1 - best[v])
    return best[1]


def closed_bounds(degrees) -> tuple[int, int]:
    """(nu_min, nu_max) of a tree degree sequence by the closed formulas:
    nu_max = min(n - l, floor(n/2)) (1 for the single edge), nu_min = n - a."""
    ds = sorted(degrees)
    n = len(ds)
    leaves = ds.count(1)
    a = 0
    prefix = 0
    for d in ds:
        prefix += d
        if prefix > n - 1:
            break
        a += 1
    nu_max = 1 if n == 2 else min(n - leaves, n // 2)
    return n - a, nu_max


def moon_count(degrees) -> int:
    """Labelled trees with vertex i of degree d_i: (n-2)! / prod (d_i - 1)!."""
    total = math.factorial(len(degrees) - 2)
    for d in degrees:
        total //= math.factorial(d - 1)
    return total


def prufer_decode(code, n: int) -> list[tuple[int, int]]:
    """Edges of the tree with this Prüfer code (smallest-leaf heap)."""
    deg = [1] * (n + 1)
    for x in code:
        deg[x] += 1
    leaves = [v for v in range(1, n + 1) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def brute_histogram(degrees) -> dict[int, int]:
    """Matching-number histogram over every tree with vertex i of degree
    d_i, by decoding every arrangement of the Prüfer symbol multiset."""
    n = len(degrees)
    left = {v: d - 1 for v, d in enumerate(degrees, start=1) if d > 1}
    hist: Counter[int] = Counter()
    code: list[int] = []

    def extend() -> None:
        if len(code) == n - 2:
            hist[matching_number(n, prufer_decode(code, n))] += 1
            return
        for v in list(left):
            if left[v]:
                left[v] -= 1
                code.append(v)
                extend()
                code.pop()
                left[v] += 1

    extend()
    return dict(hist)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def matching_errors(tree_edges, matching, size: int, what: str) -> list[str]:
    """``matching`` is a matching of the tree with ``size`` edges."""
    edge_set = {tuple(sorted(e)) for e in tree_edges}
    used: set[int] = set()
    for u, v in matching:
        if tuple(sorted((u, v))) not in edge_set:
            return [f"{what}: {u}-{v} is not a tree edge"]
        if u in used or v in used:
            return [f"{what}: vertex shared by two matching edges"]
        used.update((u, v))
    if len(matching) != size:
        return [f"{what}: {len(matching)} edges, formula says {size}"]
    return []


def certificate_errors(degrees, cert, matching, nu: int, what: str) -> list[str]:
    """A certificate's tree realizes ``degrees``, its witness matching has
    ``nu`` edges and no matching of the tree is larger."""
    tree = cert.tree
    errors = tree_errors(tree.n, tree.edges, degrees)
    if errors:
        return [f"{what}: {e}" for e in errors]
    errors = matching_errors(tree.edges, matching.edges, nu, what)
    dp = matching_number(tree.n, tree.edges)
    if dp != nu:
        errors.append(f"{what}: tree DP matching number {dp}, formula {nu}")
    return errors


def certify_errors(degrees, out) -> list[str]:
    """Both certificates of one certification, and both verify reports."""
    cmin, cmax, rmin, rmax = out
    nu_min, nu_max = closed_bounds(degrees)
    errors = certificate_errors(degrees, cmin, cmin.matching, nu_max, "min")
    errors += certificate_errors(degrees, cmax, cmax.m_s, nu_min, "max")
    for side, report in (("min", rmin), ("max", rmax)):
        if not report.ok:
            errors.append(f"{side}: verify_certificate failed")
    return errors


def _cli_payload(out) -> tuple[dict | None, list[str]]:
    code, stdout, stderr = out
    if code != 0 or stderr:
        return None, [f"exit {code}, stderr {stderr[:200]!r}"]
    try:
        return json.loads(stdout), []
    except ValueError:
        return None, ["stdout is not one JSON object"]


def spectrum_errors(degrees, out) -> list[str]:
    """``treenullity spectrum`` output against Moon's count, the closed
    formulas and, for small classes, a brute-force histogram."""
    payload, errors = _cli_payload(out)
    if errors:
        return errors
    n = len(degrees)
    total = moon_count(degrees)
    nu_min, nu_max = closed_bounds(degrees)
    hist = {int(k): int(v) for k, v in payload["by_matching"].items()}
    if payload["sequence"] != sorted(degrees):
        errors.append("sequence not echoed in canonical order")
    if int(payload["total"]) != total or sum(hist.values()) != total:
        errors.append(f"total {payload['total']} / histogram sum, Moon's count {total}")
    if min(hist) != nu_min or max(hist) != nu_max:
        errors.append(f"extremes {min(hist)}..{max(hist)}, formulas {nu_min}..{nu_max}")
    if any(v <= 0 for v in hist.values()):
        errors.append("a listed matching number has no tree")
    nullity = {int(k): int(v) for k, v in payload["by_nullity"].items()}
    if nullity != {n - 2 * k: v for k, v in hist.items()}:
        errors.append("by_nullity disagrees with by_matching")
    if total <= BRUTE_FORCE_MAX_TREES and hist != brute_histogram(degrees):
        errors.append("histogram differs from the brute force")
    return errors


def sample_errors(degrees, samples: int, seed: int, out) -> list[str]:
    """``treenullity conjecture --samples`` output: the closed-formula range,
    and every witness a tree on the sequence whose DP matching number is its
    key."""
    payload, errors = _cli_payload(out)
    if errors:
        return errors
    n = len(degrees)
    nu_min, nu_max = closed_bounds(degrees)
    if payload["sequence"] != sorted(degrees):
        errors.append("sequence not echoed in canonical order")
    if (payload["nu_min"], payload["nu_max"]) != (nu_min, nu_max):
        errors.append(f"range {payload['nu_min']}..{payload['nu_max']}, formulas {nu_min}..{nu_max}")
    if (payload["mode"], payload.get("samples"), payload.get("seed")) != ("sampling", samples, seed):
        errors.append("not a sampling scan with the requested samples and seed")
    witnesses = {int(k): e for k, e in payload["witnesses"].items()}
    if sorted(witnesses) != list(range(nu_min, nu_max + 1)):
        errors.append("witness keys are not the closed-formula range")
    for k, edges in sorted(witnesses.items()):
        if edges is None:
            continue
        wrong = tree_errors(n, edges, degrees)
        if wrong:
            errors += [f"witness {k}: {e}" for e in wrong]
        elif matching_number(n, edges) != k:
            errors.append(f"witness {k}: tree DP matching number {matching_number(n, edges)}")
    gaps = [k for k, e in sorted(witnesses.items()) if e is None]
    if payload["gaps"] != gaps or payload["complete"] != (not gaps):
        errors.append("gaps or complete disagree with the witnesses")
    if len(gaps) == len(witnesses):
        errors.append("no witness, though every draw is a tree with a matching number in range")
    return errors


# ---------------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------------


def _cert(n: int, edges, matching) -> SimpleNamespace:
    return SimpleNamespace(
        tree=SimpleNamespace(n=n, edges=tuple(edges)),
        matching=SimpleNamespace(edges=tuple(matching)),
    )


def selftest() -> list[str]:
    """Each planted fault must be caught and each sound output accepted.
    Returns the cases that went wrong."""
    wrong = []

    def expect(name: str, errors: list[str], caught: bool) -> None:
        if bool(errors) != caught:
            wrong.append(f"{name}: {'missed' if caught else 'false alarm'} {errors}")

    # Path 1-2-3-4-5-6: degrees (1,1,2,2,2,2), nu = 3 = nu_max.
    degs = (1, 1, 2, 2, 2, 2)
    path = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
    spider = [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]  # vertex 3 has degree 3
    good = [(1, 2), (3, 4), (5, 6)]
    for name, edges, matching, caught in (
        ("sound certificate", path, good, False),
        ("dropped matching edge", path, good[:2], True),
        ("tree with a wrong degree", spider, good, True),
    ):
        cert = _cert(6, edges, matching)
        expect(name, certificate_errors(degs, cert, cert.matching, 3, "min"), caught)
    expect("cycle", tree_errors(6, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6)], degs), True)

    # Spectrum of (1,1,1,2,2,3) on labels 1..6: 60 trees.
    degs = (1, 1, 1, 2, 2, 3)
    hist = brute_histogram(degs)
    nu_min, nu_max = closed_bounds(degs)
    if sum(hist.values()) != moon_count(degs) or (min(hist), max(hist)) != (nu_min, nu_max):
        wrong.append(f"brute force {hist} disagrees with Moon's count or the formulas")

    def spectrum_out(h: dict[int, int]) -> tuple[int, str, str]:
        payload = {
            "sequence": list(degs),
            "total": str(sum(h.values())),
            "by_nullity": {str(6 - 2 * k): str(v) for k, v in h.items()},
            "by_matching": {str(k): str(v) for k, v in h.items()},
        }
        return 0, json.dumps(payload), ""

    expect("sound histogram", spectrum_errors(degs, spectrum_out(hist)), False)
    moved = dict(hist)
    moved[nu_min] -= 1
    moved[nu_max] += 1
    expect("histogram with one count moved", spectrum_errors(degs, spectrum_out(moved)), True)

    # Sampling witnesses for the same sequence: nu_min = 2, nu_max = 3.
    nu2 = [(3, 1), (3, 2), (3, 4), (4, 5), (5, 6)]  # legs 1, 1, 3 at vertex 3
    nu3 = [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]  # legs 1, 2, 2 at vertex 3

    def sample_out(witnesses: dict[str, list | None]) -> tuple[int, str, str]:
        gaps = [int(k) for k, e in witnesses.items() if e is None]
        payload = {
            "sequence": list(degs), "nu_min": 2, "nu_max": 3, "mode": "sampling",
            "witnesses": witnesses, "gaps": gaps, "complete": not gaps, "samples": 4, "seed": 9,
        }
        return 0, json.dumps(payload), ""

    expect("sound witnesses", sample_errors(degs, 4, 9, sample_out({"2": nu2, "3": nu3})), False)
    expect(
        "witness whose matching number differs from its key",
        sample_errors(degs, 4, 9, sample_out({"2": nu3, "3": None})),
        True,
    )

    return wrong


if __name__ == "__main__":
    failures = selftest()
    for line in failures:
        print(line, file=sys.stderr)
    print("self-test:", "FAIL" if failures else "ok")
    sys.exit(1 if failures else 0)
