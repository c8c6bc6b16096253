"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest -sv tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Criterion 7's literal leaf-adjacency clause (every
internal vertex outside the connector set V_K touches a leaf) does not hold
in general: the degree-2 vertices between two consecutive connectors on P_K
have no leaf neighbor.  The strict criterion-7 test therefore checks that
these are exactly the clause's violators on every certificate, and proves
the clause unattainable on the paths (1,1,2,2,2,2) and (1,1,2,2,2,2,2) by
the exhaustive connector search in this file (``_literal_clause_search``).
The provable off-path form of the invariant is enforced by
verify_certificate and tested in the lemma-suite criterion.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

import pytest

from conftest import (
    code_histogram,
    degrees,
    distance,
    enumerate_trees,
    library_decode,
    matching_number,
    neighbours,
    prufer_decode,
    prufer_encode,
)
from treenullity import (
    DegreeSequence,
    LabeledTree,
    bounds,
    build_max,
    build_min,
    conjecture_scan,
    count_trees,
    internal_leaf_adjacency_violations,
    literal_characterization,
    parse_sequence,
    spectrum,
    tree_degree_sequences,
    verify_certificate,
)
from treenullity.oracle import _SplitMix64, random_degree_sequence

FIG_1A = parse_sequence("1,1,1,1,1,1,2,2,3,3,4")
FIG_1B = parse_sequence("1,1,1,1,2,2,2,2,2,3,3")
STAR_9 = parse_sequence("1,1,1,1,1,1,1,1,8")
FIG_2B = DegreeSequence((1,) * 10 + (2, 4, 4, 4, 4))
FIG_2C = DegreeSequence((1,) * 11 + (3, 3, 3, 3, 3, 4, 4))

SCALE_SEQUENCES = 10_000
SCALE_MAX_N = 200
SCALE_SEED = 0x5CA1E


def _report(number: int, label: str, passed: bool = True, extra: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" [{extra}]" if extra else ""
    print(f"\nACCEPTANCE {number} ({label}): {status}{suffix}")


def _best_time(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------------------
# Shared exhaustive data: spectra of every sequence with 3 <= n <= 9
# ---------------------------------------------------------------------------


@dataclass
class ExhaustiveSweep:
    spectra: dict  # DegreeSequence -> NullitySpectrum (counted)
    enumerated: dict  # DegreeSequence -> {nu: trees}, by walking every Prüfer code
    elapsed: float
    trees_total: int


@pytest.fixture(scope="module")
def sweep() -> ExhaustiveSweep:
    t0 = time.perf_counter()
    spectra = {}
    enumerated = {}
    trees_total = 0
    for n in range(3, 10):
        for s in tree_degree_sequences(n):
            sp = spectrum(s)
            spectra[s] = sp
            enumerated[s] = code_histogram(s)
            trees_total += sum(enumerated[s].values())
    return ExhaustiveSweep(
        spectra=spectra,
        enumerated=enumerated,
        elapsed=time.perf_counter() - t0,
        trees_total=trees_total,
    )


# ---------------------------------------------------------------------------
# Shared scale data: 10,000 seeded random sequences with n <= 200
# ---------------------------------------------------------------------------


@dataclass
class ScaleRun:
    sequences: int
    elapsed: float
    formula_failures: list
    verify_failures: list
    lemma_failures: list
    strict_mismatches: list  # (sequence, (unexpected violators, missing middles))
    strict_exceptions: int  # certificates with a leafless degree-2 middle on P_K


@pytest.fixture(scope="module")
def scale_run() -> ScaleRun:
    rng = _SplitMix64(SCALE_SEED)
    lemma_names = (
        "internal-edge-identity",
        "omega-annihilation-bounds",
        "v_k-consecutive-distance-2",
        "v_k-pairwise-even-distance",
        "internal-off-path-leaf-adjacency",
    )
    formula_failures = []
    verify_failures = []
    lemma_failures = []
    strict_mismatches = []
    strict_exceptions = 0
    t0 = time.perf_counter()
    for _ in range(SCALE_SEQUENCES):
        n = 2 + rng.below(SCALE_MAX_N - 1)
        s = random_degree_sequence(n, seed=rng.next_u64())
        b = bounds(s)
        cmin = build_min(s)
        cmax = build_max(s)
        if cmin.matching.size != b.nu_max or cmax.m_s.size != b.nu_min:
            formula_failures.append(s)
        rmin = verify_certificate(cmin, s)
        rmax = verify_certificate(cmax, s)
        if not (rmin.ok and rmax.ok):
            verify_failures.append((s, rmin.failures() + rmax.failures()))
        bad_lemma = [
            c.name
            for c in rmax.checks
            if c.name in lemma_names and not c.passed
        ]
        if bad_lemma:
            lemma_failures.append((s, bad_lemma))
        mismatch = _strict_clause_mismatch(cmax)
        if mismatch:
            strict_mismatches.append((s, mismatch))
        strict_exceptions += bool(_degree_2_middles(cmax))
    elapsed = time.perf_counter() - t0
    return ScaleRun(
        sequences=SCALE_SEQUENCES,
        elapsed=elapsed,
        formula_failures=formula_failures,
        verify_failures=verify_failures,
        lemma_failures=lemma_failures,
        strict_mismatches=strict_mismatches,
        strict_exceptions=strict_exceptions,
    )


# ---------------------------------------------------------------------------
# Criterion 1: minimum-nullity builder reproduces the reference fixtures
# ---------------------------------------------------------------------------


def test_c1_min_builder_fixtures():
    cert_a = build_min(FIG_1A)
    expected = {(1, 11), (10, 11), (9, 11), (8, 11), (2, 10),
                (7, 10), (3, 9), (6, 9), (4, 8), (5, 7)}
    assert set(cert_a.tree.edges) == expected
    assert cert_a.matching.size == 5 and cert_a.tree.nullity() == 1

    cert_b = build_min(FIG_1B)
    assert cert_b.tree.degree_multiset() == FIG_1B
    assert cert_b.matching.size == 5 and cert_b.tree.nullity() == 1
    assert verify_certificate(cert_b, FIG_1B).ok

    dt_a = _best_time(lambda: build_min(FIG_1A))
    dt_b = _best_time(lambda: build_min(FIG_1B))
    assert dt_a < 0.001 and dt_b < 0.001
    _report(1, "min builder fixtures", extra=f"{dt_a*1e6:.0f}us / {dt_b*1e6:.0f}us")


# ---------------------------------------------------------------------------
# Criterion 2: maximum-nullity builder fixtures
# ---------------------------------------------------------------------------


def test_c2_max_builder_fixtures():
    star = build_max(STAR_9)
    assert star.omega == 0 and star.tree.nullity() == 7

    c2b = build_max(FIG_2B)
    assert c2b.omega == 2 and len(c2b.v_k) == 2
    assert c2b.l_mk == 2
    assert c2b.m_s.size == 4 and c2b.tree.nullity() == 7

    c2c = build_max(FIG_2C)
    assert c2c.omega == 2 and c2c.l_mk == 0
    assert c2c.m_s.size == 5 and c2c.tree.nullity() == 8

    times = [
        _best_time(lambda s=s: build_max(s)) for s in (STAR_9, FIG_2B, FIG_2C)
    ]
    assert all(dt < 0.001 for dt in times)
    _report(2, "max builder fixtures", extra=f"worst {max(times)*1e6:.0f}us")


# ---------------------------------------------------------------------------
# Criterion 3: exhaustive oracle equivalence of the extremal formulas
# ---------------------------------------------------------------------------


def test_c3_oracle_equivalence(sweep):
    # The counted spectra must equal the brute-force enumeration, so that the
    # extremes below are checked against every tree, not against the DP.
    mismatched = [s for s, sp in sweep.spectra.items() if sp.by_matching != sweep.enumerated[s]]
    assert mismatched == []
    exceptions = []
    for s, sp in sweep.spectra.items():
        b = bounds(s)
        keys = sorted(sp.by_nullity)
        if keys[0] != b.nullity_min or keys[-1] != b.nullity_max:
            exceptions.append((s, keys, (b.nullity_min, b.nullity_max)))
    assert exceptions == []
    assert sweep.elapsed <= 300.0
    _report(
        3,
        "exhaustive oracle equivalence n=3..9",
        extra=f"{len(sweep.spectra)} sequences, {sweep.trees_total} trees, "
        f"{sweep.elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 4: exact rank equals twice the matching number
# ---------------------------------------------------------------------------


def test_c4_rank_cross_check():
    rng = random.Random(0x0416)
    t0 = time.perf_counter()
    for _ in range(1000):
        n = rng.randint(2, 16)
        code = tuple(rng.randint(1, n) for _ in range(n - 2))
        tree = prufer_decode(code, n)
        assert tree.adjacency_rank_exact() == 2 * matching_number(tree)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(4, "rank cross-check on 1000 random trees", extra=f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 5: constructor postconditions at scale
# ---------------------------------------------------------------------------


def test_c5_constructors_at_scale(scale_run):
    assert scale_run.formula_failures == []
    assert scale_run.verify_failures == []
    assert scale_run.elapsed < 60.0
    _report(
        5,
        "10k random sequences n<=200 build+verify",
        extra=f"{scale_run.elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 6: characterization of equal extremes (amended), with the
# disagreements of the unamended floor(n/2) condition logged
# ---------------------------------------------------------------------------


def test_c6_characterization(sweep):
    mismatches = []
    disagreements = []
    for s, sp in sweep.spectra.items():
        single = len(sp.by_nullity) == 1
        st = bounds(s)
        amended = st.a == max(st.l, (s.n + 1) // 2)
        equal = st.extremal_equal
        if single != amended or amended != equal:
            mismatches.append(s)
        if literal_characterization(s) != equal:
            disagreements.append(s)
    assert mismatches == []
    for s in disagreements:
        print(
            f"  unamended condition disagrees on {s} "
            f"(n={s.n}, a={bounds(s).a}, l={bounds(s).l}, floor(n/2)={s.n // 2})"
        )
    assert DegreeSequence((1, 1, 2, 2, 2)) in disagreements
    assert all(s.n % 2 == 1 for s in disagreements)
    _report(
        6,
        "equal-extremes characterization",
        extra=f"{len(disagreements)} documented odd-n disagreements",
    )


# ---------------------------------------------------------------------------
# Criterion 7: lemma suite over the fixture and scale certificates
# ---------------------------------------------------------------------------


def _fixture_max_certificates():
    return [(s, build_max(s)) for s in (STAR_9, FIG_2B, FIG_2C)]


def test_c7_lemma_suite(scale_run):
    for s, cert in _fixture_max_certificates():
        st = bounds(s)
        tree = cert.tree
        assert s.n - 1 - st.l == -cert.l_mk + sum(degrees(tree)[v] for v in cert.v_k)
        assert st.a - st.l <= cert.omega <= st.a - st.l + 1
        assert (cert.omega == st.a - st.l) == (cert.l_mk == 0)
        for i in range(cert.omega - 1):
            assert distance(tree, cert.v_k[i], cert.v_k[i + 1]) == 2
        assert internal_leaf_adjacency_violations(tree, cert.v_k) == ()
    assert scale_run.lemma_failures == []
    _report(
        7,
        "lemma suite (identity, omega window, distances, off-path leaf adjacency)",
        extra=f"{scale_run.sequences} scale certificates + 3 fixtures",
    )


def _degree_2_middles(cert) -> set[int]:
    """Degree-2 vertices of P_K between two consecutive connectors.

    P_K alternates connectors and middles, so these are its non-connector
    vertices of degree 2; both of their neighbors are internal connectors.
    """
    deg = degrees(cert.tree)
    return {v for v in cert.p_k if v not in cert.v_k and deg[v] == 2}


def _strict_clause_mismatch(cert) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Compare the literal clause's violators with the degree-2 middles.

    Returns ``None`` when they agree exactly, else the violators that are
    not degree-2 middles and the degree-2 middles that are not violators.
    """
    violators = set(internal_leaf_adjacency_violations(cert.tree, cert.v_k))
    middles = _degree_2_middles(cert)
    if violators == middles:
        return None
    return tuple(sorted(violators - middles)), tuple(sorted(middles - violators))


def _connector_candidates(tree, s: DegreeSequence):
    """Every ordered connector tuple on ``tree`` meeting the other invariants.

    Candidates are tuples of distinct internal vertices whose size omega lies
    in the window a - l <= omega <= a - l + 1, with omega = a - l exactly when
    the last member has no leaf neighbor (l_mk = 0), satisfying the
    internal-edge identity n - 1 - l = -l_mk + sum of degrees, and with
    consecutive members at distance 2.
    """
    st = bounds(s)
    n, l, a = s.n, st.l, st.a
    deg = degrees(tree)
    internal = [v for v in range(1, n + 1) if deg[v] > 1]
    for omega in (a - l, a - l + 1):
        for v_k in itertools.permutations(internal, omega):
            last = neighbours(tree, v_k[-1]) if v_k else ()
            l_mk = sum(1 for u in last if deg[u] == 1)
            if (omega == a - l) != (l_mk == 0):
                continue
            if n - 1 - l != -l_mk + sum(deg[v] for v in v_k):
                continue
            if all(distance(tree, v_k[i], v_k[i + 1]) == 2 for i in range(omega - 1)):
                yield v_k


def _literal_clause_search(s: DegreeSequence) -> tuple[int, int]:
    """Exhaustive search for a certificate that meets the literal clause.

    Tries every connector candidate on every maximum-nullity labeled
    realization of ``s``.  Returns the number of candidates and the number
    of them under which every internal non-connector vertex touches a leaf.
    """
    nu_min = bounds(s).nu_min
    counts = [0, 0]

    def visit(tree):
        if matching_number(tree) != nu_min:
            return
        for v_k in _connector_candidates(tree, s):
            counts[0] += 1
            counts[1] += not internal_leaf_adjacency_violations(tree, v_k)

    enumerate_trees(s, visit)
    return counts[0], counts[1]


def test_c7_strict_internal_leaf_adjacency(scale_run):
    """The literal clause: every internal non-connector vertex touches a leaf.

    The clause fails exactly at the degree-2 vertices of P_K between two
    consecutive connectors, which have only connectors as neighbors.  This
    test checks the clause on every scale and fixture certificate and
    asserts that its violators are exactly those degree-2 middles: a
    leafless vertex off P_K or of degree >= 3, or a degree-2 middle missing
    from the violators, fails it.  It then proves the clause unattainable
    in general: on the paths (1,1,2,2,2,2) and (1,1,2,2,2,2,2),
    ``_literal_clause_search`` finds connector candidates, and every one of
    them leaves a violator.  The provable off-path form is enforced by
    verify_certificate and covered by the lemma-suite test above.
    """
    mismatches = list(scale_run.strict_mismatches)
    for s, cert in _fixture_max_certificates():
        mismatch = _strict_clause_mismatch(cert)
        if mismatch:
            mismatches.append((s, mismatch))
    assert mismatches == [], (
        f"{len(mismatches)} maximum-nullity certificates break the documented "
        f"exception set of the literal leaf-adjacency clause; first example: "
        f"sequence {mismatches[0][0]} with (unexpected violators, missing "
        f"degree-2 middles) = {mismatches[0][1]}"
    )

    searched = []
    for text in ("1,1,2,2,2,2", "1,1,2,2,2,2,2"):
        candidates, meeting_clause = _literal_clause_search(parse_sequence(text))
        assert candidates > 0, f"no connector candidate for ({text})"
        assert meeting_clause == 0, (
            f"{meeting_clause} of {candidates} connector candidates for ({text}) "
            f"meet the literal clause"
        )
        searched.append(f"({text}): {candidates}")
    _report(
        7,
        "strict internal leaf adjacency (literal clause)",
        extra=f"violators are exactly the degree-2 P_K middles in "
        f"{scale_run.strict_exceptions} of {scale_run.sequences} scale certificates "
        f"+ 3 fixtures; clause unattainable over all candidates of "
        + ", ".join(searched),
    )


def test_c7_literal_clause_forced_only_on_paths():
    """Sequences with n <= 8 on which the literal clause cannot be met.

    A sequence forces an exception when no connector candidate on any of its
    maximum-nullity realizations meets the clause.  The certificate from
    build_max is itself a candidate, so only sequences where it has
    exceptions need the exhaustive search.  The forced ones are exactly the
    paths with n = 6, 7, 8; every other sequence admits a certificate with
    no exception, even where build_max does not return one.
    """
    forced, avoidable = [], []
    for n in range(3, 9):
        for s in tree_degree_sequences(n):
            cert = build_max(s)
            if internal_leaf_adjacency_violations(cert.tree, cert.v_k):
                _, meeting_clause = _literal_clause_search(s)
                (avoidable if meeting_clause else forced).append(s)
    assert forced == [DegreeSequence((1, 1) + (2,) * (n - 2)) for n in (6, 7, 8)]
    for s in avoidable:
        print(f"  build_max has avoidable literal-clause exceptions on {s}")
    _report(
        7,
        "literal clause forced only on paths, n<=8",
        extra=f"{len(avoidable)} sequences with avoidable exceptions listed above",
    )


# ---------------------------------------------------------------------------
# Criterion 8: interval conjecture scan (report-only)
# ---------------------------------------------------------------------------


def test_c8_conjecture_interval(sweep):
    gaps_found = []
    for s, sp in sweep.spectra.items():
        b = bounds(s)
        keys = set(sp.by_matching)
        assert min(keys) == b.nu_min and max(keys) == b.nu_max
        gaps = [k for k in range(b.nu_min, b.nu_max + 1) if k not in keys]
        if gaps:
            gaps_found.append((s, gaps))
            print(
                f"  CONJECTURE COUNTEREXAMPLE FINDING: {s} realizes no tree "
                f"with matching number in {gaps}"
            )
    # Report-only: coverage gaps are findings, never suite failures.
    for s in (parse_sequence("1,1,1,2,2,3"), FIG_1B):
        scan = conjecture_scan(s)
        assert scan.exhaustive
        assert set(scan.witnesses) == set(range(bounds(s).nu_min, bounds(s).nu_max + 1))
        assert scan.complete == (not any(seq == s for seq, _ in gaps_found))
    _report(
        8,
        "interval conjecture scan n=3..9",
        extra=(
            "no gaps: every value between the extremes is realized"
            if not gaps_found
            else f"{len(gaps_found)} gap findings reported above"
        ),
    )


# ---------------------------------------------------------------------------
# Criterion 9: property suites
# ---------------------------------------------------------------------------


def test_c9_property_suites(sweep):
    # Prüfer round trip through the library's decode, exhaustive for n <= 7.
    checked = 0
    for n in range(2, 8):
        for code in itertools.product(range(1, n + 1), repeat=n - 2):
            assert prufer_encode(LabeledTree(n, library_decode(code, n))) == code
            checked += 1
    # ... and 10,000 random larger codes.
    rng = random.Random(0x909)
    for _ in range(10_000):
        n = rng.randint(8, 20)
        code = tuple(rng.randint(1, n) for _ in range(n - 2))
        assert prufer_encode(LabeledTree(n, library_decode(code, n))) == code

    # Spectrum totals and parity over the exhaustive sweep.
    for s, sp in sweep.spectra.items():
        assert sum(sp.by_nullity.values()) == sp.total == count_trees(s)
        assert all(k % 2 == s.n % 2 for k in sp.by_nullity)
        assert all(k >= 0 for k in sp.by_nullity)

    # Independence number bounded by the annihilation number, per tree.
    for n in range(2, 8):
        for s in tree_degree_sequences(n):
            a = bounds(s).a
            enumerate_trees(s, lambda t, a=a: _assert_alpha(t, a))

    # Partitioned enumeration equals the single-threaded run.
    for text in ("1,1,1,1,2,2,2,2,2,3,3", "1,1,2,2,2,2,2,2"):
        s = parse_sequence(text)
        base = conjecture_scan(s, jobs=1)
        assert conjecture_scan(s, jobs=3) == base
        assert conjecture_scan(s, jobs=8) == base

    _report(9, "property suites", extra=f"{checked} exhaustive round trips")


def _assert_alpha(tree, a):
    assert tree.n - matching_number(tree) <= a  # the independence number
