"""Prüfer bijection, enumeration, spectra, sampling and the conjecture scan."""

import hashlib
import itertools
import multiprocessing
import os
import pathlib
import subprocess
import sys
import textwrap
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    code_histogram,
    degree_sequences,
    degrees,
    enumerate_trees,
    labeled_trees,
    library_decode,
    matching_number,
    prufer_decode,
    prufer_encode,
    slow_matching_histogram,
)
from treenullity import (
    ConstructionInvariantViolated,
    DegreeSequence,
    EnumerationCapExceeded,
    LabeledTree,
    bounds,
    conjecture_scan,
    count_trees,
    parse_sequence,
    random_tree,
    spectrum,
    tree_degree_sequences,
)
from treenullity import cli, oracle
from treenullity.oracle import (
    _code_nu,
    _count_within,
    _matching_counts,
    _next_permutation,
    _partition,
    _shuffled,
    _ShuffleLanes,
    _SplitMix64,
    _symbol_multiset,
    _unrank_permutation,
    random_degree_sequence,
)

FIG_1A = "1,1,1,1,1,1,2,2,3,3,4"  # 15,120 trees; the first nu = 3 tree has rank 4375


class TestPrufer:
    def test_empty_code(self):
        assert prufer_decode((), 2).edges == ((1, 2),)

    def test_repeated_center(self):
        t = prufer_decode((5, 5, 5), 5)
        assert t.edges == ((1, 5), (2, 5), (3, 5), (4, 5))

    def test_encode_edge(self):
        assert prufer_encode(prufer_decode((), 2)) == ()

    def test_encode_path_3(self):
        t = prufer_decode((2,), 3)
        assert prufer_encode(t) == (2,)

    def test_exhaustive_round_trip_small(self):
        # All 18,248 codes with n <= 7: the library's decode is the tests'
        # textbook decode, and the independent encoder takes it back.
        count = 0
        for n in range(2, 8):
            for code in itertools.product(range(1, n + 1), repeat=n - 2):
                edges = sorted(library_decode(code, n))
                assert tuple(edges) == prufer_decode(code, n).edges, code
                assert prufer_encode(LabeledTree(n, edges)) == code
                count += 1
        assert count == 18_248

    def test_matching_is_the_greedy_along_the_decode(self):
        # maximum_matching walks the tree's peel order; _code_nu and the greedy
        # below walk the code, along the decode's edges in walk order.  One
        # rule in two orders gives one size, and the DP, with no rule, agrees.
        for n in range(2, 8):
            for code in itertools.product(range(1, n + 1), repeat=n - 2):
                covered, greedy = set(), []
                for u, v in library_decode(code, n):
                    if u not in covered and v not in covered:
                        covered |= {u, v}
                        greedy.append((u, v))
                t = prufer_decode(code, n)
                m = t.maximum_matching()
                deg = degrees(t)
                assert m.is_valid_in(t), code
                assert m.size == _code_nu(code, deg)[0] == len(greedy), code
                assert m.size == matching_number(t), code

    def test_degrees_match_symbol_counts(self):
        code = (7, 3, 3, 9, 1, 7, 7)
        t = prufer_decode(code, 9)
        deg = degrees(t)
        for v in range(1, 10):
            assert deg[v] == code.count(v) + 1

    @given(labeled_trees(max_n=20))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_random(self, t):
        assert prufer_decode(prufer_encode(t), t.n) == t

    @pytest.mark.parametrize("n,seed", [(1_000, 1), (10_000, 2)])
    def test_encode_at_scale(self, n, seed):
        s = random_degree_sequence(n, seed)
        sym = _symbol_multiset(s)
        code = _shuffled(sym, _ShuffleLanes(len(sym)), seed)
        assert prufer_encode(random_tree(s, seed)) == tuple(code)


class TestCounting:
    @pytest.mark.parametrize(
        "text,count",
        [("1,1,1,2,3", 3), ("1,1,2,2,2,2", 24), ("1,1,1,1,1,1,1,1,8", 1), ("1,1", 1)],
    )
    def test_examples(self, text, count):
        assert count_trees(parse_sequence(text)) == count

    @given(degree_sequences(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_count_matches_enumeration(self, s):
        seen = []
        visited = enumerate_trees(s, seen.append)
        assert visited == count_trees(s) == len(seen)
        assert len({t.edges for t in seen}) == len(seen)
        assert all(t.degree_multiset() == s for t in seen)


class TestEnumeration:
    def test_three_trees(self):
        trees = []
        assert enumerate_trees(parse_sequence("1,1,1,2,3"), trees.append) == 3
        assert len({t.edges for t in trees}) == 3

    def test_star_single(self):
        trees = []
        assert enumerate_trees(parse_sequence("1,1,1,1,1,1,1,1,8"), trees.append) == 1
        assert trees[0].edges == tuple((i, 9) for i in range(1, 9))

    def test_cap(self):
        # The capped count that spectrum and the conjecture scan share stops
        # just above the cap; 12 trees realize this sequence.
        s = parse_sequence("1,1,1,2,2,3")
        assert _count_within(s, 11) is None
        assert _count_within(s, 12) == 12
        with pytest.raises(EnumerationCapExceeded):
            spectrum(s, cap=11)
        assert spectrum(s, cap=12).total == 12

    def test_unrank_agrees_with_iteration(self):
        s = parse_sequence("1,1,1,2,2,3")
        sym = _symbol_multiset(s)
        rank = 0
        while True:
            assert _unrank_permutation(s, rank) == sym
            if not _next_permutation(sym):
                break
            rank += 1
        assert rank + 1 == count_trees(s)


class TestSpectrum:
    def test_all_same_nullity(self):
        sp = spectrum(parse_sequence("1,1,1,2,3"))
        assert sp.by_nullity == {1: 3}
        assert sp.by_matching == {2: 3}
        assert sp.total == 3

    def test_two_classes(self):
        sp = spectrum(parse_sequence("1,1,1,2,2,3"))
        assert set(sp.by_nullity) == {0, 2}
        assert sp.total == 12
        assert sp.by_nullity == {0: 6, 2: 6}

    def test_path_class(self):
        sp = spectrum(parse_sequence("1,1,2,2,2,2"))
        assert sp.by_nullity == {0: 24}

    def test_single_edge(self):
        sp = spectrum(parse_sequence("1,1"))
        assert sp.by_nullity == {0: 1}
        assert sp.total == 1

    def test_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            spectrum(parse_sequence("1,1,1,2,2,3"), cap=11)

    def test_json_shape(self):
        d = spectrum(parse_sequence("1,1,1,2,2,3")).to_json_dict()
        assert d["total"] == "12"
        assert d["by_nullity"] == {"0": "6", "2": "6"}
        assert list(d) == ["sequence", "total", "by_nullity", "by_matching"]

    @given(degree_sequences(max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_against_slow_route(self, s):
        sp = spectrum(s)
        assert sp.by_matching == slow_matching_histogram(s)
        assert sum(sp.by_nullity.values()) == sp.total == count_trees(s)

    def test_cap_check_stops_early(self):
        # (n - 2)! has about 1.5 million bits here; the cap check must not build it.
        n = 100_000
        s = DegreeSequence((1, 1) + (2,) * (n - 2))
        start = time.perf_counter()
        with pytest.raises(EnumerationCapExceeded):
            spectrum(s)
        assert time.perf_counter() - start < 1

    def test_jobs_start_no_pool(self, monkeypatch, capsys):
        def no_pool(*args, **kwargs):
            raise AssertionError("spectrum started a process pool")

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        assert cli.run(["spectrum", FIG_1A, "--jobs", "8"]) == 0
        with_jobs = capsys.readouterr()
        assert cli.run(["spectrum", FIG_1A]) == 0
        assert capsys.readouterr() == with_jobs

    def test_count_mismatch_is_an_invariant_violation(self, monkeypatch):
        s = parse_sequence("1,1,1,2,2,3")
        monkeypatch.setattr(oracle, "_matching_counts", lambda s, total: {2: 6, 3: 5})
        with pytest.raises(ConstructionInvariantViolated):
            spectrum(s)

    def test_support_off_the_interval_is_an_invariant_violation(self, monkeypatch):
        # The total stays Moon's, but one tree moves from nu = 2 to nu = 1,
        # outside [nu_min, nu_max] = [2, 3].
        s = parse_sequence("1,1,1,2,2,3")
        assert oracle._matching_counts(s, 12) == {2: 6, 3: 6}
        monkeypatch.setattr(oracle, "_matching_counts", lambda s, total: {1: 1, 2: 5, 3: 6})
        with pytest.raises(ConstructionInvariantViolated, match=r"nu \[1, 2, 3\]"):
            spectrum(s)


class TestCountingDP:
    """``_matching_counts`` against enumeration and Moon's count."""

    def test_equals_enumeration_up_to_11(self):
        checked = 0
        for n in range(2, 12):
            for s in tree_degree_sequences(n):
                dp = _matching_counts(s, count_trees(s))
                assert dp == code_histogram(s), s
                assert all(c > 0 for c in dp.values()), s
                checked += 1
        assert checked == 97  # partitions of 2n - 2 into n parts, n = 2..11

    def test_totals_equal_moon_count(self):
        for n in range(12, 31):
            s = random_degree_sequence(n, seed=n)
            sp = spectrum(s, cap=10**40)
            assert sp.total == count_trees(s) == sum(sp.by_matching.values())
            assert all(c > 0 for c in sp.by_matching.values())
            b = bounds(s)
            assert min(sp.by_matching) == b.nu_min and max(sp.by_matching) == b.nu_max

    def test_support_is_the_formula_interval_up_to_20(self):
        # The closed formulas share no code with the DP.
        checked = 0
        for n in range(2, 21):
            for s in tree_degree_sequences(n):
                b = bounds(s)
                support = sorted(_matching_counts(s, count_trees(s)))
                assert support == list(range(b.nu_min, b.nu_max + 1)), s
                checked += 1
        assert checked == 1597

    def test_pinned_histograms(self):
        # sha256 over every class with n <= 18 (915 of them) and one random
        # sequence per n = 19..32, in that order; recorded from the DP's
        # unscaled, binomial form.
        digest = hashlib.sha256()
        seqs = [s for n in range(2, 19) for s in tree_degree_sequences(n)]
        assert len(seqs) == 915
        seqs += [random_degree_sequence(n, seed=n) for n in range(19, 33)]
        for s in seqs:
            histogram = sorted(_matching_counts(s, count_trees(s)).items())
            digest.update(repr((s.degrees, histogram)).encode())
        assert digest.hexdigest() == (
            "5a047062d899515b797fc604c107d1fd8bbe0b499d462aaf3679beeba79a0552"
        )

    @given(degree_sequences(max_n=9))
    @settings(max_examples=25, deadline=None)
    def test_against_leaf_stripping(self, s):
        assert _matching_counts(s, count_trees(s)) == slow_matching_histogram(s)


class TestPartition:
    @pytest.mark.parametrize("total,jobs", [(10**8, 10**6), (90_720, 7), (1, 5), (3, 1)])
    def test_ranges(self, total, jobs):
        workers, ranges = _partition(total, jobs)
        assert 1 <= workers <= min(jobs, total, os.cpu_count() or 1)
        assert len(ranges) >= workers
        assert ranges[0][0] == 0
        for (start, count), (nxt, _) in zip(ranges, ranges[1:]):
            assert start + count == nxt
        assert all(0 < count <= oracle._CHUNK for _, count in ranges)
        assert sum(count for _, count in ranges) == total

    def test_empty(self):
        assert _partition(0, 4) == (1, [])


class TestChunkedKernel:
    """Ranges that start mid-enumeration go through ``_unrank_permutation``."""

    @pytest.mark.parametrize("text", ["1,1,1,1,2,2,2,2,2,3,3", FIG_1A])
    def test_small_chunks_match_unchunked(self, text, monkeypatch):
        s = parse_sequence(text)
        base_scan = conjecture_scan(s)
        base_sampling = conjecture_scan(s, cap=10, samples=2500, seed=4)
        monkeypatch.setattr(oracle, "_CHUNK", 1000)
        assert len(_partition(count_trees(s), 1)[1]) > 10
        for jobs in (1, 2, 3):
            assert conjecture_scan(s, jobs=jobs) == base_scan
            assert conjecture_scan(s, cap=10, samples=2500, seed=4, jobs=jobs) == base_sampling

    def test_witnesses_are_first_in_enumeration_order(self):
        for n in range(2, 9):
            for s in tree_degree_sequences(n):
                first: dict[int, tuple] = {}

                def visit(t):
                    first.setdefault(matching_number(t), t.edges)

                enumerate_trees(s, visit)
                scan = conjecture_scan(s)
                assert scan.exhaustive
                for nu, edges in scan.witnesses.items():
                    assert edges == first.get(nu)


class TestRandomTree:
    def test_star_unique(self):
        s = parse_sequence("1,1,1,1,1,1,1,1,8")
        for seed in (0, 1, 12345):
            assert random_tree(s, seed).edges == tuple((i, 9) for i in range(1, 9))

    def test_same_seed_same_tree(self):
        s = parse_sequence("1,1,1,1,2,2,2,2,2,3,3")
        assert random_tree(s, 7) == random_tree(s, 7)

    def test_seeds_vary(self):
        s = parse_sequence("1,1,1,1,2,2,2,2,2,3,3")
        assert len({random_tree(s, seed).edges for seed in range(30)}) > 1

    @given(degree_sequences(max_n=30))
    @settings(max_examples=100, deadline=None)
    def test_degree_multiset_preserved(self, s):
        assert random_tree(s, 42).degree_multiset() == s

    def test_roughly_uniform(self):
        # 3 labeled trees; 600 draws should hit each about 200 times.
        s = parse_sequence("1,1,1,2,3")
        from collections import Counter

        hits = Counter(random_tree(s, seed).edges for seed in range(600))
        assert len(hits) == 3
        assert all(150 < c < 250 for c in hits.values())

    @pytest.mark.parametrize(
        "n, seed, digest",
        [
            (2, 0, "cb5ce413a98488b213b8393b52ba6f6ac3fa9c033485033c0d033a84df68def9"),
            (3, 1, "f4a637f68ad1e8ac804b9382cccadbb2ff31dc8f62d5172538c37c47268916e1"),
            (60, 0, "cc6de25804f1543ef708bf537ef414ea535aedb47aabefaa84fccd3c8d52b90e"),
            (60, -1, "2dee20a4eff1f3508dda3646c8dd53f9f71e7a469221367c831938c2aec559ab"),
            (3000, 3, "9a2ea58942eb800d59255a8c8f7de6a213ece403cbcdcb396f672a7a0e5b2c4e"),
            (3000, 2**64 + 5, "4ee76dc360e3f2ad637866a0fb253b7d8ba33761ae833440dd236a5beb28c58e"),
        ],
    )
    def test_is_the_textbook_decode_of_the_shuffle(self, n, seed, digest):
        # The sample is the tests' own decode of the seeded shuffle, and the
        # sha256 of repr(edges) pins its edges bit for bit.
        s = random_degree_sequence(n, seed=n)
        base = _symbol_multiset(s)
        tree = random_tree(s, seed)
        assert tree == prufer_decode(_shuffled(base, _ShuffleLanes(len(base)), seed), n)
        assert hashlib.sha256(repr(tree.edges).encode()).hexdigest() == digest

    def test_random_degree_sequence_valid(self):
        for n in (2, 3, 10, 100):
            s = random_degree_sequence(n, seed=n)
            assert s.n == n
            assert sum(s.degrees) == 2 * n - 2


def _sha(values) -> str:
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()


class TestSeedStream:
    """Seeds keep their meaning: draws recorded from the scalar shuffle
    (one ``_SplitMix64.below`` call per swap) that the lane kernel replaced."""

    SEEDS = (0, 1, 2**63, 2**64 - 1)

    @pytest.mark.parametrize(
        "n, expected",
        [
            (2, [[]] * 4),
            (3, [[3]] * 4),
            (4, [[3, 4], [3, 4], [3, 4], [4, 3]]),
            (60, [
                "712aac9cb99888aedd1fec26d09c29308bdea1fd113941358f9144426d7f159d",
                "5c896ec7fcca5b0426b275cc570811750b652df972683ccee41a5c0704ccc102",
                "fd4ef8c16043cb6829b412de8e4a9d8a8ca7b17c74b2382d42a086e533ff9240",
                "28d4faff11ca54b674980518459428d5b822d8bc7016ea862af044744a7eec7f",
            ]),
            (3000, [
                "67ab6c46ca7f8d8a96b1059040d363cdd31701ae3474e1c32355ecf9700acd93",
                "e59c69070ca652a667acff10fb203faf6a41c2a93fe23da02cbce2d3629a41ef",
                "68cda501b1be911247d87dba5a56c6bf0045f44f5d214ec858a5768e0a42ef8f",
                "52c041d9a28366fa959a81ffe3ab7630ad06885e2ae42404f78ef55ae25ebb26",
            ]),
        ],
    )
    def test_shuffled_symbols(self, n, expected):
        s = random_degree_sequence(n, seed=n)
        for seed, want in zip(self.SEEDS, expected):
            base = _symbol_multiset(s)
            sym = _shuffled(base, _ShuffleLanes(len(base)), seed)
            assert (sym if n <= 4 else _sha(sym)) == want

    @pytest.mark.parametrize(
        "n, flags, digest",
        [
            (
                60,
                ["--seed", "7"],
                "90d471642fc6e0bc3409e4a7f899384252e3ce44c99a83c297ee1b2b3600460a",
            ),
            (
                300,
                ["--seed", "-1"],
                "a2667d3b2bc93dea95e1edeef636b8bc400aa1f2cf6ff4942448b381aee16c5c",
            ),
            (
                3000,
                ["--seed", "3", "--jobs", "2"],
                "6c53d19ccebc3cfaaf52e064a320dd1069f25385a175db6aaebe5998150438d6",
            ),
        ],
    )
    def test_conjecture_stdout(self, n, flags, digest, capsys):
        text = ",".join(map(str, random_degree_sequence(n, seed=n).degrees))
        assert cli.run(["conjecture", text, "--samples", "16", *flags]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


def _scalar_shuffle(base: list[int], seed: int) -> list[int]:
    """Reference Fisher-Yates: one scalar bounded draw per swap."""
    sym = list(base)
    rng = _SplitMix64(seed)
    for i in range(len(sym) - 1, 0, -1):
        j = rng.below(i + 1)
        sym[i], sym[j] = sym[j], sym[i]
    return sym


def _seed_with_first_output(out: int) -> int:
    """The seed whose first SplitMix64 output is ``out``: each xor-shift of
    the finalizer is undone by iterating it, each multiply by the inverse of
    its constant mod 2^64, and the first step by subtracting gamma."""
    mask = (1 << 64) - 1

    def unshift(z, k):
        x = z
        for _ in range(64 // k + 1):
            x = z ^ (x >> k)
        return x

    z = unshift(out, 31)
    z = unshift((z * pow(0x94D049BB133111EB, -1, 1 << 64)) & mask, 27)
    z = unshift((z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & mask, 30)
    return (z - 0x9E3779B97F4A7C15) & mask


def _draws_taken(seed: int, size: int) -> int:
    """How many outputs the scalar shuffle of ``size`` symbols consumes."""
    rng = _SplitMix64(seed)
    for i in range(size - 1, 0, -1):
        rng.below(i + 1)
    return ((rng.state - seed) * pow(0x9E3779B97F4A7C15, -1, 1 << 64)) % (1 << 64)


class TestShuffleLanes:
    def test_outputs_equal_the_scalar_stream(self):
        for size in (0, 1, 2, 3, 17, 200):
            for seed in (0, 1, 12345, 2**63, 2**64 - 1, -1, 2**64 + 5):
                rng = _SplitMix64(seed)
                want = [rng.next_u64() for _ in range(size - 1)]
                assert _ShuffleLanes(size).outputs(seed) == want

    @pytest.mark.parametrize("size, out", [(3, 2**64 - 1), (7, 2**64 - 2)])
    def test_rejected_first_draw(self, size, out):
        # The first bound, ``size``, rejects ``out`` (2^64 mod 3 = 1 and
        # 2^64 mod 7 = 2), so the scalar shuffle draws once more than it swaps.
        seed = _seed_with_first_output(out)
        assert _SplitMix64(seed).next_u64() == out
        assert out >= (1 << 64) // size * size
        assert _ShuffleLanes(size).outputs(seed)[0] == out
        assert _draws_taken(seed, size) == size
        base = list(range(size))
        assert _shuffled(base, _ShuffleLanes(size), seed) == _scalar_shuffle(base, seed)

    def test_accepted_draw_in_the_fallback_zone(self):
        seed = _seed_with_first_output(0xFFFFFFFF00000000)
        assert _SplitMix64(seed).below(3) == 0xFFFFFFFF00000000 % 3
        assert _draws_taken(seed, 3) == 2
        assert _shuffled([1, 2, 3], _ShuffleLanes(3), seed) == _scalar_shuffle([1, 2, 3], seed)

    def test_every_short_length(self):
        for size in range(71):
            lanes = _ShuffleLanes(size)
            base = list(range(size))
            for seed in range(50):
                seed = seed * 0x9E3779B97F4A7C15 + size
                assert _shuffled(base, lanes, seed) == _scalar_shuffle(base, seed)

    @given(st.integers(0, 400), st.integers(-(2**65), 2**65))
    @settings(max_examples=200, deadline=None)
    def test_equals_scalar(self, size, seed):
        base = [1 + i % 7 for i in range(size)]
        assert _shuffled(base, _ShuffleLanes(size), seed) == _scalar_shuffle(base, seed)


class TestConjectureScan:
    def test_full_interval(self):
        s = parse_sequence("1,1,1,2,2,3")
        scan = conjecture_scan(s)
        assert scan.exhaustive
        assert sorted(scan.witnesses) == [2, 3]
        assert scan.complete
        for nu, edges in scan.witnesses.items():
            witness = LabeledTree(6, edges)
            assert matching_number(witness) == nu
            assert witness.degree_multiset() == s

    def test_star(self):
        scan = conjecture_scan(parse_sequence("1,1,1,1,1,1,1,1,8"))
        assert sorted(scan.witnesses) == [1]
        assert scan.complete

    def test_sampling_mode(self):
        s = parse_sequence("1,1,1,2,2,3")
        scan = conjecture_scan(s, cap=3, samples=500, seed=0)
        assert not scan.exhaustive
        assert scan.complete  # 500 samples comfortably hit both classes

    def test_jobs_invariance(self):
        s = parse_sequence("1,1,1,1,2,2,2,2,2,3,3")
        base = conjecture_scan(s)
        for jobs in (2, 5):
            assert conjecture_scan(s, jobs=jobs) == base
        sampling_base = conjecture_scan(s, cap=10, samples=64, seed=3)
        for jobs in (2, 5):
            assert conjecture_scan(s, cap=10, samples=64, seed=3, jobs=jobs) == sampling_base

    def test_early_break_leaves_no_child(self):
        # One-code ranges on two workers: each scan stops once both nu have
        # a witness, closing the fan-out with ranges still queued or
        # running.  No scan may hang, and no worker may outlive its scan.
        script = textwrap.dedent("""
            import multiprocessing
            from treenullity import oracle, parse_sequence

            oracle._CHUNK = 1
            s = parse_sequence("1,1,1,2,2,3")
            base = oracle.conjecture_scan(s)
            for _ in range(200):
                assert oracle.conjecture_scan(s, jobs=2) == base
            assert not multiprocessing.active_children()
            print("ok")
        """)
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr

    def test_large_sampling_scan_is_fast(self):
        s = random_degree_sequence(10**5, seed=1)
        start = time.perf_counter()
        scan = conjecture_scan(s, cap=0, samples=4)
        assert time.perf_counter() - start < 10.0
        assert not scan.exhaustive and sum(e is not None for e in scan.witnesses.values()) >= 1

    def test_json_shape(self):
        d = conjecture_scan(parse_sequence("1,1,1,2,3")).to_json_dict()
        assert d["mode"] == "exhaustive"
        assert d["complete"] is True
        assert d["gaps"] == []


class TestSequenceGeneration:
    def test_small_counts(self):
        # Partitions of 2n-2 into n positive parts.
        assert [len(list(tree_degree_sequences(n))) for n in range(2, 8)] == [1, 1, 2, 3, 5, 7]

    def test_all_valid_and_sorted(self):
        for n in range(2, 10):
            seqs = list(tree_degree_sequences(n))
            assert len(seqs) == len(set(seqs))
            for s in seqs:
                assert s.n == n
                assert sum(s.degrees) == 2 * n - 2

    def test_contains_known_sequences(self):
        seqs = set(tree_degree_sequences(9))
        assert DegreeSequence((1,) * 8 + (8,)) in seqs
        assert DegreeSequence((1, 1, 2, 2, 2, 2, 2, 2, 2)) in seqs
