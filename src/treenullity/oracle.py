"""Exact spectra, and brute-force ground truth, over the labeled trees of
a degree sequence.

Spectra are counted, not enumerated: :func:`spectrum` runs a DP over how
many vertices of each degree a subtree uses (:func:`_matching_counts`).
Enumeration stays as the independent oracle.  Labeled trees on 1..n are in
bijection with Prüfer codes of length n - 2, and the trees realizing a
fixed degree sequence are the arrangements of the multiset that repeats
label i exactly d_i - 1 times, walked in lexicographic order by
:func:`enumerate_trees`, the exhaustive conjecture scan and the tests.

Counts are exact integers throughout; only the sampling mode of the
conjecture scan is approximate, and its report says so.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .degseq import DegreeSequence, bounds
from .errors import ConstructionInvariantViolated, EnumerationCapExceeded, LabelOutOfRange
from .treegraph import Edge, LabeledTree, _is_label

DEFAULT_ENUMERATION_CAP = 10**8
DEFAULT_SAMPLE_BUDGET = 10_000

PrueferCode = tuple[int, ...]

_MASK64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# Prüfer bijection
# ---------------------------------------------------------------------------


def _code_nu(code: Sequence[int], deg: Sequence[int]) -> tuple[int, list[int]]:
    """Matching number of the tree with this code, and its leaf column.

    ``deg[v]`` is the degree of label v (entry 0 unused), which the code
    fixes; callers that walk many codes of one sequence build it once.  The
    walk is the pointer variant of the classic decode: the smallest current
    leaf, ``leaves[k]``, is joined to ``code[k]``, and the final leaf to n.
    :func:`prufer_encode` makes the same walk on a tree.  Along it each
    removed leaf is matched to its parent when both are free: the rule of
    :meth:`LabeledTree.maximum_matching`, applied in the decode order.
    Leaves go children-first, so a leaf still free then hangs by a pendant
    edge, which some maximum matching contains, and the count is exact.
    """
    n = len(deg) - 1
    deg = list(deg)
    matched = [False] * (n + 1)
    leaves: list[int] = []
    push = leaves.append
    nu = 0
    ptr = 1
    while deg[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in code:
        push(leaf)
        if not (matched[leaf] or matched[x]):
            matched[leaf] = matched[x] = True
            nu += 1
        deg[x] -= 1
        if x < ptr and deg[x] == 1:
            leaf = x
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    push(leaf)
    if not (matched[leaf] or matched[n]):
        nu += 1
    return nu, leaves


def _column_edges(code: Sequence[int], leaves: Sequence[int]) -> list[Edge]:
    """The decode's edges, in walk order, from the leaf column of
    :func:`_code_nu`: ``leaves[k]`` with ``code[k]``, the last leaf with n."""
    edges = [(a, x) if a < x else (x, a) for a, x in zip(leaves, code)]
    edges.append((leaves[-1], len(code) + 2))
    return edges


def _decode_edges(code: Sequence[int], n: int) -> list[Edge]:
    """Edges of the unique tree with this code (labels assumed valid)."""
    deg = [1] * (n + 1)
    for x in code:
        deg[x] += 1
    return _column_edges(code, _code_nu(code, deg)[1])


def prufer_decode(code: Sequence[int], n: int) -> LabeledTree:
    """The unique labeled tree on 1..n with Prüfer code ``code``.

    Vertex i ends up with degree (occurrences of i in the code) + 1.
    """
    if not (isinstance(n, int) and n >= 2):
        raise LabelOutOfRange(f"need an int n >= 2, got {n!r}")
    if len(code) != n - 2:
        raise LabelOutOfRange(f"code length {len(code)} != n - 2 = {n - 2}")
    for x in code:
        if not _is_label(x, n):
            raise LabelOutOfRange(f"code symbol {x!r} outside 1..{n}")
    return LabeledTree(n, _decode_edges(code, n))


def prufer_encode(tree: LabeledTree) -> PrueferCode:
    """Inverse of :func:`prufer_decode`, by the elimination walk on the tree.

    Rooted at n, the vertex of smallest label with no children left goes
    next, and its parent (kept from the tree's validating BFS from n) is
    the next symbol.  This is the walk :func:`_code_nu` makes on the code,
    step for step, with the same pointer: a removal can make only its
    parent a leaf, and one below the pointer is taken at once.
    """
    n, parent = tree.n, tree._parent
    kids = [len(a) - 1 for a in tree._adj]  # children left; n has no parent
    kids[n] += 1
    code: list[int] = []
    ptr = 1
    while kids[ptr]:
        ptr += 1
    leaf = ptr
    for _ in range(n - 2):
        p = parent[leaf]
        code.append(p)
        kids[p] -= 1
        if p < ptr and not kids[p]:
            leaf = p
        else:
            ptr += 1
            while kids[ptr]:
                ptr += 1
            leaf = ptr
    return tuple(code)


# ---------------------------------------------------------------------------
# Counting and the symbol multiset
# ---------------------------------------------------------------------------


def _count_within(s: DegreeSequence, cap: int | None) -> int | None:
    """Number of labeled trees realizing ``s``, or None once it passes ``cap``.

    The multinomial (n-2)! / prod (d_i - 1)! is built as a running product of
    binomials C(placed + d_i - 1, d_i - 1); no factor is below 1, so the
    product can stop as soon as it exceeds the cap.
    """
    total = 1
    placed = 0
    for d in s.degrees:
        placed += d - 1
        total *= math.comb(placed, d - 1)
        if cap is not None and total > cap:
            return None
    return total


def count_trees(s: DegreeSequence) -> int:
    """Number of labeled trees realizing ``s``: (n-2)! / prod (d_i - 1)!."""
    return _count_within(s, None)


def _capped_total(s: DegreeSequence, cap: int) -> int:
    total = _count_within(s, cap)
    if total is None:
        raise EnumerationCapExceeded(f"more than {cap} trees")
    return total


def _symbol_multiset(s: DegreeSequence) -> list[int]:
    """Prüfer symbols for ``s``: label i repeated d_i - 1 times, ascending."""
    sym: list[int] = []
    for v, d in enumerate(s.degrees, start=1):
        sym.extend([v] * (d - 1))
    return sym


def _next_permutation(a: list[int]) -> bool:
    """Advance ``a`` to its lexicographic successor in place.

    Returns False (leaving ``a`` sorted descending) once the last
    arrangement has been reached.
    """
    i = len(a) - 2
    while i >= 0 and a[i] >= a[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = len(a) - 1
    while a[j] <= a[i]:
        j -= 1
    a[i], a[j] = a[j], a[i]
    a[i + 1 :] = a[: i : -1]
    return True


def _unrank_permutation(s: DegreeSequence, rank: int) -> list[int]:
    """The arrangement of the symbol multiset at lexicographic ``rank``.

    Of the ``block`` arrangements of what is left, the share that starts
    with a symbol of multiplicity c is block * c / (symbols left).
    """
    counts = Counter(_symbol_multiset(s))
    block = count_trees(s)
    out: list[int] = []
    for left in range(s.n - 2, 0, -1):
        for sym in sorted(counts):
            share = block * counts[sym] // left
            if rank < share:
                break
            rank -= share
        else:  # pragma: no cover - rank past the end
            raise ValueError("rank out of range")
        out.append(sym)
        block = share
        counts[sym] -= 1
        if not counts[sym]:
            del counts[sym]
    return out


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def _codes(s: DegreeSequence, start: int, count: int) -> Iterator[list[int]]:
    """The Prüfer codes of ranks start .. start + count - 1 (count >= 1), in
    lexicographic order.  One list is yielded, advanced in place."""
    sym = _unrank_permutation(s, start) if start else _symbol_multiset(s)
    yield sym
    for _ in range(count - 1):
        _next_permutation(sym)
        yield sym


_CHUNK = 1_000_000  # longest rank range handed to one task


def _partition(total: int, jobs: int) -> tuple[int, list[tuple[int, int]]]:
    """Worker count and the contiguous (start, count) ranges covering 0..total.

    Workers are clamped to the CPU count; there are at least as many ranges
    as workers, none longer than ``_CHUNK`` and none empty.
    """
    workers = max(1, min(jobs, total, os.cpu_count() or 1))
    pieces = max(workers, -(-total // _CHUNK))
    cuts = [(k * total) // pieces for k in range(pieces + 1)]
    return workers, [(a, b - a) for a, b in zip(cuts, cuts[1:]) if b > a]


def _fan_out(worker: Callable, tasks: list, workers: int) -> Iterator:
    """``worker`` over ``tasks``, results in task order: in-process for one
    worker, otherwise through one fork pool.  Closing the iterator early stops
    the remaining work."""
    if workers == 1:
        yield from map(worker, tasks)
        return
    import multiprocessing

    with multiprocessing.get_context("fork").Pool(workers) as pool:
        yield from pool.imap(worker, tasks)


def enumerate_trees(
    s: DegreeSequence,
    visitor: Callable[[LabeledTree], None],
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> int:
    """Visit every labeled tree with degree sequence ``s`` exactly once.

    Trees arrive in the lexicographic order of their Prüfer codes.  The
    visitor must be pure.  Returns the number of trees visited.
    """
    total = _capped_total(s, cap)
    n = s.n
    for code in _codes(s, 0, total):
        visitor(LabeledTree(n, _decode_edges(code, n)))
    return total


@dataclass(frozen=True)
class NullitySpectrum:
    """Exact histograms of nullity and matching number over all labeled
    trees realizing one degree sequence."""

    sequence: tuple[int, ...]
    total: int
    by_nullity: dict[int, int]
    by_matching: dict[int, int]

    def to_json_dict(self) -> dict:
        return {
            "sequence": list(self.sequence),
            "total": str(self.total),
            "by_nullity": {str(k): str(v) for k, v in sorted(self.by_nullity.items())},
            "by_matching": {str(k): str(v) for k, v in sorted(self.by_matching.items())},
        }


def _matching_counts(s: DegreeSequence, total: int) -> dict[int, int]:
    """Number of labeled trees realizing ``s`` per matching number, counted
    over count vectors instead of enumerated.

    Labels of one degree are interchangeable, so a count depends only on how
    many of each degree it uses.  The root is the last vertex (of largest
    degree); every other vertex roots a planted subtree with degree - 1
    children.  A state counts the non-leaf labels per degree (mixed-radix
    index i); m planted trees on it hold m + sum (d - 2) leaves, so leaves
    need no axis.  ``forests[m][i]`` counts sets of m planted trees: ordered
    m-tuples, labels split by binomials, divided by m.

    Matching is the one rule of :meth:`LabeledTree.maximum_matching` and
    :func:`_code_nu`, children first, a vertex to its parent when both are
    free, applied by counting: a root is matched iff some child root is
    free.  It is exact under any rooting, since a free child hangs by a
    pendant edge, which some maximum matching contains.  Entries are pairs
    (all, every root matched) of polynomials in the matching number, each
    stored as its value at x = 2 ** w.  That map is a ring homomorphism, so
    sums, products and the exact divisions by m carry over; only the final
    coefficients must fit in w bits, and none exceeds ``total``, the number
    of trees.
    """
    n = s.n
    leaves = s.degrees.count(1)
    types = sorted(set(s.degrees) - {1})
    top = [s.degrees[:-1].count(d) for d in types]  # all but the root
    w = total.bit_length()
    strides = [math.prod(c + 1 for c in top[:j]) for j in range(len(top))]
    size = math.prod(c + 1 for c in top)
    vec = [[i // st % (c + 1) for st, c in zip(strides, top)] for i in range(size)]
    excess = [sum(bj * (d - 2) for bj, d in zip(b, types)) for b in vec]
    kmax = s.degrees[-1]
    # The empty forest, and a bare leaf (a free root).
    forests = [{0: (1, 1)}, {0: (1, 0)}] + [{} for _ in range(kmax - 1)]
    for i in range(size):
        b = vec[i]
        if i and 1 + excess[i] <= leaves:  # a planted tree: label its root
            tot = mat = 0
            for j, bj in enumerate(b):
                if bj:
                    t, f = forests[types[j] - 1].get(i - strides[j], (0, 0))
                    tot += bj * (((t - f) << w) + f)
                    mat += bj * ((t - f) << w)
            forests[1][i] = (tot, mat)
        splits = []
        for a in itertools.product(*(range(bj + 1) for bj in b)):
            ia = sum(aj * st for aj, st in zip(a, strides))
            if ia in forests[1]:
                splits.append((ia, math.prod(map(math.comb, b, a)), forests[1][ia]))
        for m in range(2, min(kmax, leaves - excess[i]) + 1):
            tot = mat = 0
            for ia, split, (qt, qm) in splits:
                g = forests[m - 1].get(i - ia)
                if g is not None:
                    c = split * math.comb(m + excess[i], 1 + excess[ia])
                    tot += c * qt * g[0]
                    mat += c * qm * g[1]
            if tot:
                forests[m][i] = (tot // m, mat // m)
    t, f = forests[kmax][size - 1]
    poly = ((t - f) << w) + f
    counts = {nu: (poly >> (nu * w)) & ((1 << w) - 1) for nu in range(n // 2 + 1)}
    return {nu: c for nu, c in counts.items() if c}


def spectrum(s: DegreeSequence, cap: int = DEFAULT_ENUMERATION_CAP) -> NullitySpectrum:
    """Exact nullity / matching-number histograms for ``s``, counted by
    :func:`_matching_counts` and checked against Moon's total.

    Classes over ``cap`` trees still raise :class:`EnumerationCapExceeded`.
    """
    total = _capped_total(s, cap)
    by_matching = _matching_counts(s, total)
    if sum(by_matching.values()) != total:
        raise ConstructionInvariantViolated(
            f"spectrum counts {sum(by_matching.values())} trees, Moon's formula {total}"
        )
    by_nullity = {s.n - 2 * nu: c for nu, c in by_matching.items()}
    return NullitySpectrum(
        sequence=s.degrees, total=total, by_nullity=by_nullity, by_matching=by_matching
    )


# ---------------------------------------------------------------------------
# Seeded uniform sampling
# ---------------------------------------------------------------------------


_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Every rejection limit floor(2^64 / b) * b with b <= 2^32 lies above this.
_ACCEPTED_BELOW = 0xFFFFFFFF00000000


class _SplitMix64:
    """SplitMix64 stream; fixed here so seeds mean the same thing everywhere.

    state' = state + 0x9E3779B97F4A7C15 (mod 2^64); the output mixes state'
    by xor-shift-multiply with the constants below.  Bounded draws use
    rejection below the largest multiple of the bound, so they are exactly
    uniform.  :class:`_ShuffleLanes` computes the same outputs for a whole
    shuffle at once; this scalar stream is its reference and its fallback.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = ((1 << 64) // bound) * bound
        while True:
            r = self.next_u64()
            if r < limit:
                return r % bound


class _ShuffleLanes:
    """The SplitMix64 outputs a shuffle of ``size`` symbols draws, mixed in
    one pass over big-int lanes.

    Lane t is bits 128t .. 128t + 127 of one int; its low half holds the
    state of draw t, seed + (t + 1) * gamma mod 2^64, and its high half is
    zero.  A 64 x 64-bit product fits in 128 bits, so a multiply never
    carries into the next lane.  A right shift pulls the next lane's low
    bits into the high half, so every xor-shift is masked back to the low
    64 bits before the next multiply, and every product after it.  The
    per-size constants (the step lanes, the low-half mask and the ones
    vector) are built from bytes in linear time.
    """

    __slots__ = ("count", "ones", "low", "steps")

    def __init__(self, size: int):
        self.count = count = max(size - 1, 0)
        self.ones = int.from_bytes((b"\x01" + bytes(15)) * count, "little")
        self.low = int.from_bytes((b"\xff" * 8 + bytes(8)) * count, "little")
        # Lane t holds (t + 1) * gamma unreduced, below 2^127 for any count
        # below 2^63; the first mask in :meth:`outputs` reduces it mod 2^64.
        multiples = itertools.accumulate(itertools.repeat(_GAMMA, count))
        chunks = map(int.to_bytes, multiples, itertools.repeat(16), itertools.repeat("little"))
        self.steps = int.from_bytes(b"".join(chunks), "little")

    def outputs(self, seed: int) -> list[int]:
        """The first ``count`` outputs of ``_SplitMix64(seed)``.  The last
        xor-shift is not masked: only the low halves are read out."""
        low = self.low
        z = ((seed & _MASK64) * self.ones + self.steps) & low
        z = (((z ^ (z >> 30)) & low) * _MIX1) & low
        z = (((z ^ (z >> 27)) & low) * _MIX2) & low
        z ^= z >> 31
        return memoryview(z.to_bytes(16 * self.count, "little")).cast("Q")[::2].tolist()


def _shuffled(base: list[int], lanes: _ShuffleLanes, seed: int) -> list[int]:
    """Fisher-Yates shuffle of a copy of ``base``, driven by SplitMix64.

    Descending index i = len-1 .. 1, j = draw below i + 1, swap a[i], a[j].
    ``lanes`` must be built for ``len(base)`` symbols.  The draws' outputs
    come from :meth:`_ShuffleLanes.outputs`, and an output r accepted under
    bound i + 1 gives j = r % (i + 1).  A draw is rejected only at or above
    its limit, and every limit of a bound up to 2^32 lies above
    ``_ACCEPTED_BELOW``.  So while no output reaches that, no draw is
    rejected; otherwise the shuffle replays on the scalar stream.  Either
    way the result is bit for bit the scalar shuffle's, rejections included.
    """
    sym = base[:]
    draws = lanes.outputs(seed)
    if draws and max(draws) >= _ACCEPTED_BELOW:
        rng = _SplitMix64(seed)
        draws = [rng.below(i + 1) for i in range(len(sym) - 1, 0, -1)]
    for i, r in zip(range(len(sym) - 1, 0, -1), draws):
        j = r % (i + 1)
        sym[i], sym[j] = sym[j], sym[i]
    return sym


def _shuffled_symbols(s: DegreeSequence, seed: int) -> list[int]:
    """The symbol multiset of ``s``, shuffled by :func:`_shuffled` from
    ``seed``.  A uniform arrangement of the multiset is a uniform labeled
    tree.

    The swaps' SplitMix64 outputs are mixed together, one 128-bit lane of a
    single int per draw (:class:`_ShuffleLanes`), with every xor-shift
    masked back to the low 64 bits before the next multiply.  A draw can be
    rejected only by an output within 2^32 of 2^64; when one comes up, the
    shuffle replays on the scalar :class:`_SplitMix64` stream.  So a seed
    gives the arrangement of one scalar bounded draw per swap, as it always
    has.
    """
    sym = _symbol_multiset(s)
    return _shuffled(sym, _ShuffleLanes(len(sym)), seed)


def random_tree(s: DegreeSequence, seed: int) -> LabeledTree:
    """Uniform sample over all labeled trees with degree sequence ``s``.

    Reproducible per seed; see :func:`_shuffled_symbols` for the exact
    shuffle contract.
    """
    return LabeledTree(s.n, _decode_edges(_shuffled_symbols(s, seed), s.n))


def random_degree_sequence(n: int, seed: int) -> DegreeSequence:
    """Random tree degree sequence of length n: degrees are the symbol
    counts (+1) of n - 2 SplitMix64 draws from 1..n."""
    counts = [0] * (n + 1)
    rng = _SplitMix64(seed)
    for _ in range(n - 2):
        counts[rng.below(n) + 1] += 1
    return DegreeSequence(tuple(c + 1 for c in counts[1:]))


# ---------------------------------------------------------------------------
# Conjecture scan: is every matching number between the extremes realized?
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjectureScan:
    """Witness trees per matching number in [nu_min, nu_max].

    In exhaustive mode a gap is a genuine counterexample to the interval
    conjecture and is reported, never raised.  In sampling mode a gap only
    means the budget found no witness.
    """

    sequence: tuple[int, ...]
    nu_min: int
    nu_max: int
    exhaustive: bool
    witnesses: dict[int, tuple[Edge, ...] | None]
    samples: int | None = None
    seed: int | None = None

    @property
    def gaps(self) -> tuple[int, ...]:
        return tuple(k for k in sorted(self.witnesses) if self.witnesses[k] is None)

    @property
    def complete(self) -> bool:
        return not self.gaps

    def to_json_dict(self) -> dict:
        out: dict = {
            "sequence": list(self.sequence),
            "nu_min": self.nu_min,
            "nu_max": self.nu_max,
            "mode": "exhaustive" if self.exhaustive else "sampling",
            "witnesses": {str(k): e for k, e in sorted(self.witnesses.items())},
            "gaps": list(self.gaps),
            "complete": self.complete,
        }
        if not self.exhaustive:
            out["samples"] = self.samples
            out["seed"] = self.seed
        return out


def _first_witnesses(
    task: tuple[DegreeSequence, int, int, tuple[int, ...], int | None]
) -> dict[int, tuple[Edge, ...]]:
    """First witness per target over one range: enumeration ranks when
    ``seed`` is None, otherwise sample indices."""
    s, start, count, targets, seed = task
    if seed is None:
        codes = _codes(s, start, count)
    else:
        base = _symbol_multiset(s)
        lanes = _ShuffleLanes(len(base))
        codes = (_shuffled(base, lanes, seed + i) for i in range(start, start + count))
    deg = [0, *s.degrees]
    missing = set(targets)
    found: dict[int, tuple[Edge, ...]] = {}
    for code in codes:
        nu, leaves = _code_nu(code, deg)
        if nu in missing:
            found[nu] = tuple(sorted(_column_edges(code, leaves)))
            missing.discard(nu)
            if not missing:
                break
    return found


def conjecture_scan(
    s: DegreeSequence,
    cap: int = DEFAULT_ENUMERATION_CAP,
    samples: int = DEFAULT_SAMPLE_BUDGET,
    seed: int = 0,
    jobs: int = 1,
) -> ConjectureScan:
    """Search for a tree of every matching number between the extremes.

    Exhaustive when the realization count fits under ``cap`` (stopping early
    once all targets have witnesses); otherwise draws ``samples`` seeded
    random trees.  The reported witness for each value is always the first
    in enumeration (or sample-index) order, so the output does not depend on
    how the work is partitioned across ``jobs``.
    """
    b = bounds(s)
    targets = tuple(range(b.nu_min, b.nu_max + 1))
    total = _count_within(s, cap)
    exhaustive = total is not None
    workers, ranges = _partition(total if exhaustive else samples, jobs)
    draw_seed = None if exhaustive else seed
    tasks = [(s, start, count, targets, draw_seed) for start, count in ranges]
    # Ranges arrive in order, so the first witness seen for a value is the
    # first overall; the scan stops once every value has one.
    witnesses: dict[int, tuple[Edge, ...] | None] = dict.fromkeys(targets)
    missing = set(targets)
    for part in _fan_out(_first_witnesses, tasks, workers):
        for k in missing & part.keys():
            witnesses[k] = part[k]
        missing -= part.keys()
        if not missing:
            break
    return ConjectureScan(
        sequence=s.degrees,
        nu_min=b.nu_min,
        nu_max=b.nu_max,
        exhaustive=exhaustive,
        witnesses=witnesses,
        samples=None if exhaustive else samples,
        seed=draw_seed,
    )


# ---------------------------------------------------------------------------
# Exhaustive generation of tree degree sequences
# ---------------------------------------------------------------------------


def tree_degree_sequences(n: int) -> Iterator[DegreeSequence]:
    """All tree degree sequences of length n, in lexicographic order.

    These are exactly the partitions of 2n - 2 into n positive parts; every
    one of them is realized by at least one tree.
    """
    if n < 2:
        return

    def parts(remaining: int, slots: int, low: int):
        if slots == 1:
            if remaining >= low:
                yield (remaining,)
            return
        for p in range(low, remaining // slots + 1):
            for rest in parts(remaining - p, slots - 1, p):
                yield (p,) + rest

    for tup in parts(2 * n - 2, n, 1):
        yield DegreeSequence(tup)
