"""Seeded input generation for the benchmark workloads.

The generator is the benchmark's own: it uses nothing from ``treenullity``,
so a change to the library's sampler cannot change what is measured.  Only
``random.Random.random()`` is used, because Python guarantees that method's
stream for a given integer seed across versions (``randrange`` and friends
carry no such guarantee).

Sizes are fixed: a set of k inputs spans its range in k evenly spaced
steps (linear or logarithmic), both ends included, and shapes cycle in a
fixed order.  The seed draws the degrees and the order of the inputs, so the
make-up of a workload is the same for every seed and its cost moves little
from seed to seed.
"""

from __future__ import annotations

import math
import random

# Shapes of tree degree sequence, cycled in this order.
UNIFORM = "uniform"  # degrees of a uniformly random labelled tree (random Prüfer code)
PATHLIKE = "pathlike"  # half the vertices forced to degree 2, the rest uniform
HUBS = "hubs"  # all Prüfer symbols on 2-6 hubs: mostly leaves, l >= n/2


def below(rng: random.Random, k: int) -> int:
    """Integer in [0, k) from one ``random()`` draw."""
    return min(int(rng.random() * k), k - 1)


def _symbol_counts(rng: random.Random, vertices: int, symbols: int) -> list[int]:
    """Degrees of a tree on ``vertices`` vertices whose Prüfer symbols are
    ``symbols`` uniform draws: degree = occurrences + 1."""
    counts = [1] * vertices
    for _ in range(symbols):
        counts[below(rng, vertices)] += 1
    return counts


def tree_degrees(rng: random.Random, n: int, shape: str) -> tuple[int, ...]:
    """One tree degree sequence of length n (sum 2n - 2), sorted."""
    if n <= 2:
        return (1,) * n
    if shape == UNIFORM:
        degrees = _symbol_counts(rng, n, n - 2)
    elif shape == PATHLIKE:
        twos = min(n - 2, n // 2)
        rest = n - twos
        degrees = [2] * twos + _symbol_counts(rng, rest, rest - 2)
    elif shape == HUBS:
        hubs = min(n - 2, 2 + below(rng, 5))
        degrees = [1] * (n - hubs) + _symbol_counts(rng, hubs, n - 2)
    else:
        raise ValueError(f"unknown shape {shape!r}")
    return tuple(sorted(degrees))


def spaced_sizes(count: int, lo: int, hi: int, log: bool = False) -> list[int]:
    """``count`` evenly spaced sizes from lo to hi, both included."""
    sizes = []
    for i in range(count):
        u = i / (count - 1)
        if log:
            x = math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
        else:
            x = lo + u * (hi - lo)
        sizes.append(round(x))
    return sizes


def shuffled(rng: random.Random, items: list) -> list:
    """Fisher-Yates copy of ``items``."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = below(rng, i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def all_tree_degree_sequences(n: int) -> list[tuple[int, ...]]:
    """Every tree degree sequence of length n: the partitions of 2n - 2 into
    n positive parts, each sorted ascending."""
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 0:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        low = prefix[-1] if prefix else 1
        for part in range(low, remaining // slots + 1):
            prefix.append(part)
            extend(prefix, remaining - part, slots - 1)
            prefix.pop()

    extend([], 2 * n - 2, n)
    return out


def sequence_text(rng: random.Random, degrees: tuple[int, ...]) -> str:
    """The sequence as CLI text, entries in shuffled order."""
    return ",".join(str(d) for d in shuffled(rng, list(degrees)))
