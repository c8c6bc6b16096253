"""Tree degree sequences and the closed formulas attached to them.

A degree sequence is a *tree degree sequence* when its n positive entries sum
to 2n - 2; every such sequence is realized by at least one labeled tree.  All
quantities here are exact integers: the leaf count l, the edge count m, the
annihilation number a (largest prefix of the sorted sequence whose sum stays
within m), and the extremal matching / nullity / independence values over all
trees realizing the sequence.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import asdict, dataclass
from itertools import accumulate
from typing import Iterable

from .errors import InvalidDegree, NotTreeSum, ParseError, TooSmall

_TOKEN = re.compile(r"[^\s,]+")


def _ints(values: Iterable) -> bool:
    """The exact type test of the label rule on every value, at C speed: a
    bool or another int subclass fails it."""
    return {int}.issuperset(map(type, values))


@dataclass(frozen=True)
class DegreeSequence:
    """Canonical (nondecreasing) tree degree sequence on n >= 2 vertices."""

    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        # A str fails in the sort or the sum; anything else that is no
        # exact int, a bool included, fails the type test of labels.
        try:
            canon = tuple(sorted(self.degrees))
            total = sum(canon)
        except TypeError:
            raise InvalidDegree("degrees must be integers") from None
        object.__setattr__(self, "degrees", canon)
        n = len(canon)
        if n < 2:
            raise TooSmall(f"need at least 2 degrees, got {n}")
        if not _ints(canon):
            raise InvalidDegree("degrees must be integers")
        if canon[0] < 1:
            raise InvalidDegree(f"degree {canon[0]} < 1")
        if total != 2 * n - 2:
            raise NotTreeSum(
                f"degrees sum to {total}, a tree on {n} vertices needs {2 * n - 2}"
            )

    @property
    def n(self) -> int:
        return len(self.degrees)

    def __str__(self) -> str:
        return ",".join(map(str, self.degrees))


@dataclass(frozen=True)
class BoundsReport:
    """Extremal values over all labeled trees realizing one sequence.

    nu_max / nullity_min / alpha_min come from the leaf-count formulas,
    nu_min / nullity_max / alpha_max from the annihilation number:

        nu_max      = min(n - l, floor(n/2)), and 1 for the single edge
        nullity_min = n - 2 * nu_max
        alpha_min   = n - nu_max
        nu_min      = n - a
        nullity_max = 2a - n
        alpha_max   = a

    ``extremal_equal`` is true exactly when every realization shares one
    nullity, i.e. a = max(l, ceil(n/2)).
    """

    n: int
    l: int
    m: int
    a: int
    nu_min: int
    nu_max: int
    nullity_min: int
    nullity_max: int
    alpha_min: int
    alpha_max: int
    extremal_equal: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def parse_sequence(text: str) -> DegreeSequence:
    """Parse comma- and/or whitespace-separated integers ([+-]?[0-9]+), in any order.

    The result is canonicalized (sorted), so any permutation of the same
    multiset parses to an identical sequence.  int() alone would also take
    1_1 or ١, so a text with _ or a non-ASCII character is matched token by
    token first.
    """
    tokens = _TOKEN.findall(text)
    if not text.isascii() or "_" in text:
        for t in tokens:
            if not re.fullmatch(r"[+-]?[0-9]+", t):
                raise ParseError(f"not an integer: {t!r}")
    degrees = []
    for t in tokens:
        try:
            degrees.append(int(t, 10))
        except ValueError:
            raise ParseError(f"not an integer: {t!r}") from None
    return DegreeSequence(tuple(degrees))


def bounds(s: DegreeSequence) -> BoundsReport:
    """Leaf count l, edge count m = n - 1, annihilation number a, and the
    extremal matching number, nullity and independence number of ``s``.

    a is the largest index (1-based) such that the sum of the a smallest
    degrees is at most m.  n = 2 is the one degenerate case: the single edge
    has nu = 1 and nullity 0, which min(n - l, floor(n/2)) = 0 would miss.
    """
    n = s.n
    l, m = s.degrees.count(1), n - 1
    # The degrees are sorted and positive, so the prefix sums increase.
    a = bisect_right(list(accumulate(s.degrees)), m)

    nu_max = 1 if n == 2 else min(n - l, n // 2)
    nu_min = n - a
    return BoundsReport(
        n=n,
        l=l,
        m=m,
        a=a,
        nu_min=nu_min,
        nu_max=nu_max,
        nullity_min=n - 2 * nu_max,
        nullity_max=2 * a - n,
        alpha_min=n - nu_max,
        alpha_max=a,
        extremal_equal=(nu_min == nu_max),
    )


def literal_characterization(s: DegreeSequence) -> bool:
    """The unamended equal-extremes condition: a = l or a = floor(n/2).

    Kept alongside ``BoundsReport.extremal_equal`` so the places where the two
    conditions disagree (odd-n path-like sequences such as (1,1,2,2,2)) can
    be surfaced explicitly.
    """
    b = bounds(s)
    return b.a == b.l or b.a == s.n // 2
