#!/usr/bin/env python3
"""Tour of the closed formulas attached to a tree degree sequence.

A sequence of n positive integers summing to 2n - 2 is realized by at least
one labeled tree.  Three numbers read off the sorted sequence pin down the
extremal behavior of every realization:

  l  -- how many entries equal 1 (leaves),
  m  -- the edge count n - 1,
  a  -- the annihilation number: the largest prefix whose sum stays <= m.

This script walks through increasingly interesting sequences and prints the
derived extremal matching numbers, nullities and independence numbers.
"""

from treenullity import bounds, parse_sequence


def show(text: str) -> None:
    s = parse_sequence(text)
    b = bounds(s)
    print(f"sequence {s}  (n={s.n})")
    print(f"  l={b.l} leaves, m={b.m} edges, annihilation number a={b.a}")
    print(f"  matching number ranges over [{b.nu_min}, {b.nu_max}]")
    print(f"  nullity ranges over [{b.nullity_min}, {b.nullity_max}]")
    print(f"  independence number ranges over [{b.alpha_min}, {b.alpha_max}]")
    if b.extremal_equal:
        print("  -> every realization has the same nullity")
    else:
        print("  -> realizations with different nullities exist")
    print()


print(__doc__)

# The star: a single realization, so the window is a point.
show("1,1,1,1,1,1,1,1,8")

# A path on five vertices: also a single realization, and the case where the
# naive floor(n/2) characterization of equal extremes goes wrong (here
# a = 3 = ceil(5/2), yet a != l and a != floor(5/2)).
show("1,1,2,2,2")
s = parse_sequence("1,1,2,2,2")
print(f"equal extremes for {s}? {bounds(s).extremal_equal} (a = 3 = ceil(n/2))")
print()

# Leaf-rich: six leaves out of eleven vertices; the window opens up.
show("4,3,3,2,2,1,1,1,1,1,1")

# Leaf-poor: the same length with only four leaves.
show("1,1,1,1,2,2,2,2,2,3,3")
