#!/usr/bin/env python3
"""Exact nullity spectra as ground truth for the closed formulas.

A spectrum counts the realizations of a degree sequence per nullity.  The
count depends only on how many vertices of each degree there are, so it is
computed by a dynamic program over count vectors, one count per distinct
degree, rather than by walking the realizations.  Subtrees are combined
bottom-up, and the greedy leaf matching tracks the matching number; the
total always equals Moon's count (n - 2)! / prod (d_i - 1)!.  The test suite
checks these counts against an enumeration of every Prüfer code.

For every sequence up to length 8 this script compares the spectrum's
extremes with the closed formulas, and shows where the naive floor(n/2)
version of the equal-extremes characterization disagrees with the correct
ceil(n/2) one.
"""

from treenullity import (
    bounds,
    literal_characterization,
    spectrum,
    tree_degree_sequences,
)

print(__doc__)

print(f"{'sequence':<22} {'trees':>6}  {'spectrum':<26} {'formula range':<14} equal?")
disagreements = []
for n in range(3, 9):
    for s in tree_degree_sequences(n):
        sp = spectrum(s)
        b = bounds(s)
        keys = sorted(sp.by_nullity)
        hist = ", ".join(f"{k}:{v}" for k, v in sorted(sp.by_nullity.items()))
        ok = keys[0] == b.nullity_min and keys[-1] == b.nullity_max
        marker = "" if ok else "  <-- MISMATCH"
        print(
            f"{str(s):<22} {sp.total:>6}  {{{hist}}}".ljust(58)
            + f"[{b.nullity_min}, {b.nullity_max}]".ljust(15)
            + f"{b.extremal_equal}{marker}"
        )
        if literal_characterization(s) != b.extremal_equal:
            disagreements.append(s)

print()
print("Sequences where the floor(n/2) reading of the equal-extremes")
print("characterization disagrees with the enumerated truth (all odd n):")
for s in disagreements:
    print(f"  {s}")
