"""One-off scaling series for the certificate builders and the verifier.

    python3 bench/scaling.py [--seed 1]

Times ``build_min``, ``build_max`` and ``verify_certificate`` (on each
certificate) once per n in 10^3, 5*10^3, 10^4, 2*10^4, on a uniform
sequence (degrees of a random labelled tree) and a path-like one (40-60%
degree 2), and prints a Markdown table.  It is not part of the timed
workloads; ``bench/README.md`` quotes its output.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import inputs as gen  # noqa: E402
from treenullity import DegreeSequence, build_max, build_min, verify_certificate  # noqa: E402


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    print("| shape | n | omega | build_min s | build_max s | verify min s | verify max s |")
    print("|---|---:|---:|---:|---:|---:|---:|")
    for shape in (gen.UNIFORM, gen.PATHLIKE):
        for n in (1000, 5000, 10000, 20000):
            s = DegreeSequence(gen.tree_degrees(rng, n, shape))
            cmin, t_min = timed(build_min, s)
            cmax, t_max = timed(build_max, s)
            rmin, v_min = timed(verify_certificate, cmin, s)
            rmax, v_max = timed(verify_certificate, cmax, s)
            assert rmin.ok and rmax.ok
            print(f"| {shape} | {n} | {cmax.omega} | {t_min:.3f} | {t_max:.3f} | {v_min:.3f} | {v_max:.3f} |")


if __name__ == "__main__":
    main()
