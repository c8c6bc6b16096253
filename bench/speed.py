"""The host's current speed, for reporting times at a fixed reference speed.

The shared host this benchmark was tuned on runs the same Python code up to
1.7 times slower in spells that last from seconds to minutes.  A short,
fixed calibration loop timed next to the operations slows down with them,
so every reported time is a wall time scaled by ``NOMINAL_S / calibrate()``,
with ``calibrate()`` read just before and just after it: the time the
operation would take on the host running at reference speed.

The loop indexes a fixed list of pairs, unpacks them, stores into a list
and does integer arithmetic, the kind of interpreter work the program
does.  Over 180 s in which two ``cli.run`` operations moved by 55-59%,
their ratio to this loop moved by 16-22%, and their ratio to a loop of
arithmetic alone by 24-28%.  It allocates no container, so it never
triggers the cyclic garbage collector, and the program's heap cannot change
how long it takes.
"""

from __future__ import annotations

from time import perf_counter

LOOPS = 12_000
REPEATS = 3  # calibrate() takes the mean of these passes
# One pass at reference speed: a typical pass on a 2-vCPU Xeon VM (2.1 GHz,
# Python 3.11.7) in its faster spells.  It only sets the scale of the
# reported times.
NOMINAL_S = 0.0020
_PAIRS = [(i, i * 7 % 11) for i in range(256)]
_BINS = [0] * 11


def _pass() -> int:
    pairs, bins = _PAIRS, _BINS
    s = 0
    for i in range(LOOPS):
        a, b = pairs[i & 255]
        bins[b] = (bins[b] + a) & 0xFFFF
        s = (s + a * b) % 1_000_003
    return s


def calibrate() -> float:
    """Seconds for one calibration pass now: the mean of ``REPEATS``.

    The mean rather than the fastest pass, since the operations it scales
    run through the same interruptions and contention as the loop does.
    """
    start = perf_counter()
    for _ in range(REPEATS):
        _pass()
    return (perf_counter() - start) / REPEATS


def scale(before: float, after: float) -> float:
    """Factor from wall time to reference time, for work timed between two
    calibrations."""
    return NOMINAL_S / ((before + after) / 2.0)
