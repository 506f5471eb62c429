"""Machine-speed calibration for the permlip benchmark.

The benchmark's host is a share of a machine whose CPUs change speed: each
vCPU, on its own, runs up to twice as slow in phases lasting from a tenth of
a second to several seconds.  Raw timings of the same code then move
between runs by more than the benchmark's bounds.  So the benchmark times a
fixed tick of this file (no permlip code) on the same vCPU, during or right
beside each timed stretch, and reports times in reference seconds:

    reference seconds = measured seconds * REFERENCE_TICK_S / mean tick

A slower program still reads slower; a slower vCPU slows the ticks as much
as the program and cancels out.  Raw seconds are printed beside the scaled
ones.

The tick mixes what permlip spends its time on: a recursive walk over short
lists with comparisons (the brute-force search), big-integer additions (the
exact engines) and Fraction arithmetic (the recurrence fits).
"""

import signal
from fractions import Fraction
from time import perf_counter

# Median tick on a 2-vCPU Intel Xeon VM under CPython 3.11, in its fast
# phases, so that reference seconds read close to seconds there.
REFERENCE_TICK_S = 0.00026
# Wall seconds between a Sampler's ticks.
SAMPLE_PERIOD_S = 0.02
# Ticks in one burst, run between timed stretches.
BURST_TICKS = 40

_BIG = 7 ** 20000


def _walk(prefix, n, bound):
    if len(prefix) == n:
        return 1
    total = 0
    for value in range(n):
        if value in prefix:
            continue
        if prefix and abs(prefix[-1] - value) > bound:
            continue
        total += _walk(prefix + [value], n, bound)
    return total


def tick():
    """Seconds one run of the fixed calibration code takes."""
    start = perf_counter()
    _walk([], 6, 2)
    a, b = _BIG, _BIG + 1
    for _ in range(40):
        a, b = b, a + b
    q = Fraction(0)
    for k in range(1, 12):
        q += Fraction(k, k * k + 1)
    return perf_counter() - start


def burst():
    """BURST_TICKS tick durations, measured back to back."""
    return [tick() for _ in range(BURST_TICKS)]


def scale(ticks):
    """Factor from measured to reference seconds, given the ticks measured
    during or beside a timed stretch."""
    return REFERENCE_TICK_S * len(ticks) / sum(ticks)


class Sampler:
    """Takes a tick every SAMPLE_PERIOD_S of wall time, from a SIGALRM
    handler, while the main thread runs other code.

    ``ticks`` holds the tick durations and ``spent`` the seconds the
    handler took; ``clock`` is ``perf_counter`` without them, for timing
    the other code."""

    def __init__(self):
        self.ticks = []
        self.spent = 0.0

    def clock(self):
        return perf_counter() - self.spent

    def _handler(self, signum, frame):
        start = perf_counter()
        tick()  # warms the caches the timed code left cold
        self.ticks.append(tick())
        self.spent += perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False
