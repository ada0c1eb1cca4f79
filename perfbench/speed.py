"""Machine-speed normalisation for timings on a shared host.

On a shared 2-core host the speed of a core swings between two levels about
1.5x apart, switching every 0.1 to a few seconds, and CPU time swings with
wall time.  The ratio between the library's code and a fixed pure-Python
kernel stays within a few percent, so every timing is scaled by the kernel's
speed at the time it ran:

    normalised = raw * (REF_S / mean kernel time around the interval) ** k

that is, seconds on a machine where the kernel takes ``REF_S``.  The
exponent k is 1 unless a workload's code slows more than the kernel: the
strand_point path of the web workload goes as the kernel time to the power
1.25 (fitted over 700 paired samples, and again over ten whole runs whose
kernel medians spread from 90 to 150 us).  The kernel
is a float loop like the library's scalar orbit loop; against it, timings of
the orbit loop drift by about 1% between 4 s windows and grid-pass timings
by about 2%.  Kernels with numpy passes tracked the orbit loop worse (they
also feel memory contention, which the loop does not) and did not track
the grid pass reliably better.  The kernel is frozen in the benchmark, so a
change to the library cannot move it.

While a ``SpeedMeter`` runs, a 10 ms interval timer runs the kernel in the
main thread between bytecodes, inside whatever call is running, so long
calls are sampled throughout; the time spent in the handler is subtracted
from every interval measured.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
from time import perf_counter

#: nominal kernel time; normalised timings are seconds at this speed
REF_S = 1e-4
INTERVAL_S = 0.01


def kernel() -> float:
    s = 0.0
    for i in range(1000):
        s += math.sin(i * 1e-3)
    return s


def kernel_time(repeats: int = 20) -> float:
    """Mean kernel time over a short burst, for use without the timer."""
    t0 = perf_counter()
    for _ in range(repeats):
        kernel()
    return (perf_counter() - t0) / repeats


class SpeedMeter:
    """Samples kernel times on a timer; converts raw intervals to normalised."""

    def __init__(self):
        self.times: list[float] = []
        self.costs: list[float] = []
        self.spent = 0.0  # total time inside the handler
        self._previous = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.times.append(t0)
        self.costs.append(t1 - t0)
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def normalise(self, start: float, end: float, spent: float,
                  exponent: float = 1.0) -> float:
        """Normalised duration of [start, end] that had ``spent`` handler time."""
        pad = 2 * INTERVAL_S
        lo = bisect.bisect_left(self.times, start - pad)
        hi = bisect.bisect_right(self.times, end + pad)
        costs = self.costs[lo:hi] or self.costs
        return (end - start - spent) * (REF_S / statistics.fmean(costs)) ** exponent

    def median_kernel(self) -> float:
        return statistics.median(self.costs)
