"""Host-speed calibration of the benchmark's timings.

On a shared host the speed of a vCPU changes from second to second, by
up to 1.8 times, with the load that other tenants put on the same
physical core; CPU time changes with it, so neither wall time nor CPU
time of one run is comparable with another run's.  A fixed probe kernel
(big-integer products, an interpreter loop and numpy float arithmetic,
the kinds of work the program spends its time on) is therefore run
between the timed operations, for a fixed share of the time they took.
Both averages then cover the same mixture of fast and slow moments, and

    calibrated seconds = mean seconds * REFERENCE_PROBE_S / mean probe seconds

is the time the operation would take on a host where the probe runs in
REFERENCE_PROBE_S.  The probe is the benchmark's own code and calls
nothing in the program, so a change to the program moves the calibrated
time exactly as it moves the raw time.  Means, not medians: the speed
flips between two levels, and the median of a two-level sample jumps
between them, while the mean follows the share of time spent at each.
"""

from __future__ import annotations

from statistics import fmean
from time import perf_counter

import numpy as np

# the probe on an uncontended core of the 2.0 GHz Xeon vCPUs (Python
# 3.11, numpy 2.4) it was tuned on; contention there slows it to 13 ms
REFERENCE_PROBE_S = 0.008
# probe time as a share of the operation time it calibrates
PROBE_SHARE = 0.1

_A = 3 ** 30000
_B = 7 ** 25000
_X = np.linspace(-2.0, 2.0, 20000)


def kernel():
    """The fixed probe work: big-integer products, an interpreter loop
    and numpy float arithmetic."""
    x = 0
    for _ in range(3):
        x ^= _A * _B
    s = 0
    for i in range(40000):
        s += i * i % 7
    for _ in range(10):
        s += float((np.sqrt(_X * _X + 1.0) - _X).sum())
    return x, s


class Calibration:
    """Probe times collected between the timed operations of one run."""

    def __init__(self):
        self.samples = []

    def probe(self, busy=0.0):
        """Run the kernel at least once and until it has taken about
        PROBE_SHARE of ``busy`` seconds; returns the seconds spent."""
        spent = 0.0
        while True:
            t0 = perf_counter()
            kernel()
            dt = perf_counter() - t0
            self.samples.append(dt)
            spent += dt
            if spent >= PROBE_SHARE * busy:
                return spent

    def mean(self):
        return fmean(self.samples)

    def factor(self):
        """Multiplier from this run's seconds to calibrated seconds."""
        return REFERENCE_PROBE_S / self.mean()
