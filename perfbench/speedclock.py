"""A clock that reads in reference seconds: wall time corrected for the speed
the machine runs at.

On a shared virtual machine the same pure-Python work can take 1.7 times as
long in one stretch as in the next, with no steal time and CPU time tracking
wall time; the speed changes both within a tenth of a second and over
minutes.  A run of the benchmark sees whatever mix of fast and slow stretches
it falls into, so raw wall times of identical code differ by more than any
useful regression bound.

``SpeedClock`` samples the speed while the program runs.  An interval timer
(``SIGALRM``) fires every ``INTERVAL`` seconds; the handler runs in the main
thread between two bytecodes of whatever the program is doing and times a
fixed calibration kernel of Fraction arithmetic and dict updates, the kind of
work the gasymp polynomial code does.  An interval is converted as

    reference seconds = integral over [a, b] of  KERNEL_REF_S / k(t)  dt

where ``k(t)`` is the kernel time of the sample nearest ``t``, and the
handler's own time is taken out of the interval first.  A program change
moves the work done and so the reference seconds; a change of machine speed
moves ``k`` and the wall time together and cancels.  ``KERNEL_REF_S`` is about
the kernel's time in the machine's fast state (2 vCPU "Intel(R) Xeon(R)
Processor", Python 3.11.7), so reference seconds read roughly as wall seconds
there.

Single samples 20 ms apart track the speed better than medians over several:
for one 0.3 s analysis repeated for a minute, latencies spread 0.04
(quartile distance over median) this way, 0.06 with the median of three
samples 50 ms apart, and 0.27 as raw wall times.  The handler costs about
2% of the run, the same on every commit.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

clock = time.perf_counter

INTERVAL = 0.02      # seconds between two speed samples
KERNEL_REF_S = 0.00029


def kernel() -> None:
    acc = Fraction(0)
    table = {}
    for i in range(1, 61):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        key = (i % 7, i % 5)
        table[key] = table.get(key, 0) + acc.numerator % 97


class SpeedClock:
    def __init__(self):
        self.times = []      # sample instants
        self.kernels = []    # kernel seconds at each instant
        self.spent = 0.0     # handler seconds so far

    def _sample(self, _signum, _frame) -> None:
        start = clock()
        kernel()
        end = clock()
        self.times.append(end)
        self.kernels.append(end - start)
        self.spent += clock() - start

    def start(self) -> None:
        for _ in range(3):  # samples before the first tick; the first warm up the kernel
            self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> tuple:
        """A mark to pass to ``ref_seconds``."""
        return clock(), self.spent

    def ref_seconds(self, mark_a: tuple, mark_b: tuple) -> float:
        """Reference seconds between two marks (``mark_b`` may be ``None``
        for now).  Call it after the samples around ``mark_b`` exist."""
        if mark_b is None:
            mark_b = self.now()
        (a, spent_a), (b, spent_b) = mark_a, mark_b
        wall = b - a
        if wall <= 0:
            return 0.0
        busy = wall - (spent_b - spent_a)  # the program's share of the interval
        # integrate 1/k over [a, b], k stepping at midpoints between samples
        times = self.times
        i = max(0, bisect.bisect_left(times, a) - 1)
        total, t = 0.0, a
        while t < b:
            edge = b if i + 1 == len(times) else min(b, (times[i] + times[i + 1]) / 2)
            if edge > t:
                total += (edge - t) / self.kernels[i]
                t = edge
            i += 1
        return total * KERNEL_REF_S * busy / wall
