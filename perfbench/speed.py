"""Times in units of a fixed probe computation, so machine load cancels out.

On a shared machine other tenants slow this process down in bursts that
last seconds or minutes, and change its speed by up to 2x: far more than
most changes to the program would.  While a `SpeedProbe` is active, a
wall-clock timer signal runs a small fixed pure-Python computation (the
probe) every `period` seconds, interrupting whatever code is running, and
records how long it took.  A timed interval is charged its wall time minus
the probes that ran inside it, divided by the mean probe time inside it
(the latest probe before it when none ran inside).  That ratio does not
change when the machine slows both down alike.  `REFERENCE_S` turns it
back into seconds: it is the probe's time, at the 5th percentile, in
runs on the 2-core machine this benchmark was built on.  Only the main
thread may use a probe.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0003


def _probe():
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(1, i)
    return acc


class SpeedProbe:
    def __init__(self, period=0.01):
        self.period = period
        self.samples = []   # seconds per probe, in the order they ran
        self.spent = 0.0    # total seconds spent probing
        self._previous = None

    def _on_timer(self, signum, frame):
        start = perf_counter()
        _probe()
        took = perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        self._on_timer(None, None)  # one sample before anything is timed
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def start(self):
        """A mark for `since`, taken just before the timed work starts."""
        return len(self.samples), self.spent, perf_counter()

    def since(self, mark):
        """(net seconds, probe level) of the interval from `mark` to now."""
        end = perf_counter()
        first, spent, start = mark
        inside = self.samples[first:]
        level = statistics.fmean(inside) if inside else self.samples[first - 1]
        return end - start - (self.spent - spent), level

    reference = REFERENCE_S


class WallClock:
    """The same interface without a probe: plain wall time."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def start(self):
        return perf_counter()

    def since(self, mark):
        return perf_counter() - mark, 1.0

    reference = 1.0
