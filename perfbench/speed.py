"""How fast this core runs right now, sampled while the benchmark works.

On a shared machine other tenants slow every core down, by up to about
1.8x, for stretches from milliseconds to minutes. ``SpeedProbe`` runs a
short, fixed burst of ``Fraction`` arithmetic (the package's own kind of
work) in a background thread every few milliseconds and keeps each burst's
duration. ``scale(start, end)`` is the nominal burst time over the median
burst time measured around that interval: multiplying a measured time by it
gives the time the work would have taken with the core running at its
nominal speed. On a quiet core the scale is about 1.

The bursts take the interpreter lock for well under the 5 ms switch
interval, so they rarely delay the measured work, and they are spread evenly
over it, so every workload pays the same small share.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from fractions import Fraction

BURST_OPS = 100
# Median burst time on an idle core of the machine the benchmark was written
# on (2-core VM, CPython 3.11); it sets the units, not the comparison.
NOMINAL_BURST_S = 3.2e-4
PERIOD_S = 0.01
# Bursts this far outside a short interval still describe it.
MARGIN_S = 0.03

_X = Fraction(3, 7)
_Y = Fraction(5, 11)


def burst() -> float:
    start = time.perf_counter()
    for _ in range(BURST_OPS):
        _X * _Y + _X - _Y
    return time.perf_counter() - start


class SpeedProbe:
    """Samples burst times in a daemon thread between ``start()`` and ``stop()``."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self):
        start = time.perf_counter()
        self.durations.append(burst())
        self.starts.append(start)  # after the duration, so starts never runs ahead

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def start(self) -> "SpeedProbe":
        self._sample()
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.starts, start - MARGIN_S)
        hi = bisect.bisect_right(self.starts, end + MARGIN_S)
        around = self.durations[lo:hi] or self.durations
        return NOMINAL_BURST_S / statistics.median(around)
