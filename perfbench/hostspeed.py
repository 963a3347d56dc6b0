"""How fast the host runs right now, from a fixed reference kernel.

On a shared host the speed of one CPU changes while a benchmark runs: a
pure-Python loop can run 1.5x faster for seconds, or a whole run, at a
time.  The benchmark therefore times a small kernel that does not depend
on the program under test, between the operations it measures, and
reports every timing scaled to the speed at which that kernel takes
:data:`REFERENCE_S`.  A slower program still reads slower; a faster host
does not read as a faster program.

The kernel mixes interpreter work (building a dict of tuples and strings)
with a NumPy sort and gather, like the engine's planning and kernels.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: Wall seconds of one :meth:`HostSpeed.measure` call on the host the
#: benchmark was calibrated on (an Intel Xeon with 2 CPUs).
REFERENCE_S = 0.0025
#: Least wall time between two samples taken by :meth:`HostSpeed.due`.
SAMPLE_EVERY_S = 0.2


class HostSpeed:
    """Reference-kernel timings taken during a run."""

    def __init__(self) -> None:
        self._keys = (np.arange(50_000, dtype=np.int64)
                      * 2654435761) % 1_000_003
        self.samples: list[float] = []
        self._last = float("-inf")

    def _kernel(self) -> None:
        table = {(i, i & 7): str(i) for i in range(2000)}
        sum(len(value) for value in table.values())
        self._keys[np.argsort(self._keys, kind="stable")]

    def measure(self) -> float:
        """Take one sample; returns the wall seconds it took.

        The kernel runs twice and only the second run is timed, so the
        sample does not depend on what the measured work left in the CPU
        caches.
        """
        started = perf_counter()
        self._kernel()
        timed = perf_counter()
        self._kernel()
        finished = perf_counter()
        self.samples.append(finished - timed)
        self._last = finished
        return finished - started

    def due(self) -> float:
        """Measure if :data:`SAMPLE_EVERY_S` has passed; returns seconds spent."""
        if perf_counter() - self._last < SAMPLE_EVERY_S:
            return 0.0
        return self.measure()


def slowdown(samples: list[float]) -> float:
    """How much slower than the calibration host the samples ran (>1: slower)."""
    return statistics.mean(samples) / REFERENCE_S
