"""A fixed reference computation, timed between the workload's calls.

The host's speed swings by up to 2x over tens of seconds, from one run to
the next and within a run, because other tenants share its cores and
caches.  The same swing slows the gauge: a small numpy computation that
never changes.  A run times the gauge about once per second of work and
scales its figures by ``REFERENCE_S`` over the gauge's median CPU time
in the run, so that they read in seconds at the speed where one gauge
takes ``REFERENCE_S``.  The program's code never runs inside the gauge,
so a change to the program moves only the numerator.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

#: CPU seconds of one gauge on the reference machine (2 vCPUs, Intel
#: Xeon), rounded; the scaled figures read near CPU seconds there.
REFERENCE_S = 0.07
#: CPU seconds of workload calls between two gauge samples.
EVERY_S = 1.0
#: Element-wise passes over a 300x300 array in one gauge.  A pure-Python
#: loop was tried beside them and tracked the workloads less well.
PASSES = 45

_MATRIX = np.random.default_rng(0).random((300, 300))


def _work() -> float:
    x = _MATRIX
    for _ in range(PASSES):
        x = np.minimum(x, x.T + 0.1)
        x = np.log1p(np.exp(-x))
    return float(x.sum())


class Gauge:
    """Samples of the gauge's CPU time, taken between calls."""

    def __init__(self):
        self.samples = []
        self._since = EVERY_S  # the first call finds a sample due

    def sample(self) -> None:
        c0 = time.process_time()
        _work()
        self.samples.append(time.process_time() - c0)
        self._since = 0.0

    def due(self) -> bool:
        return self._since >= EVERY_S

    def add_work(self, cpu_s: float) -> None:
        self._since += cpu_s

    def median(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        """The factor that turns this run's CPU seconds into reference ones."""
        return REFERENCE_S / self.median()
