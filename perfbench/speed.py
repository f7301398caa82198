"""Timing calibrated against the machine's speed at the moment of measurement.

On a machine shared without CPU isolation, bursts of contention from
other workloads slow every instruction stream by up to 2x for seconds at
a time, and no CPU clock excludes that. While a `Calibrated` clock is running, a timer
signal every `INTERVAL_S` runs a tiny fixed probe (pure Python, no
submatch code) and records how long it took. A region's calibrated time
is its wall time scaled by `REFERENCE_PROBE_S` over the mean probe time
seen during the region: the seconds the region would have taken at the
probe's reference speed. A change to submatch does not move the probe,
so it moves calibrated times in the same proportion as wall times.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.005
# Typical probe time on an uncontended core (see baseline.json); a fixed scale.
REFERENCE_PROBE_S = 60e-6
_TABLE = {i: i * 7 % 1009 for i in range(1009)}


def _probe() -> float:
    start = time.perf_counter()
    total = 0
    for key in range(1009):
        total += _TABLE[key]
    return time.perf_counter() - start


class Calibrated:
    """Context manager that samples the probe while timed regions run."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.samples.append(_probe()))
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn, *args):
        """(fn's result, wall seconds, calibrated seconds) of one call."""
        first = len(self.samples)
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        # A region shorter than the interval may hold no sample: use the latest.
        seen = self.samples[first:] or self.samples[-1:] or [_probe()]
        return result, wall, wall * REFERENCE_PROBE_S / statistics.fmean(seen)
