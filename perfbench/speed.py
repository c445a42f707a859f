"""Scaling op times to a reference host speed.

Shared machines change speed by tens of percent within seconds, and
between runs a minute apart (on the reference host, a 2-core x86_64 VM, a
fixed loop moved between 2.2 ms and 3.6 ms from one call to the next).
So the runner times a fixed unit of pure-Python work between ops, for 5%
of the op time, and scales each op's wall time by REFERENCE_UNIT_S over
the median unit time measured around that op.  The unit uses the
library's own instruction mix: tuple arithmetic modulo small numbers and
set lookups.  Raw wall times are reported beside the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

REFERENCE_UNIT_S = 0.0022  # median unit time on the reference host (2-core x86_64 VM)
SHARE = 0.05  # units are timed for this share of the op time, right after the ops
WINDOW_S = 1.0  # samples this close to an op scale it
MIN_SAMPLES = 10


def unit() -> float:
    """Seconds taken by one fixed unit of work."""
    start = time.perf_counter()
    members = frozenset((i, (i * 7) % 13) for i in range(256))
    hits = 0
    for a in range(150):
        for b in range(100):
            hits += ((a + b) % 211, (a * b) % 13) in members
    return time.perf_counter() - start


class Speed:
    """Unit times sampled between ops, by time of sampling."""

    def __init__(self):
        self.times: list[float] = []
        self.units: list[float] = []
        self.owed = 0.0  # seconds of units still to time

    def sample(self, count: int) -> None:
        for _ in range(count):
            self.units.append(unit())
            self.times.append(time.perf_counter())

    def keep_up(self, op_seconds: float) -> None:
        """Time units for SHARE of op_seconds, once a whole unit is owed."""
        self.owed += SHARE * op_seconds
        while self.owed >= REFERENCE_UNIT_S:
            self.sample(1)
            self.owed -= self.units[-1]

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_UNIT_S over the median unit time around [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.times) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return REFERENCE_UNIT_S / statistics.median(self.units[lo:hi])
