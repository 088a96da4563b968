"""Host speed during a measurement, from a fixed probe loop.

On a shared host a vCPU switches between a fast and a slow state about
once a second; a fixed pure-Python loop runs about 1.7x slower in the slow
one.  How much of a run falls in the slow state changes from minute to
minute, and it moved the wall time of identical runs by up to 1.7x.  The
end-to-end times are therefore scaled to a host on which the probe takes
``REFERENCE_PROBE_S``:

    scaled time = measured time * REFERENCE_PROBE_S / mean probe time

where the probes run in a background thread of the measured process, on
the same vCPU, every ``INTERVAL_S``, and the mean is taken over the probes
of the measured interval widened by ``PAD_S`` on each side.  A state
lasts about a second, so even a request too short to hold a probe is
scaled by the state it ran in.  The probe does integer arithmetic only,
so it allocates nothing the garbage collector tracks and does not depend
on the program's heap.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from bisect import bisect_left, bisect_right

REFERENCE_PROBE_S = 2.5e-4
INTERVAL_S = 0.02
PAD_S = 0.05
_TABLE = tuple(range(64))


def probe() -> float:
    """Seconds taken by one fixed loop of integer arithmetic."""
    start = time.perf_counter()
    total = 0
    for i in range(2000):
        total += (i * i) % 7 + _TABLE[i & 63]
    return time.perf_counter() - start


def pin_to_one_cpu() -> None:
    """Keep the process, and so the probe thread, on one vCPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class HostSpeed:
    """Context manager sampling ``probe`` until exit.

    ``samples`` holds (perf_counter at the probe's start, probe seconds)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        self.samples.append((time.perf_counter(), probe()))

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._sample()

    def __enter__(self) -> "HostSpeed":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    @property
    def mean(self) -> float:
        return statistics.fmean(seconds for _, seconds in self.samples)


def adjust(seconds: float, probe_mean: float) -> float:
    """A measured time scaled to the reference host speed."""
    return seconds * REFERENCE_PROBE_S / probe_mean


def scale_intervals(starts: list[float], durations: list[float],
                    samples: list[tuple[float, float]]) -> list[float]:
    """Each interval's duration scaled by the probes in and around it.

    ``samples`` are sorted by time; an interval with no probe within
    ``PAD_S`` takes the last probe before it."""
    times = [t for t, _ in samples]
    scaled = []
    for start, duration in zip(starts, durations):
        lo = bisect_left(times, start - PAD_S)
        hi = bisect_right(times, start + duration + PAD_S)
        if lo == hi:
            lo = min(max(lo - 1, 0), len(times) - 1)
            hi = lo + 1
        scaled.append(adjust(duration, statistics.fmean(s for _, s in samples[lo:hi])))
    return scaled
