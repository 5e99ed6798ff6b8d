"""How fast is the host right now?

The reference box is a small VM whose speed drifts by up to 2.5x over
seconds to minutes while neighbours come and go (bench/README.md,
"Host-speed normalisation", has the measurements).  Raw wall times
then spread by 20-30% between runs of the same code, which no median
over a 20 s run removes.

So a sampler thread times one fixed loop of pure Python every 10 ms
for the life of the process, and every time the benchmark reports is
scaled by ``REFERENCE_LOOP_S`` over the median loop time while it was
being measured: *reference seconds*, the time the work takes at the
reference box's quiet speed.  The loop belongs to the benchmark and
runs none of the program's code, so a faster program still reads
faster.  Only the standard library is imported here, because the
sampler has to be running before the program's imports are timed.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

#: Seconds one sample loop takes on the quiet reference box.
REFERENCE_LOOP_S = 213e-6
LOOP_ITERATIONS = 3000
SAMPLE_EVERY_S = 0.010
#: Samples this close to an interval's ends count towards it, so an
#: operation shorter than the sampling period still sees several.
WINDOW_S = 0.050


def pin_to_one_cpu() -> set[int]:
    """Keep this process on one CPU, so the sampler sees the core the
    program runs on; returns the CPUs it was allowed before."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return allowed


class HostSpeed:
    def __init__(self):
        self._times: list[float] = []
        self._loops: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._sample, name="bench-host-speed", daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        clock = time.perf_counter
        while not self._stop.wait(SAMPLE_EVERY_S):
            started = clock()
            x = 0
            for i in range(LOOP_ITERATIONS):
                x = (x * 31 + i) & 0xFFFF
            took = clock() - started
            # times first: readers bound their search by len(_loops)
            self._times.append(started)
            self._loops.append(took)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def speed(self, start: float, end: float) -> float:
        """Mean host speed over ``[start, end]`` relative to the
        reference: 1.0 on the quiet reference box, 0.5 when the same
        Python takes twice as long.  Samples are even in time, so the
        mean of their speeds is the share of reference-speed work the
        interval held."""
        lo = bisect.bisect_left(self._times, start - WINDOW_S)
        hi = bisect.bisect_right(self._times, end + WINDOW_S,
                                 hi=len(self._loops))
        if hi <= lo:
            return 1.0
        return statistics.fmean(REFERENCE_LOOP_S / loop
                                for loop in self._loops[lo:hi])

    def reference_seconds(self, start: float, end: float) -> float:
        """``end - start`` at the reference box's quiet speed."""
        return (end - start) * self.speed(start, end)
