"""A calibrated clock for timing on a host whose speed drifts.

On small shared machines the speed of one core can change by 1.5-2x for
seconds at a time (measured on the 2-core reference machine: 2 s windows of
the same recoveries ran at 50k-100k queries/s). Plain wall time then measures
the neighbours as much as shiftlab.

The gauge runs a fixed calibration kernel, owned by the benchmark and
independent of shiftlab, every INTERVAL_S of wall time from a SIGALRM
handler, and converts elapsed wall time into *reference seconds*: each stretch
between two kernel runs counts (stretch) * REFERENCE_KERNEL_NS / (latest
kernel time). A reference second is thus a second on a machine where the
kernel takes REFERENCE_KERNEL_NS, the reference machine when it runs fast.
Kernel time itself is excluded from both clocks. On the reference machine
this cut the seed-to-seed spread (quartile distance over median) of 20-30 s
throughput runs from 12-13% in wall time to 3-5%.

The handler only touches the gauge's own state, so it may interrupt shiftlab
anywhere; an optional on_kernel(start_ns, ns) callback lets the tracer keep
kernel time out of the layer it interrupted.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
REFERENCE_KERNEL_NS = 2_000_000


def kernel() -> int:
    """Fixed mix of small-array numpy calls and interpreter work (~2 ms)."""
    total = 0
    for _ in range(60):
        sums = np.zeros(1, dtype=np.int64)
        for w in range(10):
            sums = np.concatenate([sums, sums + w])
        total += int((sums % 7 == 3).sum())
    return total


def kernel_ns() -> int:
    t0 = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - t0


def reference_seconds(wall_s: float, kernel_times_ns: list[int]) -> float:
    """Scale a wall duration by the median of kernel runs taken around it."""
    return wall_s * REFERENCE_KERNEL_NS / statistics.median(kernel_times_ns)


class Gauge:
    """Reference-second clock, kept calibrated by a periodic kernel run."""

    def __init__(self, on_kernel=None):
        self.on_kernel = on_kernel
        self._previous = None
        self._busy = False
        last = kernel_ns()
        now = time.perf_counter_ns()
        # (reference ns up to mark, wall ns of kernels so far, mark, last kernel ns)
        self._state = (0.0, 0, now, last)

    def __enter__(self) -> "Gauge":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _tick(self, _signum, _frame) -> None:
        if self._busy:  # a tick that fires inside a slow kernel run is skipped
            return
        self._busy = True
        t0 = time.perf_counter_ns()
        ref, excluded, mark, last = self._state
        ref += (t0 - mark) * REFERENCE_KERNEL_NS / last
        kernel()
        t1 = time.perf_counter_ns()
        self._state = (ref, excluded + (t1 - t0), t1, t1 - t0)
        if self.on_kernel is not None:
            self.on_kernel(t0, t1 - t0)
        self._busy = False

    def read(self) -> tuple[float, float]:
        """(reference seconds, wall seconds without kernel time) so far."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            now = time.perf_counter_ns()
            ref, excluded, mark, last = self._state
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return (ref + (now - mark) * REFERENCE_KERNEL_NS / last) / 1e9, (now - excluded) / 1e9
