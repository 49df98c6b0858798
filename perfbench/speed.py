"""Host-speed sampler: times a fixed reference kernel throughout a run.

The benchmark runs on shared virtual machines whose CPU speed drifts, by up
to a factor of two within a minute, because the physical cores are shared
with other guests.  Wall times then move with the host more than with the
code, and no run length averages the drift away.  So while a run is timed,
an interval timer interrupts it every ``INTERVAL_S`` seconds and times one
call of ``kernel``, a fixed piece of pure-Python work that does not use the
code under test.  A timed span is then reported at reference speed:

    span at reference speed = (span - sampler time inside it)
                              * REFERENCE_S / median kernel time around it

where "around it" is the span widened by ``WINDOW_S`` on each side.  A
slower program gives a longer span at the same kernel times, so a
regression still shows in full; a slower host lengthens both and cancels.

Spans and kernel calls are timed in CPU time of the calling thread, so time
in which another process holds the CPU is not counted.  The program is
single-threaded and does no I/O while it is timed, so its CPU time is its
latency.  A kernel of about a millisecond tracks the program best: on the
baseline host, per-pass CPU times that drifted by 20% (coefficient of
variation) varied by 2% at reference speed, against 4.5% with a kernel an
eighth as long, which spends more of its time refilling the caches.
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import thread_time

INTERVAL_S = 0.03
WINDOW_S = 0.15
# the kernel time that defines reference speed; it fixes the unit of the
# reported times and lies within the 1.3 to 2.9 ms that the kernel took on
# the 2-vCPU host the baseline was measured on
REFERENCE_S = 0.0018


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value

    def pair(self):
        return (self.key, self.value)


def kernel(rounds: int = 800) -> int:
    """Fixed interpreter work of the kind the package does: small objects,
    method calls, tuple and frozenset hashing, dict and list operations."""
    table = {}
    acc = 0
    for i in range(rounds):
        a = _Node(i % 7, i % 5)
        b = _Node(i % 3, i % 11)
        key = frozenset((a.pair(), b.pair()))
        table[key] = table.get(key, 0) + 1
        acc += len(key) + (a.key * b.value) % 13
        acc += sum([x for x in (a.key, a.value, b.key, b.value) if x])
    return acc + len(table)


class SpeedSampler:
    """Context manager that samples the kernel time every ``INTERVAL_S``.

    Spans passed to its methods are ``(start, end)`` readings of
    ``thread_time``.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not host speed
        try:
            start = thread_time()
            kernel()
            self.durations.append(thread_time() - start)
            self.starts.append(start)
        finally:
            if collecting:
                gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def busy(self, start: float, end: float) -> float:
        """The span's CPU time less the sampler's own time inside it."""
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        return end - start - sum(self.durations[lo:hi])

    def local_kernel_s(self, start: float, end: float) -> float:
        """Median kernel time over the span widened by ``WINDOW_S``."""
        lo = bisect_left(self.starts, start - WINDOW_S)
        hi = bisect_right(self.starts, end + WINDOW_S)
        if lo == hi:  # no sample near the span: take the nearest ones
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        if lo == hi:
            raise RuntimeError("the host-speed sampler took no samples")
        return statistics.median(self.durations[lo:hi])

    def normalise(self, start: float, end: float) -> float:
        """The span's time at reference host speed, in seconds."""
        return self.busy(start, end) * REFERENCE_S / self.local_kernel_s(start, end)
