"""The CPU's speed, sampled while the program runs, and times scaled by it.

The benchmark's processes share their CPU with other machines' work,
and how fast a CPU runs pure Python swings by up to 2x for tens of
seconds at a time.  A time as measured would swing with it, by more
than any bound worth having.  So the benchmark pins itself and every
process it launches to one CPU, and while a child process runs the
launching process samples that CPU's speed: every ``PERIOD_S`` it
times a fixed pure-Python chunk (:func:`chunk`, which calls nothing of
the program) in its own CPU time.  A sample's speed is
``REF_CHUNK_S / chunk time``: 1.0 on a CPU that runs the chunk in
``REF_CHUNK_S``, less on a slower one.

:meth:`Samples.seconds` turns an interval of the child's life into
*reference seconds*: the interval's wall time, less the time the probe
took from the child, times the mean speed sampled in it raised to
``FOLLOW``.  The program's time follows the chunk's speed less than
one to one (the chunk gains more from a fast phase than the program's
larger working set does): over 27 runs of the four workloads at mean
sampled speeds from 0.8 to 1.55, scaling by the speed itself left
reference seconds rising with the speed (log-log slope 0.07-0.16),
and ``FOLLOW = 0.9`` removed most of that.  On a CPU running at the
reference speed reference seconds are plain seconds; a program that
does less work reads fewer of them on any CPU.
"""

from __future__ import annotations

import bisect
import os
import statistics
import time

#: seconds between speed samples
PERIOD_S = 0.02
#: CPU seconds one :func:`chunk` takes at the reference speed (about
#: its median on a 2-vCPU Xeon VM)
REF_CHUNK_S = 0.00015
#: fewest samples an interval's speed is averaged over (a shorter
#: interval borrows its nearest neighbours')
MIN_SAMPLES = 8
#: power of the sampled speed that the program's time follows
FOLLOW = 0.9


def chunk() -> int:
    """A fixed slice of interpreter work: dict, list, int and attribute
    operations, as the program's own inner loops mix them."""
    table: dict = {}
    items: list = []
    acc = 0
    for i in range(300):
        key = (i * 2654435761) & 255
        table[key] = table.get(key, 0) + i
        items.append(key ^ acc)
        acc = (acc + key) & 0xFFFF
    items.sort()
    return acc + len(table) + items[-1]


def pin_to_one_cpu() -> None:
    """Pin this process (and so every child it launches) to the lowest
    CPU it may run on, so the probe samples the CPU the program uses."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})


class Samples:
    """Speed samples ``(start, end, speed)`` on the ``time.monotonic()``
    clock, in order."""

    def __init__(self) -> None:
        self.starts: list = []
        self.ends: list = []
        self.speeds: list = []

    def take(self) -> None:
        start = time.monotonic()
        t0 = time.thread_time()
        chunk()
        cpu = time.thread_time() - t0
        self.starts.append(start)
        self.ends.append(time.monotonic())
        self.speeds.append(REF_CHUNK_S / max(cpu, 1e-7))

    def speed(self, a: float, b: float) -> float:
        """Mean speed sampled in ``[a, b]`` (at least ``MIN_SAMPLES``
        samples, the nearest ones if the interval holds fewer)."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.starts, b)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            if lo > 0:
                lo -= 1
            if hi < len(self.starts):
                hi += 1
        if lo == hi:
            raise ValueError("no speed samples")
        return statistics.fmean(self.speeds[lo:hi])

    def factor(self, a: float, b: float) -> float:
        """Reference seconds per second of the program's time in
        ``[a, b]``."""
        return self.speed(a, b) ** FOLLOW

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds of the interval ``[a, b]``."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.ends, b)
        probing = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        return (b - a - probing) * self.factor(a, b)

    def mean(self) -> float:
        return statistics.fmean(self.speeds) if self.speeds else 0.0


def watch(proc, samples: Samples, deadline: float) -> int:
    """Sample the CPU's speed until ``proc`` exits; its return code.
    Raises :class:`TimeoutError` once ``time.monotonic()`` passes
    ``deadline`` (the caller kills the process)."""
    while True:
        code = proc.poll()
        if code is not None:
            return code
        if time.monotonic() > deadline:
            raise TimeoutError(f"process {proc.pid} ran past its deadline")
        time.sleep(PERIOD_S)
        samples.take()
