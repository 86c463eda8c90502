"""The machine's speed, sampled while a workload runs.

On a few cores of a shared host the machine's speed drifts by a quarter or
more over tens of seconds, and the program's maps mostly slow down with a
fixed kernel (their pass times and the kernel's mean time during each pass
correlated at 0.9 or more in most sets of repeated passes).  A `Probe`
interrupts the workload every `interval` seconds with SIGALRM and times a
fixed exact-arithmetic kernel from this file in the signal handler, on the
same thread, so the samples cover the whole run evenly; the garbage
collector is off while the kernel runs.  The time spent in the handler is
kept apart and taken off the workload's time.

`normalise(seconds, samples)` turns a measured time into seconds at the
reference speed: the time scaled by the ratio of `REFERENCE_KERNEL_S` (the
kernel's typical time on the development machine) to the kernel's mean time
during the measurement.  The kernel is independent of the program, so a
faster program still reads faster.

Interpreter start-up drifts with the host too, but not with the kernel
(their times correlated at about 0 over 96 starts).  It follows the start
of a bare interpreter that imports numpy (correlation 0.74 over 48 pairs),
so `normalise_start(seconds, baseline)` scales a set-up time by the ratio of
`REFERENCE_START_S` to the time of such a start, `START_BASELINE`, taken
beside it.  Work the program adds to its own start still shows.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# The kernel's median seconds on the development machine (2 vCPUs of a
# shared x86-64 host, CPython 3); only a scale, the same on both sides of
# every comparison.
REFERENCE_KERNEL_S = 0.0015

# The arguments of the bare start and its median seconds on that machine.
START_BASELINE = ["-c", "import numpy"]
REFERENCE_START_S = 0.17

_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(8)]
           for i in range(8)]
_BIG = 3 ** 900 + 1


def kernel() -> int:
    """Fixed work like the program's: Fraction elimination and big-integer products."""
    rows = [row[:] for row in _MATRIX]
    for k in range(len(rows)):
        pivot = next((r for r in range(k, len(rows)) if rows[r][k]), None)
        if pivot is None:
            continue
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for r in range(k + 1, len(rows)):
            factor = rows[r][k] / rows[k][k]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[k])]
    acc, table = 1, {}
    for i in range(150):
        acc = (acc * _BIG + i) % (_BIG - 2)
        table[i % 13] = table.get(i % 13, 0) + acc
    return len(table) + rows[-1][-1].numerator


def time_kernel(repeats: int = 1) -> list[float]:
    """Seconds of `repeats` kernel runs, one sample each."""
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - start)
    return out


def normalise(seconds: float, samples: list[float]) -> float:
    """`seconds` at the reference speed, from kernel times taken meanwhile."""
    return seconds * REFERENCE_KERNEL_S / statistics.fmean(samples)


def normalise_start(seconds: float, baseline: float) -> float:
    """A set-up time at the reference start-up speed."""
    return seconds * REFERENCE_START_S / baseline


class Probe:
    """Samples the kernel every `interval` seconds of wall time while active.

    `samples` holds the kernel times, `spent` the seconds spent in the
    handler (kernel and timing), which the caller takes off its own timings.
    """

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        # a collection of the workload's objects would land in the sample
        collecting = gc.isenabled()
        gc.disable()
        try:
            kernel()
        finally:
            if collecting:
                gc.enable()
        self.samples.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
