"""Host-speed pacer: what the shared host did to the clock, measured in-line.

The sandbox gives the benchmark two cores of a shared host whose speed
flips between a fast and a ~30% slower mode every few seconds (other
tenants on the same cores; CPU time and wall time slow down together, so it
is not scheduling delay). A wall-clock timing therefore says more about the
minute it was taken in than about the program.

The pacer runs a fixed kernel — pure NumPy and interpreter work owned by the
benchmark, independent of everything under ``src/`` — on an interval timer
*in the measured thread itself* (``SIGALRM`` handlers run in the main thread
between two bytecodes), so it samples the very core the workload is on, even
in the middle of one long blocking call. From the samples it answers two
questions about any interval of the run:

* ``paused(a, b)`` — how much of it the kernel itself took (subtracted from
  every timing), and
* ``slowdown(a, b)`` — how slow the host was in it, as the kernel's CPU time
  over ``REFERENCE_KERNEL_S``.

A timing divided by its slowdown is the time the same work takes on a host
that runs the kernel in ``REFERENCE_KERNEL_S``: still seconds, comparable
between runs made minutes or commits apart.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import Any

import numpy as np

#: About the kernel's CPU time when sampled in-line (cold caches) in this
#: host's fast mode; the speed every timing is restated at. A constant of the
#: benchmark: changing it rescales every timing metric.
REFERENCE_KERNEL_S = 1.0e-3
#: Timer period. 25 Hz x ~1 ms = under 3% of the measured thread.
PERIOD_S = 0.04
#: Samples up to this far outside an interval still describe it (the host's
#: modes last seconds); short operations get their speed from here.
WINDOW_S = 0.5

_VECTOR = np.arange(4096, dtype=np.float64)


def kernel() -> float:
    """~1 ms of the work the program is made of: small-array NumPy calls,
    dict and attribute traffic, float arithmetic in bytecode."""
    total = 0.0
    for i in range(100):
        scaled = _VECTOR * 1.0001 + i
        total += float(scaled[::7].sum())
        table = {j: j * 2 for j in range(50)}
        total += sum(table.values())
    return total


class Pacer:
    """Samples the kernel every ``PERIOD_S`` from ``start()`` to ``stop()``.

    With a span ``recorder`` (traced pass) every sample is also a
    ``bench:pacer`` span, so it counts towards no layer's self time.
    """

    def __init__(self, recorder: Any = None) -> None:
        self.recorder = recorder
        self.ends: list[float] = []  # perf_counter at the end of each sample
        self.cpu_s: list[float] = []  # the kernel's CPU time in that sample
        self.paused_total: list[float] = []  # wall spent in samples so far
        self._previous_handler = None

    def _sample(self, signum: int = 0, frame: object = None) -> None:
        span = self.recorder.open("bench:pacer") if self.recorder is not None else None
        wall_before = time.perf_counter()
        cpu_before = time.thread_time()
        kernel()
        cpu = time.thread_time() - cpu_before
        wall_after = time.perf_counter()
        total = self.paused_total[-1] if self.paused_total else 0.0
        self.cpu_s.append(cpu)
        self.paused_total.append(total + wall_after - wall_before)
        self.ends.append(wall_after)
        if span is not None:
            self.recorder.close(span)

    def start(self) -> "Pacer":
        self._sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    def paused(self, begin: float, end: float) -> float:
        """Wall time the samples that ended in ``(begin, end]`` took."""
        def total_at(moment: float) -> float:
            index = bisect.bisect_right(self.ends, moment)
            return self.paused_total[index - 1] if index else 0.0

        return total_at(end) - total_at(begin)

    def slowdown(self, begin: float, end: float) -> float:
        """Mean kernel CPU time in ``[begin, end]`` and up to ``WINDOW_S``
        around it, over the reference."""
        low = bisect.bisect_left(self.ends, begin - WINDOW_S)
        high = bisect.bisect_right(self.ends, end + WINDOW_S)
        if high - low < 3:  # the nearest few, however far
            low, high = max(0, low - 2), min(len(self.ends), high + 2)
        window = self.cpu_s[low:high]
        return sum(window) / len(window) / REFERENCE_KERNEL_S

    def restated(self, begin: float, end: float) -> float:
        """The interval's length without the samples in it, at reference speed."""
        return (end - begin - self.paused(begin, end)) / self.slowdown(begin, end)
