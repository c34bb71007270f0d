"""cProfile wrapped for the engine's evaluation loop.

One :class:`EngineProfiler` accumulates every profiled section —
``ProphetEngine.evaluate_point`` enters it as a context manager — into a
single ``cProfile.Profile``, and renders the classic top-N
cumulative-time table on demand. Re-entrant sections (an interactive
refresh that evaluates neighbors, a service evaluation inside a scheduler
job) are depth-guarded: only the outermost enter/exit toggles the
profiler, so nested evaluation never double-enables it.

Profiling is coordinator-only by design: process-pool workers run their
own interpreters, and their time is attributed through the in-task
timing shipped back in PointResults (see :mod:`repro.obs.trace`),
not through cProfile.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Any


class EngineProfiler:
    """Accumulating, re-entrancy-safe cProfile wrapper."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile()
        self._depth = 0
        self.sections = 0

    def __enter__(self) -> "EngineProfiler":
        if self._depth == 0:
            self.profile.enable()
        self._depth += 1
        return self

    def __exit__(self, *exc: Any) -> bool:
        self._depth -= 1
        if self._depth == 0:
            self.profile.disable()
            self.sections += 1
        return False

    def summary(self, top: int = 20) -> str:
        """The top-``top`` functions by cumulative time, as text."""
        buffer = io.StringIO()
        stats = pstats.Stats(self.profile, stream=buffer)
        stats.strip_dirs().sort_stats("cumulative").print_stats(top)
        return buffer.getvalue()
