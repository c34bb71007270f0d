"""The observability configuration section.

Defined next to the machinery it configures (the tracer, the profiler),
composed into :class:`repro.api.ClientConfig` like every other section —
mirroring how :class:`~repro.serve.resilience.ResilienceConfig` lives with
the dispatcher. The defaults are all off: a default section keeps every
engine and service on the shared :data:`~repro.obs.trace.NULL_TRACER`, so
observability is strictly opt-in and costs nothing until asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ObsConfig:
    """Tracing and profiling knobs.

    ``trace``
        Record spans on a live :class:`~repro.obs.trace.Tracer` (read them
        via ``client.tracer`` / ``client.stats().timing`` or export with
        ``client.export_trace``).
    ``trace_file``
        Write the Chrome-trace JSON here when the client closes (implies
        ``trace``).
    ``profile``
        Run ``cProfile`` around every ``evaluate_point`` on the
        coordinator engine; read the top-N cumulative summary via
        ``client.profile_summary(top=N)``.
    """

    trace: bool = False
    trace_file: Optional[str] = None
    profile: bool = False

    @property
    def tracing(self) -> bool:
        """Is span recording requested (directly or via a trace file)?"""
        return self.trace or self.trace_file is not None

    @property
    def enabled(self) -> bool:
        """Does this section ask for any observability machinery at all?"""
        return self.tracing or self.profile
