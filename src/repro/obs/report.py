"""The timing report: where wall-clock lives in ``client.stats()``.

:class:`~repro.api.StatsReport` carries **counters only** in its
``to_dict()`` / ``to_json()`` — that byte-stability contract is pinned by
the API suite and untouched by observability. Wall-clock travels here
instead: a :class:`TimingReport` rides on the stats report as a separate
field, with its own ``to_dict()`` and rendering, and is *never* merged
into the stable JSON.

The report reads three sources, all duck-typed (no engine import — obs
stays a leaf package):

* the engine's accumulated :class:`~repro.core.engine.StageTimings`
  buckets (querygen / sql / storage / aggregate) and point count;
* the service's wall-clock counters (``parallel_seconds`` — coordinator
  time spent blocked waiting for shard results; ``worker_seconds`` —
  per-shard time measured inside workers and shipped back in ShardSamples);
* the tracer's per-span-name aggregate, when tracing was on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class TimingReport:
    """Wall-clock attribution for one client's lifetime so far."""

    stages: dict[str, float]
    total_seconds: float
    points_evaluated: int
    parallel_seconds: float = 0.0
    worker_seconds: float = 0.0
    spans: dict[str, dict[str, float]] = field(default_factory=dict)

    @classmethod
    def gather(
        cls,
        engine: Any,
        service: Any = None,
        tracer: Any = None,
    ) -> "TimingReport":
        """Snapshot the wall-clock of one engine (plus serve layers)."""
        timings = engine.total_timings
        stages = {
            "querygen": timings.querygen,
            "sql": timings.sql,
            "storage": timings.storage,
            "aggregate": timings.aggregate,
        }
        parallel = 0.0
        worker = 0.0
        if service is not None:
            parallel = service.stats.parallel_seconds
            worker = getattr(service.stats, "worker_seconds", 0.0)
        spans: dict[str, dict[str, float]] = {}
        if tracer is not None and getattr(tracer, "enabled", False):
            spans = tracer.aggregate()
        return cls(
            stages=stages,
            total_seconds=timings.total(),
            points_evaluated=engine.points_evaluated,
            parallel_seconds=parallel,
            worker_seconds=worker,
            spans=spans,
        )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "stages": dict(self.stages),
            "total_seconds": self.total_seconds,
            "points_evaluated": self.points_evaluated,
            "parallel_seconds": self.parallel_seconds,
            "worker_seconds": self.worker_seconds,
        }
        if self.spans:
            payload["spans"] = {k: dict(v) for k, v in self.spans.items()}
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    # -- human rendering ----------------------------------------------------

    def render(self) -> str:
        """The ``timing:`` block the CLI ``--stats`` output appends."""
        per_point = (
            self.total_seconds / self.points_evaluated
            if self.points_evaluated
            else 0.0
        )
        stage_text = " / ".join(
            f"{name} {seconds * 1000:.1f}ms"
            for name, seconds in self.stages.items()
        )
        lines = [
            f"timing: {self.total_seconds * 1000:.1f}ms over "
            f"{self.points_evaluated} points "
            f"({per_point * 1000:.2f}ms/point)",
            f"  stages: {stage_text}",
        ]
        if self.parallel_seconds or self.worker_seconds:
            lines.append(
                f"  parallel: {self.parallel_seconds * 1000:.1f}ms waiting on "
                f"shards / {self.worker_seconds * 1000:.1f}ms attributed "
                f"to workers"
            )
        if self.spans:
            top = sorted(
                self.spans.items(), key=lambda kv: kv[1]["seconds"], reverse=True
            )[:8]
            span_text = ", ".join(
                f"{name} x{int(agg['count'])} {agg['seconds'] * 1000:.1f}ms"
                for name, agg in top
            )
            lines.append(f"  spans: {span_text}")
        return "\n".join(lines)
