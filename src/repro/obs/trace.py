"""Span-based tracing for the whole evaluation stack.

One :class:`Tracer` records nested spans carrying the Figure-1 stage tags
(``querygen`` / ``sql`` / ``sample`` / ``reuse`` / ``aggregate`` /
``dispatch`` / ``merge``) plus counters-as-attributes, and exports them as
a Chrome-trace file (``chrome://tracing`` / Perfetto loadable) or JSONL.

The contract that makes tracing safe to leave in the hot paths:

* **Zero overhead when off.** The default tracer everywhere is the shared
  :data:`NULL_TRACER`: its :meth:`~NullTracer.span` returns one reusable
  no-op context manager (no allocation, no clock read), and its
  :meth:`~NullTracer.stage` does exactly the two ``perf_counter`` calls
  the ad-hoc timing stanza it replaced already did — stage timing still
  accumulates into the engine's :class:`~repro.core.engine.StageTimings`
  (those buckets are part of the existing surface), but nothing is
  recorded.
* **Deterministic-safe.** Span timestamps live only here and in the
  :class:`~repro.obs.report.TimingReport`; they never enter
  ``StatsReport.to_json()``, and recording a span mutates no engine
  state — enabling tracing leaves every parity and chaos property
  bitwise-identical (pinned by ``tests/obs``).
* **Bounded.** At most ``max_spans`` span records are retained (drops are
  counted in :attr:`Tracer.dropped`); the per-name aggregate —
  count and total seconds — is incremental and never loses totals.

Worker-side time arrives as *events*: a point task's wall-clock is measured
in the worker process, ships back inside the picklable
:class:`~repro.serve.worker.PointResult`, and the coordinator-side
dispatcher records it with :meth:`Tracer.event`, attributed to the right
attempt. Events render on their own Chrome-trace track
(``tid=1``) so pool time is visible next to, not lumped into, the
coordinator timeline.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Optional

#: Track ids in the Chrome export: the coordinator span timeline and the
#: worker-attributed event track.
COORDINATOR_TRACK = 0
WORKER_TRACK = 1


@dataclass
class SpanRecord:
    """One finished span (or shipped event): offsets are seconds since the
    tracer's epoch, attributes are small scalars (counters, tags)."""

    name: str
    start: float
    duration: float
    depth: int = 0
    track: int = COORDINATOR_TRACK
    attrs: dict[str, Any] = field(default_factory=dict)


class _NoopSpan:
    """The shared do-nothing span: context manager + attribute sink."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


#: One instance serves every ``NullTracer.span`` call — no allocation.
NOOP_SPAN = _NoopSpan()


class _NullStage:
    """Stage timing with tracing off: accumulate wall-clock into the
    caller's timings sink (exactly the stanza this API replaced), record
    nothing."""

    __slots__ = ("_sink", "_attr", "_started")

    def __init__(self, sink: Any, attr: str) -> None:
        self._sink = sink
        self._attr = attr

    def __enter__(self) -> "_NullStage":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        elapsed = time.perf_counter() - self._started
        setattr(self._sink, self._attr, getattr(self._sink, self._attr) + elapsed)
        return False

    def set(self, **attrs: Any) -> None:
        pass


class NullTracer:
    """The default tracer: every operation is a no-op (or the bare timing
    accumulation the instrumented code needs anyway)."""

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NoopSpan:
        return NOOP_SPAN

    def stage(
        self,
        name: str,
        timings: Optional[Any] = None,
        attr: Optional[str] = None,
        stats: Optional[Any] = None,
        **attrs: Any,
    ) -> Any:
        if timings is None:
            return NOOP_SPAN
        return _NullStage(timings, attr or name)

    def event(self, name: str, seconds: float, **attrs: Any) -> None:
        pass

    def aggregate(self) -> dict[str, dict[str, float]]:
        return {}


#: THE null tracer — shared by every untraced engine, plane, and service.
NULL_TRACER = NullTracer()


class _LiveSpan:
    """A recording span: measures on exit, maintains the tracer's depth."""

    __slots__ = ("_tracer", "_name", "_attrs", "_started", "_depth")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_LiveSpan":
        self._depth = self._tracer._depth
        self._tracer._depth += 1
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        ended = time.perf_counter()
        self._tracer._depth -= 1
        self._tracer._record(
            self._name,
            self._started,
            ended - self._started,
            self._depth,
            self._attrs,
        )
        return False

    def set(self, **attrs: Any) -> None:
        self._attrs.update(attrs)


class _LiveStage(_LiveSpan):
    """A recording stage span that also accumulates into a timings sink
    (and, when given an :class:`~repro.sqldb.executor.ExecutionStats`,
    attaches the span's plan-cache hit/miss deltas as attributes)."""

    __slots__ = ("_sink", "_sink_attr", "_stats", "_h0", "_m0")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        sink: Optional[Any],
        sink_attr: str,
        stats: Optional[Any],
        attrs: dict[str, Any],
    ) -> None:
        super().__init__(tracer, name, attrs)
        self._sink = sink
        self._sink_attr = sink_attr
        self._stats = stats

    def __enter__(self) -> "_LiveStage":
        if self._stats is not None:
            self._h0 = self._stats.plan_cache_hits
            self._m0 = self._stats.plan_cache_misses
        super().__enter__()
        return self

    def __exit__(self, *exc: Any) -> bool:
        ended = time.perf_counter()
        elapsed = ended - self._started
        self._tracer._depth -= 1
        if self._sink is not None:
            setattr(
                self._sink,
                self._sink_attr,
                getattr(self._sink, self._sink_attr) + elapsed,
            )
        if self._stats is not None:
            hits = self._stats.plan_cache_hits - self._h0
            misses = self._stats.plan_cache_misses - self._m0
            if hits or misses:
                self._attrs["plan_cache_hits"] = hits
                self._attrs["plan_cache_misses"] = misses
        self._tracer._record(
            self._name, self._started, elapsed, self._depth, self._attrs
        )
        return False


class Tracer:
    """A recording tracer: nested spans, shipped events, per-name totals.

    Spans are recorded on exit (complete events, Chrome phase ``"X"``).
    ``max_spans`` bounds the retained records; the per-name aggregate keeps
    exact counts and totals regardless, so a capped trace still yields a
    correct :class:`~repro.obs.report.TimingReport`.
    """

    enabled = True

    def __init__(self, max_spans: int = 100_000) -> None:
        self.epoch = time.perf_counter()
        self.max_spans = max_spans
        self.spans: list[SpanRecord] = []
        self.dropped = 0
        self._depth = 0
        self._aggregate: dict[str, list[float]] = {}  # name -> [count, seconds]

    # -- recording ----------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _LiveSpan:
        """A nested span: ``with tracer.span("sql", worlds=16): ...``"""
        return _LiveSpan(self, name, attrs)

    def stage(
        self,
        name: str,
        timings: Optional[Any] = None,
        attr: Optional[str] = None,
        stats: Optional[Any] = None,
        **attrs: Any,
    ) -> _LiveStage:
        """A span that also adds its wall-clock to ``timings.<attr or name>``.

        The one idiom that replaced the engine's ad-hoc
        ``started = time.perf_counter()`` stanzas: stage buckets keep
        accumulating exactly as before (traced or not), and the span record
        is the observability on top.
        """
        return _LiveStage(self, name, timings, attr or name, stats, attrs)

    def event(self, name: str, seconds: float, **attrs: Any) -> None:
        """Record an already-measured duration (e.g. in-task time shipped
        back in a PointResult), ending now, on the worker
        track."""
        ended = time.perf_counter() - self.epoch
        self._record_offset(
            name, max(0.0, ended - seconds), seconds, 0, attrs, WORKER_TRACK
        )

    def _record(
        self,
        name: str,
        started: float,
        duration: float,
        depth: int,
        attrs: dict[str, Any],
    ) -> None:
        self._record_offset(
            name, started - self.epoch, duration, depth, attrs, COORDINATOR_TRACK
        )

    def _record_offset(
        self,
        name: str,
        start: float,
        duration: float,
        depth: int,
        attrs: dict[str, Any],
        track: int,
    ) -> None:
        entry = self._aggregate.get(name)
        if entry is None:
            self._aggregate[name] = [1, duration]
        else:
            entry[0] += 1
            entry[1] += duration
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(
            SpanRecord(
                name=name,
                start=start,
                duration=duration,
                depth=depth,
                track=track,
                attrs=attrs,
            )
        )

    # -- reading ------------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per-span-name totals: ``{name: {count, seconds}}`` — exact even
        when the span list was capped."""
        return {
            name: {"count": entry[0], "seconds": entry[1]}
            for name, entry in sorted(self._aggregate.items())
        }

    def __len__(self) -> int:
        return len(self.spans)

    # -- export -------------------------------------------------------------

    def chrome_events(self) -> list[dict[str, Any]]:
        """The trace as Chrome trace-event dicts (phase ``X``, µs units)."""
        events: list[dict[str, Any]] = []
        for record in self.spans:
            events.append(
                {
                    "name": record.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": round(record.start * 1e6, 3),
                    "dur": round(record.duration * 1e6, 3),
                    "pid": 1,
                    "tid": record.track,
                    "args": _jsonable(record.attrs),
                }
            )
        return events

    def export_chrome(self, path: str) -> str:
        """Write a ``chrome://tracing`` / Perfetto loadable JSON file."""
        payload = {
            "traceEvents": self.chrome_events(),
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.obs",
                "spans": len(self.spans),
                "dropped": self.dropped,
            },
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
        return path

    def export_jsonl(self, path: str) -> str:
        """One span record per line — easy to grep and stream-parse."""
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": record.name,
                            "start": record.start,
                            "duration": record.duration,
                            "depth": record.depth,
                            "track": record.track,
                            "attrs": _jsonable(record.attrs),
                        }
                    )
                )
                handle.write("\n")
        return path


def _jsonable(attrs: dict[str, Any]) -> dict[str, Any]:
    """Attribute values safe for json.dump (exotic values degrade to repr)."""
    safe: dict[str, Any] = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            safe[key] = value
        else:
            safe[key] = repr(value)
    return safe
