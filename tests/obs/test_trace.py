"""The tracer's own contract: no-op when off, exact when on, bounded.

These are the unit tests of :mod:`repro.obs` in isolation — no engine.
The determinism/parity half of the contract (tracing never changes
results) lives in ``test_worker_timing.py`` and ``test_obs_api.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    NULL_TRACER,
    EngineProfiler,
    NullTracer,
    ObsConfig,
    TimingReport,
    Tracer,
)
from repro.obs.trace import COORDINATOR_TRACK, NOOP_SPAN, WORKER_TRACK


class _Timings:
    """A bare StageTimings stand-in (mutable float buckets)."""

    def __init__(self) -> None:
        self.querygen = 0.0
        self.sql = 0.0
        self.storage = 0.0
        self.aggregate = 0.0


class _PlanStats:
    def __init__(self) -> None:
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0


class TestNullTracer:
    def test_disabled_and_shared(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)

    def test_span_returns_the_shared_noop(self):
        assert NULL_TRACER.span("anything", attr=1) is NOOP_SPAN
        assert NULL_TRACER.span("other") is NOOP_SPAN
        with NULL_TRACER.span("x") as span:
            span.set(a=1)  # silently ignored

    def test_stage_without_timings_is_the_noop(self):
        assert NULL_TRACER.stage("sql") is NOOP_SPAN

    def test_stage_accumulates_timings_sink(self):
        timings = _Timings()
        with NULL_TRACER.stage("sql", timings):
            pass
        assert timings.sql > 0.0
        assert timings.querygen == 0.0

    def test_stage_attr_redirects_the_bucket(self):
        timings = _Timings()
        with NULL_TRACER.stage("reuse", timings, attr="storage"):
            pass
        assert timings.storage > 0.0

    def test_event_and_aggregate_are_noops(self):
        NULL_TRACER.event("shard", 1.0, shard=0)
        assert NULL_TRACER.aggregate() == {}


class TestLiveSpans:
    def test_span_records_on_exit(self):
        tracer = Tracer()
        with tracer.span("evaluate", point="p"):
            pass
        assert len(tracer) == 1
        record = tracer.spans[0]
        assert record.name == "evaluate"
        assert record.duration >= 0.0
        assert record.track == COORDINATOR_TRACK
        assert record.attrs == {"point": "p"}

    def test_nesting_depths(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                with tracer.span("innermost"):
                    pass
        by_name = {r.name: r for r in tracer.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["innermost"].depth == 2
        # Depth fully unwinds: a sibling span starts back at 0.
        with tracer.span("sibling"):
            pass
        assert {r.name: r.depth for r in tracer.spans}["sibling"] == 0

    def test_set_updates_attributes(self):
        tracer = Tracer()
        with tracer.span("evaluate", n=1) as span:
            span.set(hit=True, n=2)
        assert tracer.spans[0].attrs == {"n": 2, "hit": True}

    def test_stage_records_and_accumulates(self):
        tracer = Tracer()
        timings = _Timings()
        with tracer.stage("sql", timings):
            pass
        assert timings.sql > 0.0
        assert len(tracer) == 1
        assert tracer.spans[0].name == "sql"

    def test_stage_depth_matches_span_depth(self):
        tracer = Tracer()
        timings = _Timings()
        with tracer.span("outer"):
            with tracer.stage("sql", timings):
                pass
        by_name = {r.name: r for r in tracer.spans}
        assert by_name["sql"].depth == 1
        assert by_name["outer"].depth == 0

    def test_stage_attaches_plan_cache_deltas(self):
        tracer = Tracer()
        stats = _PlanStats()
        with tracer.stage("sql", None, stats=stats):
            stats.plan_cache_hits += 3
            stats.plan_cache_misses += 1
        attrs = tracer.spans[0].attrs
        assert attrs["plan_cache_hits"] == 3
        assert attrs["plan_cache_misses"] == 1

    def test_stage_omits_zero_plan_cache_deltas(self):
        tracer = Tracer()
        with tracer.stage("sql", None, stats=_PlanStats()):
            pass
        assert "plan_cache_hits" not in tracer.spans[0].attrs

    def test_event_lands_on_worker_track(self):
        tracer = Tracer()
        tracer.event("shard", 0.25, shard=3, attempt=1)
        record = tracer.spans[0]
        assert record.track == WORKER_TRACK
        assert record.duration == 0.25
        assert record.start >= 0.0
        assert record.attrs == {"shard": 3, "attempt": 1}


class TestBoundsAndAggregate:
    def test_max_spans_caps_records_not_totals(self):
        tracer = Tracer(max_spans=5)
        for _ in range(12):
            with tracer.span("evaluate"):
                pass
        assert len(tracer) == 5
        assert tracer.dropped == 7
        agg = tracer.aggregate()
        assert agg["evaluate"]["count"] == 12  # exact despite the cap
        assert agg["evaluate"]["seconds"] >= 0.0

    def test_aggregate_is_sorted_by_name(self):
        tracer = Tracer()
        for name in ("sql", "aggregate", "querygen"):
            with tracer.span(name):
                pass
        assert list(tracer.aggregate()) == ["aggregate", "querygen", "sql"]


class TestExport:
    def test_chrome_export_loads_and_has_event_keys(self, tmp_path):
        tracer = Tracer()
        with tracer.span("evaluate", worlds=16):
            with tracer.span("sql"):
                pass
        tracer.event("shard", 0.01, shard=0)
        path = tracer.export_chrome(str(tmp_path / "trace.json"))
        data = json.loads(open(path).read())
        events = data["traceEvents"]
        assert len(events) == 3
        for event in events:
            assert set(event) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
            assert event["ph"] == "X"
        tids = {event["tid"] for event in events}
        assert tids == {COORDINATOR_TRACK, WORKER_TRACK}
        assert data["displayTimeUnit"] == "ms"
        assert data["otherData"]["dropped"] == 0

    def test_chrome_args_degrade_exotic_values_to_repr(self, tmp_path):
        tracer = Tracer()
        with tracer.span("evaluate", key=("a", 1)):
            pass
        path = tracer.export_chrome(str(tmp_path / "trace.json"))
        event = json.loads(open(path).read())["traceEvents"][0]
        assert event["args"]["key"] == repr(("a", 1))

    def test_jsonl_export_one_record_per_line(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        path = tracer.export_jsonl(str(tmp_path / "trace.jsonl"))
        lines = [json.loads(line) for line in open(path)]
        assert [line["name"] for line in lines] == ["a", "b"]
        assert all(
            set(line) == {"name", "start", "duration", "depth", "track", "attrs"}
            for line in lines
        )


class TestObsConfig:
    def test_defaults_are_all_off(self):
        config = ObsConfig()
        assert not config.tracing
        assert not config.enabled

    def test_trace_file_implies_tracing(self):
        config = ObsConfig(trace_file="out.json")
        assert config.tracing
        assert config.enabled

    def test_profile_enables_without_tracing(self):
        config = ObsConfig(profile=True)
        assert config.enabled
        assert not config.tracing


class TestEngineProfiler:
    def test_reentrant_sections_count_once(self):
        profiler = EngineProfiler()
        with profiler:
            with profiler:  # nested evaluation: must not double-enable
                sum(range(100))
        assert profiler.sections == 1
        with profiler:
            pass
        assert profiler.sections == 2

    def test_summary_renders_cumulative_table(self):
        profiler = EngineProfiler()
        with profiler:
            sorted(range(1000))
        summary = profiler.summary(top=5)
        assert "cumulative" in summary


class TestTimingReport:
    class _Engine:
        """Duck-typed engine: TimingReport reads only these attributes."""

        def __init__(self) -> None:
            self.total_timings = _EngineTimings()
            self.points_evaluated = 4

    def test_gather_from_engine_only(self):
        report = TimingReport.gather(self._Engine())
        assert report.total_seconds == pytest.approx(0.6)
        assert report.points_evaluated == 4
        assert report.stages["sql"] == pytest.approx(0.2)
        assert report.parallel_seconds == 0.0
        assert report.spans == {}

    def test_gather_includes_tracer_aggregate(self):
        tracer = Tracer()
        with tracer.span("evaluate"):
            pass
        report = TimingReport.gather(self._Engine(), tracer=tracer)
        assert "evaluate" in report.spans
        assert report.spans["evaluate"]["count"] == 1

    def test_null_tracer_contributes_no_spans(self):
        report = TimingReport.gather(self._Engine(), tracer=NULL_TRACER)
        assert report.spans == {}

    def test_to_dict_omits_empty_spans(self):
        report = TimingReport.gather(self._Engine())
        assert "spans" not in report.to_dict()
        assert json.loads(report.to_json())["total_seconds"] == pytest.approx(0.6)

    def test_render_mentions_stages_and_points(self):
        text = TimingReport.gather(self._Engine()).render()
        assert "timing:" in text
        assert "4 points" in text
        assert "sql" in text


class _EngineTimings(_Timings):
    def __init__(self) -> None:
        super().__init__()
        self.querygen = 0.1
        self.sql = 0.2
        self.storage = 0.25
        self.aggregate = 0.05

    def total(self) -> float:
        return self.querygen + self.sql + self.storage + self.aggregate
