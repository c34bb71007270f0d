"""In-task timing, shipped back and attributed on the coordinator.

Workers never hold a tracer: each :class:`PointResult` carries its own
wall-clock (``elapsed_seconds`` plus the task's per-stage ``timings``),
measured in the worker process and pickled home. The coordinator's
dispatcher turns them into worker-track ``"task"`` events attributed to
the right attempt and rescue status — and none of it may ever change the
answer.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.engine import ProphetEngine, StageTimings
from repro.dsl import parse_scenario
from repro.models import build_demo_library
from repro.obs import Tracer
from repro.obs.trace import WORKER_TRACK
from repro.serve import (
    EvaluationService,
    FaultPlan,
    FaultSpec,
    PointResult,
    ProcessExecutor,
    ResilienceConfig,
)
from obs_testutil import OBS_DSL, POINT, assert_stats_identical

#: Three points: three point tasks, sequence numbers 0-2.
POINTS = [
    POINT,
    {"purchase1": 26, "purchase2": 52, "feature": 36},
    {"purchase1": 52, "purchase2": 0, "feature": 12},
]

#: The fault-free sequential references, computed once per test session.
_REFERENCE_CACHE: dict[str, object] = {}


def _reference_statistics(obs_config, point=POINT):
    key = repr(sorted(point.items()))
    if key not in _REFERENCE_CACHE:
        engine = ProphetEngine(
            parse_scenario(OBS_DSL, name="serve_scenario"),
            build_demo_library(),
            obs_config,
        )
        _REFERENCE_CACHE[key] = engine.evaluate_point(point, reuse=False).statistics
    return _REFERENCE_CACHE[key]


@pytest.fixture(scope="module")
def pool():
    executor = ProcessExecutor(2)
    yield executor
    executor.shutdown()


def _service(obs_spec, executor, *, plan=None, **resilience):
    return EvaluationService(
        obs_spec,
        executor=executor,
        fault_plan=plan,
        resilience=ResilienceConfig(**resilience) if resilience else None,
    )


def _evaluate_all(service):
    return [service.evaluate(point, reuse=False) for point in POINTS]


def _task_events(tracer):
    return [r for r in tracer.spans if r.name == "task"]


class TestPointResultShipping:
    def test_timing_fields_survive_pickling(self):
        result = PointResult(
            columns=np.arange(6, dtype=float).reshape(2, 3),
            axis_values=(0, 1, 2),
            reuse_reports=(),
            timings=StageTimings(querygen=0.01, sql=0.1),
            elapsed_seconds=0.125,
        )
        clone = pickle.loads(pickle.dumps(result))
        assert clone.elapsed_seconds == 0.125
        assert clone.timings == StageTimings(querygen=0.01, sql=0.1)
        assert clone.columns.tobytes() == result.columns.tobytes()

    def test_defaults_are_empty(self):
        result = PointResult(
            columns=np.zeros((1, 1)), axis_values=(0,), reuse_reports=(), timings=StageTimings()
        )
        assert result.elapsed_seconds == 0.0
        assert result.sampled_batched == result.sampled_fallback == 0


class TestAttribution:
    def test_untraced_service_still_accumulates_worker_seconds(self, obs_spec, pool):
        service = _service(obs_spec, pool)
        _evaluate_all(service)
        assert service.stats.worker_seconds > 0.0
        assert service.stats.parallel_seconds > 0.0
        # ...but wall-clock never leaks into the stable counters.
        assert "worker_seconds" not in service.stats.as_dict()
        assert "parallel_seconds" not in service.stats.as_dict()

    def test_task_events_carry_stage_seconds(self, obs_spec, pool):
        service = _service(obs_spec, pool)
        tracer = Tracer()
        service.set_tracer(tracer)
        _evaluate_all(service)
        events = _task_events(tracer)
        assert len(events) == len(POINTS)  # one per point task
        for event in events:
            assert event.track == WORKER_TRACK
            assert event.attrs["rescued"] is False
            assert event.attrs["attempt"] == 0
            for stage in ("querygen", "sql", "storage", "aggregate"):
                assert event.attrs[f"{stage}_seconds"] >= 0.0
            assert event.attrs["sql_seconds"] > 0.0
            assert event.duration > 0.0

    def test_events_total_matches_worker_seconds(self, obs_spec, pool):
        service = _service(obs_spec, pool)
        tracer = Tracer()
        service.set_tracer(tracer)
        _evaluate_all(service)
        shipped = sum(e.duration for e in _task_events(tracer))
        assert shipped == pytest.approx(service.stats.worker_seconds)

    def test_the_coordinator_engine_books_no_task_time(self, obs_spec, pool):
        """A task's stages ran in a worker, beside the coordinator: they are
        ``worker_seconds``, never the coordinator engine's stage totals."""
        service = _service(obs_spec, pool)
        _evaluate_all(service)
        assert service.engine.total_timings.total() == 0.0
        assert service.engine.points_evaluated == 0


class TestRetryAttribution:
    def test_retried_task_event_carries_its_attempt(self, obs_spec, obs_config, pool):
        # Task 1 raises exactly once: its first attempt fails, the retry
        # (attempt 1) succeeds, every other task succeeds at attempt 0.
        plan = FaultPlan(faults=(FaultSpec(task=1, kind="raise", attempts=1),))
        service = _service(obs_spec, pool, plan=plan, retry_backoff=0.0)
        tracer = Tracer()
        service.set_tracer(tracer)
        for point, evaluation in zip(POINTS, _evaluate_all(service)):
            assert_stats_identical(
                evaluation.statistics, _reference_statistics(obs_config, point)
            )
        events = _task_events(tracer)
        assert [e.attrs["attempt"] for e in events] == [0, 1, 0]
        assert not any(e.attrs["rescued"] for e in events)

    def test_rescued_task_event_is_flagged(self, obs_spec, obs_config, pool):
        plan = FaultPlan(faults=(FaultSpec(task=1, kind="raise", attempts=99),))
        service = _service(obs_spec, pool, plan=plan, retry_backoff=0.0)
        tracer = Tracer()
        service.set_tracer(tracer)
        for point, evaluation in zip(POINTS, _evaluate_all(service)):
            assert_stats_identical(
                evaluation.statistics, _reference_statistics(obs_config, point)
            )
        events = _task_events(tracer)
        assert [e.attrs["rescued"] for e in events] == [False, True, False]
        # The rescue happens after the final retry.
        assert events[1].attrs["attempt"] == service.resilience.shard_retries
        assert service.stats.inline_rescues == 1


class TestChaosParityWithTracing:
    """Tracing on, chaos on: the answer still never moves."""

    def test_seeded_plan_traced_equals_untraced(self, obs_spec, obs_config, pool):
        plan = FaultPlan.seeded(
            7, tasks=len(POINTS), rate=0.5, kinds=("raise", "garbage"), attempts=2
        )
        assert len(plan) > 0
        untraced = _service(obs_spec, pool, plan=plan, retry_backoff=0.0)
        plain = _evaluate_all(untraced)

        traced = _service(obs_spec, pool, plan=plan, retry_backoff=0.0)
        tracer = Tracer()
        traced.set_tracer(tracer)
        observed = _evaluate_all(traced)

        for point, seen, unseen in zip(POINTS, observed, plain):
            assert_stats_identical(seen.statistics, unseen.statistics)
            assert_stats_identical(seen.statistics, _reference_statistics(obs_config, point))
        # Counter-for-counter identical recovery ladder, tracing or not.
        assert traced.stats.as_dict() == untraced.stats.as_dict()
        assert len(tracer) > 0
