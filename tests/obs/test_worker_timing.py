"""Worker-side shard timing, shipped back and attributed on the coordinator.

Workers never hold a tracer: each :class:`ShardSample` carries its own
wall-clock (``elapsed_seconds`` plus per-stage ``timing`` pairs), measured
in the worker process and pickled home. The coordinator's dispatcher turns
them into worker-track ``"shard"`` events attributed to the right shard,
attempt, and rescue status — and none of it may ever change the answer.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.engine import ProphetEngine
from repro.dsl import parse_scenario
from repro.models import build_demo_library
from repro.obs import Tracer
from repro.obs.trace import WORKER_TRACK
from repro.serve import (
    EvaluationService,
    FaultPlan,
    FaultSpec,
    InlineExecutor,
    ProcessExecutor,
    ResilienceConfig,
)
from repro.serve.worker import ShardSample
from obs_testutil import OBS_DSL, POINT, assert_stats_identical

#: The fault-free sequential reference, computed once per test session.
_REFERENCE_CACHE: dict[str, object] = {}


def _reference_statistics(obs_config):
    if "stats" not in _REFERENCE_CACHE:
        engine = ProphetEngine(
            parse_scenario(OBS_DSL, name="serve_scenario"),
            build_demo_library(),
            obs_config,
        )
        _REFERENCE_CACHE["stats"] = engine.evaluate_point(POINT).statistics
    return _REFERENCE_CACHE["stats"]


def _service(obs_spec, *, executor=None, plan=None, **resilience):
    return EvaluationService(
        obs_spec,
        executor=executor if executor is not None else InlineExecutor(),
        shards=4,
        min_shard_worlds=1,
        fault_plan=plan,
        resilience=ResilienceConfig(**resilience) if resilience else None,
    )


def _shard_events(tracer):
    return [r for r in tracer.spans if r.name == "shard"]


class TestShardSampleShipping:
    def test_timing_fields_survive_pickling(self):
        sample = ShardSample(
            samples=np.arange(6, dtype=float).reshape(3, 2),
            elapsed_seconds=0.125,
            timing=(("querygen", 0.01), ("sql", 0.1)),
        )
        clone = pickle.loads(pickle.dumps(sample))
        assert clone.elapsed_seconds == 0.125
        assert clone.timing == (("querygen", 0.01), ("sql", 0.1))
        assert clone.samples.tobytes() == sample.samples.tobytes()

    def test_defaults_are_empty(self):
        sample = ShardSample(samples=np.zeros((1, 1)))
        assert sample.elapsed_seconds == 0.0
        assert sample.timing == ()


class TestInlineAttribution:
    def test_untraced_service_still_accumulates_worker_seconds(self, obs_spec):
        service = _service(obs_spec)
        service.evaluate(POINT)
        assert service.stats.worker_seconds > 0.0
        # ...but worker wall-clock never leaks into the stable counters.
        assert "worker_seconds" not in service.stats.as_dict()
        assert "parallel_seconds" not in service.stats.as_dict()

    def test_shard_events_carry_stage_seconds(self, obs_spec):
        service = _service(obs_spec)
        tracer = Tracer()
        service.set_tracer(tracer)
        service.evaluate(POINT)
        events = _shard_events(tracer)
        # Two VG outputs x four shards.
        assert len(events) == 8
        for event in events:
            assert event.track == WORKER_TRACK
            assert event.attrs["rescued"] is False
            assert event.attrs["attempt"] == 0
            assert event.attrs["querygen_seconds"] >= 0.0
            assert event.attrs["sql_seconds"] >= 0.0
            assert event.duration >= 0.0
        assert sorted(e.attrs["shard"] for e in events) == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_events_total_matches_worker_seconds(self, obs_spec):
        service = _service(obs_spec)
        tracer = Tracer()
        service.set_tracer(tracer)
        service.evaluate(POINT)
        shipped = sum(e.duration for e in _shard_events(tracer))
        assert shipped == pytest.approx(service.stats.worker_seconds)


class TestRetryAttribution:
    def test_retried_shard_event_carries_its_attempt(self, obs_spec, obs_config):
        # Shard seq 2 raises exactly once: its first round fails, the retry
        # round (attempt 1) succeeds, every other shard succeeds at attempt 0.
        plan = FaultPlan(faults=(FaultSpec(shard=2, kind="raise", attempts=1),))
        service = _service(obs_spec, plan=plan, retry_backoff=0.0)
        tracer = Tracer()
        service.set_tracer(tracer)
        evaluation = service.evaluate(POINT)
        assert_stats_identical(
            evaluation.statistics, _reference_statistics(obs_config)
        )
        events = _shard_events(tracer)
        assert len(events) == 8  # one success event per shard, faults or not
        retried = [e for e in events if e.attrs["attempt"] > 0]
        assert [e.attrs["shard"] for e in retried] == [2]
        assert retried[0].attrs["attempt"] == 1
        assert retried[0].attrs["rescued"] is False

    def test_rescued_shard_event_is_flagged(self, obs_spec, obs_config):
        plan = FaultPlan(faults=(FaultSpec(shard=2, kind="raise", attempts=99),))
        service = _service(obs_spec, plan=plan, retry_backoff=0.0)
        tracer = Tracer()
        service.set_tracer(tracer)
        evaluation = service.evaluate(POINT)
        assert_stats_identical(
            evaluation.statistics, _reference_statistics(obs_config)
        )
        rescued = [e for e in _shard_events(tracer) if e.attrs["rescued"]]
        assert len(rescued) == 1
        assert rescued[0].attrs["shard"] == 2
        # The rescue happens after the final retry round.
        assert rescued[0].attrs["attempt"] == service.resilience.shard_retries
        assert service.stats.inline_rescues == 1


class TestProcessPoolTiming:
    def test_process_workers_ship_timing_home(self, obs_spec):
        executor = ProcessExecutor(2)
        try:
            service = _service(obs_spec, executor=executor)
            tracer = Tracer()
            service.set_tracer(tracer)
            service.evaluate(POINT)
            events = _shard_events(tracer)
            assert len(events) == 8
            assert all(e.track == WORKER_TRACK for e in events)
            assert all("querygen_seconds" in e.attrs for e in events)
            assert service.stats.worker_seconds > 0.0
        finally:
            executor.shutdown()


class TestChaosParityWithTracing:
    """Tracing on, chaos on: the answer still never moves."""

    def test_seeded_plan_traced_equals_untraced(self, obs_spec, obs_config):
        plan = FaultPlan.seeded(
            7,
            shards=16,
            rate=0.5,
            kinds=("raise", "garbage", "crash"),
            attempts=2,
            hang_seconds=0.0,
        )
        untraced = _service(obs_spec, plan=plan, retry_backoff=0.0)
        plain = untraced.evaluate(POINT)

        traced = _service(obs_spec, plan=plan, retry_backoff=0.0)
        tracer = Tracer()
        traced.set_tracer(tracer)
        observed = traced.evaluate(POINT)

        assert_stats_identical(observed.statistics, plain.statistics)
        assert_stats_identical(
            observed.statistics, _reference_statistics(obs_config)
        )
        # Counter-for-counter identical recovery ladder, tracing or not.
        assert traced.stats.as_dict() == untraced.stats.as_dict()
        assert len(tracer) > 0
