"""One point task: representation and runner independence, stated once.

A ``reuse=False`` request is a pure function of ``(spec, point, worlds)``,
so how a :class:`~repro.serve.worker.PointTask`'s statistics travel back
(in the result pickle or through a leased shared-memory region) and who
runs it (a pool worker finding its engine by ``task.spec``, or a caller
passing its own, whatever that engine served before) cannot change a bit
of the answer. This file pins that, plus the two lease-ownership bugs that
hid in the seams of the transport.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import TransportConfig
from repro.core.config import EngineConfig, SamplingConfig
from repro.serve import (
    EngineSpec,
    EvaluationService,
    FaultPlan,
    FaultSpec,
    PointTask,
    ProcessExecutor,
    ResilienceConfig,
    SegmentArena,
    SegmentRef,
    shm_available,
)
from repro.serve import worker
from repro.serve.worker import run_point
from serve_testutil import assert_stats_identical

SHM = TransportConfig(shard_transport="shm")
POINT_A = {"purchase1": 0, "purchase2": 26, "feature": 12}
POINT_B = {"purchase1": 52, "purchase2": 0, "feature": 36}

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="platform has no usable shared memory"
)


@functools.cache
def _normaliser(spec):
    """An engine built from ``spec`` that only normalises requests."""
    return spec.build()


def _task(spec, point=POINT_A, worlds=tuple(range(16)), result=None) -> PointTask:
    request = _normaliser(spec).request(point, worlds, reuse=False)
    return PointTask(spec, request, result)


def _observable(result, lease=None):
    """What a coordinator reads off a task, with a descriptor resolved."""
    columns = result.columns
    if isinstance(columns, SegmentRef):
        columns = lease.view(columns)
    return (
        np.asarray(columns, dtype=float).tobytes(),
        result.axis_values,
        [r.source for r in result.reuse_reports],
        result.sampled_batched,
        result.sampled_fallback,
    )


@pytest.fixture(scope="module")
def one_worker():
    executor = ProcessExecutor(1)
    yield executor
    executor.shutdown()


class TestRunnerIndependence:
    def test_the_statistics_are_the_sequential_engines(self, serve_spec, sequential_engine):
        engine = serve_spec.build()
        result = run_point(_task(serve_spec), engine)
        reference = sequential_engine.evaluate_point(POINT_A, reuse=False)
        statistics = engine.aggregator.from_columns(
            np.array(result.columns), 16, result.axis_values
        )
        assert_stats_identical(statistics, reference.statistics)
        assert [r.source for r in result.reuse_reports] == ["fresh", "fresh"]
        assert result.sampled_batched == 2 * 16 and result.sampled_fallback == 0

    @pytest.mark.parametrize("builder", ["risk_vs_cost", "growth", "maintenance"])
    def test_every_scenario_builder_answers_as_its_engine(self, builder):
        """A task over a builder spec is the builder engine's own
        ``reuse=False`` evaluation, statistics column for column."""
        spec = EngineSpec.from_builder(
            builder, config=EngineConfig(sampling=SamplingConfig(n_worlds=12))
        )
        engine = spec.build()
        point = dict(next(iter(engine.scenario.sweep_space.grid())))
        reference = engine.evaluate_point(point, reuse=False)
        result = run_point(_task(spec, point, worlds=range(12)))
        assert np.asarray(result.columns).tobytes() == (
            engine.aggregator.columns_of(reference.statistics).tobytes()
        )
        assert result.axis_values == reference.statistics.axis_values

    def test_every_runner_agrees(self, serve_spec, one_worker):
        task = _task(serve_spec)
        reference = _observable(run_point(task, serve_spec.build()))
        in_process = run_point(task)  # this process's cached engine
        pooled = one_worker.submit(run_point, task).result(timeout=60)
        assert _observable(in_process) == reference
        assert _observable(pooled) == reference

    def test_an_engine_with_a_history_answers_the_same(self, serve_spec):
        """Whatever an engine served before — stored bases, stats cache,
        week memo, other tasks — a task's answer is the same, and it leaves
        all of that as it was."""
        task = _task(serve_spec)
        reference = _observable(run_point(task, serve_spec.build()))
        engine = serve_spec.build()
        engine.evaluate_point(POINT_A)
        engine.evaluate_point(POINT_B, worlds=range(8))
        run_point(_task(serve_spec, POINT_B), engine)
        stored = list(engine.storage.tier.keys())
        memo = dict(engine._week_stats_cache)
        assert _observable(run_point(task, engine)) == reference
        assert list(engine.storage.tier.keys()) == stored
        assert engine._week_stats_cache == memo

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(size=st.sampled_from([1, 7, 16]), start=st.integers(0, 12))
    def test_any_world_slice_agrees(self, serve_spec, size, start):
        worlds = tuple(range(start, start + size))
        task = _task(serve_spec, worlds=worlds)
        engine = worker._engine_for(serve_spec)
        reference = engine.evaluate_point(POINT_A, worlds=worlds, reuse=False)
        assert np.array(run_point(task).columns).tobytes() == (
            engine.aggregator.columns_of(reference.statistics).tobytes()
        )


@needs_shm
class TestResultRegion:
    def test_a_region_carries_the_same_bytes(self, serve_spec, one_worker):
        reference = _observable(run_point(_task(serve_spec)))
        arena = SegmentArena()
        lease = arena.lease(4096)
        try:
            region = lease.reserve(np.asarray(run_point(_task(serve_spec)).columns).shape, np.float64)
            task = _task(serve_spec, result=region)
            for result in (run_point(task), one_worker.submit(run_point, task).result(60)):
                assert result.columns == region
                assert _observable(result, lease) == reference
        finally:
            arena.release(lease)
        assert arena.live_segments() == 0


@needs_shm
class TestLeaseOwnership:
    """Bugfix: a task's lease is released on *every* error path."""

    def test_a_failed_start_releases_the_lease(self, serve_spec, monkeypatch):
        executor = ProcessExecutor(1)
        service = EvaluationService(serve_spec, executor=executor, transport=SHM)
        try:
            monkeypatch.setattr(
                service._dispatcher, "start", lambda call: (_ for _ in ()).throw(
                    MemoryError("no room for the task")
                )
            )
            with pytest.raises(MemoryError, match="no room"):
                service.evaluate(POINT_A, reuse=False)
            assert service.stats.segments_leased == 1
            assert service._arena.live_segments() == 0
            assert service.stats.segments_leased == service.stats.segments_reclaimed
        finally:
            service.close()


@needs_shm
class TestHealSweepsOnce:
    """Bugfix: one expired-lease sweep per pool rebuild, not two."""

    def test_crash_heal_sweeps_exactly_once_per_rebuild(self, serve_spec, monkeypatch):
        sweeps = itertools.count()
        real_sweep = SegmentArena.sweep_expired

        def counting_sweep(self):
            next(sweeps)
            return real_sweep(self)

        monkeypatch.setattr(SegmentArena, "sweep_expired", counting_sweep)
        service = EvaluationService(
            serve_spec,
            executor=ProcessExecutor(2),
            transport=SHM,
            fault_plan=FaultPlan(faults=(FaultSpec(task=0, kind="crash"),)),
            resilience=ResilienceConfig(shard_timeout=30.0, retry_backoff=0.0),
        )
        try:
            service.evaluate(POINT_A, reuse=False)
        finally:
            service.close()
        assert service.stats.pool_rebuilds >= 1
        assert next(sweeps) == service.stats.pool_rebuilds
        assert service._arena.live_segments() == 0
        assert service.stats.segments_leased == service.stats.segments_reclaimed
