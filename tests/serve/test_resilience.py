"""The fault-tolerance ladder, under deterministic chaos.

The contract these tests pin: a faulty substrate may cost *time*, never
*answers*. Any plan of transient faults — injected crashes, hangs,
exceptions, garbage payloads, in worker processes or in this one — must
leave every point task's statistics bitwise-identical to the fault-free
sequential run, with every recovery visible in the stats counters.
"""

from __future__ import annotations

import json
import os
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.stats import StatsReport
from repro.core.config import EngineConfig, SamplingConfig
from repro.core.engine import ProphetEngine
from repro.dsl import parse_scenario
from repro.errors import ScenarioError, ServeError, WorkerCrashError
from repro.models import build_demo_library
from repro.serve import (
    EvaluationService,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    InlineExecutor,
    ProcessExecutor,
    PointResult,
    ResilienceConfig,
    Scheduler,
    TaskCall,
    TaskDispatcher,
)
from repro.core.engine import StageTimings
from repro.serve.faults import GARBAGE_PAYLOAD, run_with_fault
from repro.serve.service import ServiceStats
from serve_testutil import POINT, SERVE_DSL, InProcessPool, assert_stats_identical

#: The fault-free sequential reference, computed once per test session.
_REFERENCE_CACHE: dict[str, object] = {}


def _reference_statistics(point=POINT):
    key = repr(sorted(point.items()))
    if key not in _REFERENCE_CACHE:
        engine = ProphetEngine(
            parse_scenario(SERVE_DSL, name="serve_scenario"),
            build_demo_library(),
            EngineConfig(sampling=SamplingConfig(n_worlds=16)),
        )
        _REFERENCE_CACHE[key] = engine.evaluate_point(point, reuse=False).statistics
    return _REFERENCE_CACHE[key]


#: A four-point fresh sweep: four point tasks.
SWEEP = [
    POINT,
    {"purchase1": 0, "purchase2": 0, "feature": 12},
    {"purchase1": 26, "purchase2": 26, "feature": 36},
    {"purchase1": 52, "purchase2": 52, "feature": 12},
]


def _chaos_service(serve_spec, *, executor=None, plan=None, **resilience):
    return EvaluationService(
        serve_spec,
        executor=executor if executor is not None else InProcessPool(),
        fault_plan=plan,
        resilience=ResilienceConfig(**resilience) if resilience else None,
    )


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ServeError, match="unknown fault kind"):
            FaultSpec(task=0, kind="meteor")

    def test_negative_task_rejected(self):
        with pytest.raises(ServeError, match="task index"):
            FaultSpec(task=-1, kind="raise")

    def test_zero_attempts_rejected(self):
        with pytest.raises(ServeError, match="attempts"):
            FaultSpec(task=0, kind="raise", attempts=0)

    def test_fault_clears_after_attempts(self):
        plan = FaultPlan(faults=(FaultSpec(task=3, kind="raise", attempts=2),))
        assert plan.fault_for(3, 0) == "raise"
        assert plan.fault_for(3, 1) == "raise"
        assert plan.fault_for(3, 2) is None
        assert plan.fault_for(4, 0) is None

    def test_seeded_is_deterministic(self):
        a = FaultPlan.seeded(7, tasks=32, rate=0.5)
        b = FaultPlan.seeded(7, tasks=32, rate=0.5)
        assert a == b
        assert a != FaultPlan.seeded(8, tasks=32, rate=0.5)

    def test_run_with_fault_crash_inline_raises(self):
        plan = FaultPlan(faults=(FaultSpec(task=0, kind="crash"),))
        with pytest.raises(WorkerCrashError):
            run_with_fault(plan, 0, 0, False, lambda: 1)

    def test_run_with_fault_garbage_and_passthrough(self):
        plan = FaultPlan(faults=(FaultSpec(task=0, kind="garbage"),))
        assert run_with_fault(plan, 0, 0, False, lambda: 1) == GARBAGE_PAYLOAD
        assert run_with_fault(plan, 1, 0, False, lambda x: x + 1, 2) == 3


class TestChaosParityInProcess:
    """Property: transient fault plans never change the answer."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rate=st.floats(min_value=0.1, max_value=0.9),
        attempts=st.integers(min_value=1, max_value=4),
    )
    def test_any_transient_plan_is_bit_identical(
        self, serve_spec, seed, rate, attempts
    ):
        plan = FaultPlan.seeded(
            seed,
            tasks=len(SWEEP),
            rate=rate,
            kinds=("raise", "garbage", "crash"),
            attempts=attempts,
            hang_seconds=0.0,
        )
        service = _chaos_service(serve_spec, plan=plan, retry_backoff=0.0)
        for point in SWEEP:
            evaluation = service.evaluate(point, reuse=False)
            assert_stats_identical(evaluation.statistics, _reference_statistics(point))
        fired = sum(service.injector.injected.values())
        if fired:
            # Every injected fault fails its attempt, so it must show up as
            # a retry or an inline rescue — never vanish silently.
            assert service.stats.shard_retries + service.stats.inline_rescues > 0

    def test_persistent_fault_forces_inline_rescue(self, serve_spec):
        plan = FaultPlan(
            faults=(FaultSpec(task=0, kind="raise", attempts=99),)
        )
        service = _chaos_service(serve_spec, plan=plan, retry_backoff=0.0)
        evaluation = service.evaluate(POINT, reuse=False)
        assert_stats_identical(evaluation.statistics, _reference_statistics())
        assert service.stats.inline_rescues == 1
        assert service.stats.shard_retries >= 1


class TestChaosParityProcess:
    """The real thing: killed and hung workers under a process pool."""

    def test_worker_crash_heals_pool_and_stays_bit_identical(self, serve_spec):
        plan = FaultPlan(faults=(FaultSpec(task=0, kind="crash"),))
        executor = ProcessExecutor(2)
        try:
            service = _chaos_service(
                serve_spec, executor=executor, plan=plan, retry_backoff=0.0
            )
            evaluation = service.evaluate(POINT, reuse=False)
            assert_stats_identical(evaluation.statistics, _reference_statistics())
            assert service.stats.pool_rebuilds >= 1
            assert executor.rebuilds >= 1
            assert service.stats.shard_retries >= 1
        finally:
            executor.shutdown()

    def test_hung_worker_hits_deadline_and_stays_bit_identical(self, serve_spec):
        plan = FaultPlan(
            faults=(FaultSpec(task=0, kind="hang"),), hang_seconds=60.0
        )
        executor = ProcessExecutor(2)
        try:
            service = _chaos_service(
                serve_spec,
                executor=executor,
                plan=plan,
                retry_backoff=0.0,
                shard_timeout=1.0,
            )
            evaluation = service.evaluate(POINT, reuse=False)
            assert_stats_identical(evaluation.statistics, _reference_statistics())
            assert service.stats.shard_timeouts >= 1
            assert service.stats.pool_rebuilds >= 1
        finally:
            executor.shutdown()


class TestSchedulerRunsEachJobOnce:
    def test_a_stuck_task_is_rescued_under_its_job(self, serve_spec):
        """The dispatcher's ladder is the only one: a task that fails every
        attempt is rescued inline, so its job completes on its one run."""
        plan = FaultPlan(faults=(FaultSpec(task=0, kind="raise", attempts=99),))
        service = _chaos_service(serve_spec, plan=plan, retry_backoff=0.0, shard_retries=1)
        scheduler = Scheduler(service)
        job = scheduler.submit(POINT, reuse=False)
        assert scheduler.run_pending() == [job]
        assert job.status == "done"
        assert service.stats.inline_rescues == 1 and service.stats.shard_retries == 1
        assert_stats_identical(job.result.statistics, _reference_statistics())

    def test_a_permanent_failure_marks_the_job_failed(self, serve_spec):
        service = _chaos_service(serve_spec)
        scheduler = Scheduler(service)
        job = scheduler.submit(POINT, worlds=range(4))
        with mock.patch.object(
            ProphetEngine, "evaluate_point", side_effect=ValueError("deterministic bug")
        ):
            scheduler.run_pending()
        assert job.status == "failed" and isinstance(job.exception, ValueError)
        assert scheduler.jobs_completed == 1


SHAPE = (2, 3)


def _ok_result(shape=SHAPE) -> PointResult:  # module-level: picklable
    return PointResult(
        columns=np.zeros(shape),
        axis_values=tuple(range(shape[1])),
        reuse_reports=(),
        timings=StageTimings(),
    )


def _slow_result(seconds: float = 0.2) -> PointResult:
    time.sleep(seconds)
    return _ok_result()


def _crash_once(marker: str) -> PointResult:
    """Kills the first worker to run it (leaving ``marker``); the retry,
    in a later worker, answers."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return _ok_result()
    os._exit(13)


def _call(fn, *args, rescue=None) -> TaskCall:
    return TaskCall(
        fn=fn,
        args=args,
        rescue=rescue if rescue is not None else _ok_result,
        expected_shape=SHAPE,
    )


class TestTaskDispatcherUnit:
    def _dispatcher(self, **resilience) -> tuple[TaskDispatcher, ServiceStats]:
        stats = ServiceStats()
        config = ResilienceConfig(retry_backoff=0.0, **resilience)
        return TaskDispatcher(InlineExecutor(), stats, config), stats

    def test_permanent_error_raises_immediately(self):
        dispatcher, stats = self._dispatcher()

        def boom():
            raise ValueError("deterministic bug")

        with pytest.raises(ValueError, match="deterministic bug"):
            dispatcher.finish(dispatcher.start(_call(boom)))
        assert stats.shard_retries == 0
        assert stats.inline_rescues == 0

    def test_garbage_payload_is_transient_and_rescued(self):
        dispatcher, stats = self._dispatcher(shard_retries=1)
        dispatched = dispatcher.finish(dispatcher.start(_call(lambda: "not a point result")))
        assert dispatched.columns.shape == SHAPE
        assert stats.inline_rescues == 1
        assert stats.shard_retries == 1  # one retry, still garbage

    def test_wrong_shape_payload_is_transient(self):
        dispatcher, stats = self._dispatcher(shard_retries=0)
        dispatched = dispatcher.finish(dispatcher.start(_call(lambda: _ok_result((2, 7)))))
        assert dispatched.columns.shape == SHAPE
        assert stats.inline_rescues == 1

    def test_transient_error_retried_then_succeeds(self):
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise FaultInjected("one-off glitch")
            return _ok_result()

        dispatcher, stats = self._dispatcher(shard_retries=2)
        dispatched = dispatcher.finish(dispatcher.start(_call(flaky)))
        assert dispatched.columns.shape == SHAPE
        assert stats.shard_retries == 1
        assert stats.inline_rescues == 0

    def test_payload_problem_messages(self):
        call = _call(lambda: None)
        assert "PointResult" in TaskDispatcher._payload_problem(call, "junk")
        assert TaskDispatcher._payload_problem(call, _ok_result()) is None
        bad_dtype = PointResult(
            columns=np.array([["a", "b", "c"]] * 2, dtype=object),
            axis_values=(0, 1, 2),
            reuse_reports=(),
            timings=StageTimings(),
        )
        assert "dtype" in TaskDispatcher._payload_problem(call, bad_dtype)

    def test_resilience_config_validation(self):
        with pytest.raises(ScenarioError, match="shard_timeout"):
            ResilienceConfig(shard_timeout=0.0)
        with pytest.raises(ScenarioError, match="shard_retries"):
            ResilienceConfig(shard_retries=-1)
        with pytest.raises(ScenarioError, match="retry_backoff"):
            ResilienceConfig(retry_backoff=-0.1)


class TestHealWithWorkInFlight:
    """A heal replaces every lane — also under futures somebody still holds
    (tasks started ahead; a task queued behind a broken lane). Those come
    back cancelled or broken *by the heal*: transient, retried, and no
    reason to heal the new pool again."""

    def _dispatcher(self, executor, **resilience):
        stats = ServiceStats()
        config = ResilienceConfig(retry_backoff=0.0, **resilience)
        return TaskDispatcher(executor, stats, config), stats

    def test_a_cancelled_future_is_transient(self):
        from concurrent.futures import Future

        class CancelsFirst(InlineExecutor):
            """Hands out one already-cancelled future, then behaves."""

            def submit(self, fn, *args, lane=None):
                if self.tasks_run == 0:
                    self.tasks_run += 1
                    future = Future()
                    assert future.cancel()
                    return future
                return super().submit(fn, *args, lane=lane)

        dispatcher, stats = self._dispatcher(CancelsFirst(), shard_retries=1)
        started = [dispatcher.start(_call(_ok_result)) for _ in range(2)]
        assert [dispatcher.finish(s).columns.shape for s in started] == [SHAPE, SHAPE]
        assert stats.shard_retries == 1
        assert stats.pool_rebuilds == 0 and stats.inline_rescues == 0

    def test_tasks_started_ahead_survive_another_one_healing_the_pool(self, tmp_path):
        """Start A, then ten more; A's worker crashes: collecting A heals the
        pool under the others, whose futures die with the old lanes. All
        finish."""
        executor = ProcessExecutor(2)
        try:
            dispatcher, stats = self._dispatcher(executor, shard_retries=2)
            first = dispatcher.start(_call(_crash_once, str(tmp_path / "crashed")))
            # Five per lane: the heal finds some running (they break with
            # their worker) and some still queued (they are cancelled).
            others = [dispatcher.start(_call(_slow_result)) for _ in range(10)]
            assert dispatcher.finish(first).columns.shape == SHAPE
            rebuilds = stats.pool_rebuilds
            assert rebuilds >= 1
            assert [dispatcher.finish(s).columns.shape for s in others] == [SHAPE] * 10
            # Their futures died in a pool that was already replaced:
            # retried, not healed again, never rescued.
            assert stats.pool_rebuilds == rebuilds
            assert stats.inline_rescues == 0
        finally:
            executor.shutdown()

    def test_submit_finding_a_broken_lane_heals_under_a_queued_task(self):
        """Lane 1's worker died idle; lane 0 is busy, so the first task
        queues there — and is cancelled when the second task's submit finds
        lane 1 broken and heals. The cancelled task is retried, not lost."""
        executor = ProcessExecutor(2)
        try:
            victim = executor.submit(os.getpid, lane=1).result(timeout=30)
            blockers = [executor.submit(_slow_result, 1.0, lane=0) for _ in range(3)]
            os.kill(victim, 9)
            time.sleep(0.3)  # let lane 1's pool notice
            dispatcher, stats = self._dispatcher(executor, shard_retries=2)
            started = [dispatcher.start(_call(_ok_result)) for _ in range(2)]
            assert [dispatcher.finish(s).columns.shape for s in started] == [SHAPE, SHAPE]
            assert stats.pool_rebuilds == 1  # the one heal, at submit
            assert stats.shard_retries == 1 and stats.inline_rescues == 0
            assert all(blocker.done() for blocker in blockers)
        finally:
            executor.shutdown()

    @pytest.mark.parametrize("crash_at", [0, 1, 2, 4])
    def test_a_crash_with_tasks_started_ahead_keeps_the_sweep_bit_identical(
        self, serve_spec, crash_at
    ):
        """A seeded crash on one task of a queued fresh sweep over shm, with
        the next task in flight beside it. The sweep completes bit-identical
        without the job ladder, leaks no segment and leaves no child."""
        import multiprocessing

        from repro.serve import TransportConfig, shm_available

        engine = ProphetEngine(
            parse_scenario(SERVE_DSL, name="serve_scenario"),
            build_demo_library(),
            EngineConfig(sampling=SamplingConfig(n_worlds=16)),
        )
        points = [dict(p) for p in engine.scenario.sweep_space.grid()][::4][:5]
        references = [engine.evaluate_point(p, reuse=False).statistics for p in points]
        executor = ProcessExecutor(2)
        try:
            service = EvaluationService(
                serve_spec,
                executor=executor,
                fault_plan=FaultPlan(faults=(FaultSpec(task=crash_at, kind="crash"),)),
                resilience=ResilienceConfig(retry_backoff=0.0),
                transport=TransportConfig(
                    shard_transport="shm" if shm_available() else "pickle"
                ),
            )
            scheduler = Scheduler(service)
            jobs = scheduler.submit_sweep(points, reuse=False)
            scheduler.run_pending()
            for job, reference in zip(jobs, references):
                assert job.status == "done"
                assert_stats_identical(job.result.statistics, reference)
            assert service.stats.pool_rebuilds >= 1
            assert service.stats.shard_retries >= 1
            assert service.stats.segments_leased == service.stats.segments_reclaimed
            assert service._arena.live_segments() == 0
            workers = {pid for pool in executor._lanes for pid in (pool._processes or {})}
            assert len(workers) == 2
        finally:
            service.close()

        def alive():  # this service's workers, not another test's pool
            return workers & {child.pid for child in multiprocessing.active_children()}

        deadline = time.monotonic() + 5.0
        while alive() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not alive()


def _sleep_forever() -> None:  # module-level: picklable for process pools
    time.sleep(300)


class TestExecutorLifecycle:
    def test_shutdown_is_bounded_with_hung_worker(self):
        executor = ProcessExecutor(1)
        executor.submit(_sleep_forever)
        time.sleep(0.2)  # let the worker actually pick the task up
        started = time.monotonic()
        executor.shutdown(timeout=1.0)
        assert time.monotonic() - started < 10.0

    def test_submit_after_shutdown_raises(self):
        executor = ProcessExecutor(1)
        executor.shutdown()
        with pytest.raises(ServeError, match="shut down"):
            executor.submit(_sleep_forever)

    def test_recycle_keeps_identity_and_counts(self):
        executor = ProcessExecutor(1)
        try:
            executor.recycle()
            assert executor.rebuilds == 1
            future = executor.submit(len, (1, 2, 3))
            assert future.result(timeout=30) == 3
        finally:
            executor.shutdown()

    def test_inline_future_accepts_timeout(self):
        executor = InlineExecutor()
        assert executor.submit(len, (1,)).result(timeout=0.5) == 1


class TestAcceptanceChaosSweep:
    """Acceptance: kill a worker mid-sweep under a process executor;
    the sweep completes bitwise-identical to the fault-free run and the
    stats report shows the recovery."""

    POINTS = [
        {"purchase1": 0, "purchase2": 0, "feature": 12},
        {"purchase1": 0, "purchase2": 26, "feature": 12},
        {"purchase1": 26, "purchase2": 26, "feature": 12},
    ]

    def test_sweep_survives_crash_and_persistent_fault(self, serve_spec):
        references = [_reference_statistics(p) for p in self.POINTS]

        plan = FaultPlan(
            faults=(
                FaultSpec(task=0, kind="crash"),
                FaultSpec(task=2, kind="raise", attempts=99),
            )
        )
        executor = ProcessExecutor(2)
        try:
            service = _chaos_service(
                serve_spec, executor=executor, plan=plan, retry_backoff=0.0
            )
            scheduler = Scheduler(service)
            jobs = scheduler.submit_sweep(self.POINTS, reuse=False)
            scheduler.run_pending()
            for job, reference in zip(jobs, references):
                assert job.status == "done"
                assert_stats_identical(job.result.statistics, reference)

            report = json.loads(
                StatsReport.gather(
                    service.engine, service=service, scheduler=scheduler
                ).to_json()
            )
            assert report["service"]["pool_rebuilds"] >= 1
            assert report["service"]["inline_rescues"] >= 1
            assert report["service"]["shard_retries"] >= 1
            assert report["scheduler"]["jobs_completed"] == len(self.POINTS)
        finally:
            executor.shutdown()
