"""The fault-tolerance ladder, under deterministic chaos.

The contract these tests pin: a faulty substrate may cost *time*, never
*answers*. Any plan of transient faults — injected crashes, hangs,
exceptions, garbage payloads, under either executor — must leave the
merged statistics bitwise-identical to the fault-free sequential run,
with every recovery visible in the stats counters.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.stats import StatsReport
from repro.core.config import EngineConfig, SamplingConfig
from repro.core.engine import ProphetEngine
from repro.dsl import parse_scenario
from repro.errors import (
    RetryExhaustedError,
    ScenarioError,
    ServeError,
    WorkerCrashError,
)
from repro.models import build_demo_library
from repro.serve import (
    EvaluationService,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    InlineExecutor,
    ProcessExecutor,
    ResilienceConfig,
    Scheduler,
    ShardCall,
    ShardDispatcher,
)
from repro.serve.faults import GARBAGE_PAYLOAD, run_with_fault
from repro.serve.service import ServiceStats
from repro.serve.worker import ShardSample
from serve_testutil import POINT, SERVE_DSL, assert_stats_identical

#: The fault-free sequential reference, computed once per test session.
_REFERENCE_CACHE: dict[str, object] = {}


def _reference_statistics():
    if "stats" not in _REFERENCE_CACHE:
        engine = ProphetEngine(
            parse_scenario(SERVE_DSL, name="serve_scenario"),
            build_demo_library(),
            EngineConfig(sampling=SamplingConfig(n_worlds=16, refinement_first=8)),
        )
        _REFERENCE_CACHE["stats"] = engine.evaluate_point(POINT).statistics
    return _REFERENCE_CACHE["stats"]


def _chaos_service(serve_spec, *, executor=None, plan=None, **resilience):
    return EvaluationService(
        serve_spec,
        executor=executor if executor is not None else InlineExecutor(),
        shards=4,
        min_shard_worlds=1,
        fault_plan=plan,
        resilience=ResilienceConfig(**resilience) if resilience else None,
    )


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ServeError, match="unknown fault kind"):
            FaultSpec(shard=0, kind="meteor")

    def test_negative_shard_rejected(self):
        with pytest.raises(ServeError, match="shard index"):
            FaultSpec(shard=-1, kind="raise")

    def test_zero_attempts_rejected(self):
        with pytest.raises(ServeError, match="attempts"):
            FaultSpec(shard=0, kind="raise", attempts=0)

    def test_fault_clears_after_attempts(self):
        plan = FaultPlan(faults=(FaultSpec(shard=3, kind="raise", attempts=2),))
        assert plan.fault_for(3, 0) == "raise"
        assert plan.fault_for(3, 1) == "raise"
        assert plan.fault_for(3, 2) is None
        assert plan.fault_for(4, 0) is None

    def test_seeded_is_deterministic(self):
        a = FaultPlan.seeded(7, shards=32, rate=0.5)
        b = FaultPlan.seeded(7, shards=32, rate=0.5)
        assert a == b
        assert a != FaultPlan.seeded(8, shards=32, rate=0.5)

    def test_run_with_fault_crash_inline_raises(self):
        plan = FaultPlan(faults=(FaultSpec(shard=0, kind="crash"),))
        with pytest.raises(WorkerCrashError):
            run_with_fault(plan, 0, 0, False, lambda: 1)

    def test_run_with_fault_garbage_and_passthrough(self):
        plan = FaultPlan(faults=(FaultSpec(shard=0, kind="garbage"),))
        assert run_with_fault(plan, 0, 0, False, lambda: 1) == GARBAGE_PAYLOAD
        assert run_with_fault(plan, 1, 0, False, lambda x: x + 1, 2) == 3


class TestChaosParityInline:
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
            shards=16,
            rate=rate,
            kinds=("raise", "garbage", "crash"),
            attempts=attempts,
            hang_seconds=0.0,
        )
        service = _chaos_service(serve_spec, plan=plan, retry_backoff=0.0)
        evaluation = service.evaluate(POINT)
        assert_stats_identical(evaluation.statistics, _reference_statistics())
        fired = sum(service.injector.injected.values())
        if fired:
            # Every injected fault fails its round, so it must show up as
            # a retry or an inline rescue — never vanish silently.
            assert service.stats.shard_retries + service.stats.inline_rescues > 0

    def test_persistent_fault_forces_inline_rescue(self, serve_spec):
        plan = FaultPlan(
            faults=(FaultSpec(shard=2, kind="raise", attempts=99),)
        )
        service = _chaos_service(serve_spec, plan=plan, retry_backoff=0.0)
        evaluation = service.evaluate(POINT)
        assert_stats_identical(evaluation.statistics, _reference_statistics())
        assert service.stats.inline_rescues == 1
        assert service.stats.shard_retries >= 1

    def test_retry_exhaustion_without_rescue_raises(self, serve_spec):
        plan = FaultPlan(
            faults=(FaultSpec(shard=1, kind="raise", attempts=99),)
        )
        service = _chaos_service(
            serve_spec,
            plan=plan,
            retry_backoff=0.0,
            shard_retries=1,
            inline_rescue=False,
        )
        with pytest.raises(RetryExhaustedError, match="still failing"):
            service.evaluate(POINT)


class TestChaosParityProcess:
    """The real thing: killed and hung workers under a process pool."""

    def test_worker_crash_heals_pool_and_stays_bit_identical(self, serve_spec):
        plan = FaultPlan(faults=(FaultSpec(shard=0, kind="crash"),))
        executor = ProcessExecutor(2)
        try:
            service = _chaos_service(
                serve_spec, executor=executor, plan=plan, retry_backoff=0.0
            )
            evaluation = service.evaluate(POINT)
            assert_stats_identical(evaluation.statistics, _reference_statistics())
            assert service.stats.pool_rebuilds >= 1
            assert executor.rebuilds >= 1
            assert service.stats.shard_retries >= 1
        finally:
            executor.shutdown()

    def test_hung_worker_hits_deadline_and_stays_bit_identical(self, serve_spec):
        plan = FaultPlan(
            faults=(FaultSpec(shard=1, kind="hang"),), hang_seconds=60.0
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
            evaluation = service.evaluate(POINT)
            assert_stats_identical(evaluation.statistics, _reference_statistics())
            assert service.stats.shard_timeouts >= 1
            assert service.stats.pool_rebuilds >= 1
        finally:
            executor.shutdown()


class TestSchedulerJobRetry:
    def test_transient_job_failure_retried_to_success(self, serve_spec):
        # The plan covers only the first output's shard sequence numbers
        # (0..3: the dispatch that fails consumes exactly four); the
        # retried job draws fresh numbers, so its second run is fault-free.
        plan = FaultPlan(
            faults=tuple(
                FaultSpec(shard=s, kind="raise", attempts=99) for s in range(4)
            )
        )
        service = _chaos_service(
            serve_spec,
            plan=plan,
            retry_backoff=0.0,
            shard_retries=0,
            inline_rescue=False,
            job_retries=1,
        )
        scheduler = Scheduler(service)
        job = scheduler.submit(POINT)
        scheduler.run_pending()
        assert job.status == "done"
        assert job.attempts == 1
        assert scheduler.jobs_retried == 1
        assert_stats_identical(job.result.statistics, _reference_statistics())

    def test_exhausted_transient_failure_surfaces_failed(self, serve_spec):
        plan = FaultPlan(
            faults=tuple(
                FaultSpec(shard=s, kind="raise", attempts=99) for s in range(64)
            )
        )
        service = _chaos_service(
            serve_spec,
            plan=plan,
            retry_backoff=0.0,
            shard_retries=0,
            inline_rescue=False,
            job_retries=1,
        )
        scheduler = Scheduler(service)
        job = scheduler.submit(POINT)
        scheduler.run_pending()
        assert job.status == "failed"
        assert job.attempts == 1
        assert isinstance(job.exception, RetryExhaustedError)
        assert scheduler.jobs_retried == 1

    def test_negative_job_retries_rejected(self, serve_spec):
        service = _chaos_service(serve_spec)
        with pytest.raises(ServeError, match="job_retries"):
            Scheduler(service, job_retries=-1)


def _ok_sample(rows: int = 4, components: int = 3) -> ShardSample:
    return ShardSample(samples=np.zeros((rows, components)))


def _call(fn, *, rescue=None, rows: int = 4, components: int = 3) -> ShardCall:
    return ShardCall(
        fn=fn,
        args=(),
        rescue=rescue if rescue is not None else (lambda: _ok_sample(rows, components)),
        expected_rows=rows,
        expected_components=components,
    )


class TestShardDispatcherUnit:
    def _dispatcher(self, **resilience) -> tuple[ShardDispatcher, ServiceStats]:
        stats = ServiceStats()
        config = ResilienceConfig(retry_backoff=0.0, **resilience)
        return ShardDispatcher(InlineExecutor(), stats, config), stats

    def test_permanent_error_raises_immediately(self):
        dispatcher, stats = self._dispatcher()

        def boom():
            raise ValueError("deterministic bug")

        with pytest.raises(ValueError, match="deterministic bug"):
            dispatcher.dispatch([_call(boom), _call(_ok_sample)])
        assert stats.shard_retries == 0
        assert stats.inline_rescues == 0

    def test_garbage_payload_is_transient_and_rescued(self):
        dispatcher, stats = self._dispatcher(shard_retries=1)
        dispatched = dispatcher.dispatch([_call(lambda: "not a shard sample")])
        assert dispatched[0].samples.shape == (4, 3)
        assert stats.inline_rescues == 1
        assert stats.shard_retries == 1  # one retry round, still garbage

    def test_wrong_shape_payload_is_transient(self):
        dispatcher, stats = self._dispatcher(shard_retries=0)
        bad = ShardSample(samples=np.zeros((2, 3)))
        dispatched = dispatcher.dispatch([_call(lambda: bad)])
        assert dispatched[0].samples.shape == (4, 3)
        assert stats.inline_rescues == 1

    def test_wrong_components_rejected(self):
        dispatcher, stats = self._dispatcher(shard_retries=0, inline_rescue=False)
        bad = ShardSample(samples=np.zeros((4, 7)))
        with pytest.raises(RetryExhaustedError, match="components"):
            dispatcher.dispatch([_call(lambda: bad)])

    def test_transient_error_retried_then_succeeds(self):
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise FaultInjected("one-off glitch")
            return _ok_sample()

        dispatcher, stats = self._dispatcher(shard_retries=2)
        dispatched = dispatcher.dispatch([_call(flaky)])
        assert dispatched[0].samples.shape == (4, 3)
        assert stats.shard_retries == 1
        assert stats.inline_rescues == 0

    def test_payload_problem_messages(self):
        call = _call(lambda: None)
        assert "ShardSample" in ShardDispatcher._payload_problem(call, "junk")
        assert ShardDispatcher._payload_problem(call, _ok_sample()) is None
        bad_dtype = ShardSample(
            samples=np.array([["a", "b", "c"]] * 4, dtype=object)
        )
        assert "dtype" in ShardDispatcher._payload_problem(call, bad_dtype)

    def test_resilience_config_validation(self):
        with pytest.raises(ScenarioError, match="shard_timeout"):
            ResilienceConfig(shard_timeout=0.0)
        with pytest.raises(ScenarioError, match="shard_retries"):
            ResilienceConfig(shard_retries=-1)
        with pytest.raises(ScenarioError, match="retry_backoff"):
            ResilienceConfig(retry_backoff=-0.1)
        with pytest.raises(ScenarioError, match="job_retries"):
            ResilienceConfig(job_retries=-2)


class TestHealWithWorkInFlight:
    """A heal replaces every lane — also under futures somebody still holds
    (a fan-out begun ahead; this round's own shards queued behind a broken
    lane). Those come back cancelled or broken *by the heal*: transient,
    retried, and no reason to heal the new pool again."""

    def _dispatcher(self, executor, **resilience):
        stats = ServiceStats()
        config = ResilienceConfig(retry_backoff=0.0, **resilience)
        return ShardDispatcher(executor, stats, config), stats

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
        dispatched = dispatcher.dispatch([_call(_ok_sample), _call(_ok_sample)])
        assert [d.samples.shape for d in dispatched] == [(4, 3), (4, 3)]
        assert stats.shard_retries == 1
        assert stats.pool_rebuilds == 0 and stats.inline_rescues == 0

    def test_a_started_fan_out_survives_another_one_healing_the_pool(self, tmp_path):
        """Start A, start B, crash A's worker: collecting A heals the pool
        under B, whose futures die with the old lanes. Both finish."""
        executor = ProcessExecutor(2)
        try:
            dispatcher, stats = self._dispatcher(executor, shard_retries=2)

            def calls(fn, count=4):
                return [
                    ShardCall(fn=fn, args=(4, 3), rescue=lambda: _zeros(4, 3),
                              expected_rows=4, expected_components=3)
                    for _ in range(count)
                ]

            crashing = calls(_zeros)
            crashing[0] = ShardCall(
                fn=_crash_once, args=(str(tmp_path / "crashed"),), rescue=lambda: _zeros(4, 3),
                expected_rows=4, expected_components=3,
            )
            first = dispatcher.start(crashing)
            # Five per lane: the heal finds some running (they break with
            # their worker) and some still queued (they are cancelled).
            second = dispatcher.start(calls(_slow_zeros, 10))
            assert [d.samples.shape for d in dispatcher.finish(first)] == [(4, 3)] * 4
            rebuilds = stats.pool_rebuilds
            assert rebuilds >= 1
            assert [d.samples.shape for d in dispatcher.finish(second)] == [(4, 3)] * 10
            # B's futures died in a pool that was already replaced: retried,
            # not healed again, never rescued.
            assert stats.pool_rebuilds == rebuilds
            assert stats.inline_rescues == 0
        finally:
            executor.shutdown()

    def test_submit_finding_a_broken_lane_heals_under_its_own_queued_shards(self):
        """Lane 1's worker died idle; lane 0 is busy, so this round's first
        shard queues there — and is cancelled when the second shard's
        submit finds lane 1 broken and heals. At the parent commit the
        cancelled shard failed the whole fan-out for good."""
        executor = ProcessExecutor(2)
        try:
            victim = executor.submit(os.getpid, lane=1).result(timeout=30)
            blockers = [executor.submit(_slow_zeros, 4, 3, 1.0, lane=0) for _ in range(3)]
            os.kill(victim, 9)
            time.sleep(0.3)  # let lane 1's pool notice
            dispatcher, stats = self._dispatcher(executor, shard_retries=2)
            dispatched = dispatcher.dispatch(
                [
                    ShardCall(fn=_zeros, args=(4, 3), rescue=lambda: _zeros(4, 3),
                              expected_rows=4, expected_components=3)
                    for _ in range(2)
                ]
            )
            assert [d.samples.shape for d in dispatched] == [(4, 3), (4, 3)]
            assert stats.pool_rebuilds == 1  # the one heal, at submit
            assert stats.shard_retries == 1 and stats.inline_rescues == 0
            assert all(blocker.done() for blocker in blockers)
        finally:
            executor.shutdown()

    @pytest.mark.parametrize("crash_at", [0, 2, 3, 5, 8])
    def test_crash_in_a_generation_begun_ahead_keeps_the_sweep_bit_identical(
        self, serve_spec, crash_at
    ):
        """A seeded crash on one shard of a queued sweep over shm — for most
        sequence numbers a shard of a generation that was begun behind the
        previous point's combine. The sweep completes bit-identical without
        the job ladder, leaks no segment and leaves no child."""
        import multiprocessing

        from repro.serve import TransportConfig, shm_available

        engine = ProphetEngine(
            parse_scenario(SERVE_DSL, name="serve_scenario"),
            build_demo_library(),
            EngineConfig(sampling=SamplingConfig(n_worlds=16, refinement_first=8)),
        )
        points = [dict(p) for p in engine.scenario.sweep_space.grid()][::4][:5]
        references = [engine.evaluate_point(p, reuse=False).statistics for p in points]
        executor = ProcessExecutor(2)
        try:
            service = EvaluationService(
                serve_spec,
                executor=executor,
                shards=4,  # two shards per lane: a heal finds work queued
                min_shard_worlds=1,
                fault_plan=FaultPlan(faults=(FaultSpec(shard=crash_at, kind="crash"),)),
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
            assert scheduler.jobs_retried == 0
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


def _zeros(rows: int, components: int) -> ShardSample:  # module-level: picklable
    return ShardSample(samples=np.zeros((rows, components)))


def _slow_zeros(rows: int, components: int, seconds: float = 0.2) -> ShardSample:
    time.sleep(seconds)
    return _zeros(rows, components)


def _crash_once(marker: str) -> ShardSample:
    """Kills the first worker to run it (leaving ``marker``); the retry,
    in a later worker, answers."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return _zeros(4, 3)
    os._exit(13)


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
    """ISSUE acceptance: kill a worker mid-sweep under a process executor;
    the sweep completes bitwise-identical to the fault-free run and the
    stats report shows the recovery."""

    POINTS = [
        {"purchase1": 0, "purchase2": 0, "feature": 12},
        {"purchase1": 0, "purchase2": 26, "feature": 12},
        {"purchase1": 26, "purchase2": 26, "feature": 12},
    ]

    def test_sweep_survives_crash_and_persistent_fault(self, serve_spec):
        engine = ProphetEngine(
            parse_scenario(SERVE_DSL, name="serve_scenario"),
            build_demo_library(),
            EngineConfig(sampling=SamplingConfig(n_worlds=16, refinement_first=8)),
        )
        references = [engine.evaluate_point(p).statistics for p in self.POINTS]

        plan = FaultPlan(
            faults=(
                FaultSpec(shard=0, kind="crash"),
                FaultSpec(shard=3, kind="raise", attempts=99),
            )
        )
        executor = ProcessExecutor(2)
        try:
            service = _chaos_service(
                serve_spec, executor=executor, plan=plan, retry_backoff=0.0
            )
            scheduler = Scheduler(service)
            jobs = scheduler.submit_sweep(self.POINTS)
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
            assert report["scheduler"]["jobs_retried"] == 0
        finally:
            executor.shutdown()
