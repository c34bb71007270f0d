"""Scheduler behavior: dedup, sweeps, session integration."""

from __future__ import annotations

import functools

import pytest

from repro.core.offline import OfflineOptimizer
from repro.core.online import OnlineSession
from repro.core.rounds import RoundPlan
from repro.errors import ScenarioError, ServeError
from repro.serve import EvaluationService, InlineExecutor, Scheduler
from serve_testutil import POINT, assert_stats_identical

OTHER_POINT = {"purchase1": 26, "purchase2": 52, "feature": 36}


@pytest.fixture
def scheduler(serve_spec) -> Scheduler:
    service = EvaluationService(
        serve_spec, executor=InlineExecutor(), shards=2, min_shard_worlds=1
    )
    return Scheduler(service)


class TestDedup:
    def test_identical_inflight_points_coalesce(self, scheduler):
        first = scheduler.submit(POINT, session="a")
        second = scheduler.submit(POINT, session="b")
        third = scheduler.submit(OTHER_POINT, session="a")
        assert second.coalesced_with == first.id
        assert third.coalesced_with is None
        assert len(scheduler.queue) == 2  # one evaluation for the duplicate

        finished = scheduler.run_pending()
        assert [job.id for job in finished] == [first.id, third.id]
        assert scheduler.dedup_hits == 1
        assert first.done and second.done and third.done
        assert second.result is first.result  # same evaluation object

    def test_different_worlds_do_not_coalesce(self, scheduler):
        first = scheduler.submit(POINT, worlds=range(8))
        second = scheduler.submit(POINT, worlds=range(16))
        assert second.coalesced_with is None
        assert first.key != second.key

    @pytest.mark.parametrize("queued_first", [False, True], ids=["alone", "behind"])
    def test_request_the_engine_rejects_never_coalesces(self, scheduler, queued_first):
        """Float world ids fail the engine's rule whether or not an integer
        twin is in flight: ``submit`` raises, it never joins the twin."""
        if queued_first:
            twin = scheduler.submit(POINT, worlds=range(4))
        with pytest.raises(ScenarioError, match="world ids must be integers"):
            scheduler.submit(POINT, worlds=[0.0, 1.0, 2.0, 3.0])
        assert scheduler.dedup_hits == 0
        assert len(scheduler.queue) == int(queued_first)
        if queued_first:
            scheduler.run_pending()
            assert twin.done

    def test_completed_jobs_leave_the_inflight_index(self, scheduler):
        first = scheduler.submit(POINT)
        scheduler.run_pending()
        resubmitted = scheduler.submit(POINT)
        assert resubmitted.coalesced_with is None  # no longer in flight
        scheduler.run_pending()
        assert resubmitted.done
        # The engine's stats cache makes the re-evaluation a pure hit.
        assert all(r.source == "exact" for r in resubmitted.result.reuse_reports)


class TestSweeps:
    def test_full_grid_sweep(self, scheduler):
        jobs = scheduler.submit_sweep(worlds=range(8), session="batch")
        assert len(jobs) == 18  # 3 x 3 x 2 axis-excluded grid
        assert not any(job.done for job in jobs)
        scheduler.run_pending()
        assert all(job.done for job in jobs)
        assert all(job.evaluation() is not None for job in jobs)

    def test_empty_sweep_rejected(self, scheduler):
        with pytest.raises(ServeError, match="no points"):
            scheduler.submit_sweep([])


class TestFailures:
    def test_failed_job_is_recorded_not_raised(self, scheduler, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("worker lost")

        monkeypatch.setattr(scheduler.service, "evaluate", explode)
        job = scheduler.submit(POINT)
        finished = scheduler.run_pending()
        assert finished == [job]
        assert job.status == "failed"
        assert "worker lost" in job.error
        with pytest.raises(ServeError, match="no result"):
            job.evaluation()

    def test_evaluate_reraises_the_original_exception(self, scheduler, monkeypatch):
        monkeypatch.setattr(
            scheduler.service,
            "evaluate",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        # Same exception type the sequential path would raise — not a
        # scheduler-specific wrapper.
        with pytest.raises(RuntimeError, match="boom"):
            scheduler.evaluate(POINT)


class TestOnlineSessionBackend:
    def test_refresh_matches_sequential_session(self, scheduler, sequential_engine):
        backed = OnlineSession(
            scheduler.service.engine,
            evaluate=functools.partial(scheduler.evaluate, session="online"),
        )
        plain = OnlineSession(sequential_engine)
        for session in (backed, plain):
            session.set_sliders(POINT)
        assert_stats_identical(
            backed.refresh().statistics, plain.refresh().statistics
        )
        assert scheduler.jobs_completed == 1
        assert scheduler.completed[-1].session == "online"

    def test_proactive_exploration_goes_through_the_queue(self, scheduler):
        session = OnlineSession(
            scheduler.service.engine,
            evaluate=functools.partial(scheduler.evaluate, session="online"),
            plan=RoundPlan(n_worlds=16, first=8),  # neighbors at 8 worlds
        )
        session.set_sliders(POINT)
        explored = session.explore_proactively(max_points=3)
        assert explored == 3
        assert scheduler.jobs_completed == 3
        # The next move onto an explored neighbor is served from caches.
        session.set_slider("purchase2", 0)
        view = session.refresh()
        assert view.statistics is not None


class TestOfflineOptimizerBackend:
    def test_sweep_matches_sequential_optimizer(self, scheduler, sequential_engine):
        backed = OfflineOptimizer(
            scheduler.service.engine,
            evaluate=functools.partial(scheduler.evaluate, session="optimizer"),
        ).run()
        plain = OfflineOptimizer(sequential_engine).run()
        assert backed.best.point == plain.best.point
        assert len(backed.records) == len(plain.records)
        for mine, theirs in zip(backed.records, plain.records):
            assert mine.point == theirs.point
            assert mine.feasible == theirs.feasible
            assert_stats_identical(mine.statistics, theirs.statistics)


class TestHistoryBound:
    def test_completed_archive_is_bounded(self, serve_spec):
        service = EvaluationService(
            serve_spec, executor=InlineExecutor(), shards=1
        )
        scheduler = Scheduler(service, history_limit=2)
        for purchase2 in (0, 26, 52):
            scheduler.evaluate({"purchase1": 0, "purchase2": purchase2, "feature": 12},
                               worlds=range(4))
        assert scheduler.jobs_completed == 3
        assert len(scheduler.completed) == 2  # ring keeps only the newest


class TestQueue:
    def test_peek_shows_the_next_job_without_taking_it(self, scheduler):
        assert scheduler.queue.peek() is None
        first = scheduler.submit(POINT)
        second = scheduler.submit(OTHER_POINT)
        assert scheduler.queue.peek() is first
        assert first.status == "pending" and len(scheduler.queue) == 2
        assert scheduler.queue.pop() is first
        assert scheduler.queue.peek() is second


THIRD_POINT = {"purchase1": 52, "purchase2": 0, "feature": 12}


class TestBeginAhead:
    """On a process pool ``run_next`` begins the next queued job between the
    running job's land and combine. What happens to the job begun ahead is
    that job's business alone."""

    @pytest.fixture
    def pooled(self, serve_spec, process_executor) -> Scheduler:
        service = EvaluationService(
            serve_spec, executor=process_executor, shards=2, min_shard_worlds=1
        )
        return Scheduler(service)

    def test_inline_executors_and_empty_queues_begin_nothing(self, scheduler, pooled):
        for backend in (scheduler, pooled):
            begun = []
            backend.service.begin = lambda *a, **k: begun.append(a)
            backend.evaluate(POINT)  # one job: nothing queued behind it
            assert begun == []
        jobs = scheduler.submit_sweep([POINT, OTHER_POINT, THIRD_POINT], worlds=range(8))
        scheduler.run_pending()
        assert begun == [] and all(job.done for job in jobs)

    def test_a_begin_that_raises_fails_the_next_job_only(self, pooled):
        begin = pooled.service.begin

        def flaky_begin(point, **kwargs):
            if point == OTHER_POINT:
                raise RuntimeError("no segment to lease")
            return begin(point, **kwargs)

        pooled.service.begin = flaky_begin
        jobs = pooled.submit_sweep([POINT, OTHER_POINT, THIRD_POINT])
        assert pooled.run_next() is jobs[0]
        assert jobs[0].status == "done"  # its own evaluation never saw the error
        assert jobs[1].status == "pending"
        pooled.run_pending()
        assert [job.status for job in jobs] == ["done", "failed", "done"]
        assert isinstance(jobs[1].exception, RuntimeError)
        assert "no segment" in jobs[1].error
        assert jobs[1].attempts == 0 and pooled.jobs_retried == 0  # permanent: not retried

    def test_a_transient_begin_error_goes_up_the_next_jobs_retry_ladder(
        self, pooled, sequential_engine
    ):
        from repro.errors import TransientServeError

        begin = pooled.service.begin
        raised = []

        def flaky_begin(point, **kwargs):
            if point == OTHER_POINT and not raised:
                raised.append(point)
                raise TransientServeError("pool went away")
            return begin(point, **kwargs)

        pooled.service.begin = flaky_begin
        jobs = pooled.submit_sweep([POINT, OTHER_POINT])
        pooled.run_pending()
        assert [job.status for job in jobs] == ["done", "done"]
        assert jobs[1].attempts == 1 and pooled.jobs_retried == 1
        for job, point in zip(jobs, (POINT, OTHER_POINT)):
            assert_stats_identical(
                job.result.statistics, sequential_engine.evaluate_point(point).statistics
            )

    def test_a_transient_failure_landing_the_begun_job_is_retried_by_its_ladder(
        self, serve_spec, process_executor, sequential_engine
    ):
        """Job 2's first generation (begun behind job 1) fails every attempt
        with rescue off: landing it raises a transient error inside job 2,
        whose re-run begins afresh, draws new sequence numbers and succeeds."""
        from repro.serve import FaultPlan, FaultSpec, ResilienceConfig

        # Job 1 dispatches generations 0-1 (shards 0-3); job 2's first is 4-5.
        plan = FaultPlan(
            faults=tuple(FaultSpec(shard=s, kind="raise", attempts=99) for s in (4, 5))
        )
        service = EvaluationService(
            serve_spec,
            executor=process_executor,
            shards=2,
            min_shard_worlds=1,
            fault_plan=plan,
            resilience=ResilienceConfig(
                retry_backoff=0.0, shard_retries=0, inline_rescue=False, job_retries=1
            ),
        )
        pooled = Scheduler(service)
        jobs = pooled.submit_sweep([POINT, OTHER_POINT], reuse=False)
        assert pooled.run_next() is jobs[0]
        assert jobs[0].status == "done" and service.engine._begun is not None
        pooled.run_pending()
        assert jobs[1].status == "done" and jobs[1].attempts == 1
        assert pooled.jobs_retried == 1
        for job, point in zip(jobs, (POINT, OTHER_POINT)):
            assert_stats_identical(
                job.result.statistics,
                sequential_engine.evaluate_point(point, reuse=False).statistics,
            )

    def test_spans_opened_by_begin_carry_the_job_they_belong_to(self, pooled):
        from repro.obs.trace import Tracer

        tracer = Tracer()
        pooled.tracer = tracer
        pooled.service.set_tracer(tracer)
        jobs = pooled.submit_sweep([POINT, OTHER_POINT, THIRD_POINT], reuse=False)
        pooled.run_pending()
        job_spans = [s for s in tracer.spans if s.name == "job"]
        begin_spans = [s for s in tracer.spans if s.name == "begin"]
        assert [s.attrs["job"] for s in job_spans] == [job.id for job in jobs]
        assert [s.attrs["job"] for s in begin_spans] == [jobs[1].id, jobs[2].id]
        for begin, owner in zip(begin_spans, job_spans):
            # Opened inside the previous job's span, attributed to the next.
            assert owner.start <= begin.start
            assert begin.start + begin.duration <= owner.start + owner.duration
            assert begin.attrs["job"] != owner.attrs["job"]
        # The fan-out a begin started is the next job's too: its dispatch
        # span sits inside the begin span.
        dispatches = [s for s in tracer.spans if s.name == "dispatch"]
        assert any(
            begin.start <= d.start and d.start + d.duration <= begin.start + begin.duration
            for begin in begin_spans
            for d in dispatches
        )


class TestAbandonedSweep:
    def test_closing_mid_sweep_reclaims_the_begun_generation(self):
        """Two of five results consumed, then ``close()``: the third point
        was begun (its generation is leased and submitted) and nobody will
        collect it — ``close()`` reclaims the segment and the workers."""
        import multiprocessing
        import os
        import time

        from repro.api import ClientConfig, ProphetClient, SamplingConfig
        from repro.serve import shm_available
        from serve_testutil import SERVE_DSL

        client = (
            ProphetClient.open(
                SERVE_DSL,
                "demo",
                config=ClientConfig(sampling=SamplingConfig(n_worlds=16)),
            )
            .with_serving(executor="process", workers=2, shards=2)
            .with_transport(shard_transport="shm" if shm_available() else "pickle")
        )
        points = [dict(p) for p in client.scenario.sweep_space.grid()][::4][:5]
        handle = client.sweep(points, reuse=False)
        consumed = [next(handle), next(handle)]
        assert all(result.ok for result in consumed)
        before = client.stats().to_dict()["service"]
        if shm_available():
            assert before["segments_leased"] == before["segments_reclaimed"] + 1
        executor = client._service.executor
        workers = {executor.submit(os.getpid, lane=lane).result(timeout=30) for lane in (0, 1)}
        assert len(workers) == 2

        def alive():  # other tests' session-shared pool may have children too
            return workers & {child.pid for child in multiprocessing.active_children()}

        assert alive() == workers
        client.close()
        after = client.stats().to_dict()["service"]
        assert after["segments_leased"] == after["segments_reclaimed"]
        deadline = time.monotonic() + 5.0
        while alive() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not alive()
