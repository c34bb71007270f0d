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
    return Scheduler(EvaluationService(serve_spec, executor=InlineExecutor()))


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
        assert first.request.key != second.request.key

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

    def test_repeated_world_ids_are_rejected(self, scheduler):
        with pytest.raises(ScenarioError, match="ProphetEngine.request world id 2 repeats"):
            scheduler.submit(POINT, worlds=[1, 2, 2, 2])
        assert len(scheduler.queue) == 0

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
        service = EvaluationService(serve_spec, executor=InlineExecutor())
        scheduler = Scheduler(service, history_limit=2)
        for purchase2 in (0, 26, 52):
            scheduler.evaluate({"purchase1": 0, "purchase2": purchase2, "feature": 12},
                               worlds=range(4))
        assert scheduler.jobs_completed == 3
        assert len(scheduler.completed) == 2  # ring keeps only the newest


class TestQueue:
    def test_ahead_shows_the_next_jobs_without_taking_them(self, scheduler):
        assert scheduler.queue.ahead(2) == []
        first = scheduler.submit(POINT)
        second = scheduler.submit(OTHER_POINT)
        assert scheduler.queue.ahead(1) == [first]
        assert scheduler.queue.ahead(5) == [first, second]
        assert first.status == "pending" and len(scheduler.queue) == 2
        assert scheduler.queue.pop() is first
        assert scheduler.queue.ahead(2) == [second]


THIRD_POINT = {"purchase1": 52, "purchase2": 0, "feature": 12}


class TestStartAhead:
    """On a process pool ``run_next`` keeps two point tasks per worker in
    flight: it starts the tasks of the ``reuse=False`` jobs queued right
    behind the one it runs. What happens to a task started ahead is its
    job's business alone."""

    @pytest.fixture
    def pooled(self, serve_spec, process_executor) -> Scheduler:
        return Scheduler(EvaluationService(serve_spec, executor=process_executor))

    @staticmethod
    def _record_starts(scheduler) -> list:
        started = []
        start = scheduler.service.start

        def recording(request, **kwargs):
            started.append(dict(request.point))
            return start(request, **kwargs)

        scheduler.service.start = recording
        return started

    def test_inline_executors_and_reuse_jobs_start_nothing(self, scheduler, pooled):
        for backend in (scheduler, pooled):
            started = self._record_starts(backend)
            jobs = backend.submit_sweep([POINT, OTHER_POINT, THIRD_POINT], worlds=range(8))
            backend.run_pending()
            assert started == [] and all(job.done for job in jobs)
        fresh = scheduler.submit_sweep([POINT, OTHER_POINT], reuse=False)
        scheduler.run_pending()
        assert started == [] and all(job.done for job in fresh)

    def test_two_tasks_per_worker_in_flight_results_in_order(self, pooled, sequential_engine):
        started = self._record_starts(pooled)
        points = [
            POINT, OTHER_POINT, THIRD_POINT,
            {**POINT, "feature": 36}, {**OTHER_POINT, "feature": 12}, {**THIRD_POINT, "feature": 36},
        ]
        jobs = pooled.submit_sweep(points, reuse=False)
        assert pooled.run_next() is jobs[0]
        assert started == points[:4]  # two workers: this job's task and three behind
        assert pooled.run_next() is jobs[1]
        assert started == points[:5]
        assert pooled.run_pending() == jobs[2:]
        assert started == points and pooled._started == {}
        for job, point in zip(jobs, points):
            assert job.result.samples == {}
            assert_stats_identical(
                job.result.statistics,
                sequential_engine.evaluate_point(point, reuse=False).statistics,
            )
        assert pooled.service.stats.shard_tasks == len(points)
        assert pooled.service.stats.points_evaluated == len(points)

    def test_a_start_that_raises_fails_its_own_job_only(self, pooled):
        start = pooled.service.start

        def flaky_start(request, **kwargs):
            if request.point == OTHER_POINT:
                raise RuntimeError("no segment to lease")
            return start(request, **kwargs)

        pooled.service.start = flaky_start
        jobs = pooled.submit_sweep([POINT, OTHER_POINT, THIRD_POINT], reuse=False)
        assert pooled.run_next() is jobs[0]
        assert jobs[0].status == "done"  # its own evaluation never saw the error
        assert jobs[1].status == "pending"
        pooled.run_pending()
        assert [job.status for job in jobs] == ["done", "failed", "done"]
        assert isinstance(jobs[1].exception, RuntimeError)
        assert "no segment" in jobs[1].error

    def test_a_task_started_ahead_that_fails_is_rescued_in_its_job(
        self, serve_spec, process_executor, sequential_engine
    ):
        """Job 2's task (started behind job 1's, sequence number 1) fails
        every attempt: collecting it in job 2's turn walks the dispatcher's
        ladder to the inline rescue, and job 2 completes on its one run."""
        from repro.serve import FaultPlan, FaultSpec, ResilienceConfig

        service = EvaluationService(
            serve_spec,
            executor=process_executor,
            fault_plan=FaultPlan(faults=(FaultSpec(task=1, kind="raise", attempts=99),)),
            resilience=ResilienceConfig(retry_backoff=0.0, shard_retries=0),
        )
        pooled = Scheduler(service)
        jobs = pooled.submit_sweep([POINT, OTHER_POINT], reuse=False)
        assert pooled.run_next() is jobs[0]
        assert jobs[0].status == "done" and set(pooled._started) == {jobs[1].id}
        pooled.run_pending()
        assert jobs[1].status == "done" and service.stats.inline_rescues == 1
        assert service.stats.shard_tasks == 2
        for job, point in zip(jobs, (POINT, OTHER_POINT)):
            assert_stats_identical(
                job.result.statistics,
                sequential_engine.evaluate_point(point, reuse=False).statistics,
            )

    def test_tasks_started_ahead_are_dispatched_inside_the_running_job(self, pooled):
        from repro.obs.trace import Tracer

        tracer = Tracer()
        pooled.tracer = tracer
        pooled.service.set_tracer(tracer)
        jobs = pooled.submit_sweep([POINT, OTHER_POINT, THIRD_POINT], reuse=False)
        pooled.run_pending()
        job_spans = [s for s in tracer.spans if s.name == "job"]
        dispatches = [s for s in tracer.spans if s.name == "dispatch"]
        assert [s.attrs["job"] for s in job_spans] == [job.id for job in jobs]
        assert len(dispatches) == 3
        first = job_spans[0]
        for dispatch in dispatches:
            assert first.start <= dispatch.start <= first.start + first.duration


class TestAbandonedSweep:
    """Two of five results consumed, then ``close()``: the tasks started
    ahead are never collected, and ``close()`` still returns in bounded
    time, with every worker gone and every lease reclaimed."""

    @staticmethod
    def _client(n_worlds: int):
        from repro.api import ClientConfig, ProphetClient, SamplingConfig
        from repro.serve import shm_available
        from serve_testutil import SERVE_DSL

        return (
            ProphetClient.open(
                SERVE_DSL,
                "demo",
                config=ClientConfig(sampling=SamplingConfig(n_worlds=n_worlds)),
            )
            .with_serving(executor="process", workers=2)
            .with_transport(shard_transport="shm" if shm_available() else "pickle")
        )

    @staticmethod
    def _close_and_check(client, workers):
        import multiprocessing
        import time

        def alive():  # other tests' session-shared pool may have children too
            return workers & {child.pid for child in multiprocessing.active_children()}

        started = time.monotonic()
        client.close()
        assert time.monotonic() - started < 10.0
        after = client.stats().to_dict()["service"]
        assert after["segments_leased"] == after["segments_reclaimed"]
        deadline = time.monotonic() + 5.0
        while alive() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not alive()

    @staticmethod
    def _workers(client) -> set:
        executor = client._service.executor
        return {
            process.pid
            for lane in executor._lanes
            for process in (lane._processes or {}).values()
        }

    def test_closing_mid_sweep_reclaims_the_started_tasks(self):
        from repro.serve import shm_available

        client = self._client(16)
        points = [dict(p) for p in client.scenario.sweep_space.grid()][::4][:5]
        handle = client.sweep(points, reuse=False)
        consumed = [next(handle), next(handle)]
        assert all(result.ok for result in consumed)
        ahead = {entry.id for entry in handle._entries[2:]}
        assert set(client._scheduler._started) == ahead
        before = client.stats().to_dict()["service"]
        if shm_available():
            assert before["segments_leased"] == before["segments_reclaimed"] + len(ahead)
        workers = self._workers(client)
        assert len(workers) == 2
        self._close_and_check(client, workers)

    def test_closing_while_a_lane_is_still_warming_up(self):
        client = self._client(8000)
        client.engine  # builds the service: both lanes start warming up
        workers = self._workers(client)
        assert len(workers) == 2
        self._close_and_check(client, workers)
