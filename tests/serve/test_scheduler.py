"""Scheduler behavior: dedup, sweeps, session integration."""

from __future__ import annotations

import functools

import pytest

from repro.core.offline import OfflineOptimizer
from repro.core.online import OnlineSession
from repro.errors import ServeError
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
