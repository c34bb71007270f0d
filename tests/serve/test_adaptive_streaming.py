"""A streaming adaptive sweep streams: when each result leaves, as a count.

``AdaptiveSweepHandle`` hands over point *i* once its outcome is final. On
the round ladder that is after point *i*'s own rounds and its predecessors'
— not after everyone's last round — and these tests pin it with the
scheduler's job counter (every round is one job), so they read the same on
every host: result *i* has left when ``jobs_completed`` equals the rounds
of points ``0..i``. The configuration is the perf ledger's
``adaptive_rounds`` (Figure 2, 400 worlds, first round 50, doubling) on
every 64th grid point.
"""

from __future__ import annotations

import pytest

from repro.api.handles import AdaptiveSweepHandle
from repro.core.config import EngineConfig, SamplingConfig
from repro.core.rounds import RoundPlan
from repro.errors import ScenarioError
from repro.models.scenario_library import FIGURE2_DSL
from repro.serve import (
    EngineSpec,
    EvaluationService,
    FaultPlan,
    InlineExecutor,
    ProcessExecutor,
    ResilienceConfig,
    Scheduler,
)
from serve_testutil import assert_stats_identical

N_WORLDS = 400
PLAN = RoundPlan(n_worlds=N_WORLDS, first=50, growth=2.0)
STRIDE = 64
#: Every point converges on the ladder (the ledger's target and seed).
ALL_RETIRE = dict(base_seed=42, offset=0, target_ci=150.0)
#: Point 0 converges on the ladder's last round, point 1 exhausts the plan
#: unconverged and is extended with the budget the last point frees.
REALLOCATES = dict(base_seed=243, offset=9, target_ci=85.0)


def _open(base_seed, offset, target_ci, *, executor=None, **service_kwargs):
    """The scheduler and a not-yet-pumped handle over the reduced ledger sweep."""
    config = EngineConfig(sampling=SamplingConfig(n_worlds=N_WORLDS, base_seed=base_seed))
    service = EvaluationService(
        EngineSpec.from_dsl(FIGURE2_DSL, config=config),
        executor=executor or InlineExecutor(),
        resilience=ResilienceConfig(retry_backoff=0.0),
        **service_kwargs,
    )
    scheduler = Scheduler(service)
    grid = [dict(p) for p in service.scenario.sweep_space.grid()]
    sweep = scheduler.submit_adaptive(
        grid[offset::STRIDE], target_ci=target_ci, plan=PLAN
    )
    return scheduler, AdaptiveSweepHandle(scheduler, sweep)


def _assert_streams_by_count(scheduler, handle):
    """Result *i* leaves after exactly the round jobs of points ``0..i``
    (a failed point's one failing job included); returns the results."""
    jobs = 0
    for result in handle:
        jobs += result.rounds + (0 if result.ok else 1)
        assert scheduler.jobs_completed == jobs, f"result {result.index}"
    return handle.results


class TestLadderStreamsByCount:
    def test_first_result_leaves_after_its_own_rounds(self):
        scheduler, handle = _open(**ALL_RETIRE)
        first = next(handle)
        assert first.rounds == 3 and first.retired_early
        assert scheduler.jobs_completed == first.rounds
        # Nobody else has started: the sweep is one point in.
        assert [len(s.evaluator.rounds) for s in handle.sweep.states[1:]] == [0] * (
            len(handle) - 1
        )

    def test_every_result_leaves_after_the_rounds_so_far(self):
        scheduler, handle = _open(**ALL_RETIRE)
        results = _assert_streams_by_count(scheduler, handle)
        assert len(results) == len(handle) == 10
        assert all(r.ok and r.retired_early for r in results)
        assert not scheduler.advance_adaptive(handle.sweep)  # nothing left over

    def test_results_report_their_round_jobs_time(self):
        scheduler, handle = _open(**ALL_RETIRE)
        for result in handle.run():
            spent = [j.elapsed_seconds for j in scheduler.completed if j.point == result.point]
            assert len(spent) == result.rounds
            assert result.elapsed_seconds == sum(spent) > 0.0


class TestUnconvergedPointWaitsForReallocation:
    def test_yields_only_once_the_allocator_is_done(self):
        scheduler, handle = _open(**REALLOCATES)
        first = next(handle)
        assert first.worlds_spent == N_WORLDS and not first.retired_early
        assert scheduler.jobs_completed == first.rounds == len(PLAN.boundaries())
        # Point 1 spends the plan unconverged: its budget can grow until the
        # last reallocation round, so it leaves when the whole sweep has run.
        second = next(handle)
        assert handle.sweep.done and not scheduler.advance_adaptive(handle.sweep)
        assert second.worlds_spent > N_WORLDS
        total = scheduler.jobs_completed
        rest = list(handle)
        assert scheduler.jobs_completed == total  # the rest were waiting, decided
        assert total == sum(r.rounds for r in [first, second, *rest])
        assert any(r.retired_early for r in rest)  # whose budget point 1 spent


class TestFailedRoundYieldsInPlace:
    def test_error_leaves_at_once_and_successors_are_not_stalled(self):
        scheduler, handle = _open(**ALL_RETIRE)
        bad = handle.sweep.states[2].point
        evaluate = scheduler.service.evaluate

        def failing(point, **kwargs):
            if point == bad:
                raise ScenarioError("this point cannot be evaluated")
            return evaluate(point, **kwargs)

        scheduler.service.evaluate = failing
        results = _assert_streams_by_count(scheduler, handle)
        assert [r.ok for r in results] == [i != 2 for i in range(len(results))]
        assert results[2].rounds == 0 and "cannot be evaluated" in results[2].error
        with pytest.raises(ScenarioError, match="cannot be evaluated"):
            handle.raise_failures()


class TestStreamingUnderCrashes:
    def test_seeded_crash_plan_on_a_process_pool_keeps_count_and_bits(self):
        """Killed workers cost time, never the order or the answers: the
        ladder still hands over result *i* after the rounds of ``0..i``."""
        _, clean = _open(**ALL_RETIRE)
        expected = clean.run()
        executor = ProcessExecutor(2)
        try:
            scheduler, handle = _open(
                **ALL_RETIRE,
                executor=executor,
                shards=2,
                fault_plan=FaultPlan.seeded(28, shards=12, rate=0.3, kinds=("crash",)),
            )
            results = _assert_streams_by_count(scheduler, handle)
            stats = scheduler.service.stats
            assert stats.pool_rebuilds >= 1 and stats.shard_retries >= 1  # it hit
            assert scheduler.jobs_retried == 0
        finally:
            executor.shutdown()
        for actual, reference in zip(results, expected):
            assert actual.ok
            assert (actual.rounds, actual.worlds_spent) == (
                reference.rounds, reference.worlds_spent
            )
            assert_stats_identical(actual.statistics, reference.statistics)
