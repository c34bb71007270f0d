"""The scheduler's CI budget allocator, over the sharded serve backend.

Round = one shard generation: each adaptive round submits one scheduled
job whose world prefix runs through the same dispatcher and resilience
ladder as any fixed-budget evaluation. These tests pin the serve-side
contracts: budget conservation, early retirement accounting, chaos runs
(deterministic fault plans) leaving adaptive answers bitwise identical to
fault-free runs, and the ``shard_generations`` surface.
"""

from __future__ import annotations

import pytest

from repro.errors import ServeError
from repro.serve import (
    EvaluationService,
    FaultPlan,
    FaultSpec,
    InlineExecutor,
    ResilienceConfig,
    Scheduler,
)
from serve_testutil import POINT, assert_stats_identical

OTHER_POINT = {"purchase1": 26, "purchase2": 52, "feature": 36}


def _service(serve_spec, *, plan=None, **kwargs) -> EvaluationService:
    defaults = dict(executor=InlineExecutor(), shards=2, min_shard_worlds=1)
    defaults.update(kwargs)
    return EvaluationService(serve_spec, fault_plan=plan, **defaults)


@pytest.fixture
def scheduler(serve_spec) -> Scheduler:
    return Scheduler(_service(serve_spec))


class TestSubmitAdaptive:
    def test_budget_conservation_unreachable_target(self, scheduler):
        sweep = scheduler.submit_adaptive(
            [POINT, OTHER_POINT], target_ci=1e-12
        )
        scheduler.run_adaptive(sweep)
        assert sweep.done
        # Nothing converges, so reallocation spends the whole budget.
        assert sweep.worlds_spent == sweep.worlds_budgeted
        assert scheduler.jobs_retired_early == 0
        for state in sweep.states:
            assert not state.failed
            assert not state.evaluator.converged
            assert state.retired_early is False

    def test_early_retirement_frees_budget(self, scheduler):
        sweep = scheduler.submit_adaptive(
            [POINT, OTHER_POINT], target_ci=1e6  # trivially reachable
        )
        scheduler.run_adaptive(sweep)
        assert sweep.done
        assert scheduler.jobs_retired_early == 2
        assert sweep.worlds_spent < sweep.worlds_budgeted
        for state in sweep.states:
            assert state.evaluator.converged
            assert state.retired_early

    def test_rounds_flow_through_job_queue(self, scheduler):
        sweep = scheduler.submit_adaptive([POINT], target_ci=1e-12)
        scheduler.run_adaptive(sweep)
        rounds = len(sweep.states[0].evaluator.rounds)
        assert rounds >= 2  # the ladder actually ran in rounds
        assert scheduler.jobs_completed >= rounds  # one queued job per round

    def test_validation(self, scheduler):
        with pytest.raises(ServeError, match="target_ci"):
            scheduler.submit_adaptive([POINT], target_ci=0.0)
        with pytest.raises(ServeError, match="no points"):
            scheduler.submit_adaptive([], target_ci=1.0)

    def test_scheduler_carries_adaptive_counters(self, scheduler):
        sweep = scheduler.submit_adaptive([POINT], target_ci=1e6)
        scheduler.run_adaptive(sweep)
        assert scheduler.jobs_retired_early == 1
        assert scheduler.worlds_spent == sweep.worlds_spent
        assert scheduler.worlds_budgeted == sweep.worlds_budgeted

    def test_adaptive_report_lists_every_point(self, scheduler):
        sweep = scheduler.submit_adaptive(
            [POINT, OTHER_POINT], target_ci=1e6
        )
        scheduler.run_adaptive(sweep)
        report = scheduler.adaptive_report()
        assert report["target_ci"] == 1e6
        assert len(report["points"]) == 2
        for outcome in report["points"]:
            assert outcome["converged"]
            assert outcome["worlds_spent"] >= 1

    def test_adaptive_history_is_bounded_but_totals_are_not(self, serve_spec):
        scheduler = Scheduler(_service(serve_spec), history_limit=2)
        sweeps = []
        for purchase2 in (0, 26, 52):
            sweep = scheduler.submit_adaptive(
                [{**POINT, "purchase2": purchase2}], target_ci=1e6
            )
            sweeps.append(scheduler.run_adaptive(sweep))
        report = scheduler.adaptive_report()
        # The ring keeps only the newest sweeps (and their sample matrices)...
        assert [o["point"]["purchase2"] for o in report["points"]] == [26, 52]
        # ...while the counters stay running totals over all three.
        assert report["worlds_budgeted"] == sum(s.worlds_budgeted for s in sweeps)
        assert report["worlds_spent"] == sum(s.worlds_spent for s in sweeps)
        assert report["jobs_retired_early"] == 3


class TestShardGenerations:
    def test_one_generation_per_fresh_fanout(self, serve_spec):
        service = _service(serve_spec)
        scheduler = Scheduler(service)
        sweep = scheduler.submit_adaptive([POINT], target_ci=1e-12)
        scheduler.run_adaptive(sweep)
        generations = service.stats.shard_generations
        assert generations >= 1
        assert "shard_generations" in service.stats.as_dict()
        # A repeat of the same point is answered from the engine's caches:
        # no further fresh fan-out, no new generations.
        before = service.stats.shard_generations
        service.evaluate(POINT)
        assert service.stats.shard_generations == before


class TestAdaptiveUnderChaos:
    """Faults cost time, never answers — with adaptive sampling on too."""

    def _run(self, serve_spec, *, plan=None):
        service = EvaluationService(
            serve_spec,
            executor=InlineExecutor(),
            shards=4,
            min_shard_worlds=1,
            fault_plan=plan,
            resilience=ResilienceConfig(retry_backoff=0.0),
        )
        scheduler = Scheduler(service)
        sweep = scheduler.submit_adaptive(
            [POINT, OTHER_POINT], target_ci=1e-12
        )
        scheduler.run_adaptive(sweep)
        return service, sweep

    def test_chaos_run_bitwise_identical_to_fault_free(self, serve_spec):
        _, clean = self._run(serve_spec)
        plan = FaultPlan.seeded(11, shards=64, rate=0.4)
        faulty_service, faulty = self._run(serve_spec, plan=plan)
        assert faulty_service.stats.shard_retries > 0  # chaos actually hit
        for clean_state, faulty_state in zip(clean.states, faulty.states):
            assert not faulty_state.failed
            assert (
                faulty_state.evaluator.worlds_spent
                == clean_state.evaluator.worlds_spent
            )
            assert_stats_identical(
                faulty_state.evaluator.result.statistics,
                clean_state.evaluator.result.statistics,
            )

    def test_chaos_does_not_change_stopping_decisions(self, serve_spec):
        service = _service(serve_spec)
        scheduler = Scheduler(service)
        clean = scheduler.submit_adaptive([POINT], target_ci=1e6)
        scheduler.run_adaptive(clean)

        plan = FaultPlan(
            faults=(
                FaultSpec(shard=0, kind="raise", attempts=1),
                FaultSpec(shard=1, kind="garbage", attempts=1),
            )
        )
        faulty_service = EvaluationService(
            serve_spec,
            executor=InlineExecutor(),
            shards=2,
            min_shard_worlds=1,
            fault_plan=plan,
            resilience=ResilienceConfig(retry_backoff=0.0),
        )
        faulty_scheduler = Scheduler(faulty_service)
        faulty = faulty_scheduler.submit_adaptive([POINT], target_ci=1e6)
        faulty_scheduler.run_adaptive(faulty)

        assert faulty.states[0].retired_early == clean.states[0].retired_early
        assert (
            faulty.states[0].evaluator.worlds_spent
            == clean.states[0].evaluator.worlds_spent
        )
        assert (
            len(faulty.states[0].evaluator.rounds)
            == len(clean.states[0].evaluator.rounds)
        )
