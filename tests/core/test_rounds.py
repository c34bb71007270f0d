"""The round protocol: RoundPlan ladder, CI stopping rule, PointEvaluator.

Pins the round contracts: world-prefix rounds are exact (the final round is
bitwise identical to one-shot evaluation, and the rounds' sample increments
fold exactly into the whole prefix's mergeable moments), the stopping rule
is a pure function of statistics, and the ci_halfwidth guard agrees with
the exact mergeable moments under any merge order.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregator import (
    AxisStatistics,
    MergeableAxisStats,
    MergeableMoments,
    SeriesStats,
)
from repro.api import ClientConfig
from repro.core.config import EngineConfig, SamplingConfig
from repro.core.engine import PointEvaluator, ProphetEngine
from repro.core.rounds import (
    ConvergenceTracker,
    RoundPlan,
    max_ci_halfwidth,
)
from repro.errors import ScenarioError
from repro.models import build_risk_vs_cost


def _stats(alias_values: dict[str, np.ndarray], n_worlds: int) -> AxisStatistics:
    """A minimal AxisStatistics with the given per-alias stddev rows."""
    series = {
        alias: SeriesStats(
            alias=alias,
            expectation=np.zeros_like(stddev),
            stddev=np.asarray(stddev, dtype=float),
            n_worlds=n_worlds,
        )
        for alias, stddev in alias_values.items()
    }
    first = next(iter(alias_values.values()))
    return AxisStatistics(
        axis_values=tuple(range(len(first))), series=series, n_worlds=n_worlds
    )


class TestRoundPlan:
    def test_passes_cover_increments(self):
        plan = RoundPlan(n_worlds=100, first=10, growth=2.0)
        assert plan.passes() == [
            range(0, 10),
            range(10, 30),
            range(30, 70),
            range(70, 100),
        ]

    def test_boundaries_are_prefix_stops(self):
        plan = RoundPlan(n_worlds=100, first=10, growth=2.0)
        assert plan.boundaries() == (10, 30, 70, 100)

    def test_boundaries_end_at_n_worlds(self):
        for n_worlds, first, growth in [(1, 1, 2.0), (7, 3, 1.5), (200, 25, 2.0)]:
            plan = RoundPlan(n_worlds=n_worlds, first=first, growth=growth)
            boundaries = plan.boundaries()
            assert boundaries[-1] == n_worlds
            assert list(boundaries) == sorted(set(boundaries))

    def test_stalling_ladder_grows_by_at_least_one_world(self):
        """``int(size * growth)`` truncates back to ``size`` for a small
        increment; the increment still grows by one world per round."""
        assert RoundPlan(n_worlds=20, first=1, growth=1.5).boundaries() == (
            1, 3, 6, 10, 16, 20,
        )
        for first, growth in [(1, 1.5), (2, 1.4), (3, 1.1)]:
            sizes = [len(r) for r in RoundPlan(400, first, growth).passes()]
            assert all(later > earlier for earlier, later in zip(sizes, sizes[1:-1]))
            assert len(sizes) < 30

    @given(
        n_worlds=st.integers(min_value=1, max_value=5000),
        first=st.integers(min_value=1, max_value=200),
        growth=st.floats(min_value=1.01, max_value=4.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_ladders_that_grow_keep_their_boundaries(self, n_worlds, first, growth):
        first = min(first, n_worlds)
        stops, start, size = [], 0, first
        while start < n_worlds:  # the truncating rule, where it does not stall
            start = min(start + size, n_worlds)
            stops.append(start)
            if start < n_worlds and int(size * growth) <= size:
                return
            size = int(size * growth)
        assert RoundPlan(n_worlds, first, growth).boundaries() == tuple(stops)

    def test_next_boundary_follows_ladder(self):
        plan = RoundPlan(n_worlds=100, first=10, growth=2.0)
        assert plan.next_boundary(0) == 10
        assert plan.next_boundary(10) == 30
        assert plan.next_boundary(15) == 30
        assert plan.next_boundary(70) == 100

    def test_next_boundary_grows_past_plan(self):
        plan = RoundPlan(n_worlds=100, first=10, growth=2.0)
        assert plan.next_boundary(100) == 200
        assert plan.next_boundary(150) == 300
        with pytest.raises(ScenarioError, match="current"):
            plan.next_boundary(-1)

    def test_validation(self):
        with pytest.raises(ScenarioError, match="n_worlds"):
            RoundPlan(n_worlds=0)
        with pytest.raises(ScenarioError, match="first pass"):
            RoundPlan(n_worlds=10, first=11)
        with pytest.raises(ScenarioError, match="growth"):
            RoundPlan(n_worlds=10, first=5, growth=1.0)

    def test_over_takes_class_defaults_and_caps_first(self):
        assert RoundPlan.over(200) == RoundPlan(n_worlds=200, first=25, growth=2.0)
        assert RoundPlan.over(16) == RoundPlan(n_worlds=16, first=16)
        assert RoundPlan.over(40, first=50, growth=3.0) == RoundPlan(40, 40, 3.0)


#: ``ClientConfig.round_plan().boundaries()`` as literals, for the four
#: ledger workloads' clients and the default client at three world counts:
#: a drifting default fails here by name.
LADDERS = {
    "grid_reuse": ({"sampling": {"n_worlds": 64}}, (25, 64)),
    "interactive_walk": (
        {"sampling": {"n_worlds": 400}},
        (25, 75, 175, 375, 400),
    ),
    "adaptive_rounds": (
        {"sampling": {"n_worlds": 400}, "adaptive": {"target_ci": 150.0, "min_worlds": 50}},
        (50, 150, 350, 400),
    ),
    "fresh_fanout": (
        {
            "sampling": {"n_worlds": 2000},
            "serve": {"executor": "process", "workers": 2, "shards": 2},
            "transport": {"shard_transport": "shm"},
        },
        (25, 75, 175, 375, 775, 1575, 2000),
    ),
    "default_16": ({"sampling": {"n_worlds": 16}}, (16,)),
    "default_24": ({"sampling": {"n_worlds": 24}}, (24,)),
    "default_200": ({"sampling": {"n_worlds": 200}}, (25, 75, 175, 200)),
}


@pytest.mark.parametrize("name", sorted(LADDERS))
def test_client_ladder_boundaries_are_pinned(name):
    mapping, boundaries = LADDERS[name]
    assert ClientConfig.from_mapping(mapping).round_plan().boundaries() == boundaries


class TestStoppingRule:
    def test_max_ci_is_worst_over_aliases_and_weeks(self):
        stats = _stats(
            {"a": np.array([1.0, 2.0]), "b": np.array([0.5, 3.0])}, n_worlds=4
        )
        # z * stddev / sqrt(n): worst series is b's 3.0.
        expected = 1.96 * 3.0 / math.sqrt(4)
        assert max_ci_halfwidth(stats) == pytest.approx(expected)

    def test_nonfinite_series_reports_inf(self):
        stats = _stats({"a": np.array([1.0, np.nan])}, n_worlds=4)
        assert max_ci_halfwidth(stats) == math.inf

    def test_single_world_reports_inf(self):
        stats = _stats({"a": np.array([0.0, 0.0])}, n_worlds=1)
        assert max_ci_halfwidth(stats) == math.inf

    def test_zero_spread_is_a_zero_halfwidth(self):
        stats = _stats({"a": np.array([0.0])}, n_worlds=16)
        assert max_ci_halfwidth(stats) == 0.0


class TestCiHalfwidthGuard:
    def test_zero_and_one_world_are_inf(self):
        for n_worlds in (0, 1):
            series = SeriesStats(
                alias="x",
                expectation=np.array([1.0, 2.0]),
                stddev=np.array([0.0, 0.0]),
                n_worlds=n_worlds,
            )
            assert np.isinf(series.ci_halfwidth()).all()

    def test_two_worlds_are_finite(self):
        series = SeriesStats(
            alias="x",
            expectation=np.array([1.0]),
            stddev=np.array([2.0]),
            n_worlds=2,
        )
        expected = 1.96 * 2.0 / math.sqrt(2)
        assert series.ci_halfwidth() == pytest.approx([expected])

    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=40,
        ),
        split=st.integers(min_value=0, max_value=40),
        swap=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_halfwidth_matches_mergeable_moments_any_merge_order(
        self, values, split, swap
    ):
        """ci_halfwidth equals z*sqrt(exact variance)/sqrt(n), and the exact
        variance is bit-identical under any partition / merge order."""
        split = min(split, len(values))
        left, right = MergeableMoments(), MergeableMoments()
        left.add_many(values[:split])
        right.add_many(values[split:])
        if swap:
            right.merge(left)
            merged = right
        else:
            left.merge(right)
            merged = left
        whole = MergeableMoments()
        whole.add_many(values)
        assert merged.variance() == whole.variance()  # bitwise, exact sums

        series = SeriesStats(
            alias="x",
            expectation=np.array([whole.mean]),
            stddev=np.array([whole.stddev()]),
            n_worlds=len(values),
        )
        expected = 1.96 * whole.stddev() / math.sqrt(len(values))
        assert float(series.ci_halfwidth()[0]) == pytest.approx(
            expected, rel=1e-12, abs=1e-300
        )


class TestCanonicalSpellings:
    def test_canonical_spellings_do_not_warn(self):
        import warnings

        import repro.core

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert repro.core.RoundPlan is RoundPlan
            assert repro.core.ConvergenceTracker is ConvergenceTracker


class TestConvergenceTracker:
    def test_delta_heuristic_still_works(self):
        tracker = ConvergenceTracker(tolerance=0.05)
        a = _stats({"x": np.array([0.0, 0.0])}, n_worlds=4)
        assert tracker.update(a) == math.inf
        assert not tracker.converged
        assert tracker.update(a) == 0.0
        assert tracker.converged
        tracker.reset()
        assert tracker.history == []


#: The ladder the evaluator tests step: 5, 15, 20 worlds.
PLAN = RoundPlan(n_worlds=20, first=5)


@pytest.fixture
def rounds_engine() -> ProphetEngine:
    scenario, library = build_risk_vs_cost(purchase_step=16)
    return ProphetEngine(
        scenario, library, EngineConfig(sampling=SamplingConfig(n_worlds=20))
    )


class TestPointEvaluator:
    POINT = {"purchase1": 0, "purchase2": 16, "feature": 12}

    def test_round_ladder_is_bitwise_exact(self, rounds_engine):
        evaluator = PointEvaluator(rounds_engine, self.POINT, plan=PLAN)
        final = evaluator.run()

        scenario, library = build_risk_vs_cost(purchase_step=16)
        fresh = ProphetEngine(
            scenario, library, EngineConfig(
                sampling=SamplingConfig(n_worlds=20),
            )
        )
        oneshot = fresh.evaluate_point(self.POINT, worlds=range(20))
        for alias in oneshot.statistics.aliases():
            assert (
                final.statistics.expectation(alias).tobytes()
                == oneshot.statistics.expectation(alias).tobytes()
            )
            assert (
                final.statistics.stddev(alias).tobytes()
                == oneshot.statistics.stddev(alias).tobytes()
            )

    def test_rounds_follow_plan_boundaries(self, rounds_engine):
        evaluator = PointEvaluator(rounds_engine, self.POINT, plan=PLAN)
        evaluator.run()
        boundaries = tuple(r.worlds_total for r in evaluator.rounds)
        assert boundaries == evaluator.plan.boundaries()
        assert evaluator.worlds_spent == 20
        assert evaluator.finished
        assert sum(r.worlds_added for r in evaluator.rounds) == 20

    def test_resumable_step_by_step(self, rounds_engine):
        evaluator = PointEvaluator(rounds_engine, self.POINT, plan=PLAN)
        first = evaluator.step()
        assert first.worlds_total == 5
        assert not evaluator.finished
        second = evaluator.step(prefix=12)  # explicit prefix, off-ladder
        assert second.worlds_total == 12
        assert second.worlds_added == 7
        with pytest.raises(ScenarioError, match="exceed"):
            evaluator.step(prefix=12)
        assert evaluator.step().worlds_total == 15  # back on the ladder
        assert evaluator.step().worlds_total == 20
        assert evaluator.worlds_spent == 20
        with pytest.raises(ScenarioError, match="exhausted"):
            evaluator.step()

    def test_converged_stops_early_and_refuses_more(self, rounds_engine):
        evaluator = PointEvaluator(rounds_engine, self.POINT, plan=PLAN, target_ci=1e12)
        evaluator.run()
        assert evaluator.converged
        assert evaluator.worlds_spent == 5  # first round already under target
        with pytest.raises(ScenarioError, match="converged"):
            evaluator.step()

    def test_unreachable_target_runs_full_budget(self, rounds_engine):
        evaluator = PointEvaluator(rounds_engine, self.POINT, plan=PLAN, target_ci=1e-12)
        evaluator.run()
        assert not evaluator.converged
        assert evaluator.worlds_spent == 20
        assert evaluator.max_ci > 1e-12

    def test_no_target_never_converges(self, rounds_engine):
        evaluator = PointEvaluator(rounds_engine, self.POINT, plan=PLAN)
        evaluator.run()
        assert not evaluator.converged and not evaluator.retired_early
        assert evaluator.worlds_spent == 20
        assert math.isfinite(evaluator.max_ci)

    def test_retired_early_is_convergence_inside_the_plan(self, rounds_engine):
        evaluator = PointEvaluator(rounds_engine, self.POINT, plan=PLAN, target_ci=1e12)
        evaluator.run()
        assert evaluator.converged and evaluator.retired_early
        beyond = PointEvaluator(rounds_engine, self.POINT, plan=PLAN, target_ci=1e-12)
        beyond.run()
        beyond.target_ci = 1e12  # the next round, past the plan, converges
        beyond.step(prefix=24)
        assert beyond.converged and not beyond.retired_early

    def test_failed_round_is_kept_on_the_evaluator(self, rounds_engine):
        def failing(request):
            if len(request.worlds) > 5:
                raise ValueError("round two cannot run")
            return rounds_engine.evaluate_point(request)

        evaluator = PointEvaluator(rounds_engine, self.POINT, plan=PLAN, evaluate=failing)
        assert not evaluator.failed
        evaluator.step()
        with pytest.raises(ValueError, match="round two"):
            evaluator.step()
        assert evaluator.failed and "round two" in str(evaluator.exception)
        assert evaluator.worlds_spent == 5 and len(evaluator.rounds) == 1

    @staticmethod
    def _fold(rounds) -> MergeableAxisStats:
        """Merge each round's sample increment ``[previous, worlds_total)``."""
        folded = None
        for completed in rounds:
            previous = completed.worlds_total - completed.worlds_added
            stats = MergeableAxisStats.from_matrices(
                {
                    alias: np.asarray(matrix)[previous : completed.worlds_total]
                    for alias, matrix in completed.evaluation.samples.items()
                }
            )
            if folded is None:
                folded = stats
            else:
                folded.merge(stats)
        return folded

    @staticmethod
    def _assert_moments_bitwise(actual: MergeableAxisStats, expected: MergeableAxisStats):
        assert actual.aliases == expected.aliases
        assert actual.n_weeks == expected.n_weeks
        for alias in expected.aliases:
            for week in range(expected.n_weeks):
                a, b = actual.moments(alias, week), expected.moments(alias, week)
                assert a.count == b.count
                assert a.mean == b.mean  # exact sums: bitwise equality
                assert a.variance() == b.variance()
                assert (a.minimum, a.maximum) == (b.minimum, b.maximum)

    def test_moments_accumulate_increments_exactly(self, rounds_engine):
        evaluator = PointEvaluator(rounds_engine, self.POINT, plan=PLAN)
        final = evaluator.run()
        folded = self._fold(evaluator.rounds)
        merged = folded.to_axis_statistics(final.statistics.axis_values)
        assert merged.n_worlds == 20
        # Sample matrices exist for the VG-sampled outputs (derived
        # expressions have none); the exactly merged increments must agree with
        # the SQL-produced statistics for every sampled alias.
        assert set(folded.aliases) == set(final.samples)
        for alias in folded.aliases:
            np.testing.assert_allclose(
                merged.expectation(alias),
                final.statistics.expectation(alias),
                rtol=1e-12,
            )
            np.testing.assert_allclose(
                merged.stddev(alias),
                final.statistics.stddev(alias),
                rtol=1e-9,
                atol=1e-12,
            )

    def test_merge_order_independence_of_increments(self, rounds_engine):
        """Exactly merging per-round increments equals one whole-prefix batch,
        off-ladder prefixes included."""
        evaluator = PointEvaluator(rounds_engine, self.POINT, plan=PLAN)
        evaluator.step()
        evaluator.step(prefix=12)  # explicit prefix, off-ladder
        partial = self._fold(evaluator.rounds)
        assert partial.moments("demand", 0).count == 12
        self._assert_moments_bitwise(
            partial, MergeableAxisStats.from_matrices(evaluator.result.samples)
        )
        final = evaluator.run()
        whole = MergeableAxisStats.from_matrices(
            {alias: np.asarray(matrix) for alias, matrix in final.samples.items()}
        )
        assert whole.moments("demand", 0).count == 20
        self._assert_moments_bitwise(self._fold(evaluator.rounds), whole)

    def test_rounds_without_samples_decide_from_statistics(self, rounds_engine):
        """A result-cache hit ships statistics without sample matrices: the
        round still counts, because stepping reads statistics only."""
        from dataclasses import replace

        calls = []

        def strip_second_round(request):
            evaluation = rounds_engine.evaluate_point(request)
            calls.append(len(request.worlds))
            return replace(evaluation, samples={}) if len(calls) == 2 else evaluation

        evaluator = PointEvaluator(
            rounds_engine, self.POINT, plan=PLAN, evaluate=strip_second_round
        )
        evaluator.run()
        assert calls == [5, 15, 20]
        assert [r.worlds_total for r in evaluator.rounds] == [5, 15, 20]
        assert not evaluator.rounds[1].evaluation.samples
        assert evaluator.result is not None and evaluator.worlds_spent == 20
