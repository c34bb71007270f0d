"""The round protocol: RoundPlan ladder, CI stopping rule, PointEvaluator.

Pins the PR 8 contracts: world-prefix rounds are exact (the final round is
bitwise identical to one-shot evaluation), the stopping rule is a pure
function of statistics, and the ci_halfwidth
guard agrees with the exact mergeable moments under any merge order.
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
from repro.core.config import EngineConfig, SamplingConfig
from repro.core.engine import PointEvaluator, ProphetEngine
from repro.core.rounds import (
    ConvergenceTracker,
    RoundPlan,
    ci_converged,
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

    def test_ci_converged_none_target_never_converges(self):
        stats = _stats({"a": np.array([0.0])}, n_worlds=16)
        assert not ci_converged(stats, None)
        assert ci_converged(stats, 0.1)


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


@pytest.fixture
def rounds_engine() -> ProphetEngine:
    scenario, library = build_risk_vs_cost(purchase_step=16)
    return ProphetEngine(
        scenario, library, EngineConfig(sampling=SamplingConfig(n_worlds=20, refinement_first=5))
    )


class TestPointEvaluator:
    POINT = {"purchase1": 0, "purchase2": 16, "feature": 12}

    def test_round_ladder_is_bitwise_exact(self, rounds_engine):
        evaluator = PointEvaluator(rounds_engine, self.POINT)
        final = evaluator.run()

        scenario, library = build_risk_vs_cost(purchase_step=16)
        fresh = ProphetEngine(
            scenario, library, EngineConfig(
                sampling=SamplingConfig(n_worlds=20, refinement_first=5),
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
        evaluator = PointEvaluator(rounds_engine, self.POINT)
        evaluator.run()
        boundaries = tuple(r.worlds_total for r in evaluator.rounds)
        assert boundaries == evaluator.plan.boundaries()
        assert evaluator.worlds_spent == 20
        assert evaluator.finished
        assert sum(r.worlds_added for r in evaluator.rounds) == 20

    def test_resumable_step_by_step(self, rounds_engine):
        evaluator = PointEvaluator(rounds_engine, self.POINT)
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
        evaluator = PointEvaluator(rounds_engine, self.POINT, target_ci=1e12)
        evaluator.run()
        assert evaluator.converged
        assert evaluator.worlds_spent == 5  # first round already under target
        with pytest.raises(ScenarioError, match="converged"):
            evaluator.step()

    def test_unreachable_target_runs_full_budget(self, rounds_engine):
        evaluator = PointEvaluator(rounds_engine, self.POINT, target_ci=1e-12)
        evaluator.run()
        assert not evaluator.converged
        assert evaluator.worlds_spent == 20
        assert evaluator.max_ci > 1e-12

    def test_moments_accumulate_increments_exactly(self, rounds_engine):
        evaluator = PointEvaluator(rounds_engine, self.POINT)
        final = evaluator.run()
        assert evaluator.moments_complete
        assert evaluator.moments is not None
        merged = evaluator.moments.to_axis_statistics(
            final.statistics.axis_values
        )
        assert merged.n_worlds == 20
        # Sample matrices exist for the VG-sampled outputs (derived
        # expressions have none); the exactly merged increments must agree with
        # the SQL-produced statistics for every sampled alias.
        assert set(evaluator.moments.aliases) == set(final.samples)
        for alias in evaluator.moments.aliases:
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

    def test_moments_incomplete_when_samples_missing(self, rounds_engine):
        from dataclasses import replace

        def stripping_evaluate(point, *, worlds, reuse=True, sampler=None):
            evaluation = rounds_engine.evaluate_point(
                point, worlds=worlds, reuse=reuse
            )
            return replace(evaluation, samples={})

        evaluator = PointEvaluator(
            rounds_engine, self.POINT, evaluate=stripping_evaluate
        )
        evaluator.run()
        assert not evaluator.moments_complete
        assert evaluator.result is not None

    def test_merge_order_independence_of_increments(self, rounds_engine):
        """Exactly merging per-round increments equals one whole-prefix batch."""
        evaluator = PointEvaluator(rounds_engine, self.POINT)
        final = evaluator.run()
        whole = MergeableAxisStats.from_matrices(
            {
                alias: np.asarray(matrix)
                for alias, matrix in final.samples.items()
            }
        )
        assert evaluator.moments is not None
        for alias in whole.aliases:
            for week in range(whole.n_weeks):
                a = whole.moments(alias, week)
                b = evaluator.moments.moments(alias, week)
                assert a.count == b.count
                assert a.mean == b.mean  # exact sums: bitwise equality
                assert a.variance() == b.variance()

    @staticmethod
    def _eager_fold(rounds) -> MergeableAxisStats:
        """The reference: merge each round's increment as soon as it exists."""
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
                assert a.mean == b.mean
                assert a.variance() == b.variance()
                assert (a.minimum, a.maximum) == (b.minimum, b.maximum)

    def test_lazy_moments_equal_eager_fold_and_follow_new_rounds(self, rounds_engine):
        evaluator = PointEvaluator(rounds_engine, self.POINT)
        assert evaluator.moments is None  # nothing to fold before round 0
        assert evaluator.moments_complete
        evaluator.step()
        evaluator.step(prefix=12)  # explicit prefix, off-ladder
        first_read = evaluator.moments
        assert first_read.moments("demand", 0).count == 12
        self._assert_moments_bitwise(first_read, self._eager_fold(evaluator.rounds))
        assert evaluator.moments is first_read  # memoised between steps
        evaluator.step()
        evaluator.step()
        assert evaluator.moments.moments("demand", 0).count == 20
        self._assert_moments_bitwise(
            evaluator.moments, self._eager_fold(evaluator.rounds)
        )
        assert evaluator.moments_complete

    def test_middle_round_without_samples_leaves_partial_moments(self, rounds_engine):
        from dataclasses import replace

        calls = []

        def strip_second_round(point, *, worlds, reuse=True, sampler=None):
            evaluation = rounds_engine.evaluate_point(point, worlds=worlds, reuse=reuse)
            calls.append(len(worlds))
            return replace(evaluation, samples={}) if len(calls) == 2 else evaluation

        evaluator = PointEvaluator(
            rounds_engine, self.POINT, evaluate=strip_second_round
        )
        evaluator.run()
        assert calls == [5, 15, 20]
        assert evaluator.moments_complete is False
        # Rounds 0 and 2 contributed their increments; round 1's ten worlds
        # are missing from the (partial) moments.
        contributing = [r for r in evaluator.rounds if r.evaluation.samples]
        assert [r.index for r in contributing] == [0, 2]
        assert evaluator.moments.moments("demand", 0).count == 10
        self._assert_moments_bitwise(
            evaluator.moments, self._eager_fold(contributing)
        )
