"""Integration tests for the offline optimizer (§3.3)."""

import inspect

import numpy as np
import pytest

from repro.core.config import EngineConfig, SamplingConfig
from repro.core.engine import ProphetEngine
from repro.core.offline import ConstraintEvaluator, OfflineOptimizer
from repro.core.aggregator import ResultAggregator
from repro.errors import OptimizationError
from repro.models import build_risk_vs_cost
from repro.sqldb.parser import parse_expression

CONFIG = EngineConfig(sampling=SamplingConfig(n_worlds=16))


def make_optimizer(threshold=0.05, reuse_config=CONFIG):
    scenario, library = build_risk_vs_cost(purchase_step=16, overload_threshold=threshold)
    return OfflineOptimizer(ProphetEngine(scenario, library, reuse_config))


def stats_for(overload_values):
    matrix = np.tile(np.asarray(overload_values, dtype=float), (8, 1))
    return ResultAggregator(["overload"]).from_sample_matrices(
        {"overload": matrix}, range(len(overload_values))
    )


class TestConstraintEvaluator:
    def test_max_expect_under_threshold(self):
        stats = stats_for([0.0, 0.004, 0.002])
        evaluator = ConstraintEvaluator(stats)
        assert evaluator.evaluate(parse_expression("MAX(EXPECT overload) < 0.01")) is True
        assert evaluator.evaluate(parse_expression("MAX(EXPECT overload) < 0.001")) is False

    def test_min_avg_sum_reducers(self):
        stats = stats_for([0.1, 0.2, 0.3])
        evaluator = ConstraintEvaluator(stats)
        assert evaluator.evaluate(parse_expression("MIN(EXPECT overload) >= 0.09")) is True
        assert evaluator.evaluate(parse_expression("AVG(EXPECT overload) < 0.25")) is True
        assert evaluator.evaluate(parse_expression("SUM(EXPECT overload) > 0.5")) is True

    def test_boolean_combinations(self):
        stats = stats_for([0.1, 0.2])
        evaluator = ConstraintEvaluator(stats)
        expression = parse_expression(
            "MAX(EXPECT overload) < 0.5 AND MIN(EXPECT overload) > 0.05"
        )
        assert evaluator.evaluate(expression) is True

    def test_arithmetic_in_constraint(self):
        stats = stats_for([0.1, 0.3])
        evaluator = ConstraintEvaluator(stats)
        assert evaluator.evaluate(
            parse_expression("MAX(EXPECT overload) - MIN(EXPECT overload) < 0.25")
        ) is True

    def test_unreduced_series_rejected(self):
        evaluator = ConstraintEvaluator(stats_for([0.1]))
        with pytest.raises(OptimizationError, match="reduce"):
            evaluator.evaluate(parse_expression("EXPECT overload < 0.5"))

    def test_series_comparison_rejected(self):
        evaluator = ConstraintEvaluator(stats_for([0.1]))
        with pytest.raises(OptimizationError):
            evaluator.evaluate(parse_expression("EXPECT(overload)"))

    def test_unknown_function_rejected(self):
        evaluator = ConstraintEvaluator(stats_for([0.1]))
        with pytest.raises(OptimizationError, match="unsupported function"):
            evaluator.evaluate(parse_expression("MEDIAN(EXPECT overload) < 1"))


class TestOfflineOptimizer:
    def test_requires_optimize_spec(self):
        scenario, library = build_risk_vs_cost(purchase_step=16)
        object.__setattr__(scenario, "optimize", None) if False else None
        scenario.optimize = None
        with pytest.raises(OptimizationError, match="OPTIMIZE"):
            OfflineOptimizer(ProphetEngine(scenario, library, CONFIG))

    def test_signature_is_the_one_seam(self):
        parameters = inspect.signature(OfflineOptimizer.__init__).parameters.values()
        assert [(p.name, p.kind.name, p.default) for p in parameters] == [
            ("self", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
            ("engine", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
            ("evaluate", "KEYWORD_ONLY", None),
        ]

    def test_engine_for_other_scenario_rejected(self):
        # A driver reads its scenario from its engine, so a scenario that
        # disagrees with the engine cannot even be passed.
        scenario, library = build_risk_vs_cost(purchase_step=16)
        other_scenario, other_library = build_risk_vs_cost(purchase_step=16)
        engine = ProphetEngine(other_scenario, other_library, CONFIG)
        with pytest.raises(TypeError):
            OfflineOptimizer(scenario, library, engine=engine)
        assert OfflineOptimizer(engine).scenario is other_scenario

    def test_engine_config_conflict_rejected(self):
        # Likewise the config: there is no config= beside the engine's own.
        scenario, library = build_risk_vs_cost(purchase_step=16)
        engine = ProphetEngine(scenario, library, CONFIG)
        with pytest.raises(TypeError):
            OfflineOptimizer(
                engine, config=EngineConfig(sampling=SamplingConfig(n_worlds=5))
            )
        assert OfflineOptimizer(engine).engine.config is CONFIG

    def test_sweep_covers_grid(self):
        optimizer = make_optimizer()
        result = optimizer.run()
        assert result.points_evaluated == 4 * 4 * 3
        assert result.elapsed_seconds > 0

    def test_best_is_feasible_and_lexicographically_latest(self):
        optimizer = make_optimizer()
        result = optimizer.run()
        assert result.best is not None
        assert result.best.feasible
        best_p1 = result.best.point["purchase1"]
        best_p2 = result.best.point["purchase2"]
        for record in result.feasible_records:
            p1, p2 = record.point["purchase1"], record.point["purchase2"]
            assert (p1, p2) <= (best_p1, best_p2)

    def test_early_purchases_feasible_late_not(self):
        optimizer = make_optimizer()
        result = optimizer.run()
        by_point = {
            (r.point["purchase1"], r.point["purchase2"], r.point["feature"]): r
            for r in result.records
        }
        assert by_point[(0, 0, 12)].feasible
        assert not by_point[(48, 48, 12)].feasible

    def test_constraint_value_reported(self):
        optimizer = make_optimizer()
        result = optimizer.run()
        for record in result.records:
            assert record.constraint_value is not None
            assert 0.0 <= record.constraint_value <= 1.0

    def test_reuse_does_not_change_answer(self):
        with_reuse = make_optimizer().run(reuse=True)
        without = make_optimizer(
            reuse_config=EngineConfig(sampling=SamplingConfig(n_worlds=16))
        ).run(reuse=False)
        assert with_reuse.best.point == without.best.point
        # Feasibility decisions identical everywhere.
        left = {tuple(sorted(r.point.items())): r.feasible for r in with_reuse.records}
        right = {tuple(sorted(r.point.items())): r.feasible for r in without.records}
        assert left == right

    def test_reuse_saves_component_samples(self):
        with_reuse = make_optimizer().run(reuse=True)
        without = make_optimizer(
            reuse_config=EngineConfig(sampling=SamplingConfig(n_worlds=16))
        ).run(reuse=False)
        assert with_reuse.component_samples < without.component_samples / 2

    def test_source_counts_mostly_not_fresh(self):
        result = make_optimizer().run(reuse=True)
        counts = result.source_counts()
        assert counts["fresh"] <= 2
        assert counts["mapped"] + counts["exact"] >= result.points_evaluated - 2

    def test_progress_callback_invoked_per_point(self):
        optimizer = make_optimizer()
        seen = []
        optimizer.run(progress=seen.append)
        assert len(seen) == optimizer.scenario.space.grid_size(exclude=["current"])

    def test_infeasible_threshold_yields_no_best(self):
        optimizer = make_optimizer(threshold=-1.0)  # impossible
        result = optimizer.run()
        assert result.best is None
        with pytest.raises(OptimizationError, match="no feasible point"):
            result.best_point()

    def test_records_carry_reuse_summaries(self):
        result = make_optimizer().run(reuse=True)
        mapped = [r for r in result.records if r.dominant_source == "mapped"]
        assert mapped
        report = mapped[0].reuse[0]
        assert report.source in ("mapped", "exact", "fresh")
        assert report.vg_name and 0.0 <= report.mapped_fraction <= 1.0
