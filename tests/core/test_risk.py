"""Unit tests for the risk-metric layer."""

import numpy as np
import pytest

from repro.core.config import EngineConfig, SamplingConfig
from repro.core.engine import ProphetEngine
from repro.core.risk import (
    RiskAnalyzer,
    exceedance_probability,
    expected_shortfall,
    quantile_series,
    shortfall_probability,
)
from repro.errors import ScenarioError
from repro.models import build_risk_vs_cost

POINT = {"purchase1": 16, "purchase2": 32, "feature": 12}


@pytest.fixture(scope="module")
def evaluated():
    scenario, library = build_risk_vs_cost(purchase_step=16)
    engine = ProphetEngine(scenario, library, EngineConfig(sampling=SamplingConfig(n_worlds=30)))
    evaluation = engine.evaluate_point(POINT)
    return scenario, evaluation


class TestMetricFunctions:
    def test_quantile_series_shape_and_order(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(200, 5))
        p05 = quantile_series(matrix, 0.05)
        p50 = quantile_series(matrix, 0.5)
        p95 = quantile_series(matrix, 0.95)
        assert p05.shape == (5,)
        assert (p05 <= p50).all() and (p50 <= p95).all()

    def test_quantile_bounds_validated(self):
        with pytest.raises(ScenarioError):
            quantile_series(np.zeros((2, 2)), 1.5)

    def test_exceedance_and_shortfall_sum(self):
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(500, 3))
        above = exceedance_probability(matrix, 0.0)
        below = shortfall_probability(matrix, 0.0)
        # No exact zeros with continuous noise: the two must partition.
        assert above + below == pytest.approx(np.ones(3))

    def test_expected_shortfall_below_median(self):
        rng = np.random.default_rng(2)
        matrix = rng.normal(size=(400, 4))
        es = expected_shortfall(matrix, 0.1)
        median = quantile_series(matrix, 0.5)
        assert (es < median).all()

    def test_expected_shortfall_constant_matrix(self):
        matrix = np.full((10, 3), 7.0)
        assert expected_shortfall(matrix, 0.05) == pytest.approx([7.0, 7.0, 7.0])


class TestRiskAnalyzer:
    def test_vg_output_quantiles(self, evaluated):
        scenario, evaluation = evaluated
        analyzer = RiskAnalyzer(scenario)
        quantiles = analyzer.quantiles(evaluation, "demand")
        assert set(quantiles) == {0.05, 0.5, 0.95}
        assert (quantiles[0.05] <= quantiles[0.95]).all()

    def test_derived_output_matches_manual(self, evaluated):
        scenario, evaluation = evaluated
        analyzer = RiskAnalyzer(scenario)
        overload = analyzer.samples_for(evaluation, "overload")
        manual = (
            evaluation.samples["capacity"] < evaluation.samples["demand"]
        ).astype(float)
        assert overload == pytest.approx(manual)

    def test_derived_mean_matches_engine_statistics(self, evaluated):
        scenario, evaluation = evaluated
        analyzer = RiskAnalyzer(scenario)
        overload = analyzer.samples_for(evaluation, "overload")
        assert overload.mean(axis=0) == pytest.approx(
            evaluation.statistics.expectation("overload")
        )

    def test_summary_worst_week(self, evaluated):
        scenario, evaluation = evaluated
        analyzer = RiskAnalyzer(scenario)
        summary = analyzer.summary(evaluation, "overload")
        expectation = evaluation.statistics.expectation("overload")
        assert summary.worst_week == int(np.argmax(expectation))
        assert summary.worst_week_value == pytest.approx(
            float(expectation[summary.worst_week])
        )

    def test_summary_min_direction(self, evaluated):
        scenario, evaluation = evaluated
        analyzer = RiskAnalyzer(scenario)
        summary = analyzer.summary(evaluation, "capacity", worst="min")
        expectation = evaluation.statistics.expectation("capacity")
        assert summary.worst_week == int(np.argmin(expectation))

    def test_unknown_alias(self, evaluated):
        scenario, evaluation = evaluated
        with pytest.raises(ScenarioError, match="no output"):
            RiskAnalyzer(scenario).samples_for(evaluation, "bogus")

    def test_overload_run_lengths(self, evaluated):
        scenario, evaluation = evaluated
        analyzer = RiskAnalyzer(scenario)
        runs = analyzer.overload_run_lengths(evaluation)
        assert runs.shape == (evaluation.n_worlds,)
        assert (runs >= 0).all()
        overload = analyzer.samples_for(evaluation, "overload")
        # A world's longest run can't exceed its total overloaded weeks.
        assert (runs <= overload.sum(axis=1)).all()

    def test_run_lengths_synthetic(self):
        scenario, _ = build_risk_vs_cost(purchase_step=16)
        analyzer = RiskAnalyzer(scenario)
        from repro.core.engine import PointEvaluation, StageTimings
        from repro.core.aggregator import ResultAggregator

        capacity = np.array([[1.0, 1.0, 9.0, 1.0, 1.0]])
        demand = np.array([[2.0, 2.0, 2.0, 2.0, 0.0]])
        stats = ResultAggregator(["demand", "capacity"]).from_sample_matrices(
            {"demand": demand, "capacity": capacity}, range(5)
        )
        evaluation = PointEvaluation(
            point={"purchase1": 0, "purchase2": 0, "feature": 12},
            statistics=stats,
            samples={"demand": demand, "capacity": capacity},
            reuse_reports=(),
            timings=StageTimings(),
            n_worlds=1,
        )
        runs = analyzer.overload_run_lengths(evaluation)
        # overload pattern: 1 1 0 1 0 -> longest run 2.
        assert runs == pytest.approx([2.0])
