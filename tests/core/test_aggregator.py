"""Unit tests for the Result Aggregator and convergence tracking."""

import math

import numpy as np
import pytest

from repro.errors import ScenarioError
from repro.core.aggregator import ResultAggregator, error_against_reference
from repro.core.rounds import ConvergenceTracker
from repro.sqldb.schema import Column, TableSchema
from repro.sqldb.table import ResultSet
from repro.sqldb.types import SqlType


def make_result(rows):
    schema = TableSchema(
        (
            Column("t", SqlType.INTEGER),
            Column("e_x", SqlType.FLOAT),
            Column("sd_x", SqlType.FLOAT),
        )
    )
    return ResultSet(schema=schema, rows=rows)


class TestResultAggregator:
    def test_from_aggregate_result(self):
        aggregator = ResultAggregator(["x"])
        result = make_result([(0, 1.0, 0.5), (1, 2.0, 0.25)])
        stats = aggregator.from_aggregate_result(result, n_worlds=16)
        assert stats.axis_values == (0, 1)
        assert stats.expectation("x") == pytest.approx([1.0, 2.0])
        assert stats.stddev("x") == pytest.approx([0.5, 0.25])
        assert stats.n_worlds == 16

    def test_none_becomes_nan(self):
        aggregator = ResultAggregator(["x"])
        stats = aggregator.from_aggregate_result(make_result([(0, None, None)]), 4)
        assert math.isnan(stats.expectation("x")[0])

    def test_unknown_alias_raises(self):
        aggregator = ResultAggregator(["x"])
        stats = aggregator.from_aggregate_result(make_result([(0, 1.0, 0.0)]), 4)
        with pytest.raises(ScenarioError):
            stats.expectation("nope")

    def test_max_min_expectation(self):
        aggregator = ResultAggregator(["x"])
        stats = aggregator.from_aggregate_result(
            make_result([(0, 1.0, 0.0), (1, 5.0, 0.0), (2, -2.0, 0.0)]), 4
        )
        assert stats.max_expectation("x") == 5.0
        assert stats.min_expectation("x") == -2.0

    def test_from_sample_matrices_matches_numpy(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(50, 4))
        aggregator = ResultAggregator(["m"])
        stats = aggregator.from_sample_matrices({"m": matrix}, axis_values=range(4))
        assert stats.expectation("m") == pytest.approx(matrix.mean(axis=0))
        assert stats.stddev("m") == pytest.approx(matrix.std(axis=0, ddof=1))

    def test_sql_and_matrix_paths_agree(self):
        """The SQL aggregation and numpy aggregation must coincide."""
        from repro.sqldb import Catalog, Executor

        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(30, 3))
        executor = Executor(Catalog())
        executor.execute("CREATE TABLE r (world INT, t INT, x FLOAT)")
        executor.catalog.table("r").insert_many(
            (w, t, float(matrix[w, t])) for w in range(30) for t in range(3)
        )
        result = executor.execute(
            "SELECT t, AVG(x) AS e_x, STDEV(x) AS sd_x FROM r GROUP BY t ORDER BY t"
        )
        sql_stats = ResultAggregator(["x"]).from_aggregate_result(result, 30)
        np_stats = ResultAggregator(["x"]).from_sample_matrices(
            {"x": matrix}, axis_values=range(3)
        )
        assert sql_stats.expectation("x") == pytest.approx(np_stats.expectation("x"))
        assert sql_stats.stddev("x") == pytest.approx(np_stats.stddev("x"))

    def test_ci_halfwidth_shrinks_with_worlds(self):
        aggregator = ResultAggregator(["x"])
        small = aggregator.from_sample_matrices({"x": np.ones((4, 2))}, range(2))
        series = small.series["x"]
        wide = series.ci_halfwidth()
        bigger = ResultAggregator(["x"]).from_sample_matrices(
            {"x": np.ones((400, 2))}, range(2)
        ).series["x"]
        assert (bigger.ci_halfwidth() <= wide).all()


class TestConvergenceTracker:
    def stats_with(self, values):
        return ResultAggregator(["x"]).from_sample_matrices(
            {"x": np.asarray(values, dtype=float)}, range(len(values[0]))
        )

    def test_first_update_is_infinite(self):
        tracker = ConvergenceTracker(tolerance=0.01)
        delta = tracker.update(self.stats_with([[1.0, 2.0], [1.0, 2.0]]))
        assert math.isinf(delta)
        assert not tracker.converged

    def test_converges_when_stable(self):
        tracker = ConvergenceTracker(tolerance=0.01)
        tracker.update(self.stats_with([[1.0, 2.0], [1.0, 2.0]]))
        tracker.update(self.stats_with([[1.0, 2.0], [1.0, 2.0]]))
        assert tracker.converged

    def test_detects_change(self):
        tracker = ConvergenceTracker(tolerance=0.01)
        tracker.update(self.stats_with([[1.0, 2.0], [1.0, 2.0]]))
        delta = tracker.update(self.stats_with([[2.0, 2.0], [2.0, 2.0]]))
        # Expectation moved from [1, 2] to [2, 2]: change 1.0, scale 2.0.
        assert delta == pytest.approx(0.5)
        assert not tracker.converged

    def test_reset(self):
        tracker = ConvergenceTracker()
        tracker.update(self.stats_with([[1.0], [1.0]]))
        tracker.reset()
        assert tracker.history == []


class TestErrorAgainstReference:
    def test_max_abs_error(self):
        a = ResultAggregator(["x"]).from_sample_matrices(
            {"x": np.array([[1.0, 2.0], [1.0, 2.0]])}, range(2)
        )
        b = ResultAggregator(["x"]).from_sample_matrices(
            {"x": np.array([[1.5, 2.0], [1.5, 2.0]])}, range(2)
        )
        assert error_against_reference(a, b, "x") == pytest.approx(0.5)

    def test_shape_mismatch(self):
        a = ResultAggregator(["x"]).from_sample_matrices({"x": np.ones((2, 2))}, range(2))
        b = ResultAggregator(["x"]).from_sample_matrices({"x": np.ones((2, 3))}, range(3))
        with pytest.raises(ScenarioError):
            error_against_reference(a, b, "x")
