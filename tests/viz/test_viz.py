"""Unit tests for the terminal visualization layer."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.viz import ChartConfig, render_chart, render_grid, render_sparkline, mapping_grid


class TestRenderChart:
    def test_renders_all_series_marks(self):
        text = render_chart(
            {"alpha": [0, 1, 2, 3], "beta": [3, 2, 1, 0]},
            title="demo",
        )
        assert "demo" in text
        assert "o alpha" in text and "* beta" in text
        assert "[0 .. 3]" in text

    def test_marks_appear_in_grid(self):
        text = render_chart({"s": [0.0, 10.0]}, ChartConfig(width=20, height=6))
        assert "o" in text

    def test_empty_series_rejected(self):
        with pytest.raises(ReproError):
            render_chart({})
        with pytest.raises(ReproError):
            render_chart({"x": []})

    def test_length_mismatch_rejected(self):
        with pytest.raises(ReproError, match="lengths differ"):
            render_chart({"a": [1, 2], "b": [1, 2, 3]})

    def test_nan_values_skipped(self):
        text = render_chart({"x": [1.0, float("nan"), 3.0]})
        assert "x" in text  # does not crash

    def test_config_validation(self):
        with pytest.raises(ReproError):
            ChartConfig(width=5)
        with pytest.raises(ReproError):
            ChartConfig(height=2)

    def test_constant_series_handled(self):
        text = render_chart({"flat": [5.0, 5.0, 5.0]})
        assert "flat" in text


class TestSparkline:
    def test_length_capped_at_width(self):
        line = render_sparkline(np.linspace(0, 1, 200), width=40)
        assert len(line) == 40

    def test_short_series_kept(self):
        line = render_sparkline([1.0, 2.0, 3.0], width=40)
        assert len(line) == 3

    def test_monotone_levels(self):
        line = render_sparkline([0.0, 0.5, 1.0], width=10)
        assert line[0] <= line[1] <= line[2]

    def test_all_nan(self):
        assert render_sparkline([float("nan")] * 3) == "   "


class TestMappingGrid:
    def make_records(self):
        from repro.core.config import EngineConfig, SamplingConfig
        from repro.core.engine import ProphetEngine
        from repro.core.offline import OfflineOptimizer
        from repro.models import build_risk_vs_cost

        scenario, library = build_risk_vs_cost(purchase_step=26)  # 3x3x3 grid
        config = EngineConfig(sampling=SamplingConfig(n_worlds=8))
        optimizer = OfflineOptimizer(ProphetEngine(scenario, library, config))
        result = optimizer.run(reuse=True)
        return result.records, scenario.space

    def test_grid_slice_counts(self):
        records, space = self.make_records()
        grid = mapping_grid(records, space, "purchase1", "purchase2", fixed={"feature": 12})
        counts = grid.counts()
        assert counts["F"] + counts["M"] + counts["E"] == 9
        assert counts["."] == 0

    def test_only_one_fresh_cell(self):
        records, space = self.make_records()
        grid = mapping_grid(records, space, "purchase1", "purchase2", fixed={"feature": 12})
        assert grid.counts()["F"] <= 1

    def test_cell_lookup(self):
        records, space = self.make_records()
        grid = mapping_grid(records, space, "purchase1", "purchase2", fixed={"feature": 12})
        assert grid.cell(0, 0) in ("F", "M", "E")

    def test_render_contains_axes_and_legend(self):
        records, space = self.make_records()
        grid = mapping_grid(records, space, "purchase1", "purchase2", fixed={"feature": 12})
        text = render_grid(grid, title="figure 4")
        assert "figure 4" in text
        assert "@purchase1" in text and "@purchase2" in text
        assert "F=fresh" in text

    def test_unvisited_cells_dotted(self):
        records, space = self.make_records()
        # Pin feature to a value that only matches a third of the records.
        grid = mapping_grid(records[:3], space, "purchase1", "purchase2", fixed={"feature": 12})
        assert grid.counts()["."] > 0

    def test_empty_records_rejected(self):
        from repro.models import build_risk_vs_cost

        scenario, _ = build_risk_vs_cost()
        with pytest.raises(ReproError):
            mapping_grid([], scenario.space, "purchase1", "purchase2")
