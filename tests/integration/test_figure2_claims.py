"""End-to-end tests of the paper's demonstration claims (§3).

The benchmark suite measures the same claims quantitatively; these tests pin
the qualitative shape so regressions fail fast.
"""

import numpy as np
import pytest

from repro.core.config import EngineConfig, SamplingConfig
from repro.core.engine import ProphetEngine
from repro.core.offline import OfflineOptimizer
from repro.core.online import OnlineSession
from repro.core.rounds import RoundPlan
from repro.dsl import parse_scenario
from repro.models import FIGURE2_DSL, build_demo_library, build_risk_vs_cost
from repro.viz import mapping_grid

CONFIG = EngineConfig(sampling=SamplingConfig(n_worlds=24))
#: C5's progressive ladder: a 6-world first guess, then 18 and 24.
PLAN = RoundPlan(n_worlds=24, first=6)


@pytest.fixture(scope="module")
def dsl_session():
    scenario = parse_scenario(FIGURE2_DSL, name="risk_vs_cost")
    session = OnlineSession(ProphetEngine(scenario, build_demo_library(), CONFIG))
    session.set_sliders({"purchase1": 8, "purchase2": 24, "feature": 12})
    return session


class TestF2VerbatimScenario:
    """F2: the verbatim Figure 2 program runs end to end."""

    def test_online_graph_from_dsl(self, dsl_session):
        view = dsl_session.refresh()
        series = dsl_session.graph_series(view)
        assert set(series) == {"E[overload]", "E[capacity]", "SD[demand]"}

    def test_overload_rises_over_the_year(self, dsl_session):
        """The demo's story: late in the year, without enough purchases,
        overload risk grows."""
        session = dsl_session
        session.set_sliders({"purchase1": 48, "purchase2": 52, "feature": 12})
        view = session.refresh()
        overload = view.statistics.expectation("overload")
        assert overload[:6].mean() < 0.1  # year starts safe
        assert overload[45:].mean() > 0.5  # ends risky without hardware


class TestC1IncrementalRerender:
    """C1 (§3.2): the second slider adjustment re-renders only changed weeks."""

    def test_purchase_slider_move(self):
        scenario, library = build_risk_vs_cost()
        session = OnlineSession(ProphetEngine(scenario, library, CONFIG))
        session.set_sliders({"purchase1": 8, "purchase2": 24, "feature": 12})
        first = session.refresh()
        session.set_slider("purchase1", 12)
        second = session.refresh()
        assert first.refresh_fraction == 1.0
        assert second.refresh_fraction < 0.25
        assert second.component_samples < first.component_samples / 4

    def test_statistics_remain_correct_under_reuse(self):
        scenario, library = build_risk_vs_cost()
        session = OnlineSession(ProphetEngine(scenario, library, CONFIG))
        session.set_sliders({"purchase1": 8, "purchase2": 24, "feature": 12})
        session.refresh()
        session.set_slider("purchase1", 12)
        reused = session.refresh()

        scenario2, library2 = build_risk_vs_cost()
        cold = OnlineSession(ProphetEngine(scenario2, library2, CONFIG))
        cold.set_sliders({"purchase1": 12, "purchase2": 24, "feature": 12})
        fresh = cold.refresh()
        for alias in ("demand", "capacity", "overload"):
            assert reused.statistics.expectation(alias) == pytest.approx(
                fresh.statistics.expectation(alias), abs=1e-6
            )


class TestC2FeatureShift:
    """C2 (§3.2): feature-date moves remap most weeks despite slope change."""

    def test_tail_weeks_reused(self):
        scenario, library = build_risk_vs_cost()
        session = OnlineSession(ProphetEngine(scenario, library, CONFIG))
        session.set_sliders({"purchase1": 8, "purchase2": 24, "feature": 12})
        session.refresh()
        session.set_slider("feature", 36)
        view = session.refresh()
        # Only the weeks between the two dates are recomputed.
        assert set(view.refreshed_weeks) <= set(range(12, 36))
        assert view.refresh_fraction <= (36 - 12) / 53 + 0.01


class TestC3C4Optimizer:
    """C3/C4 (§3.3): fingerprints cut sweep cost without changing the answer."""

    @pytest.fixture(scope="class")
    def results(self):
        def run(reuse):
            scenario, library = build_risk_vs_cost(purchase_step=16)
            config = EngineConfig(sampling=SamplingConfig(n_worlds=16))
            return OfflineOptimizer(ProphetEngine(scenario, library, config)).run(reuse=reuse)

        return run(True), run(False)

    def test_same_best_point(self, results):
        with_reuse, without = results
        assert with_reuse.best.point == without.best.point

    def test_reuse_saves_simulation(self, results):
        with_reuse, without = results
        assert with_reuse.component_samples < without.component_samples / 2

    def test_best_is_latest_feasible(self, results):
        with_reuse, _ = results
        best = with_reuse.best.point
        for record in with_reuse.feasible_records:
            assert (record.point["purchase1"], record.point["purchase2"]) <= (
                best["purchase1"],
                best["purchase2"],
            )


class TestF4MappingGrid:
    """F4: the exploration grid is dominated by mapped cells."""

    def test_mapped_cells_dominate(self):
        scenario, library = build_risk_vs_cost(purchase_step=16)
        config = EngineConfig(sampling=SamplingConfig(n_worlds=12))
        optimizer = OfflineOptimizer(ProphetEngine(scenario, library, config))
        result = optimizer.run(reuse=True)
        grid = mapping_grid(
            result.records, scenario.space, "purchase1", "purchase2",
            fixed={"feature": 12},
        )
        counts = grid.counts()
        total = counts["F"] + counts["M"] + counts["E"]
        assert total == 16
        assert counts["F"] <= 1
        assert counts["M"] + counts["E"] >= 15


class TestC5FirstGuess:
    """C5: basis reuse lowers the work to the first accurate estimate."""

    def test_fewer_samples_to_convergence_with_basis(self):
        scenario, library = build_risk_vs_cost()
        session = OnlineSession(ProphetEngine(scenario, library, CONFIG), plan=PLAN)
        session.set_sliders({"purchase1": 8, "purchase2": 24, "feature": 12})
        session.refresh_progressive()

        # Move one slider; progressive refinement now starts from bases.
        samples_before = session.engine.component_sample_count()
        session.set_slider("purchase1", 12)
        session.refresh_progressive()
        warm_cost = session.engine.component_sample_count() - samples_before

        scenario2, library2 = build_risk_vs_cost()
        cold_session = OnlineSession(
            ProphetEngine(scenario2, library2, CONFIG), plan=PLAN
        )
        cold_session.set_sliders({"purchase1": 12, "purchase2": 24, "feature": 12})
        cold_before = cold_session.engine.component_sample_count()
        cold_session.refresh_progressive()
        cold_cost = cold_session.engine.component_sample_count() - cold_before

        assert warm_cost < cold_cost / 2


class TestModelUpdatePropagation:
    """§3.1: updating a model definition updates every scenario using it."""

    def test_replace_model_changes_results(self):
        from repro.models import DemandModel

        scenario, library = build_risk_vs_cost(purchase_step=16)
        engine = ProphetEngine(scenario, library, CONFIG)
        before = engine.evaluate_point(
            {"purchase1": 16, "purchase2": 32, "feature": 12}
        ).statistics.expectation("demand")

        # The analyst improves the demand model in one place.
        library.register(DemandModel(base=6000.0), replace=True)
        from repro.sqldb.pdbext import register_vg_function

        register_vg_function(engine.catalog, library.get("DemandModel"), replace=True)
        engine.storage.clear()
        engine.registry.clear()
        engine._stats_cache.clear()
        after = engine.evaluate_point(
            {"purchase1": 16, "purchase2": 32, "feature": 12}
        ).statistics.expectation("demand")
        assert np.nanmean(after) > np.nanmean(before) + 500
