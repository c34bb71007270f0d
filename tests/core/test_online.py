"""Integration tests for the online exploration session (§3.2)."""

import inspect

import pytest

from repro.core.config import EngineConfig, SamplingConfig
from repro.core.engine import ProphetEngine
from repro.core.online import OnlineSession
from repro.core.rounds import RoundPlan
from repro.errors import OnlineSessionError
from repro.models import build_risk_vs_cost

CONFIG = EngineConfig(sampling=SamplingConfig(n_worlds=20))
PLAN = RoundPlan(n_worlds=20, first=5)


@pytest.fixture
def session():
    scenario, library = build_risk_vs_cost(purchase_step=16)
    return OnlineSession(ProphetEngine(scenario, library, CONFIG), plan=PLAN)


def test_signature_is_the_one_seam():
    parameters = inspect.signature(OnlineSession.__init__).parameters.values()
    assert [(p.name, p.kind.name, p.default) for p in parameters] == [
        ("self", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
        ("engine", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
        ("evaluate", "KEYWORD_ONLY", None),
        ("neighbor_depth", "KEYWORD_ONLY", 1),
        ("plan", "KEYWORD_ONLY", None),
    ]


class TestSliders:
    def test_defaults_to_first_domain_values(self, session):
        assert session.sliders == {"purchase1": 0, "purchase2": 0, "feature": 12}

    def test_set_slider_validates_domain(self, session):
        with pytest.raises(OnlineSessionError, match="not in domain"):
            session.set_slider("purchase1", 3)

    def test_axis_is_not_a_slider(self, session):
        with pytest.raises(OnlineSessionError, match="graph axis"):
            session.set_slider("current", 5)

    def test_set_sliders_bulk(self, session):
        session.set_sliders({"purchase1": 16, "feature": 36})
        assert session.sliders["purchase1"] == 16
        assert session.sliders["feature"] == 36

    def test_sliders_returns_copy(self, session):
        sliders = session.sliders
        sliders["purchase1"] = 999
        assert session.sliders["purchase1"] == 0


class TestRefresh:
    def test_first_refresh_is_fresh_full_render(self, session):
        view = session.refresh()
        assert view.refresh_fraction == 1.0
        assert view.n_worlds == 20
        assert len(view.statistics.axis_values) == 53
        assert len(session.log) == 1

    def test_second_adjustment_rerenders_only_changed_weeks(self, session):
        session.set_sliders({"purchase1": 16, "purchase2": 32})
        session.refresh()
        session.set_slider("purchase1", 32)
        view = session.refresh()
        # The demo's headline claim: a small refresh fraction.
        assert 0 < view.refresh_fraction < 0.5
        # Exactly the two moved arrival windows (pinned: the week sets come
        # from the acquisition's own report, not a re-correlation).
        assert view.refreshed_weeks == (18, 19, 34, 35)
        assert view.reused_weeks == tuple(
            week for week in range(53) if week not in (18, 19, 34, 35)
        )

    def test_refreshed_weeks_near_purchase_window(self, session):
        session.set_sliders({"purchase1": 16, "purchase2": 48})
        session.refresh()
        session.set_slider("purchase1", 32)
        view = session.refresh()
        # Changed weeks lie in the arrival windows of weeks 16.. and 32..
        for week in view.refreshed_weeks:
            assert 16 <= week <= 32 + 5
        assert view.refreshed_weeks == (18, 19, 34, 35)

    def test_feature_change_remaps_tail_despite_slope_change(self, session):
        session.set_sliders({"purchase1": 16, "purchase2": 32, "feature": 12})
        session.refresh()
        session.set_slider("feature", 36)
        view = session.refresh()
        # Weeks outside [12, 36) are reused (identity before, shift after).
        refreshed = set(view.refreshed_weeks)
        assert all(12 <= week < 36 for week in refreshed)
        assert view.refreshed_weeks == tuple(range(12, 36))
        assert view.reused_weeks == tuple(range(12)) + tuple(range(36, 53))

    def test_second_refresh_is_cheaper(self, session):
        session.set_sliders({"purchase1": 16, "purchase2": 32})
        first = session.refresh()
        session.set_slider("purchase1", 32)
        second = session.refresh()
        assert second.component_samples < first.component_samples / 2

    def test_graph_series_follow_directive(self, session):
        view = session.refresh()
        series = session.graph_series(view)
        assert set(series) == {"E[overload]", "E[capacity]", "SD[demand]"}
        assert all(len(values) == 53 for values in series.values())


class TestProgressiveRefinement:
    def test_passes_grow_and_converge(self, session):
        views = session.refresh_progressive()
        assert len(views) >= 1
        worlds = [view.n_worlds for view in views]
        assert worlds == sorted(worlds)
        assert worlds[-1] <= CONFIG.sampling.n_worlds

    def test_first_guess_uses_few_worlds(self, session):
        views = session.refresh_progressive()
        assert views[0].n_worlds == PLAN.first

    def test_tracker_records_history(self, session):
        session.refresh_progressive()
        assert len(session.tracker.history) >= 1


class TestProactiveExploration:
    def test_explores_neighbors(self, session):
        session.set_sliders({"purchase1": 16, "purchase2": 32})
        session.refresh()
        explored = session.explore_proactively()
        # purchase1/purchase2 are interior (2 neighbors each); feature=12 is
        # the first SET value (1 neighbor): 2 + 2 + 1.
        assert explored == 5

    def test_max_points_cap(self, session):
        session.refresh()
        assert session.explore_proactively(max_points=2) == 2

    def test_neighbor_move_after_exploration_is_cheap(self, session):
        session.set_sliders({"purchase1": 16, "purchase2": 32})
        session.refresh()
        session.explore_proactively()
        samples_before = session.engine.component_sample_count()
        session.set_slider("purchase1", 32)
        session.refresh()
        used = session.engine.component_sample_count() - samples_before
        # The neighbor was pre-explored at coarse depth; the full refresh
        # extends worlds but reuses heavily.
        assert used < 2 * 20 * 53


class TestRefreshFraction:
    def test_empty_view_reports_zero_not_full_refresh(self):
        """Regression: a view with no refreshed and no reused weeks (e.g. a
        cache-served evaluation carrying no week sets) used to report a
        100% refresh, inflating aggregate refresh-cost metrics."""
        from repro.core.online import GraphView

        view = GraphView(
            point={},
            statistics=None,
            refreshed_weeks=(),
            reused_weeks=(),
            elapsed_seconds=0.0,
            n_worlds=0,
            vg_invocations=0,
            component_samples=0,
        )
        assert view.refresh_fraction == 0.0

    def test_partial_view_fraction_unchanged(self):
        from repro.core.online import GraphView

        view = GraphView(
            point={},
            statistics=None,
            refreshed_weeks=(0, 1),
            reused_weeks=(2, 3, 4, 5),
            elapsed_seconds=0.0,
            n_worlds=4,
            vg_invocations=0,
            component_samples=0,
        )
        assert view.refresh_fraction == pytest.approx(2 / 6)
