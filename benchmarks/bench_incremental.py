"""C1 — §3.2's headline claim: the first render pays full Monte Carlo cost;
a second slider adjustment re-renders only the changed portion of the graph.

Measures wall time, VG component-samples, and the re-rendered week fraction
for a cold render vs. a warm render after moving ``@purchase1``.
"""

import pytest

from conftest import report
from repro.core.engine import ProphetEngine
from repro.core.online import OnlineSession
from repro.models import build_risk_vs_cost


def make_warm_session(config):
    scenario, library = build_risk_vs_cost()
    session = OnlineSession(ProphetEngine(scenario, library, config))
    session.set_sliders({"purchase1": 8, "purchase2": 24, "feature": 12})
    session.refresh()
    return session


@pytest.mark.benchmark(group="C1-incremental")
def test_c1_cold_first_render(benchmark, fast_config):
    scenario, library = build_risk_vs_cost()

    def cold():
        session = OnlineSession(ProphetEngine(scenario, library, fast_config))
        session.set_sliders({"purchase1": 8, "purchase2": 24, "feature": 12})
        return session.refresh()

    view = benchmark.pedantic(cold, rounds=3, iterations=1)
    benchmark.extra_info["component_samples"] = view.component_samples
    assert view.refresh_fraction == 1.0


@pytest.mark.benchmark(group="C1-incremental")
def test_c1_warm_second_adjustment(benchmark, fast_config):
    moves = iter([12, 16, 4, 20, 12, 16, 4, 20])
    session = make_warm_session(fast_config)

    def warm():
        session.set_slider("purchase1", next(moves))
        return session.refresh()

    view = benchmark.pedantic(warm, rounds=4, iterations=1)
    benchmark.extra_info["component_samples"] = view.component_samples
    benchmark.extra_info["refresh_fraction"] = view.refresh_fraction
    assert view.refresh_fraction < 0.3


def test_c1_summary(benchmark, fast_config):
    """Side-by-side cold/warm comparison (the claim's shape)."""
    scenario, library = build_risk_vs_cost()
    session = OnlineSession(ProphetEngine(scenario, library, fast_config))
    session.set_sliders({"purchase1": 8, "purchase2": 24, "feature": 12})
    cold = session.refresh()

    def warm():
        session.set_slider("purchase1", 12)
        return session.refresh()

    warm_view = benchmark.pedantic(warm, rounds=1, iterations=1)
    speedup_samples = cold.component_samples / max(warm_view.component_samples, 1)
    report(
        "C1: cold render vs second adjustment (move @purchase1 8 -> 12)",
        [
            f"cold: {cold.elapsed_seconds * 1000:7.0f} ms, "
            f"{cold.component_samples:6d} component-samples, 100.0% re-rendered",
            f"warm: {warm_view.elapsed_seconds * 1000:7.0f} ms, "
            f"{warm_view.component_samples:6d} component-samples, "
            f"{warm_view.refresh_fraction:.1%} re-rendered",
            f"re-rendered weeks: {list(warm_view.refreshed_weeks)}",
            f"component-sample reduction: {speedup_samples:.1f}x",
            f"wall-time reduction: "
            f"{cold.elapsed_seconds / max(warm_view.elapsed_seconds, 1e-9):.1f}x",
        ],
    )
    assert speedup_samples > 4
    assert warm_view.elapsed_seconds < cold.elapsed_seconds
