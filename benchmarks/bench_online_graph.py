"""F3 — regenerate the Figure 3 online graph.

Figure 3 shows, over the week axis: the chance of overload (bold red), the
expected capacity (blue, y2), and the demand standard deviation (orange,
y2). This bench regenerates the three series for the demo's slider position
and checks their paper shape: overload risk grows late in the year when
purchases are late; capacity steps up at arrivals and sags with failures.
"""

import numpy as np
import pytest

from conftest import report
from repro.core.engine import ProphetEngine
from repro.core.online import OnlineSession
from repro.models import build_risk_vs_cost
from repro.viz import render_sparkline


@pytest.mark.benchmark(group="F3-online-graph")
def test_f3_regenerate_graph_series(benchmark, fast_config):
    scenario, library = build_risk_vs_cost()

    def render():
        session = OnlineSession(ProphetEngine(scenario, library, fast_config))
        session.set_sliders({"purchase1": 20, "purchase2": 40, "feature": 12})
        view = session.refresh()
        return session, view

    session, view = benchmark.pedantic(render, rounds=3, iterations=1)
    series = session.graph_series(view)
    overload = series["E[overload]"]
    capacity = series["E[capacity]"]
    demand_sd = series["SD[demand]"]

    report(
        "F3: Figure-3 series (purchase1=20, purchase2=40, feature=12)",
        [
            f"E[overload]  {render_sparkline(overload)}",
            f"E[capacity]  {render_sparkline(capacity)}",
            f"SD[demand]   {render_sparkline(demand_sd)}",
            f"max P(overload) = {np.nanmax(overload):.3f} at week "
            f"{int(np.nanargmax(overload))}",
        ],
    )

    # Paper shape: the year starts safe; risk appears before the purchases
    # deploy; capacity jumps after each arrival.
    assert np.nanmax(overload[:5]) < 0.05
    assert np.nanmax(overload) > 0.1
    arrival_jump = capacity[27] - capacity[18]
    assert arrival_jump > 500  # first purchase (week 20 + lag) landed
    assert ((overload >= 0) & (overload <= 1)).all()
    assert (demand_sd > 0).all()


@pytest.mark.benchmark(group="F3-online-graph")
def test_f3_risk_monotone_in_purchase_delay(benchmark, fast_config):
    """Later purchases -> strictly more year-max overload risk (the demo's
    slider intuition)."""
    scenario, library = build_risk_vs_cost()
    session = OnlineSession(ProphetEngine(scenario, library, fast_config))

    def sweep():
        risks = []
        for purchase in (0, 16, 32, 48):
            session.set_sliders(
                {"purchase1": purchase, "purchase2": 48, "feature": 12}
            )
            view = session.refresh()
            risks.append(float(np.nanmax(view.statistics.expectation("overload"))))
        return risks

    risks = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "F3: year-max P(overload) vs purchase1 week (purchase2=48)",
        [f"purchase1={p:2d}: {r:.3f}" for p, r in zip((0, 16, 32, 48), risks)],
    )
    assert risks == sorted(risks)  # delaying the purchase never reduces risk
    assert risks[-1] > risks[0]
