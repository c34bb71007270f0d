"""C5 — §1: in online mode, matching new parameter values against stored
basis distributions yields "a lower time to first-accurate-guess".

Measures the simulation work (component-samples) spent until progressive
refinement converges, for a cold session vs. a session holding bases from a
previous slider position.
"""

import pytest

from conftest import report
from repro.core.engine import ProphetEngine
from repro.core.online import OnlineSession
from repro.models import build_risk_vs_cost

TARGET = {"purchase1": 12, "purchase2": 24, "feature": 12}
PRIOR = {"purchase1": 8, "purchase2": 24, "feature": 12}


def converge_cost(session):
    before = session.engine.component_sample_count()
    views = session.refresh_progressive()
    return session.engine.component_sample_count() - before, len(views)


@pytest.mark.benchmark(group="C5-first-guess")
def test_c5_cold_convergence(benchmark, fast_config, fast_plan):
    def cold():
        scenario, library = build_risk_vs_cost()
        session = OnlineSession(ProphetEngine(scenario, library, fast_config), plan=fast_plan)
        session.set_sliders(TARGET)
        return converge_cost(session)

    cost, passes = benchmark.pedantic(cold, rounds=2, iterations=1)
    benchmark.extra_info["component_samples"] = cost
    assert cost > 0


@pytest.mark.benchmark(group="C5-first-guess")
def test_c5_warm_convergence(benchmark, fast_config, fast_plan):
    def warm():
        scenario, library = build_risk_vs_cost()
        session = OnlineSession(ProphetEngine(scenario, library, fast_config), plan=fast_plan)
        session.set_sliders(PRIOR)
        session.refresh()  # establish basis distributions
        session.set_sliders(TARGET)
        return converge_cost(session)

    cost, passes = benchmark.pedantic(warm, rounds=2, iterations=1)
    benchmark.extra_info["component_samples"] = cost
    assert cost > 0


def test_c5_summary(benchmark, fast_config, fast_plan):
    def both():
        scenario, library = build_risk_vs_cost()
        cold_session = OnlineSession(ProphetEngine(scenario, library, fast_config), plan=fast_plan)
        cold_session.set_sliders(TARGET)
        cold_cost, cold_passes = converge_cost(cold_session)

        scenario2, library2 = build_risk_vs_cost()
        warm_session = OnlineSession(
            ProphetEngine(scenario2, library2, fast_config), plan=fast_plan
        )
        warm_session.set_sliders(PRIOR)
        warm_session.refresh()
        warm_session.set_sliders(TARGET)
        warm_cost, warm_passes = converge_cost(warm_session)
        return cold_cost, cold_passes, warm_cost, warm_passes

    cold_cost, cold_passes, warm_cost, warm_passes = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    report(
        "C5: simulation work until the estimate converges",
        [
            f"cold session: {cold_cost:7d} component-samples "
            f"({cold_passes} refinement passes)",
            f"with bases:   {warm_cost:7d} component-samples "
            f"({warm_passes} refinement passes)",
            f"reduction: {cold_cost / max(warm_cost, 1):.1f}x",
        ],
    )
    assert warm_cost < cold_cost / 2
