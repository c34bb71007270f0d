"""Every generated statement of every library scenario stays in the vectorized tier.

The vectorized SQL tier joins only row-aligned tiled keys and groups only by
one strided tiled key (``repro.sqldb.compiled``); anything else goes to the
row tier and counts one ``fallback_selects``. The engine lands each samples
table's ``world`` and ``t`` tiled, so the combine and the aggregate query
must never fall back, whatever the request looks like. Per scenario this
walks a round prefix and its extension, a fresh point, an unordered world
slice, and revisits that are mapped from a stored basis and only partly
answered by the week memo; the executor's ``fallback_selects`` must read 0
after each. The day a generated statement leaves the tiled shapes, this
fails.
"""

from __future__ import annotations

import pytest

from repro.core.config import EngineConfig, SamplingConfig
from repro.core.engine import ProphetEngine
from repro.dsl import parse_scenario
from repro.models import (
    build_demo_library,
    build_growth_scenario,
    build_maintenance_scenario,
    build_risk_vs_cost,
)
from repro.models.scenario_library import FIGURE2_DSL

SCENARIOS = {
    "figure2": lambda: (parse_scenario(FIGURE2_DSL, name="figure2"), build_demo_library()),
    "risk_vs_cost": build_risk_vs_cost,
    "growth": build_growth_scenario,
    "maintenance": build_maintenance_scenario,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_no_generated_statement_falls_back(name):
    scenario, library = SCENARIOS[name]()
    engine = ProphetEngine(scenario, library, EngineConfig(sampling=SamplingConfig(n_worlds=40)))
    stats = engine.executor.stats
    grid = [dict(point) for point in engine.scenario.sweep_space.grid()]
    seen = []

    def evaluate(point, **options):
        hits, misses = engine.week_stats_hits, engine.week_stats_misses
        selects = stats.vectorized_selects
        evaluation = engine.evaluate_point(point, **options)
        assert stats.fallback_selects == 0, (point, options)
        hits, misses = engine.week_stats_hits - hits, engine.week_stats_misses - misses
        # Every missed week went through the combine and the aggregate query.
        assert misses == 0 or stats.vectorized_selects > selects
        seen.append(({report.source for report in evaluation.reuse_reports}, hits, misses))
        return seen[-1]

    first = grid[0]
    assert evaluate(first, worlds=range(10))[0] == {"fresh"}  # round 0 of a ladder
    assert "fresh" not in evaluate(first, worlds=range(25))[0]  # the basis extended
    assert "fresh" in evaluate(grid[len(grid) // 2], reuse=False)[0]
    evaluate(first, worlds=[5, 2, 9])  # an unordered slice
    evaluate(first)
    for point in grid[1:8]:  # neighbours: mapped bases, some weeks in the memo
        evaluate(point)
    revisits = seen[4:]
    assert any("mapped" in sources for sources, _, _ in revisits)
    assert any(hits and misses for _, hits, misses in revisits)
