"""F4 — regenerate the Figure 4 fingerprint-mapping grid.

Figure 4 is a 2D slice of the parameter space showing which points were
explored (fresh Monte Carlo) and which were mapped from explored points.
The paper's visual: after the first explored points, mappings dominate.
"""

import pytest

from conftest import report
from repro.core.engine import ProphetEngine
from repro.core.offline import OfflineOptimizer
from repro.models import build_risk_vs_cost
from repro.viz import mapping_grid, render_grid


@pytest.mark.benchmark(group="F4-mapping-grid")
def test_f4_mapping_grid_slice(benchmark, sweep_config):
    def sweep():
        scenario, library = build_risk_vs_cost(purchase_step=8)
        optimizer = OfflineOptimizer(ProphetEngine(scenario, library, sweep_config))
        result = optimizer.run(reuse=True)
        return scenario, optimizer, result

    scenario, optimizer, result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    grid = mapping_grid(
        result.records, scenario.space, "purchase1", "purchase2", fixed={"feature": 12}
    )
    counts = grid.counts()
    total_cells = sum(v for k, v in counts.items() if k != ".")

    print()
    print(render_grid(grid, title="F4: (purchase1 x purchase2) slice, feature=12"))
    report(
        "F4: exploration-vs-mapping summary",
        [
            f"cells in slice: {total_cells}",
            f"fresh (explored): {counts['F']}",
            f"mapped: {counts['M']}  exact: {counts['E']}",
            f"mapped+exact fraction: {(counts['M'] + counts['E']) / total_cells:.1%}",
            f"fingerprint mappings recorded: {len(optimizer.engine.registry.mappings)}",
        ],
    )
    benchmark.extra_info["cells"] = counts

    # Paper shape: explored points are a small minority of the grid.
    assert counts["F"] <= max(1, total_cells // 10)
    assert counts["M"] + counts["E"] >= total_cells * 0.9
