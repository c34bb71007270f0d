"""Paper-scale run: the full Figure 2 parameter space.

The demo's offline mode computes "results for the entire parameter space":
14 x 14 x 3 = 588 points (purchase grids at STEP BY 4, three feature dates).
This bench runs that exact grid with fingerprint reuse and reports the cost
anatomy — the reproduction's equivalent of the demo hardware walking the
whole space live.
"""

import pytest

from conftest import report
from repro.core.config import EngineConfig, SamplingConfig
from repro.core.engine import ProphetEngine
from repro.core.offline import OfflineOptimizer
from repro.models import build_risk_vs_cost


@pytest.mark.benchmark(group="paper-scale")
def test_full_figure2_grid(benchmark):
    config = EngineConfig(sampling=SamplingConfig(n_worlds=20))

    def sweep():
        scenario, library = build_risk_vs_cost(
            purchase_step=4, overload_threshold=0.05
        )
        optimizer = OfflineOptimizer(ProphetEngine(scenario, library, config))
        return optimizer.run(reuse=True), optimizer

    result, optimizer = benchmark.pedantic(sweep, rounds=1, iterations=1)
    sources = result.source_counts()
    fresh_equivalent = result.points_evaluated * 2 * config.sampling.n_worlds * 53
    report(
        "Paper-scale sweep: full Figure 2 grid (588 points)",
        [
            f"wall time: {result.elapsed_seconds:.1f}s "
            f"({result.elapsed_seconds / result.points_evaluated * 1000:.0f} ms/point)",
            f"sources: {sources}",
            f"component-samples: {result.component_samples} "
            f"(a reuse-free sweep would simulate {fresh_equivalent})",
            f"effective simulation saving: "
            f"{fresh_equivalent / max(result.component_samples, 1):.1f}x",
            f"best (threshold 0.05): {result.best.point if result.best else None}",
            f"feasible points: {len(result.feasible_records)}/588",
        ],
    )
    assert result.points_evaluated == 588
    assert sources["fresh"] <= 2
    assert result.best is not None
    # Reuse must beat brute-force simulation by a wide margin at this scale.
    assert result.component_samples < fresh_equivalent / 5
