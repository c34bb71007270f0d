"""C3 — §1/§3.3: offline execution "expedited by using fingerprints to avoid
redundant computation".

Runs the full offline sweep twice — fingerprints ON vs OFF — and compares
simulated component-samples, wall time, and (crucially) the optimizer's
answer, which must be identical.
"""

import pytest

from conftest import report
from repro.core.engine import ProphetEngine
from repro.core.offline import OfflineOptimizer
from repro.models import build_risk_vs_cost


def run_sweep(reuse: bool, config):
    scenario, library = build_risk_vs_cost(purchase_step=8)
    optimizer = OfflineOptimizer(ProphetEngine(scenario, library, config))
    return optimizer.run(reuse=reuse)


@pytest.mark.benchmark(group="C3-offline-sweep")
def test_c3_sweep_with_fingerprints(benchmark, sweep_config):
    result = benchmark.pedantic(
        lambda: run_sweep(True, sweep_config), rounds=1, iterations=1
    )
    benchmark.extra_info["component_samples"] = result.component_samples
    benchmark.extra_info["sources"] = result.source_counts()
    assert result.best is not None


@pytest.mark.benchmark(group="C3-offline-sweep")
def test_c3_sweep_without_fingerprints(benchmark, sweep_config):
    result = benchmark.pedantic(
        lambda: run_sweep(False, sweep_config), rounds=1, iterations=1
    )
    benchmark.extra_info["component_samples"] = result.component_samples
    assert result.best is not None


def test_c3_summary(benchmark, sweep_config):
    def both():
        return run_sweep(True, sweep_config), run_sweep(False, sweep_config)

    with_fp, without_fp = benchmark.pedantic(both, rounds=1, iterations=1)
    sample_ratio = without_fp.component_samples / max(with_fp.component_samples, 1)
    time_ratio = without_fp.elapsed_seconds / max(with_fp.elapsed_seconds, 1e-9)
    report(
        "C3: full-grid sweep, fingerprints ON vs OFF",
        [
            f"grid points: {with_fp.points_evaluated} "
            f"(x{sweep_config.sampling.n_worlds} worlds)",
            f"ON : {with_fp.elapsed_seconds:6.1f}s, "
            f"{with_fp.component_samples:8d} component-samples, "
            f"sources {with_fp.source_counts()}",
            f"OFF: {without_fp.elapsed_seconds:6.1f}s, "
            f"{without_fp.component_samples:8d} component-samples",
            f"component-sample reduction: {sample_ratio:.1f}x",
            f"wall-time reduction: {time_ratio:.1f}x",
            f"same best point: {with_fp.best.point == without_fp.best.point} "
            f"({with_fp.best.point})",
        ],
    )
    # Paper shape: large simulation saving, identical answer.
    assert sample_ratio > 2.0
    assert time_ratio > 1.5
    assert with_fp.best.point == without_fp.best.point
    feasibility_on = {
        tuple(sorted(r.point.items())): r.feasible for r in with_fp.records
    }
    feasibility_off = {
        tuple(sorted(r.point.items())): r.feasible for r in without_fp.records
    }
    assert feasibility_on == feasibility_off
