"""C4 — §3.3: the optimizer returns the *latest* purchase dates that keep
the year-round expected overload chance under the threshold.

Cross-checks the OPTIMIZE machinery against an independent brute-force
reference (direct per-point constraint evaluation, no OPTIMIZE code path)
and reports the feasibility frontier.
"""

import numpy as np
import pytest

from conftest import report
from repro.core.engine import ProphetEngine
from repro.core.offline import OfflineOptimizer
from repro.models import build_risk_vs_cost

THRESHOLD = 0.05


def brute_force_reference(config):
    """Independent reference: evaluate every point, apply the constraint by
    hand with numpy, pick the lexicographic max feasible (p1, p2)."""
    scenario, library = build_risk_vs_cost(purchase_step=8, overload_threshold=THRESHOLD)
    engine = ProphetEngine(scenario, library, config)
    best = None
    feasible_count = 0
    for point in scenario.space.grid(exclude=[scenario.axis]):
        evaluation = engine.evaluate_point(point)
        max_overload = float(np.nanmax(evaluation.statistics.expectation("overload")))
        if max_overload < THRESHOLD:
            feasible_count += 1
            key = (point["purchase1"], point["purchase2"])
            if best is None or key > (best["purchase1"], best["purchase2"]):
                best = dict(point)
    return best, feasible_count


@pytest.mark.benchmark(group="C4-optimizer")
def test_c4_optimizer_matches_brute_force(benchmark, sweep_config):
    def optimize():
        scenario, library = build_risk_vs_cost(
            purchase_step=8, overload_threshold=THRESHOLD
        )
        optimizer = OfflineOptimizer(ProphetEngine(scenario, library, sweep_config))
        return optimizer.run(reuse=True)

    result = benchmark.pedantic(optimize, rounds=1, iterations=1)
    reference, feasible_count = brute_force_reference(sweep_config)

    best = result.best.point
    report(
        "C4: OPTIMIZE vs brute-force reference "
        f"(MAX(EXPECT overload) < {THRESHOLD})",
        [
            f"optimizer best:   {best}",
            f"reference best:   {reference}",
            f"feasible points:  optimizer {len(result.feasible_records)}, "
            f"reference {feasible_count}",
            f"best max P(overload): {result.best.constraint_value:.4f}",
        ],
    )
    assert (best["purchase1"], best["purchase2"]) == (
        reference["purchase1"],
        reference["purchase2"],
    )
    assert len(result.feasible_records) == feasible_count


@pytest.mark.benchmark(group="C4-optimizer")
def test_c4_feasibility_frontier_shape(benchmark, sweep_config):
    """Later purchase pairs are less feasible: the frontier is monotone."""

    def optimize():
        scenario, library = build_risk_vs_cost(
            purchase_step=8, overload_threshold=THRESHOLD
        )
        return OfflineOptimizer(ProphetEngine(scenario, library, sweep_config)).run(reuse=True)

    result = benchmark.pedantic(optimize, rounds=1, iterations=1)
    records_f12 = [r for r in result.records if r.point["feature"] == 12]
    # For fixed purchase2=0, feasibility in purchase1 is a prefix property.
    by_p1 = sorted(
        (r.point["purchase1"], r.feasible)
        for r in records_f12
        if r.point["purchase2"] == 0
    )
    frontier = [p for p, feasible in by_p1 if feasible]
    infeasible_after = [p for p, feasible in by_p1 if not feasible]
    lines = [f"purchase2=0, feature=12: feasible p1 weeks = {frontier}"]
    if infeasible_after:
        lines.append(f"first infeasible p1 week = {min(infeasible_after)}")
        assert max(frontier, default=-1) < min(infeasible_after)
    report("C4: feasibility frontier (single-purchase slice)", lines)
