"""F1 — the Figure 1 evaluation cycle.

Times one full point evaluation and attributes wall time to the cycle's
stages (Query Generator, SQL execution, Storage Manager, Result Aggregator),
reproducing the architecture walkthrough of paper §2.
"""

import time

import numpy as np
import pytest

from conftest import report
from repro.core.config import EngineConfig, ReuseConfig, SamplingConfig
from repro.core.engine import ProphetEngine, StageTimings
from repro.core.instance import InstanceBatch
from repro.models import build_risk_vs_cost

POINT = {"purchase1": 8, "purchase2": 24, "feature": 12}


@pytest.mark.benchmark(group="F1-pipeline")
def test_f1_cold_evaluation_cycle(benchmark, fast_config):
    """One cold evaluation: every stage of Figure 1 runs."""

    def evaluate():
        scenario, library = build_risk_vs_cost(purchase_step=8)
        engine = ProphetEngine(scenario, library, fast_config)
        return engine, engine.evaluate_point(POINT)

    engine, evaluation = benchmark.pedantic(evaluate, rounds=3, iterations=1)
    timings = evaluation.timings
    total = max(timings.total(), 1e-9)
    benchmark.extra_info["stage_breakdown"] = {
        "querygen": timings.querygen,
        "sql": timings.sql,
        "storage": timings.storage,
        "aggregate": timings.aggregate,
    }
    report(
        "F1: Figure-1 cycle, one cold point evaluation",
        [
            f"worlds: {evaluation.n_worlds}, outputs: {len(evaluation.samples) + 1}",
            f"querygen  {timings.querygen * 1000:7.1f} ms ({timings.querygen / total:5.1%})",
            f"sql       {timings.sql * 1000:7.1f} ms ({timings.sql / total:5.1%})",
            f"storage   {timings.storage * 1000:7.1f} ms ({timings.storage / total:5.1%})",
            f"aggregate {timings.aggregate * 1000:7.1f} ms ({timings.aggregate / total:5.1%})",
            f"VG invocations: {engine.invocation_count()}",
        ],
    )
    assert evaluation.fully_fresh
    assert timings.sql > 0  # the generated-SQL path genuinely ran


@pytest.mark.benchmark(group="F1-pipeline")
def test_f1_warm_evaluation_skips_sampling_sql(benchmark, fast_config):
    """A warm evaluation: Storage Manager short-circuits stage 2."""
    scenario, library = build_risk_vs_cost(purchase_step=8)
    engine = ProphetEngine(scenario, library, fast_config)
    engine.evaluate_point(POINT)

    warm_points = iter(
        {"purchase1": p, "purchase2": 24, "feature": 12} for p in (16, 32, 40, 48)
    )

    def evaluate_warm():
        return engine.evaluate_point(next(warm_points))

    evaluation = benchmark.pedantic(evaluate_warm, rounds=4, iterations=1)
    report(
        "F1: warm evaluation (fingerprint reuse active)",
        [
            f"reuse sources: {[r.source for r in evaluation.reuse_reports]}",
            f"sql time {evaluation.timings.sql * 1000:.1f} ms vs "
            f"storage {evaluation.timings.storage * 1000:.1f} ms",
        ],
    )
    assert evaluation.any_reuse


@pytest.mark.benchmark(group="F1-pipeline")
def test_f1_combine_aggregate_stage_speedup(benchmark):
    """The compiled pipeline's combine/aggregate stage vs the interpreter.

    ``reuse=False`` disables every caching layer (stats cache, week memo,
    basis reuse), so the comparison isolates raw execution mechanics:
    columnar landing, vectorized combine join, vectorized aggregation.
    """
    config = EngineConfig(
        sampling=SamplingConfig(n_worlds=200),
        reuse=ReuseConfig(enable_stats_cache=False),
    )

    def build(fast: bool) -> ProphetEngine:
        scenario, library = build_risk_vs_cost(purchase_step=8)
        engine = ProphetEngine(scenario, library, config)
        if not fast:
            engine.executor.enable_vectorized = False
            engine.executor.enable_compiled = False
            engine.executor.plan_cache.capacity = 0
        return engine

    def stage_seconds(engine: ProphetEngine, rounds: int = 3):
        evaluation = engine.evaluate_point(POINT, reuse=False)
        batch = InstanceBatch.at_point(
            evaluation.point, tuple(range(config.sampling.n_worlds)), config.sampling.base_seed
        )
        best = float("inf")
        statistics = None
        for _ in range(rounds):
            timings = StageTimings()
            started = time.perf_counter()
            statistics = engine._combine_and_aggregate(
                evaluation.point, batch, evaluation.samples, timings,
                use_week_memo=False,
            )
            best = min(best, time.perf_counter() - started)
        return best, statistics

    fast_engine = build(fast=True)
    slow_engine = build(fast=False)

    def measure():
        return stage_seconds(fast_engine)

    fast_seconds, fast_stats = benchmark.pedantic(measure, rounds=1, iterations=1)
    slow_seconds, slow_stats = stage_seconds(slow_engine)
    speedup = slow_seconds / fast_seconds
    report(
        "F1: combine/aggregate stage, n_worlds=200, reuse=False",
        [
            f"interpreted {slow_seconds * 1000:8.1f} ms",
            f"compiled    {fast_seconds * 1000:8.1f} ms",
            f"speedup     {speedup:8.1f}x (target: >= 5x)",
        ],
    )
    for alias in fast_stats.aliases():
        assert np.array_equal(
            fast_stats.expectation(alias), slow_stats.expectation(alias)
        )
        assert np.array_equal(fast_stats.stddev(alias), slow_stats.stddev(alias))
    assert speedup >= 5.0
