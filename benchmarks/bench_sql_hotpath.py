"""S1 — the SQL hot path: plan cache, compiled expressions, columnar execution.

Quantifies the three-layer execution fast path and guards against
regressions:

* statements/sec for parameterized DML with and without the plan cache;
* per-stage :class:`StageTimings` of one point evaluation with every fast
  path enabled vs. the pure row-at-a-time interpreter (the "before" state);
* a plan-cache hit-rate guard: a repeated sweep must serve >= 90% of its
  statement lookups from cache, or the parameterized-SQL contract broke.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import report
from repro.core.config import EngineConfig, ReuseConfig, SamplingConfig
from repro.core.engine import ProphetEngine
from repro.models import build_risk_vs_cost
from repro.sqldb import Catalog, Executor

POINT = {"purchase1": 8, "purchase2": 24, "feature": 12}


def _build_engine(config: EngineConfig, fast: bool = True) -> ProphetEngine:
    scenario, library = build_risk_vs_cost(purchase_step=8)
    engine = ProphetEngine(scenario, library, config)
    if not fast:
        # The "before" configuration: parse every statement, walk every
        # expression tree, interpret every row.
        engine.executor.enable_vectorized = False
        engine.executor.enable_compiled = False
        engine.executor.plan_cache.capacity = 0
    return engine


def _statement_rate(plan_cache_size: int, statements: int = 400) -> float:
    executor = Executor(Catalog(), plan_cache_size=plan_cache_size)
    executor.execute("CREATE TABLE t (world INT, v FLOAT)")
    insert = "INSERT INTO t (world, v) SELECT @w, @w * 1.5"
    started = time.perf_counter()
    for world in range(statements):
        executor.execute(insert, {"w": world})
    elapsed = time.perf_counter() - started
    return statements / elapsed


@pytest.mark.benchmark(group="S1-sql-hotpath")
def test_s1_parameterized_statement_throughput(benchmark):
    """Plan cache: same text + fresh bindings should never re-parse."""

    cached_rate = benchmark.pedantic(
        lambda: _statement_rate(plan_cache_size=256), rounds=3, iterations=1
    )
    uncached_rate = _statement_rate(plan_cache_size=0)
    report(
        "S1: parameterized INSERT throughput (statements/sec)",
        [
            f"plan cache on   {cached_rate:10.0f} stmt/s",
            f"plan cache off  {uncached_rate:10.0f} stmt/s",
            f"speedup         {cached_rate / uncached_rate:10.1f}x",
        ],
    )
    assert cached_rate > uncached_rate


@pytest.mark.benchmark(group="S1-sql-hotpath")
def test_s1_stage_timings_before_after(benchmark):
    """Figure-1 stage attribution with and without the compiled pipeline."""
    config = EngineConfig(
        sampling=SamplingConfig(n_worlds=200),
        reuse=ReuseConfig(enable_stats_cache=False),
    )

    def evaluate_fast():
        return _build_engine(config, fast=True).evaluate_point(POINT, reuse=False)

    fast_eval = benchmark.pedantic(evaluate_fast, rounds=2, iterations=1)
    slow_eval = _build_engine(config, fast=False).evaluate_point(POINT, reuse=False)

    def lines(tag, timings):
        return [
            f"{tag} querygen {timings.querygen * 1000:8.1f} ms | "
            f"sql {timings.sql * 1000:8.1f} ms | "
            f"storage {timings.storage * 1000:8.1f} ms | "
            f"aggregate {timings.aggregate * 1000:8.1f} ms"
        ]

    fast_combine = fast_eval.timings.sql + fast_eval.timings.aggregate
    slow_combine = slow_eval.timings.sql + slow_eval.timings.aggregate
    report(
        "S1: StageTimings, compiled pipeline vs row interpreter (n_worlds=200)",
        lines("after ", fast_eval.timings)
        + lines("before", slow_eval.timings)
        + [
            f"total speedup          {slow_eval.timings.total() / fast_eval.timings.total():5.1f}x",
            f"sql+aggregate speedup  {slow_combine / fast_combine:5.1f}x",
        ],
    )
    # Identical numbers out of both pipelines, or the fast path is wrong.
    for alias in fast_eval.statistics.aliases():
        assert np.array_equal(
            fast_eval.statistics.expectation(alias),
            slow_eval.statistics.expectation(alias),
        )
        assert np.array_equal(
            fast_eval.statistics.stddev(alias), slow_eval.statistics.stddev(alias)
        )
    assert fast_eval.timings.total() < slow_eval.timings.total()


@pytest.mark.benchmark(group="S1-sql-hotpath")
def test_s1_plan_cache_hit_rate_guard(benchmark):
    """Regression guard: a repeated sweep must hit the plan cache >= 90%.

    The sweep spans the purchase1 x purchase2 grid (36 points): the batched
    sampling plane executes only ~10 statements per point (vs ~70 on the
    per-world loop), so the scenario's ~10 one-time parses need a larger
    sweep to amortize below the 10% miss budget. The guard's subject is
    unchanged — if any generator emitted per-point statement text again,
    misses would scale with the point count and the rate would collapse no
    matter the sweep size.
    """
    config = EngineConfig(
        sampling=SamplingConfig(n_worlds=30),
        reuse=ReuseConfig(enable_stats_cache=False),
    )

    def sweep():
        engine = _build_engine(config, fast=True)
        for purchase1 in (0, 8, 16, 24, 32, 40):
            for purchase2 in (0, 8, 16, 24, 32, 40):
                engine.evaluate_point(
                    {"purchase1": purchase1, "purchase2": purchase2, "feature": 12},
                    reuse=False,
                )
        return engine

    engine = benchmark.pedantic(sweep, rounds=1, iterations=1)
    cache = engine.executor.plan_cache
    stats = engine.executor.stats
    report(
        "S1: plan-cache behavior over a 36-point sweep",
        [
            f"lookups {cache.lookups()}, hits {cache.hits}, misses {cache.misses}",
            f"hit rate {cache.hit_rate():.1%} (guard: >= 90%)",
            f"vectorized selects {stats.vectorized_selects}, "
            f"fallback selects {stats.fallback_selects}",
            f"rows vectorized {stats.rows_vectorized}, "
            f"rows on fallback {stats.rows_fallback}",
        ],
    )
    assert cache.hit_rate() >= 0.90, (
        f"plan-cache hit rate {cache.hit_rate():.1%} fell below 90% — "
        "a query generator is emitting per-point statement text again"
    )
