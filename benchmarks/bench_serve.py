"""V1 — the serve layer: point-parallel evaluation and the result cache.

Guards two contracts of ``repro.serve``:

* **parity**: a fresh (``reuse=False``) sweep — inline, and as point tasks
  on a 2-worker process pool with one task per worker in flight — returns
  bit-identical ``AxisStatistics`` to the sequential engine;
* **cache**: a repeated sweep against the same cache directory is served
  >= 95% from the cross-run result cache.

There is no wall-clock speedup guard here: it needs >= 2 cores to mean
anything, and it would be one unpaced sample. What the pool buys is
measured by the perf ledger's ``fresh_fanout`` workload
(``benchmarks/ledger/``), with repeats and a bound per metric.
"""

from __future__ import annotations

import time

import pytest

from conftest import report
from repro.core.config import EngineConfig, SamplingConfig
from repro.core.engine import ProphetEngine
from repro.models import build_risk_vs_cost
from repro.serve import (
    EngineSpec,
    EvaluationService,
    InlineExecutor,
    ProcessExecutor,
    Scheduler,
)

POINT = {"purchase1": 8, "purchase2": 24, "feature": 12}
POINT_FAR = {"purchase1": 40, "purchase2": 0, "feature": 44}


def _spec(n_worlds: int, purchase_step: int = 8) -> EngineSpec:
    return EngineSpec.from_builder(
        "risk_vs_cost",
        config=EngineConfig(sampling=SamplingConfig(n_worlds=n_worlds)),
        purchase_step=purchase_step,
    )


def _sequential_engine(n_worlds: int, purchase_step: int = 8) -> ProphetEngine:
    scenario, library = build_risk_vs_cost(purchase_step=purchase_step)
    return ProphetEngine(scenario, library, EngineConfig(
        sampling=SamplingConfig(n_worlds=n_worlds),
    ))


def _assert_identical(actual, expected) -> None:
    for alias in expected.aliases():
        assert (
            actual.expectation(alias).tobytes()
            == expected.expectation(alias).tobytes()
        ), f"E[{alias}] diverged between pooled and sequential evaluation"
        assert (
            actual.stddev(alias).tobytes() == expected.stddev(alias).tobytes()
        ), f"SD[{alias}] diverged between pooled and sequential evaluation"


def _fresh_sweep(service: EvaluationService, points: list) -> list:
    scheduler = Scheduler(service)
    jobs = scheduler.submit_sweep(points, reuse=False)
    scheduler.run_pending()
    return [job.evaluation() for job in jobs]


@pytest.mark.benchmark(group="V1-serve")
def test_v1_point_task_parity_guard(benchmark):
    """A pooled fresh sweep must be bit-identical to sequential, always."""
    n_worlds = 64
    points = [POINT, {**POINT, "purchase1": 16}, {**POINT, "feature": 36}, POINT_FAR]
    engine = _sequential_engine(n_worlds)
    references = [engine.evaluate_point(p, reuse=False) for p in points]

    def evaluate_pooled():
        inline = EvaluationService(_spec(n_worlds), executor=InlineExecutor())
        with ProcessExecutor(2) as pool:
            process = EvaluationService(_spec(n_worlds), executor=pool)
            return _fresh_sweep(inline, points), _fresh_sweep(process, points), process

    inline_results, process_results, process = benchmark.pedantic(
        evaluate_pooled, rounds=1, iterations=1
    )
    for inline, pooled, reference in zip(inline_results, process_results, references):
        _assert_identical(inline.statistics, reference.statistics)
        _assert_identical(pooled.statistics, reference.statistics)
    assert process.stats.shard_tasks == len(points)
    report(
        "V1: point-task parity (fresh sweep, inline + 2-worker process pool)",
        [
            f"n_worlds {n_worlds}; {len(points)} points; "
            f"aliases {', '.join(references[0].statistics.aliases())}",
            "pooled statistics bit-identical to sequential: yes (guard)",
        ],
    )


@pytest.mark.benchmark(group="V1-serve")
def test_v1_result_cache_hit_rate_guard(benchmark, tmp_path):
    """A repeated sweep must be served >= 95% from the cross-run cache."""
    n_worlds = 100
    cache_dir = str(tmp_path / "results")
    spec = _spec(n_worlds, purchase_step=26)  # 3 x 3 x 3 = 27-point grid

    def sweep(label: str):
        service = EvaluationService(
            spec, executor=InlineExecutor(), cache_dir=cache_dir
        )
        scheduler = Scheduler(service)
        scheduler.submit_sweep(session=label)
        started = time.perf_counter()
        scheduler.run_pending()
        return service, time.perf_counter() - started

    first_service, first_seconds = sweep("first-run")
    assert first_service.stats.cache_hits == 0

    second_service, second_seconds = benchmark.pedantic(
        lambda: sweep("second-run"), rounds=1, iterations=1
    )

    hit_rate = second_service.stats.cache_hit_rate()
    report(
        "V1: cross-run result cache (repeated 27-point sweep)",
        [
            f"first run  {first_seconds:.2f}s ({first_service.stats.cache_misses} misses)",
            f"second run {second_seconds:.2f}s "
            f"({second_service.stats.cache_hits} hits, {hit_rate:.0%})",
            "guard: hit rate >= 95%",
        ],
    )
    assert hit_rate >= 0.95, (
        f"result-cache hit rate {hit_rate:.0%} fell below 95% — the cache "
        f"key or payload round-trip regressed"
    )
