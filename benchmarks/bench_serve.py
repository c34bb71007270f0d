"""V1 — the serve layer: sharded parallel evaluation and the result cache.

Guards two contracts of ``repro.serve``:

* **parity**: sharded evaluation — 4 shards, inline and process executors —
  returns bit-identical ``AxisStatistics`` to the sequential engine;
* **cache**: a repeated sweep against the same cache directory is served
  >= 95% from the cross-run result cache.

There is no wall-clock speedup guard here. A single cold point is per-seed
event draws plus a serial combine/aggregate share of about a quarter at any
size (an Amdahl ceiling near 2.3x at 4 workers before dispatch), it needs
>= 4 cores to mean anything, and it is one unpaced sample; what the fan-out
buys is measured by the perf ledger's ``fresh_fanout`` workload
(``benchmarks/ledger/``), with repeats and a bound per metric. CHANGES.md
(PR 16) records the retired ">= 1.8x at n_worlds=400" guard and why.
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
        ), f"E[{alias}] diverged between sharded and sequential evaluation"
        assert (
            actual.stddev(alias).tobytes() == expected.stddev(alias).tobytes()
        ), f"SD[{alias}] diverged between sharded and sequential evaluation"


@pytest.mark.benchmark(group="V1-serve")
def test_v1_sharded_parity_guard(benchmark):
    """4-shard evaluation must be bit-identical to sequential, always."""
    n_worlds = 64
    reference = _sequential_engine(n_worlds).evaluate_point(POINT)

    def evaluate_sharded():
        inline = EvaluationService(
            _spec(n_worlds),
            executor=InlineExecutor(),
            shards=4,
            min_shard_worlds=1,
        )
        with ProcessExecutor(2) as pool:
            process = EvaluationService(
                _spec(n_worlds), executor=pool, shards=4, min_shard_worlds=1
            )
            return inline.evaluate(POINT), process.evaluate(POINT)

    inline_result, process_result = benchmark.pedantic(
        evaluate_sharded, rounds=1, iterations=1
    )
    _assert_identical(inline_result.statistics, reference.statistics)
    _assert_identical(process_result.statistics, reference.statistics)
    report(
        "V1: sharded parity (4 shards, inline + process executors)",
        [
            f"n_worlds {n_worlds}; aliases {', '.join(reference.statistics.aliases())}",
            "sharded statistics bit-identical to sequential: yes (guard)",
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
            spec, executor=InlineExecutor(), shards=2, cache_dir=cache_dir
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
