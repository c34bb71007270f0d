"""V6 — the fault-tolerance ladder: chaos parity and recovery overhead.

Guards the serving plane's availability contract:

* **chaos parity** (always): an evaluation under a seeded transient fault
  plan — injected exceptions, garbage payloads, crashes — returns
  bit-identical ``AxisStatistics`` to the fault-free sequential engine,
  with every recovery visible in the stats counters;
* **crash recovery** (>= 2 cores only): a worker killed mid-evaluation
  under a real process pool is healed (pool rebuild + retry) and the
  answer stays bit-identical, within a bounded wall-clock overhead.
"""

from __future__ import annotations

import os
import time

import pytest

from conftest import report
from repro.core.config import EngineConfig, SamplingConfig
from repro.core.engine import ProphetEngine
from repro.models import build_risk_vs_cost
from repro.serve import (
    EngineSpec,
    EvaluationService,
    FaultPlan,
    FaultSpec,
    InlineExecutor,
    ProcessExecutor,
    ResilienceConfig,
)

POINT = {"purchase1": 8, "purchase2": 24, "feature": 12}


def _spec(n_worlds: int) -> EngineSpec:
    return EngineSpec.from_builder(
        "risk_vs_cost",
        config=EngineConfig(sampling=SamplingConfig(n_worlds=n_worlds)),
        purchase_step=8,
    )


def _sequential_engine(n_worlds: int) -> ProphetEngine:
    scenario, library = build_risk_vs_cost(purchase_step=8)
    return ProphetEngine(scenario, library, EngineConfig(
        sampling=SamplingConfig(n_worlds=n_worlds),
    ))


def _assert_identical(actual, expected) -> None:
    for alias in expected.aliases():
        assert (
            actual.expectation(alias).tobytes()
            == expected.expectation(alias).tobytes()
        ), f"E[{alias}] diverged between chaos and fault-free evaluation"
        assert (
            actual.stddev(alias).tobytes() == expected.stddev(alias).tobytes()
        ), f"SD[{alias}] diverged between chaos and fault-free evaluation"


@pytest.mark.benchmark(group="V6-resilience")
def test_v6_chaos_parity_guard(benchmark):
    """A seeded transient fault plan must never change the answer."""
    n_worlds = 64
    reference = _sequential_engine(n_worlds).evaluate_point(POINT)
    plan = FaultPlan.seeded(
        20260807,
        shards=32,
        rate=0.4,
        kinds=("raise", "garbage", "crash"),
        attempts=2,
        hang_seconds=0.0,
    )

    def evaluate_under_chaos():
        service = EvaluationService(
            _spec(n_worlds),
            executor=InlineExecutor(),
            shards=4,
            min_shard_worlds=1,
            fault_plan=plan,
            resilience=ResilienceConfig(retry_backoff=0.0),
        )
        return service.evaluate(POINT), service

    evaluation, service = benchmark.pedantic(
        evaluate_under_chaos, rounds=1, iterations=1
    )
    _assert_identical(evaluation.statistics, reference.statistics)
    fired = sum(service.injector.injected.values())
    assert fired > 0, "the seeded plan injected nothing — raise the rate"
    assert service.stats.shard_retries + service.stats.inline_rescues > 0
    report(
        "V6: chaos parity (seeded transient plan, inline executor)",
        [
            f"n_worlds {n_worlds}; faults fired {fired} "
            f"({len(plan)} planned over 32 seqs)",
            f"shard retries {service.stats.shard_retries}; "
            f"inline rescues {service.stats.inline_rescues}",
            "statistics bit-identical to fault-free sequential: yes (guard)",
        ],
    )


@pytest.mark.benchmark(group="V6-resilience")
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="crash recovery guard needs >= 2 cores",
)
def test_v6_crash_recovery_guard(benchmark):
    """A killed worker must be healed with the answer bit-identical."""
    n_worlds = 64
    reference = _sequential_engine(n_worlds).evaluate_point(POINT)
    plan = FaultPlan(faults=(FaultSpec(shard=0, kind="crash"),))

    def evaluate_through_crash():
        with ProcessExecutor(2) as pool:
            service = EvaluationService(
                _spec(n_worlds),
                executor=pool,
                shards=4,
                min_shard_worlds=1,
                fault_plan=plan,
                resilience=ResilienceConfig(retry_backoff=0.0),
            )
            started = time.perf_counter()
            evaluation = service.evaluate(POINT)
            return evaluation, service.stats, time.perf_counter() - started

    evaluation, stats, seconds = benchmark.pedantic(
        evaluate_through_crash, rounds=1, iterations=1
    )
    _assert_identical(evaluation.statistics, reference.statistics)
    assert stats.pool_rebuilds >= 1, "the crash never triggered a pool heal"
    report(
        "V6: crash recovery (worker killed mid-evaluation, 2-worker pool)",
        [
            f"n_worlds {n_worlds}; recovered in {seconds * 1000:.0f} ms",
            f"pool rebuilds {stats.pool_rebuilds}; "
            f"shard retries {stats.shard_retries}",
            "statistics bit-identical to fault-free sequential: yes (guard)",
        ],
    )
