"""V6 — the fault-tolerance ladder: chaos parity and recovery overhead.

Guards the serving plane's availability contract:

* **chaos parity** (always): a fresh sweep of point tasks under a seeded
  transient fault plan — injected exceptions, garbage payloads, crashes —
  returns bit-identical ``AxisStatistics`` to the fault-free sequential
  engine, with every recovery visible in the stats counters;
* **crash recovery** (>= 2 cores only): a worker killed mid-task under a
  real process pool is healed (pool rebuild + retry) and the answer stays
  bit-identical, within a bounded wall-clock overhead.
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
    ProcessExecutor,
    ResilienceConfig,
    Scheduler,
)

POINT = {"purchase1": 8, "purchase2": 24, "feature": 12}
#: Eight fresh points: eight point tasks for the seeded plan to fault.
POINTS = [
    {"purchase1": p1, "purchase2": 24, "feature": feature}
    for p1 in (0, 8, 16, 24)
    for feature in (12, 36)
]


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
    engine = _sequential_engine(n_worlds)
    references = [engine.evaluate_point(p, reuse=False) for p in POINTS]
    plan = FaultPlan.seeded(
        20260807,
        tasks=len(POINTS),
        rate=0.4,
        kinds=("raise", "garbage", "crash"),
        attempts=2,
        hang_seconds=0.0,
    )

    def evaluate_under_chaos():
        with ProcessExecutor(2) as pool:
            service = EvaluationService(
                _spec(n_worlds),
                executor=pool,
                fault_plan=plan,
                resilience=ResilienceConfig(retry_backoff=0.0),
            )
            scheduler = Scheduler(service)
            jobs = scheduler.submit_sweep(POINTS, reuse=False)
            scheduler.run_pending()
            return [job.evaluation() for job in jobs], service

    evaluations, service = benchmark.pedantic(
        evaluate_under_chaos, rounds=1, iterations=1
    )
    for evaluation, reference in zip(evaluations, references):
        _assert_identical(evaluation.statistics, reference.statistics)
    fired = sum(service.injector.injected.values())
    assert fired > 0, "the seeded plan injected nothing — raise the rate"
    assert service.stats.shard_retries + service.stats.inline_rescues > 0
    report(
        "V6: chaos parity (seeded transient plan, 2-worker process pool)",
        [
            f"n_worlds {n_worlds}; faults fired {fired} "
            f"({len(plan)} planned over {len(POINTS)} tasks)",
            f"task retries {service.stats.shard_retries}; "
            f"inline rescues {service.stats.inline_rescues}; "
            f"pool rebuilds {service.stats.pool_rebuilds}",
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
    reference = _sequential_engine(n_worlds).evaluate_point(POINT, reuse=False)
    plan = FaultPlan(faults=(FaultSpec(task=0, kind="crash"),))

    def evaluate_through_crash():
        with ProcessExecutor(2) as pool:
            service = EvaluationService(
                _spec(n_worlds),
                executor=pool,
                fault_plan=plan,
                resilience=ResilienceConfig(retry_backoff=0.0),
            )
            started = time.perf_counter()
            evaluation = service.evaluate(POINT, reuse=False)
            return evaluation, service.stats, time.perf_counter() - started

    evaluation, stats, seconds = benchmark.pedantic(
        evaluate_through_crash, rounds=1, iterations=1
    )
    _assert_identical(evaluation.statistics, reference.statistics)
    assert stats.pool_rebuilds >= 1, "the crash never triggered a pool heal"
    report(
        "V6: crash recovery (worker killed mid-task, 2-worker pool)",
        [
            f"n_worlds {n_worlds}; recovered in {seconds * 1000:.0f} ms",
            f"pool rebuilds {stats.pool_rebuilds}; "
            f"task retries {stats.shard_retries}",
            "statistics bit-identical to fault-free sequential: yes (guard)",
        ],
    )
