"""V2 — the shard transport: zero-copy shared-memory segments.

Guards the three contracts of ``repro.serve.transport``:

* **parity** (always): ``shard_transport="shm"`` returns bit-identical
  ``AxisStatistics`` to the default pickle transport — inline and process
  executors — and leaves zero live segments after close;
* **op speedup** (always): shipping one fan-out generation (world slices,
  result matrices, a hot ~170 KB basis snapshot re-serialized per shard)
  through arena pack + segment views beats per-task pickle round-trips by
  >= 1.5x — the microbench isolates transport cost from sampling cost so
  it holds on any core count;
* **throughput** (>= 2 cores only): an end-to-end fresh evaluation at
  ``n_worlds=400`` through a 2-worker pool under shm must not regress
  against pickle (>= 0.9x wall-clock; the dispatch+merge win is bounded
  by sampling time, so this leg is a non-regression guard while the op
  leg carries the speedup contract).
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
    InlineExecutor,
    ProcessExecutor,
    TransportConfig,
    shm_available,
)
from transport_ops import (
    generation_payload,
    ship_pickle,
    ship_shm,
    synthetic_snapshot,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)

POINT = {"purchase1": 8, "purchase2": 24, "feature": 12}
WARMUP_POINT = {"purchase1": 0, "purchase2": 0, "feature": 44}
SHM = TransportConfig(shard_transport="shm")


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
        ), f"E[{alias}] diverged between shm and pickle transport"
        assert (
            actual.stddev(alias).tobytes() == expected.stddev(alias).tobytes()
        ), f"SD[{alias}] diverged between shm and pickle transport"


@pytest.mark.benchmark(group="V2-transport")
def test_v2_transport_parity_guard(benchmark):
    """shm transport must be bit-identical to pickle, always."""
    n_worlds = 64
    reference = _sequential_engine(n_worlds).evaluate_point(POINT)

    def evaluate_both():
        plain = EvaluationService(
            _spec(n_worlds), executor=InlineExecutor(), shards=4, min_shard_worlds=1
        )
        inline = EvaluationService(
            _spec(n_worlds),
            executor=InlineExecutor(),
            shards=4,
            min_shard_worlds=1,
            transport=SHM,
        )
        results = [plain.evaluate(POINT), inline.evaluate(POINT)]
        with ProcessExecutor(2) as pool:
            process = EvaluationService(
                _spec(n_worlds),
                executor=pool,
                shards=4,
                min_shard_worlds=1,
                transport=SHM,
            )
            # Partial-then-full exercises the snapshot path, not just the
            # world/result path.
            process.evaluate(WARMUP_POINT, worlds=range(8))
            results.append(process.evaluate(POINT))
            arena = process._arena
            process.close()
        plain.close()
        inline.close()
        # Post-close: the snapshot-lease cache pins segments only while
        # the service is open.
        assert arena is None or arena.live_segments() == 0
        assert inline._arena is None or inline._arena.live_segments() == 0
        return results

    plain_result, inline_result, process_result = benchmark.pedantic(
        evaluate_both, rounds=1, iterations=1
    )
    for result in (plain_result, inline_result, process_result):
        _assert_identical(result.statistics, reference.statistics)
    report(
        "V2: transport parity (shm vs pickle, inline + process executors)",
        [
            f"n_worlds {n_worlds}; aliases {', '.join(reference.statistics.aliases())}",
            "shm statistics bit-identical to pickle and sequential: yes (guard)",
            "live segments after close: 0 (guard)",
        ],
    )


@pytest.mark.benchmark(group="V2-transport")
def test_v2_transport_op_speedup_guard(benchmark):
    """Arena pack + views must beat per-task pickling by >= 1.5x."""
    n_worlds, n_shards, rounds = 400, 8, 30
    snapshot = synthetic_snapshot()
    shard_worlds, shard_results = generation_payload(n_worlds, n_shards)

    # Best-of-3 per leg: single-shot wall clocks flake on loaded hosts.
    pickle_seconds, shm_seconds = benchmark.pedantic(
        lambda: (
            min(
                ship_pickle(snapshot, shard_worlds, shard_results, rounds)
                for _ in range(3)
            ),
            min(
                ship_shm(snapshot, shard_worlds, shard_results, rounds)
                for _ in range(3)
            ),
        ),
        rounds=1,
        iterations=1,
    )
    speedup = pickle_seconds / shm_seconds
    snapshot_bytes = sum(entry.samples.nbytes for entry in snapshot.entries)
    shipped = rounds * n_shards * (snapshot_bytes + shard_results[0].nbytes)
    report(
        "V2: transport op speedup (8-shard generation + hot snapshot)",
        [
            f"logical payload {shipped / 1e6:.1f} MB over {rounds} generations",
            f"pickle {pickle_seconds * 1000:.1f} ms",
            f"shm    {shm_seconds * 1000:.1f} ms",
            f"speedup {speedup:.2f}x (guard: >= 1.5x)",
        ],
    )
    assert speedup >= 1.5, (
        f"transport op speedup {speedup:.2f}x fell below the 1.5x guard — "
        f"arena pack / segment view overhead regressed"
    )


@pytest.mark.benchmark(group="V2-transport")
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="throughput guard needs >= 2 cores",
)
def test_v2_transport_throughput_guard(benchmark):
    """shm must not regress end-to-end dispatch+merge at n_worlds=400."""
    n_worlds = 400

    def evaluate(transport):
        with ProcessExecutor(2) as pool:
            service = EvaluationService(
                _spec(n_worlds), executor=pool, shards=2, transport=transport
            )
            # Warm the worker engines so the timed evaluation measures
            # dispatch + sampling + merge, not engine construction.
            service.evaluate(WARMUP_POINT, worlds=range(8), reuse=False)
            started = time.perf_counter()
            evaluation = service.evaluate(POINT, reuse=False)
            seconds = time.perf_counter() - started
            stats = service.stats
            service.close()
            return evaluation, seconds, stats

    def evaluate_both():
        plain = evaluate(None)
        shm = evaluate(SHM)
        return plain, shm

    (plain_result, pickle_seconds, _), (shm_result, shm_seconds, shm_stats) = (
        benchmark.pedantic(evaluate_both, rounds=1, iterations=1)
    )
    _assert_identical(shm_result.statistics, plain_result.statistics)
    assert shm_stats.segments_leased == shm_stats.segments_reclaimed
    speedup = pickle_seconds / shm_seconds
    report(
        "V2: transport throughput (2 workers, n_worlds=400)",
        [
            f"pickle {pickle_seconds * 1000:.0f} ms",
            f"shm    {shm_seconds * 1000:.0f} ms",
            f"speedup {speedup:.2f}x (guard: >= 0.9x; "
            f"{shm_stats.bytes_zero_copy} B zero-copy)",
        ],
    )
    assert speedup >= 0.9, (
        f"shm end-to-end throughput {speedup:.2f}x fell below the 0.9x "
        f"non-regression guard — transport overhead outweighs zero-copy"
    )
