"""A ``reuse=False`` request reads and writes no coordinator state.

The contract that makes a fresh request a pure function of ``(spec, point,
worlds)`` — and so lets a process pool run it as a whole-point task in any
order: it neither reads nor writes the Storage Manager (its keys and its
hit/miss counters), the stats cache or the week memo. Pinned inline and on
a 2-worker pool, and end to end: a fresh sweep followed by a ``reuse=True``
sweep hashes the same on both backends, and the same as the sequential
engine making the same requests.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import ClientConfig, ProphetClient, SamplingConfig
from repro.serve import EvaluationService, InlineExecutor
from serve_testutil import SERVE_DSL

POINTS = [
    {"purchase1": 0, "purchase2": 26, "feature": 12},
    {"purchase1": 0, "purchase2": 26, "feature": 36},
    {"purchase1": 26, "purchase2": 52, "feature": 12},
    {"purchase1": 52, "purchase2": 0, "feature": 36},
]


def _coordinator_state(engine) -> dict:
    storage = engine.storage
    return {
        "bases": list(storage.tier.keys()),
        "counters": (storage.exact_hits, storage.mapped_hits, storage.misses),
        "mappings": len(engine.registry.mappings),
        "stats_cache": list(engine._stats_cache),
        "week_memo": list(engine._week_stats_cache),
        "week_memo_hits": engine.week_stats_hits,
    }


@pytest.mark.parametrize("executor_kind", ["inline", "process"])
def test_fresh_requests_leave_the_coordinator_as_it_was(
    serve_spec, process_executor, executor_kind
):
    executor = process_executor if executor_kind == "process" else InlineExecutor()
    service = EvaluationService(serve_spec, executor=executor)
    # A reuse=True history: stored bases, a mapping, cached statistics.
    service.evaluate(POINTS[0])
    service.evaluate(POINTS[1], worlds=range(8))
    service.evaluate(POINTS[1])
    before = _coordinator_state(service.engine)
    assert before["bases"] and before["stats_cache"] and before["week_memo"]

    for point in POINTS:  # held, partly held and unheld points alike
        service.evaluate(point, reuse=False)
        service.evaluate(point, worlds=range(4, 12), reuse=False)
    assert _coordinator_state(service.engine) == before


def _digest(results) -> str:
    digest = hashlib.sha256()
    for statistics in results:
        for alias in sorted(statistics.aliases()):
            digest.update(statistics.expectation(alias).tobytes())
            digest.update(statistics.stddev(alias).tobytes())
    return digest.hexdigest()


def _fresh_then_reuse(client) -> tuple[str, str]:
    with client:
        fresh = [r.statistics for r in client.sweep(POINTS, reuse=False)]
        reused = [r.statistics for r in client.sweep(POINTS)]
        return _digest(fresh), _digest(reused)


def test_a_fresh_sweep_then_a_reuse_sweep_hash_the_same_on_every_backend(sequential_engine):
    def client():
        config = ClientConfig(sampling=SamplingConfig(n_worlds=16))
        return ProphetClient.open(SERVE_DSL, "demo", config=config)

    inline = _fresh_then_reuse(client())
    pooled = _fresh_then_reuse(client().with_serving(executor="process", workers=2))
    sequential = (
        _digest([sequential_engine.evaluate_point(p, reuse=False).statistics for p in POINTS]),
        _digest([sequential_engine.evaluate_point(p).statistics for p in POINTS]),
    )
    assert inline == pooled == sequential
