"""Which basis each point maps from, pinned end to end.

Correlation matching may get cheaper; it may not change a single reuse
decision. Two workloads run through the public client and are checked
against values recorded before ``best_match`` correlated its candidates in
one stacked pass and fingerprints were probed through ``invoke_batch``:

* the full 588-point Figure-2 grid sweep at 64 worlds (the ``grid_reuse``
  ledger workload at seed 0);
* a 40-move slider walk at 50 worlds.

Pinned: the statistics of every result (one digest over all the
expectations, one over all the stddevs), every ``registry.mappings`` record
with its ``kind_counts``, the ``client.stats().to_json()`` bytes and, on
the grid, the engine's invocation and component-sample counts. The stddev
digests were re-recorded once, when VAR/STDEV became two ordered passes
over world order; the expectation digests kept their bytes. The ``execution`` counters were
re-recorded once, when fresh samples stopped being read back through a
``SELECT ... ORDER BY`` (one statement fewer per fresh sample); the
``service`` counters once, when world shards gave way to point tasks (an
in-process service starts no task and counts no sampled rows).
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.api import ClientConfig, ProphetClient, SamplingConfig
from repro.models.scenario_library import FIGURE2_DSL

GRID = {
    "expectations": "ed067f1fbcd803abd1610a7b2d5e281b82a41ee5af1050427db1aec164fecf66",
    "stddevs": "7904d1a56e23471892e5c76f924dd4e381279decc6d8e56ecd625d23962d0610",
    "mappings": (197, "5769366ca51d2f719a482d022ab0b442cd91abfd94b0296f788d2af7605d5651"),
    "kind_totals": {"identity": 9294, "shift": 389, "affine": 0, "unmapped": 758},
    "stats": (
        '{"basis": {"exact_hits": 977, "mapped_hits": 197, "misses": 2, "resident": '
        '199, "resident_bytes": 5400064, "spilled": 0, "tier_dropped": 0, '
        '"tier_evictions": 0, "tier_failed_faults": 0, "tier_faults": 0, "tier_spills":'
        ' 0}, "execution": {"fallback_selects": 0, "plan_cache_hits": 832, '
        '"plan_cache_misses": 8, "rows_fallback": 0, "rows_vectorized": 82432, '
        '"statements": 840, "vectorized_selects": 280}, "sampling": {"backend": '
        '"batched", "parity_fallbacks": 0, "sampled_batched": 128, "sampled_fallback": '
        '0}, "scheduler": {"dedup_hits": 0, "jobs_completed": 588, '
        '"jobs_retired_early": 0, "worlds_budgeted": 0, '
        '"worlds_spent": 0}, "service": {"bytes_shipped": 0, "bytes_zero_copy": 0, '
        '"cache_hits": 0, "cache_misses": 0, "cache_tmp_swept": 0, "executor_kind": '
        '"inline", "executor_workers": 1, "inline_rescues": 0, "points_evaluated": 588,'
        ' "pool_rebuilds": 0, "sampled_batched": 0, "sampled_fallback": 0, '
        '"segments_leased": 0, "segments_reclaimed": 0, "shard_retries": 0, '
        '"shard_tasks": 0, "shard_timeouts": 0, "shard_transport": "pickle", '
        '"transport_fallbacks": 0}, "week_memo": {"hits": 30573, "misses": 591}}'
    ),
}

WALK = {
    "expectations": "3f32d02bba3838f35e16cf47b7e681f517ab5e0277622e88686c8208b72be9d5",
    "stddevs": "e6c80ba4e90a809b1410ed09b72244d08a8af97e29cbb813867fd63481ff01c8",
    "mappings": (17, "6ea2c434392d4d1eafb63dd4a2809d1b4aa8c4962672c8488bcb809c43850f16"),
    "stats": (
        '{"basis": {"exact_hits": 33, "mapped_hits": 17, "misses": 2, "resident": 19, '
        '"resident_bytes": 402800, "spilled": 0, "tier_dropped": 0, "tier_evictions": '
        '0, "tier_failed_faults": 0, "tier_faults": 0, "tier_spills": 0}, "execution": '
        '{"fallback_selects": 0, "plan_cache_hits": 136, "plan_cache_misses": 8, '
        '"rows_fallback": 0, "rows_vectorized": 26200, "statements": 144, '
        '"vectorized_selects": 48}, "sampling": {"backend": "batched", '
        '"parity_fallbacks": 0, "sampled_batched": 100, "sampled_fallback": 0}, '
        '"scheduler": {"dedup_hits": 0, "jobs_completed": 0, "jobs_retired_early": 0, '
        '"worlds_budgeted": 0, "worlds_spent": 0}, "service": '
        '{"bytes_shipped": 0, "bytes_zero_copy": 0, "cache_hits": 0, "cache_misses": 0,'
        ' "cache_tmp_swept": 0, "executor_kind": "inline", "executor_workers": 1, '
        '"inline_rescues": 0, "points_evaluated": 40, "pool_rebuilds": 0, '
        '"sampled_batched": 0, "sampled_fallback": 0, "segments_leased": 0, '
        '"segments_reclaimed": 0, "shard_retries": 0, "shard_tasks": 0, '
        '"shard_timeouts": 0, "shard_transport": "pickle", "transport_fallbacks": 0}, '
        '"week_memo": {"hits": 1169, "misses": 209}}'
    ),
}


def _client(n_worlds: int) -> ProphetClient:
    sampling = SamplingConfig(n_worlds=n_worlds, base_seed=42)
    return ProphetClient.open(FIGURE2_DSL, "demo", config=ClientConfig(sampling=sampling))


def _results_digests(results) -> dict[str, str]:
    """One hash over every result's expectation bytes and one over its
    stddev bytes, in order."""
    digests = {"expectations": hashlib.sha256(), "stddevs": hashlib.sha256()}
    for statistics in results:
        for alias in sorted(statistics.aliases()):
            for name, read in (("expectations", statistics.expectation), ("stddevs", statistics.stddev)):
                digests[name].update(alias.encode())
                digests[name].update(read(alias).tobytes())
    return {name: digest.hexdigest() for name, digest in digests.items()}


def _mappings_digest(registry) -> tuple[int, str]:
    records = [
        [r.vg_name, list(r.basis_args), list(r.target_args), r.mapped_fraction.hex(),
         r.kind_counts]
        for r in registry.mappings
    ]
    return len(records), hashlib.sha256(json.dumps(records).encode()).hexdigest()


def _walk_moves(values, n_moves: int = 40, seed: int = 7):
    """A seeded walk moving one slider one step at a time (clamped)."""
    rng = random.Random(seed)
    position = [len(domain) // 2 for _, domain in values]
    for _ in range(n_moves):
        axis = int(rng.random() * len(values))
        step = 1 if rng.random() < 0.5 else -1
        position[axis] = min(max(position[axis] + step, 0), len(values[axis][1]) - 1)
        yield {name: domain[i] for (name, domain), i in zip(values, position)}


@pytest.fixture(scope="module")
def grid_run():
    client = _client(64)
    try:
        results = [result.statistics for result in client.sweep()]
        yield client, results
    finally:
        client.close()


def test_grid_sweep_results_and_counters(grid_run):
    client, results = grid_run
    assert len(results) == 588
    assert _results_digests(results) == {k: GRID[k] for k in ("expectations", "stddevs")}
    assert client.stats().to_json() == GRID["stats"]
    assert client.engine.invocation_count() == 14328
    assert client.engine.component_sample_count() == 139672


def test_grid_sweep_maps_every_point_from_the_same_basis(grid_run):
    client, _ = grid_run
    registry = client.engine.registry
    assert _mappings_digest(registry) == GRID["mappings"]
    totals = {"identity": 0, "shift": 0, "affine": 0, "unmapped": 0}
    for record in registry.mappings:
        for kind, count in record.kind_counts.items():
            totals[kind] += count
    assert totals == GRID["kind_totals"]


def test_slider_walk_results_mappings_and_counters():
    client = _client(50)
    try:
        values = [(p.name, tuple(p.values)) for p in client.scenario.sweep_space]
        session = client.interactive()
        results = []
        for sliders in _walk_moves(values):
            session.set_sliders(sliders)
            results.append(session.refresh().statistics)
        assert _results_digests(results) == {k: WALK[k] for k in ("expectations", "stddevs")}
        assert _mappings_digest(client.engine.registry) == WALK["mappings"]
        assert client.stats().to_json() == WALK["stats"]
    finally:
        client.close()
