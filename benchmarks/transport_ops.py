"""Shared transport microbench ops: ship one shard fan-out generation.

The two legs the pytest guard (``bench_transport.py``) compares:

* **pickle** — what the default transport does per task: the world slice
  and the hot basis snapshot pickle *per shard* on dispatch, the shard's
  sample matrix pickles on reply;
* **shm** — what ``shard_transport="shm"`` does per generation: the
  coordinator packs worlds + snapshot into one leased segment and reserves
  result regions, workers attach and read/write views, the coordinator
  merges straight from the segment.

The payload shapes model a refinement-heavy session on an 8-way pool:
two hot ~170 KB basis entries (one per ``feature`` value touched) and a
3-component result matrix per shard — the snapshot re-pickles once *per
shard* on the pickle leg and packs once on the shm leg, which is where
the win lives.

Both legs run with the cyclic GC paused: pickling's allocation churn
triggers full collections whose cost depends on the host process's heap
size (CPython's gen2 25%-growth rule), not on the transport. Pausing GC
measures the transport and is conservative toward pickle.
"""

from __future__ import annotations

import gc
import pickle
import time

import numpy as np

from repro.core.storage import BasisEntry
from repro.serve.transport import (
    SegmentArena,
    SegmentReader,
    generation_nbytes,
    pack_snapshot,
    snapshot_nbytes,
)
from repro.serve.worker import BasisSnapshot

SNAPSHOT_WORLDS = 400
SNAPSHOT_COMPONENTS = 53


def synthetic_snapshot() -> BasisSnapshot:
    """A hot-basis snapshot shaped like a real refinement-heavy session.

    Two hot entries — one per ``feature`` value the session has touched —
    is what a sweep over the demo grid leaves in the coordinator store.
    """
    rng = np.random.default_rng(11)
    return BasisSnapshot(
        version="bench-v1",
        vg_name="DemandModel",
        entries=tuple(
            BasisEntry(
                vg_name="DemandModel",
                args=(feature,),
                samples=rng.standard_normal((SNAPSHOT_WORLDS, SNAPSHOT_COMPONENTS)),
                worlds=tuple(range(SNAPSHOT_WORLDS)),
                seeds=tuple(range(1, SNAPSHOT_WORLDS + 1)),
            )
            for feature in (12, 36)
        ),
        fingerprints=tuple(
            ((feature,), rng.standard_normal((8, SNAPSHOT_COMPONENTS)))
            for feature in (12, 36)
        ),
    )


def generation_payload(
    n_worlds: int = 400, n_shards: int = 8, n_components: int = 3
) -> tuple[list[tuple[int, ...]], list[np.ndarray]]:
    """One generation's shard world slices and their result matrices."""
    rng = np.random.default_rng(7)
    shard_worlds = [tuple(range(i, n_worlds, n_shards)) for i in range(n_shards)]
    shard_results = [
        rng.standard_normal((len(worlds), n_components)) for worlds in shard_worlds
    ]
    return shard_worlds, shard_results


def ship_pickle(
    snapshot: BasisSnapshot,
    shard_worlds: list[tuple[int, ...]],
    shard_results: list[np.ndarray],
    rounds: int,
) -> float:
    """Seconds to ship ``rounds`` generations via per-task pickles."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(rounds):
            for worlds, result in zip(shard_worlds, shard_results):
                # Coordinator -> worker: the snapshot re-pickles per task.
                task = pickle.dumps(
                    (worlds, snapshot), protocol=pickle.HIGHEST_PROTOCOL
                )
                _, _ = pickle.loads(task)
                # Worker -> coordinator: the shard's sample matrix.
                reply = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
                merged = pickle.loads(reply)
                assert merged.shape == result.shape
        return time.perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()


def ship_shm(
    snapshot: BasisSnapshot,
    shard_worlds: list[tuple[int, ...]],
    shard_results: list[np.ndarray],
    rounds: int,
) -> float:
    """Seconds to ship ``rounds`` generations via arena pack + views."""
    n_shards = len(shard_worlds)
    n_components = shard_results[0].shape[1]
    arena = SegmentArena()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    try:
        for _ in range(rounds):
            rows = [len(worlds) for worlds in shard_worlds]
            lease = arena.lease(
                generation_nbytes(rows, n_components) + snapshot_nbytes(snapshot)
            )
            try:
                # Coordinator packs once; tasks carry descriptors only.
                snapshot_ref = pack_snapshot(lease, snapshot)
                world_refs = [
                    lease.pack(np.asarray(worlds, dtype=np.int64))
                    for worlds in shard_worlds
                ]
                result_refs = [
                    lease.reserve(result.shape, result.dtype)
                    for result in shard_results
                ]
                # Worker side: attach, read worlds + snapshot, write results.
                reader = SegmentReader()
                try:
                    for i in range(n_shards):
                        worlds = reader.view(world_refs[i])
                        assert worlds.shape[0] == rows[i]
                        for entry_ref in snapshot_ref.entries:
                            samples = reader.view(entry_ref.samples)
                            assert samples.shape == (
                                SNAPSHOT_WORLDS,
                                SNAPSHOT_COMPONENTS,
                            )
                        out = reader.view(result_refs[i])
                        out[...] = shard_results[i]
                finally:
                    reader.close()
                # Coordinator merges straight from the segment views.
                for i in range(n_shards):
                    merged = lease.view(result_refs[i])
                    assert merged.shape == shard_results[i].shape
            finally:
                arena.release(lease)
        return time.perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()
        arena.release_all()
