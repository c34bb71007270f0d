"""One shard task: representation and runner independence, stated once.

A shard is a pure function of ``(spec, point, worlds[, snapshot])``, so how
a :class:`~repro.serve.worker.ShardTask`'s bulk fields travel (in the
pickle or behind a segment descriptor) and who runs it (a pool worker
finding engine/store by ``task.spec``, or a caller passing its own) cannot
change the answer. This file pins that for every cell of the matrix the
serve layer used to spell out as separate functions, plus the two
ownership bugs that hid in the seams between them.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import TransportConfig
from repro.serve import (
    EvaluationService,
    FaultPlan,
    FaultSpec,
    InlineExecutor,
    ProcessExecutor,
    ResilienceConfig,
    SegmentArena,
    SegmentRef,
    shm_available,
)
from repro.serve import worker
from repro.serve.transport import (
    SegmentLease,
    generation_nbytes,
    pack_snapshot,
    snapshot_nbytes,
)
from repro.serve.worker import ShardTask, build_snapshot_store, run_shard

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="platform has no usable shared memory"
)

SHM = TransportConfig(shard_transport="shm")
POINT_A = {"purchase1": 0, "purchase2": 26, "feature": 12}
POINT_B = {"purchase1": 0, "purchase2": 26, "feature": 36}


class _Recording(InlineExecutor):
    """Keeps every ``(fn, args)`` the dispatcher submits."""

    def __init__(self) -> None:
        super().__init__()
        self.submitted: list[tuple] = []

    def submit(self, fn, *args):
        self.submitted.append((fn, args))
        return super().submit(fn, *args)


def _service(spec, executor, **kwargs):
    return EvaluationService(
        spec, executor=executor, shards=2, min_shard_worlds=1, **kwargs
    )


def _partial_then_full(service):
    """The snapshot-shipping pattern of test_shard_reuse.py."""
    service.evaluate(POINT_A, worlds=range(8))
    return service.evaluate(POINT_B, worlds=range(16))


@pytest.fixture(autouse=True)
def _fresh_snapshot_cache(monkeypatch):
    """Each test starts with an empty in-process snapshot-store cache."""
    monkeypatch.setattr(worker, "_SNAPSHOT_STORES", {})


@pytest.fixture(scope="module")
def snapshot_task(serve_spec) -> ShardTask:
    """A real fan-out task that carries a partial-coverage snapshot."""
    executor = _Recording()
    service = _service(serve_spec, executor)
    _partial_then_full(service)
    service.close()
    assert {fn for fn, _ in executor.submitted} == {run_shard}
    tasks = [args[0] for _, args in executor.submitted]
    return next(task for task in tasks if task.snapshot is not None)


@pytest.fixture(scope="module")
def one_worker():
    executor = ProcessExecutor(1)
    yield executor
    executor.shutdown()


def _representations(arena, task, worlds, n_components):
    """Every way ``task`` over ``worlds`` can travel, and the lease used."""
    # Room for one worlds column and a result region per shipped-back task.
    need = generation_nbytes([len(worlds)] * 4, n_components)
    if task.snapshot is not None:
        need += snapshot_nbytes(task.snapshot)
    lease = arena.lease(need)
    worlds_ref = lease.pack(np.asarray(worlds, dtype=np.int64))
    snapshots = [None]
    if task.snapshot is not None:
        # Distinct versions, so neither form is served from the store the
        # other one seeded: both seeding paths run, in every process.
        version = task.snapshot.version
        snapshots = [
            replace(task.snapshot, version=f"{version}:plain"),
            pack_snapshot(lease, replace(task.snapshot, version=f"{version}:ref")),
        ]
    tasks = [
        replace(
            task,
            worlds=worlds_as,
            snapshot=snapshot_as,
            result=lease.reserve((len(worlds), n_components), np.float64)
            if shipped_back
            else None,
        )
        for worlds_as, snapshot_as, shipped_back in itertools.product(
            (tuple(worlds), worlds_ref), snapshots, (False, True)
        )
    ]
    return lease, tasks


def _observable(sample, lease):
    """What a coordinator reads off a shard, with descriptors resolved."""
    samples = sample.samples
    if isinstance(samples, SegmentRef):
        samples = lease.view(samples)
    return (
        np.asarray(samples, dtype=float).tobytes(),
        sample.source,
        sample.basis_args,
        sample.mapped_fraction,
        sample.sampled_batched,
        sample.sampled_fallback,
    )


class TestRepresentationIndependence:
    @pytest.mark.parametrize("with_snapshot", [False, True])
    def test_every_representation_and_runner_agree(
        self, serve_spec, snapshot_task, one_worker, with_snapshot
    ):
        task = snapshot_task if with_snapshot else replace(snapshot_task, snapshot=None)
        worlds = tuple(range(8))  # the snapshot basis covers exactly these
        engine = serve_spec.build()
        n_components = engine.library.get(
            engine.scenario.vg_output(task.alias).vg_name
        ).n_components
        store = build_snapshot_store(engine, task.snapshot) if with_snapshot else None
        reference = _observable(
            run_shard(replace(task, worlds=worlds, result=None), engine, store), None
        )
        assert reference[1] == ("mapped" if with_snapshot else "fresh")

        arena = SegmentArena()
        lease, tasks = _representations(arena, task, worlds, n_components)
        assert len(tasks) == (8 if with_snapshot else 4)
        try:
            for representation in tasks:
                in_process = run_shard(representation)
                handed_in = run_shard(representation, engine, store)
                pooled = one_worker.submit(run_shard, representation).result(timeout=60)
                for sample in (in_process, handed_in, pooled):
                    assert _observable(sample, lease) == reference
                    shipped_back = isinstance(sample.samples, SegmentRef)
                    assert shipped_back == (representation.result is not None)
        finally:
            arena.release(lease)
        assert arena.live_segments() == 0

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(size=st.sampled_from([1, 7, 64]), start=st.integers(0, 12))
    def test_any_world_slice_against_a_partial_snapshot(
        self, serve_spec, snapshot_task, size, start
    ):
        """The snapshot covers worlds 0..7 only: slices inside, across and
        beyond it decide differently, never representation-dependently."""
        worlds = tuple(range(start, start + size))
        engine = worker._engine_for(serve_spec)
        n_components = engine.library.get(
            engine.scenario.vg_output(snapshot_task.alias).vg_name
        ).n_components
        reference = _observable(
            run_shard(replace(snapshot_task, worlds=worlds, result=None)), None
        )
        arena = SegmentArena()
        lease, tasks = _representations(arena, snapshot_task, worlds, n_components)
        try:
            for representation in tasks:
                assert _observable(run_shard(representation), lease) == reference
        finally:
            arena.release(lease)
        assert arena.live_segments() == 0


class TestSnapshotStoreCache:
    def test_one_live_version_per_vg_and_evicted_segments_close(
        self, serve_spec, snapshot_task
    ):
        spec_key = serve_spec.content_hash()
        vg = snapshot_task.snapshot.vg_name.lower()
        arena = SegmentArena()
        lease = arena.lease(3 * snapshot_nbytes(snapshot_task.snapshot))

        def versioned(tag, *, by_ref, vg_name=None):
            snapshot = replace(snapshot_task.snapshot, version=f"{vg_name or vg}:{tag}")
            if vg_name is not None:
                snapshot = replace(snapshot, entries=(), fingerprints=())
            return replace(
                snapshot_task,
                worlds=tuple(range(8)),
                snapshot=pack_snapshot(lease, snapshot) if by_ref else snapshot,
            )

        def live():
            return {version for key, version in worker._SNAPSHOT_STORES if key == spec_key}

        try:
            run_shard(versioned("other", by_ref=False, vg_name="othermodel"))
            first = run_shard(versioned("v1", by_ref=True))
            assert live() == {"othermodel:other", f"{vg}:v1"}
            attached = worker._SNAPSHOT_STORES[(spec_key, f"{vg}:v1")][1]
            assert attached and all(shm.buf is not None for shm in attached)

            # A plain snapshot evicts the ref-shipped one and closes its segments...
            second = run_shard(versioned("v2", by_ref=False))
            assert live() == {"othermodel:other", f"{vg}:v2"}
            assert all(shm.buf is None for shm in attached)
            assert worker._SNAPSHOT_STORES[(spec_key, f"{vg}:v2")][1] == ()

            # ...and a ref-shipped one evicts the plain one, through the same loop.
            third = run_shard(versioned("v3", by_ref=True))
            assert live() == {"othermodel:other", f"{vg}:v3"}
            assert _observable(first, None) == _observable(second, None)
            assert _observable(second, None) == _observable(third, None)
        finally:
            arena.release(lease)


class TestLeaseOwnership:
    """Bugfix: a generation's lease is released on *every* error path."""

    def test_pack_failure_mid_generation_releases_the_lease(
        self, serve_spec, monkeypatch
    ):
        real_pack = SegmentLease.pack
        calls = itertools.count(1)

        def second_pack_fails(self, array):
            if next(calls) == 2:
                raise MemoryError("no room for the second shard's worlds")
            return real_pack(self, array)

        monkeypatch.setattr(SegmentLease, "pack", second_pack_fails)
        service = _service(serve_spec, InlineExecutor(), transport=SHM)
        with pytest.raises(MemoryError, match="second shard"):
            service.evaluate(POINT_A)
        assert service.stats.segments_leased >= 1
        assert service._arena.live_segments() == 0
        assert service.stats.segments_leased == service.stats.segments_reclaimed

    def test_snapshot_pack_failure_releases_the_lease(
        self, serve_spec, process_executor, monkeypatch
    ):
        import repro.serve.service as service_module

        def failing_pack(lease, snapshot):
            raise MemoryError("no room for the snapshot")

        monkeypatch.setattr(service_module, "pack_snapshot", failing_pack)
        service = _service(serve_spec, process_executor, transport=SHM)
        with pytest.raises(MemoryError, match="snapshot"):
            _partial_then_full(service)
        assert service._arena.live_segments() == 0
        assert service.stats.segments_leased == service.stats.segments_reclaimed


class TestHealSweepsOnce:
    """Bugfix: one expired-lease sweep per pool rebuild, not two."""

    def test_crash_heal_sweeps_exactly_once_per_rebuild(self, serve_spec, monkeypatch):
        sweeps = itertools.count()
        real_sweep = SegmentArena.sweep_expired

        def counting_sweep(self):
            next(sweeps)
            return real_sweep(self)

        monkeypatch.setattr(SegmentArena, "sweep_expired", counting_sweep)
        executor = ProcessExecutor(2)
        service = _service(
            serve_spec,
            executor,
            transport=SHM,
            fault_plan=FaultPlan(faults=(FaultSpec(shard=0, kind="crash"),)),
            resilience=ResilienceConfig(shard_timeout=30.0, retry_backoff=0.0),
        )
        try:
            service.evaluate(POINT_A)
        finally:
            service.close()
        assert service.stats.pool_rebuilds >= 1
        assert next(sweeps) == service.stats.pool_rebuilds
        assert service._arena.live_segments() == 0
        assert service.stats.segments_leased == service.stats.segments_reclaimed
