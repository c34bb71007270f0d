"""One shard task: representation and runner independence, stated once.

A shard is a pure function of ``(spec, point, worlds)``, so how a
:class:`~repro.serve.worker.ShardTask`'s bulk fields travel (in the
pickle or behind a segment descriptor) and who runs it (a pool worker
finding its engine by ``task.spec``, or a caller passing its own) cannot
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
from repro.serve.transport import SegmentLease, generation_nbytes
from repro.serve.worker import ShardTask, run_shard

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="platform has no usable shared memory"
)

SHM = TransportConfig(shard_transport="shm")
POINT_A = {"purchase1": 0, "purchase2": 26, "feature": 12}


class _Recording(InlineExecutor):
    """Keeps every ``(fn, args)`` the dispatcher submits."""

    def __init__(self) -> None:
        super().__init__()
        self.submitted: list[tuple] = []

    def submit(self, fn, *args, lane=None):
        self.submitted.append((fn, args))
        return super().submit(fn, *args, lane=lane)


def _service(spec, executor, **kwargs):
    return EvaluationService(
        spec, executor=executor, shards=2, min_shard_worlds=1, **kwargs
    )


@pytest.fixture(scope="module")
def fanout_task(serve_spec) -> ShardTask:
    """A real task, as the service's fan-out submits it."""
    executor = _Recording()
    service = _service(serve_spec, executor)
    service.evaluate(POINT_A, worlds=range(16))
    service.close()
    assert {fn for fn, _ in executor.submitted} == {run_shard}
    return executor.submitted[0][1][0]


@pytest.fixture(scope="module")
def one_worker():
    executor = ProcessExecutor(1)
    yield executor
    executor.shutdown()


def _representations(arena, task, worlds, n_components):
    """Every way ``task`` over ``worlds`` can travel, and the lease used."""
    # Room for the worlds column and a result region per shipped-back task.
    lease = arena.lease(generation_nbytes([len(worlds)] * 2, n_components))
    worlds_ref = lease.pack(np.asarray(worlds, dtype=np.int64))
    tasks = [
        replace(
            task,
            worlds=worlds_as,
            result=lease.reserve((len(worlds), n_components), np.float64)
            if shipped_back
            else None,
        )
        for worlds_as, shipped_back in itertools.product(
            (tuple(worlds), worlds_ref), (False, True)
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
        sample.sampled_batched,
        sample.sampled_fallback,
    )


class TestRepresentationIndependence:
    def test_every_representation_and_runner_agree(
        self, serve_spec, fanout_task, one_worker
    ):
        task = fanout_task
        worlds = tuple(range(8))
        engine = serve_spec.build()
        n_components = engine.library.get(
            engine.scenario.vg_output(task.alias).vg_name
        ).n_components
        reference = _observable(
            run_shard(replace(task, worlds=worlds, result=None), engine), None
        )

        arena = SegmentArena()
        lease, tasks = _representations(arena, task, worlds, n_components)
        assert len(tasks) == 4
        try:
            for representation in tasks:
                in_process = run_shard(representation)
                handed_in = run_shard(representation, engine)
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
    def test_any_world_slice_agrees(
        self, serve_spec, fanout_task, size, start
    ):
        worlds = tuple(range(start, start + size))
        engine = worker._engine_for(serve_spec)
        n_components = engine.library.get(
            engine.scenario.vg_output(fanout_task.alias).vg_name
        ).n_components
        reference = _observable(
            run_shard(replace(fanout_task, worlds=worlds, result=None)), None
        )
        arena = SegmentArena()
        lease, tasks = _representations(arena, fanout_task, worlds, n_components)
        try:
            for representation in tasks:
                assert _observable(run_shard(representation), lease) == reference
        finally:
            arena.release(lease)
        assert arena.live_segments() == 0


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
