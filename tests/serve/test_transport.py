"""The zero-copy shared-memory shard transport.

Three contracts pinned here:

* **Parity** — the shm transport changes where bytes live, never what
  they are: merged statistics are bitwise identical to the pickle path
  across inline/process executors, loop/batched sampling backends,
  adaptive on/off, and chaos plans.
* **O(1) task pickles** — under shm the pickled fan-out task carries only
  segment descriptors, so its size is flat in the world count (the pickle
  baseline, recorded alongside, grows linearly).
* **No leaks** — every leased segment is reclaimed: after merges, after
  chaos (crashes, hangs, garbage, pool rebuilds), and at close; the
  arena's lease/reclaim counters must end equal.
"""

from __future__ import annotations

import pickle
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import ClientConfig, ProphetClient, TransportConfig
from repro.core.config import EngineConfig, SamplingConfig
from repro.errors import ScenarioError, ServeError
from repro.serve import (
    EngineSpec,
    EvaluationService,
    FaultPlan,
    InlineExecutor,
    ProcessExecutor,
    ResilienceConfig,
    SegmentArena,
    ServiceStats,
    shm_available,
)
from serve_testutil import POINT, SERVE_DSL, assert_stats_identical

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="platform has no usable shared memory"
)

SHM = TransportConfig(shard_transport="shm")


def _service(spec, executor, *, transport=None, **kwargs):
    return EvaluationService(
        spec,
        executor=executor,
        shards=2,
        min_shard_worlds=1,
        transport=transport,
        **kwargs,
    )


def _assert_no_leaks(service):
    assert service._arena.live_segments() == 0
    assert service.stats.segments_leased == service.stats.segments_reclaimed


class TestTransportConfig:
    def test_unknown_transport_rejected(self):
        with pytest.raises(ScenarioError, match="unknown shard_transport"):
            TransportConfig(shard_transport="carrier-pigeon")

    def test_tiny_segment_cap_rejected(self):
        with pytest.raises(ScenarioError, match="segment_cap_bytes"):
            TransportConfig(segment_cap_bytes=512)

    def test_enabled_only_for_shm(self):
        assert not TransportConfig().enabled
        assert TransportConfig(shard_transport="shm").enabled

    def test_non_default_transport_forces_service(self):
        assert not ClientConfig().wants_service()
        assert ClientConfig(transport=SHM).wants_service()


class TestSegmentArena:
    def test_pack_view_round_trip(self):
        arena = SegmentArena()
        lease = arena.lease(4096)
        matrix = np.arange(24, dtype=float).reshape(4, 6) / 7.0
        ref = lease.pack(matrix)
        assert ref.offset % 64 == 0
        assert ref.nbytes == matrix.nbytes
        assert lease.view(ref).tobytes() == matrix.tobytes()
        arena.release(lease)
        assert arena.live_segments() == 0

    def test_reserve_region_is_writable_and_aligned(self):
        arena = SegmentArena()
        lease = arena.lease(4096)
        lease.pack(np.arange(3, dtype=np.int64))  # misalign the cursor
        ref = lease.reserve((2, 3), np.float64)
        assert ref.offset % 64 == 0
        out = lease.view(ref)
        out[...] = 1.5
        assert lease.view(ref).sum() == 9.0
        arena.release(lease)

    def test_overflow_raises_permanent_error(self):
        arena = SegmentArena()
        lease = arena.lease(1024)
        with pytest.raises(ServeError, match="overflow"):
            lease.reserve((4096,), np.float64)
        arena.release(lease)

    def test_foreign_descriptor_rejected(self):
        arena = SegmentArena()
        a = arena.lease(1024)
        b = arena.lease(1024)
        ref = a.pack(np.arange(4, dtype=float))
        with pytest.raises(ServeError, match="lease is"):
            b.view(ref)
        arena.release_all()

    def test_release_is_idempotent(self):
        arena = SegmentArena()
        lease = arena.lease(1024)
        arena.release(lease)
        assert arena.live_segments() == 0
        arena.release(lease)  # already reclaimed (the sweeper may race it)
        assert arena.segments_reclaimed == 1

    def test_release_all_reclaims_everything(self):
        stats = ServiceStats()
        arena = SegmentArena(stats=stats)
        for _ in range(3):
            arena.lease(1024)
        arena.release_all()
        assert arena.live_segments() == 0
        assert stats.segments_leased == 3
        assert stats.segments_reclaimed == 3

    def test_ttl_sweep_reclaims_expired_leases(self):
        arena = SegmentArena(ttl=0.01)
        arena.lease(1024)
        assert arena.sweep_expired() == 0  # not expired yet... probably
        time.sleep(0.02)
        swept = arena.sweep_expired()
        assert swept + arena.segments_expired >= 1
        assert arena.live_segments() == 0


class TestPackRoundTripProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        shapes=st.lists(
            st.tuples(
                st.lists(st.integers(0, 6), min_size=1, max_size=3),
                st.sampled_from(["<f8", "<i8", "<u8", "<f4"]),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_any_array_sequence_round_trips(self, shapes):
        """Packing any mix of shapes/dtypes into one lease preserves bytes."""
        arrays = []
        for index, (shape, dtype) in enumerate(shapes):
            count = int(np.prod(shape))
            flat = np.arange(count, dtype=dtype) * (index + 1)
            arrays.append(flat.reshape(shape))
        arena = SegmentArena()
        lease = arena.lease(sum(a.nbytes + 64 for a in arrays) + 64)
        refs = [lease.pack(a) for a in arrays]
        for ref, array in zip(refs, arrays):
            view = lease.view(ref)
            assert view.shape == array.shape
            assert view.dtype == array.dtype
            assert view.tobytes() == array.tobytes()
        arena.release(lease)
        assert arena.live_segments() == 0


class TestShmParity:
    def test_inline_shm_is_bit_identical_to_pickle(self, serve_spec):
        shm = _service(serve_spec, InlineExecutor(), transport=SHM)
        plain = _service(serve_spec, InlineExecutor())
        a = shm.evaluate(POINT)
        b = plain.evaluate(POINT)
        assert_stats_identical(a.statistics, b.statistics)
        assert shm.stats.bytes_zero_copy > 0
        assert shm.stats.transport_fallbacks == 0
        _assert_no_leaks(shm)

    def test_process_shm_is_bit_identical_to_pickle(
        self, serve_spec, process_executor
    ):
        shm = _service(serve_spec, process_executor, transport=SHM)
        plain = _service(serve_spec, process_executor)
        a = shm.evaluate(POINT)
        b = plain.evaluate(POINT)
        assert_stats_identical(a.statistics, b.statistics)
        assert shm.stats.bytes_zero_copy > 0
        assert plain.stats.bytes_shipped > 0
        _assert_no_leaks(shm)

    def test_loop_backend_shm_is_bit_identical(self):
        spec = EngineSpec.from_dsl(
            SERVE_DSL,
            config=EngineConfig(
                sampling=SamplingConfig(n_worlds=16, backend="loop"),
            ),
        )
        shm = _service(spec, InlineExecutor(), transport=SHM)
        plain = _service(spec, InlineExecutor())
        assert_stats_identical(
            shm.evaluate(POINT).statistics, plain.evaluate(POINT).statistics
        )
        _assert_no_leaks(shm)

    def test_logical_byte_accounting_matches_pickle(
        self, serve_spec, process_executor
    ):
        """Both transports count the same logical payload bytes — shm under
        ``bytes_zero_copy``, pickle under ``bytes_shipped``."""
        shm = _service(serve_spec, process_executor, transport=SHM)
        plain = _service(serve_spec, process_executor)
        shm.evaluate(POINT)
        plain.evaluate(POINT)
        assert shm.stats.bytes_zero_copy == plain.stats.bytes_shipped
        assert shm.stats.bytes_shipped == 0
        assert plain.stats.bytes_zero_copy == 0


class _RecordingExecutor(InlineExecutor):
    """Masquerades as a process pool (so the service builds the picklable
    task variants) while running tasks inline; records what each task
    submission would have cost to pickle."""

    kind = "process"

    def __init__(self) -> None:
        super().__init__()
        self.task_bytes: list[int] = []

    def submit(self, fn, *args, lane=None):
        # The lane routes the task; it is not part of what gets pickled.
        self.task_bytes.append(
            len(pickle.dumps((fn, args), protocol=pickle.HIGHEST_PROTOCOL))
        )
        return super().submit(fn, *args, lane=lane)


class TestTaskPayloadSize:
    """Satellite: pickled fan-out tasks are O(1) in n_worlds under shm."""

    def _max_task_bytes(self, spec, transport, n_worlds):
        executor = _RecordingExecutor()
        service = _service(spec, executor, transport=transport)
        service.evaluate(POINT, worlds=range(n_worlds))
        service.close()
        assert executor.task_bytes
        return max(executor.task_bytes)

    def test_shm_task_pickles_stay_flat_in_world_count(self, serve_spec):
        shm_small = self._max_task_bytes(serve_spec, SHM, 64)
        shm_large = self._max_task_bytes(serve_spec, SHM, 512)
        pickle_small = self._max_task_bytes(serve_spec, None, 64)
        pickle_large = self._max_task_bytes(serve_spec, None, 512)
        # The pickle baseline grows with the world count (recorded here so
        # a transport regression shows up as a ratio, not a magic number)...
        assert pickle_large - pickle_small > 500
        # ...while shm tasks carry descriptors only: flat, and far below
        # the baseline's growth.
        assert abs(shm_large - shm_small) < 256
        assert abs(shm_large - shm_small) < (pickle_large - pickle_small) / 4


class TestTransportFallbacks:
    def test_generation_over_segment_cap_falls_back_to_pickle(self, serve_spec):
        tiny = TransportConfig(shard_transport="shm", segment_cap_bytes=1024)
        shm = _service(serve_spec, InlineExecutor(), transport=tiny)
        plain = _service(serve_spec, InlineExecutor())
        a = shm.evaluate(POINT, worlds=range(64))
        b = plain.evaluate(POINT, worlds=range(64))
        assert_stats_identical(a.statistics, b.statistics)
        assert shm.stats.transport_fallbacks > 0
        assert shm.stats.bytes_zero_copy == 0
        _assert_no_leaks(shm)

    def test_unavailable_shm_falls_back_to_pickle(self, serve_spec, monkeypatch):
        import repro.serve.service as service_module

        monkeypatch.setattr(service_module, "shm_available", lambda: False)
        shm = _service(serve_spec, InlineExecutor(), transport=SHM)
        plain = _service(serve_spec, InlineExecutor())
        a = shm.evaluate(POINT)
        b = plain.evaluate(POINT)
        assert_stats_identical(a.statistics, b.statistics)
        assert shm.stats.transport_fallbacks > 0
        assert shm.stats.segments_leased == 0


class TestChaosTransport:
    """Satellite: chaos + shm is bitwise identical to fault-free pickle,
    and pool churn never strands a segment."""

    def test_seeded_chaos_is_bit_identical_and_leak_free(self, serve_spec):
        plain = _service(serve_spec, InlineExecutor())
        reference = plain.evaluate(POINT)

        executor = ProcessExecutor(2)
        service = EvaluationService(
            serve_spec,
            executor=executor,
            shards=4,
            min_shard_worlds=1,
            transport=SHM,
            fault_plan=FaultPlan.seeded(
                31,
                shards=12,
                rate=0.5,
                kinds=("crash", "hang", "garbage"),
                hang_seconds=0.3,
            ),
            resilience=ResilienceConfig(shard_timeout=5.0, retry_backoff=0.0),
        )
        try:
            evaluation = service.evaluate(POINT)
        finally:
            service.close()
        assert_stats_identical(evaluation.statistics, reference.statistics)
        assert service.stats.shard_retries > 0  # the plan actually fired
        _assert_no_leaks(service)

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_any_inline_chaos_plan_is_bit_identical(self, serve_spec, seed):
        plan = FaultPlan.seeded(
            seed, shards=16, rate=0.5, kinds=("raise", "garbage"), attempts=2
        )
        chaos = EvaluationService(
            serve_spec,
            executor=InlineExecutor(),
            shards=4,
            min_shard_worlds=1,
            transport=SHM,
            fault_plan=plan,
            resilience=ResilienceConfig(retry_backoff=0.0),
        )
        plain = EvaluationService(
            serve_spec, executor=InlineExecutor(), shards=4, min_shard_worlds=1
        )
        assert_stats_identical(
            chaos.evaluate(POINT).statistics, plain.evaluate(POINT).statistics
        )
        _assert_no_leaks(chaos)


class TestClientTransport:
    def _client(self, *, shm: bool, workers=None, adaptive=False):
        client = (
            ProphetClient.open(SERVE_DSL, "demo", name="transport_scenario")
            .with_sampling(n_worlds=16)
            .with_serving(
                workers=workers,
                executor="process" if workers else "inline",
                shards=2,
                min_shard_worlds=1,
            )
        )
        if adaptive:
            client = client.with_adaptive(target_ci=1e-9, min_worlds=8)
        if shm:
            client = client.with_transport(shard_transport="shm")
        return client

    def test_client_shm_parity_and_leak_free_close(self):
        with self._client(shm=True, workers=2) as shm_client:
            with self._client(shm=False, workers=2) as plain_client:
                a = shm_client.evaluate(POINT)
                b = plain_client.evaluate(POINT)
                assert_stats_identical(a.statistics, b.statistics)
                report = shm_client.stats()
                assert report.service["shard_transport"] == "shm"
                assert report.service["bytes_zero_copy"] > 0
                assert "transport: shm" in report.render()
            arena = shm_client._service._arena
        assert arena.live_segments() == 0  # zero live segments after close()

    def test_adaptive_rounds_shm_parity(self):
        with self._client(shm=True, adaptive=True) as shm_client:
            with self._client(shm=False, adaptive=True) as plain_client:
                a = shm_client.evaluate(POINT)
                b = plain_client.evaluate(POINT)
                assert_stats_identical(a.statistics, b.statistics)
                assert shm_client._service.stats.bytes_zero_copy > 0
            arena = shm_client._service._arena
        assert arena.live_segments() == 0
