"""The shared-memory result transport of point tasks.

Three contracts pinned here:

* **Parity** — the shm transport changes where bytes live, never what
  they are: statistics are bitwise identical to the pickle path across
  loop/batched sampling backends, adaptive rounds, and chaos plans.
* **Descriptor-sized results** — under shm a task's result pickle carries
  only the region's descriptor, not its statistics.
* **No leaks** — every leased segment is reclaimed: after collection,
  after chaos (crashes, hangs, garbage, pool rebuilds), and at close; the
  arena's lease/reclaim counters must end equal.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import ProphetClient, TransportConfig
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
from serve_testutil import POINT, SERVE_DSL, InProcessPool, assert_stats_identical

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="platform has no usable shared memory"
)

SHM = TransportConfig(shard_transport="shm")


def _service(spec, executor, *, transport=None, **kwargs):
    return EvaluationService(spec, executor=executor, transport=transport, **kwargs)


def _assert_no_leaks(service):
    assert service._arena.live_segments() == 0
    assert service.stats.segments_leased == service.stats.segments_reclaimed


class TestTransportConfig:
    def test_unknown_transport_rejected(self):
        with pytest.raises(ScenarioError, match="unknown shard_transport"):
            TransportConfig(shard_transport="carrier-pigeon")

    def test_enabled_only_for_shm(self):
        assert not TransportConfig().enabled
        assert TransportConfig(shard_transport="shm").enabled


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
    def test_an_inline_service_leases_nothing(self, serve_spec):
        shm = _service(serve_spec, InlineExecutor(), transport=SHM)
        plain = _service(serve_spec, InlineExecutor())
        assert_stats_identical(
            shm.evaluate(POINT, reuse=False).statistics,
            plain.evaluate(POINT, reuse=False).statistics,
        )
        assert shm.stats.segments_leased == shm.stats.bytes_zero_copy == 0

    def test_process_shm_is_bit_identical_to_pickle(
        self, serve_spec, process_executor
    ):
        shm = _service(serve_spec, process_executor, transport=SHM)
        plain = _service(serve_spec, process_executor)
        a = shm.evaluate(POINT, reuse=False)
        b = plain.evaluate(POINT, reuse=False)
        assert_stats_identical(a.statistics, b.statistics)
        assert shm.stats.segments_leased == 1
        assert shm.stats.bytes_zero_copy > 0
        assert plain.stats.bytes_shipped > 0
        _assert_no_leaks(shm)

    def test_loop_backend_shm_is_bit_identical(self, process_executor):
        spec = EngineSpec.from_dsl(
            SERVE_DSL,
            config=EngineConfig(
                sampling=SamplingConfig(n_worlds=16, backend="loop"),
            ),
        )
        shm = _service(spec, process_executor, transport=SHM)
        plain = _service(spec, process_executor)
        assert_stats_identical(
            shm.evaluate(POINT, reuse=False).statistics,
            plain.evaluate(POINT, reuse=False).statistics,
        )
        _assert_no_leaks(shm)

    def test_logical_byte_accounting_matches_pickle(
        self, serve_spec, process_executor
    ):
        """Both transports count the same logical payload bytes — shm under
        ``bytes_zero_copy``, pickle under ``bytes_shipped``."""
        shm = _service(serve_spec, process_executor, transport=SHM)
        plain = _service(serve_spec, process_executor)
        shm.evaluate(POINT, reuse=False)
        plain.evaluate(POINT, reuse=False)
        assert shm.stats.bytes_zero_copy == plain.stats.bytes_shipped
        assert shm.stats.bytes_shipped == 0
        assert plain.stats.bytes_zero_copy == 0


class TestResultPayloadSize:
    def _result_bytes(self, spec, transport, n_worlds):
        executor = InProcessPool()
        service = _service(spec, executor, transport=transport)
        service.evaluate(POINT, worlds=range(n_worlds), reuse=False)
        service.close()
        assert len(executor.result_bytes) == 1
        return executor.result_bytes[0]

    def test_shm_results_carry_a_descriptor_not_the_statistics(self, serve_spec):
        n_weeks = 53
        statistics_bytes = 2 * 3 * n_weeks * 8  # (mean, stddev) x 3 outputs
        pickled = self._result_bytes(serve_spec, None, 16)
        shm = self._result_bytes(serve_spec, SHM, 16)
        assert pickled - shm >= statistics_bytes - 256
        # Neither grows with the world count: a task ships statistics back.
        assert abs(self._result_bytes(serve_spec, None, 64) - pickled) < 64


class TestTransportFallbacks:
    def test_unavailable_shm_falls_back_to_pickle(
        self, serve_spec, process_executor, monkeypatch
    ):
        import repro.serve.service as service_module

        monkeypatch.setattr(service_module, "shm_available", lambda: False)
        shm = _service(serve_spec, process_executor, transport=SHM)
        plain = _service(serve_spec, process_executor)
        a = shm.evaluate(POINT, reuse=False)
        b = plain.evaluate(POINT, reuse=False)
        assert_stats_identical(a.statistics, b.statistics)
        assert shm.stats.transport_fallbacks == 1
        assert shm.stats.segments_leased == 0


#: Four points whose tasks the chaos plans below fault.
CHAOS_POINTS = [
    POINT,
    {"purchase1": 26, "purchase2": 52, "feature": 36},
    {"purchase1": 52, "purchase2": 0, "feature": 12},
    {"purchase1": 0, "purchase2": 0, "feature": 36},
]


class TestChaosTransport:
    """Chaos + shm is bitwise identical to fault-free pickle, and pool
    churn never strands a segment."""

    def test_seeded_chaos_is_bit_identical_and_leak_free(
        self, serve_spec, sequential_engine
    ):
        references = [
            sequential_engine.evaluate_point(point, reuse=False) for point in CHAOS_POINTS
        ]
        plan = FaultPlan.seeded(
            31, tasks=4, rate=0.5, kinds=("crash", "hang", "garbage"), hang_seconds=0.3
        )
        assert len(plan) > 0
        service = EvaluationService(
            serve_spec,
            executor=ProcessExecutor(2),
            transport=SHM,
            fault_plan=plan,
            resilience=ResilienceConfig(shard_timeout=5.0, retry_backoff=0.0),
        )
        try:
            evaluations = [service.evaluate(p, reuse=False) for p in CHAOS_POINTS]
        finally:
            service.close()
        for evaluation, reference in zip(evaluations, references):
            assert_stats_identical(evaluation.statistics, reference.statistics)
        assert service.stats.shard_retries > 0  # the plan actually fired
        _assert_no_leaks(service)

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_any_raise_or_garbage_plan_is_bit_identical(self, serve_spec, seed):
        plan = FaultPlan.seeded(
            seed, tasks=4, rate=0.5, kinds=("raise", "garbage"), attempts=2
        )
        chaos = EvaluationService(
            serve_spec,
            executor=InProcessPool(),
            transport=SHM,
            fault_plan=plan,
            resilience=ResilienceConfig(retry_backoff=0.0),
        )
        plain = EvaluationService(serve_spec, executor=InlineExecutor())
        for point in CHAOS_POINTS:
            assert_stats_identical(
                chaos.evaluate(point, reuse=False).statistics,
                plain.evaluate(point, reuse=False).statistics,
            )
        assert chaos.stats.shard_tasks == len(CHAOS_POINTS)
        _assert_no_leaks(chaos)


class TestClientTransport:
    def _client(self, *, shm: bool, workers=None, adaptive=False):
        client = (
            ProphetClient.open(SERVE_DSL, "demo", name="transport_scenario")
            .with_sampling(n_worlds=16)
            .with_serving(workers=workers, executor="process" if workers else "inline")
        )
        if adaptive:
            client = client.with_adaptive(target_ci=1e-9, min_worlds=8)
        if shm:
            client = client.with_transport(shard_transport="shm")
        return client

    def test_client_shm_parity_and_leak_free_close(self):
        with self._client(shm=True, workers=2) as shm_client:
            with self._client(shm=False, workers=2) as plain_client:
                a = shm_client.evaluate(POINT, reuse=False)
                b = plain_client.evaluate(POINT, reuse=False)
                assert_stats_identical(a.statistics, b.statistics)
                report = shm_client.stats()
                assert report.service["shard_transport"] == "shm"
                assert report.service["bytes_zero_copy"] > 0
                assert "transport: shm" in report.render()
            arena = shm_client._service._arena
        assert arena.live_segments() == 0  # zero live segments after close()

    def test_adaptive_rounds_shm_parity(self):
        with self._client(shm=True, workers=2, adaptive=True) as shm_client:
            with self._client(shm=False, adaptive=True) as plain_client:
                a = shm_client.evaluate(POINT, reuse=False)
                b = plain_client.evaluate(POINT, reuse=False)
                assert_stats_identical(a.statistics, b.statistics)
                rounds = len(shm_client._scheduler._adaptive_sweeps[-1].states[0].evaluator.rounds)
                assert shm_client._service.stats.segments_leased == rounds > 1
            arena = shm_client._service._arena
        assert arena.live_segments() == 0
