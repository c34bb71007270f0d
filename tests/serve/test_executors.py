"""Shard -> worker lanes: one shard index, one worker process.

``ProcessExecutor`` is N single-worker lanes; ``submit(..., lane=i)``
always runs in worker ``i mod workers``. What that buys is that a worker
only ever meets its own world slice — its per-seed memos are drawn once and
never hold a neighbour's worlds — and what it must not cost is the bounded
``recycle``/``shutdown`` contract.
"""

from __future__ import annotations

import importlib.util
import os
import pickle
import sys
import time
from pathlib import Path

import pytest

from repro.serve import (
    EvaluationService,
    InlineExecutor,
    ProcessExecutor,
    Scheduler,
    TransportConfig,
    shm_available,
)
from repro.serve import worker as worker_module
from repro.serve.sharding import plan_shards
from repro.vg.seeds import world_seed
from serve_testutil import assert_stats_identical


def _seed_memos() -> dict[str, list[int]]:
    """Probe (runs in a worker): the seeds each model's event memo holds,
    over every engine this process has built for shard tasks."""
    held: dict[str, set[int]] = {}
    for engine in worker_module._WORKER_ENGINES.values():
        for function in engine.library:
            held.setdefault(function.name, set()).update(function._event_memo)
    return {name: sorted(seeds) for name, seeds in held.items()}


def _sleep(seconds: float) -> int:
    time.sleep(seconds)
    return os.getpid()


def _worker_pids(executor: ProcessExecutor) -> set[int]:
    return {pid for pool in executor._lanes for pid in (pool._processes or {})}


def assert_gone(pids: set[int], within: float = 5.0) -> None:
    """None of ``pids`` is a live child of this process (other tests'
    session-shared pool may well have children of its own)."""
    import multiprocessing

    def alive():
        return pids & {child.pid for child in multiprocessing.active_children()}

    deadline = time.monotonic() + within
    while alive() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not alive()


@pytest.fixture
def lanes():
    executor = ProcessExecutor(2)
    yield executor
    executor.shutdown()


class TestLaneRouting:
    def test_a_lane_is_one_process_and_lanes_are_different_processes(self, lanes):
        pids = {
            lane: {lanes.submit(os.getpid, lane=lane).result(timeout=30) for _ in range(3)}
            for lane in (0, 1, 2, 3)
        }
        assert all(len(seen) == 1 for seen in pids.values())
        assert pids[0] != pids[1]
        assert pids[2] == pids[0] and pids[3] == pids[1]  # lane mod workers
        assert os.getpid() not in pids[0] | pids[1]

    def test_tasks_of_one_lane_run_in_submission_order(self, lanes):
        slow = lanes.submit(_sleep, 0.3, lane=0)
        quick = lanes.submit(_sleep, 0.0, lane=0)
        other = lanes.submit(_sleep, 0.0, lane=1)
        assert other.result(timeout=30) != slow.result(timeout=30)
        assert other.done() and slow.done()
        assert quick.result(timeout=30) == slow.result(timeout=30)

    def test_without_a_lane_the_lanes_take_turns(self, lanes):
        first = lanes.submit(os.getpid).result(timeout=30)
        second = lanes.submit(os.getpid).result(timeout=30)
        assert first != second
        assert lanes.tasks_run == 2

    def test_inline_executor_ignores_the_lane(self):
        executor = InlineExecutor()
        assert executor.submit(os.getpid, lane=5).result() == os.getpid()

    def test_the_lane_is_not_part_of_the_pickled_task(self, lanes, monkeypatch):
        """What a lane's pool is asked to run is ``fn(*args)`` and nothing
        else — task size cannot depend on routing."""
        seen = []
        for pool in lanes._lanes:
            original = pool.submit
            monkeypatch.setattr(
                pool, "submit", lambda *a, _o=original, **k: seen.append((a, k)) or _o(*a, **k)
            )
        lanes.submit(len, (1, 2), lane=1).result(timeout=30)
        assert seen == [((len, (1, 2)), {})]
        assert len(pickle.dumps(seen[0][0])) == len(pickle.dumps((len, (1, 2))))


class TestLaneLifecycle:
    def test_recycle_rebuilds_every_lane(self, lanes):
        before = [lanes.submit(os.getpid, lane=lane).result(timeout=30) for lane in (0, 1)]
        lanes.recycle()
        after = [lanes.submit(os.getpid, lane=lane).result(timeout=30) for lane in (0, 1)]
        assert lanes.rebuilds == 1
        assert not set(before) & set(after)
        assert after[0] != after[1]

    def test_recycle_cancels_queued_work_and_breaks_running_work(self, lanes):
        from concurrent.futures import CancelledError
        from concurrent.futures.process import BrokenProcessPool

        running = lanes.submit(_sleep, 30.0, lane=0)
        time.sleep(0.3)  # let lane 0's worker pick it up
        # A lane's pool hands its worker up to two tasks ahead of the one it
        # runs; whatever is behind those is still cancellable.
        for _ in range(2):
            lanes.submit(_sleep, 30.0, lane=0)
        queued = lanes.submit(_sleep, 0.0, lane=0)
        started = time.monotonic()
        lanes.recycle(timeout=0.5)
        assert time.monotonic() - started < 10.0
        with pytest.raises(CancelledError):
            queued.result(timeout=30)
        with pytest.raises(BrokenProcessPool):
            running.result(timeout=30)
        assert lanes.submit(os.getpid, lane=0).result(timeout=30) != os.getpid()

    def test_shutdown_is_bounded_with_one_hung_lane(self):
        executor = ProcessExecutor(2)
        hung = executor.submit(_sleep, 300.0, lane=1)
        healthy = executor.submit(os.getpid, lane=0).result(timeout=30)
        time.sleep(0.2)
        workers = _worker_pids(executor)
        assert healthy in workers and len(workers) == 2
        started = time.monotonic()
        executor.shutdown(timeout=1.0)
        assert time.monotonic() - started < 10.0
        assert not hung.done() or hung.exception(timeout=0) is not None
        assert_gone(workers)


class TestWorkersKeepToTheirSlice:
    def test_seed_memos_hold_exactly_the_workers_own_slice(self, serve_spec, sequential_engine):
        """After a fresh (``reuse=False``) 6-point sweep over 2 shards, worker
        *i* has drawn seed events for the worlds of slice *i* and for no
        others — under one shared call queue either worker ended up holding
        both halves."""
        points = [dict(p) for p in sequential_engine.scenario.sweep_space.grid()][::3][:6]
        executor = ProcessExecutor(2)
        try:
            service = EvaluationService(
                serve_spec, executor=executor, shards=2, min_shard_worlds=1
            )
            scheduler = Scheduler(service)
            jobs = scheduler.submit_sweep(points, reuse=False)
            scheduler.run_pending()
            for job, point in zip(jobs, points):
                assert job.status == "done"
                assert_stats_identical(
                    job.result.statistics,
                    sequential_engine.evaluate_point(point, reuse=False).statistics,
                )
            memos = [executor.submit(_seed_memos, lane=lane).result(timeout=30) for lane in (0, 1)]
        finally:
            executor.shutdown()
        config = serve_spec.config.sampling
        slices = plan_shards(range(config.n_worlds), 2)
        sampled = {output.vg_name for output in sequential_engine.scenario.vg_outputs}
        for held, shard in zip(memos, slices):
            own = sorted(world_seed(config.base_seed, world) for world in shard.worlds)
            assert {name: held[name] for name in sampled} == dict.fromkeys(sampled, own)
            # Models the scenario never samples drew nothing at all.
            assert all(not seeds for name, seeds in held.items() if name not in sampled)


# -- the ledger's wrappers, from outside ---------------------------------------

LEDGER = Path(__file__).resolve().parents[2] / "benchmarks" / "ledger"


def _load_spans():
    spec = importlib.util.spec_from_file_location("ledger_spans", LEDGER / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not shm_available(), reason="platform has no usable shared memory")
def test_the_ledger_submit_wrapper_still_installs_and_sizes_tasks_without_the_lane(serve_spec):
    """``spans.py`` wraps ``ProcessExecutor.submit`` from outside and pickles
    what it is given after ``(executor, fn)``: the lane travels as a keyword,
    so ``task_bytes_max`` is the size of the task alone."""
    spans = _load_spans()
    recorder = spans.Recorder()
    executor = ProcessExecutor(2)
    try:
        service = EvaluationService(
            serve_spec,
            executor=executor,
            shards=2,
            min_shard_worlds=1,
            transport=TransportConfig(shard_transport="shm"),
        )
        sizes = []
        original = ProcessExecutor.submit

        def sized(self, fn, *args, **kwargs):
            sizes.append(len(pickle.dumps(args)))
            assert set(kwargs) == {"lane"}
            return original(self, fn, *args, **kwargs)

        ProcessExecutor.submit = sized
        try:
            with spans.Instrumentation(recorder):
                assert ProcessExecutor.submit is not sized  # wrapped on top
                service.evaluate({"purchase1": 0, "purchase2": 26, "feature": 12})
        finally:
            ProcessExecutor.submit = original
        assert ProcessExecutor.submit is original
    finally:
        executor.shutdown()
    assert sizes and recorder.tallies["serve.transport.task_bytes_max"] == max(sizes)
    names = {span[spans.NAME] for span in recorder.spans}
    assert {"serve.executors:submit", "serve.executors:inflight"} <= names
