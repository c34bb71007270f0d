"""Pooled-vs-sequential parity: the serve layer's core contract.

Evaluation through the service — any request sequence, worker count,
executor, transport and fault plan — must return bit-identical
:class:`AxisStatistics` to the plain sequential
``ProphetEngine.evaluate_point``, and result-cache hits must serve
byte-identical payloads. A ``reuse=False`` request is a point task on a
process pool and runs on the coordinator otherwise; a ``reuse=True``
request always runs on the coordinator.
"""

from __future__ import annotations

import json
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.core.persistence import save_bases
from repro.errors import ScenarioError, ServeError
from repro.serve import (
    EngineSpec,
    EvaluationService,
    FaultPlan,
    InlineExecutor,
    ProcessExecutor,
    ResilienceConfig,
    Scheduler,
    TransportConfig,
    shm_available,
)
from serve_testutil import POINT, SERVE_DSL, assert_stats_identical

#: Two points that differ only in the demand model's argument: B's demand
#: basis is fingerprint-mappable from A's.
POINT_A = {"purchase1": 0, "purchase2": 26, "feature": 12}
POINT_B = {"purchase1": 0, "purchase2": 26, "feature": 36}

TRANSPORTS = [
    "pickle",
    pytest.param(
        "shm",
        marks=pytest.mark.skipif(
            not shm_available(), reason="platform has no usable shared memory"
        ),
    ),
]

#: Fault plans over a four-point sweep's tasks: none, and transient faults
#: on three of them that a retry clears.
PLANS = {
    "healthy": None,
    "faults": FaultPlan.seeded(1, tasks=4, rate=0.5, kinds=("raise", "garbage")),
}

SWEEP = [
    {"purchase1": 0, "purchase2": 0, "feature": 12},
    {"purchase1": 0, "purchase2": 26, "feature": 12},
    {"purchase1": 26, "purchase2": 26, "feature": 12},
    {"purchase1": 26, "purchase2": 52, "feature": 36},
]


@pytest.fixture(scope="module")
def one_worker():
    executor = ProcessExecutor(1)
    yield executor
    executor.shutdown()


@pytest.fixture
def executors(process_executor, one_worker):
    """``(kind, workers) -> executor``: the session's pools, or inline."""

    def pick(kind: str, workers: int):
        if kind == "inline":
            return InlineExecutor()
        return one_worker if workers == 1 else process_executor

    return pick


def _inline_service(spec, **kwargs):
    return EvaluationService(spec, executor=InlineExecutor(), **kwargs)


class TestPointTaskParity:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("plan", sorted(PLANS))
    @pytest.mark.parametrize("executor_kind", ["inline", "process"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_fresh_sweep_matches_the_sequential_engine(
        self, serve_spec, sequential_engine, executors, workers, executor_kind, plan, transport
    ):
        service = EvaluationService(
            serve_spec,
            executor=executors(executor_kind, workers),
            fault_plan=PLANS[plan],
            resilience=ResilienceConfig(retry_backoff=0.0),
            transport=TransportConfig(shard_transport=transport),
        )
        scheduler = Scheduler(service)
        jobs = scheduler.submit_sweep(SWEEP, reuse=False)
        scheduler.run_pending()
        for job, point in zip(jobs, SWEEP):
            reference = sequential_engine.evaluate_point(point, reuse=False)
            assert job.status == "done"
            assert_stats_identical(job.result.statistics, reference.statistics)
            assert [r.source for r in job.result.reuse_reports] == ["fresh", "fresh"]
        pooled = executor_kind == "process"
        assert service.stats.shard_tasks == (len(SWEEP) if pooled else 0)
        if pooled and plan == "faults":
            assert service.stats.shard_retries > 0  # the plan actually fired
        assert len(service.engine.storage) == 0  # reuse=False stored nothing
        assert service._arena.live_segments() == 0
        assert service.stats.segments_leased == service.stats.segments_reclaimed

    @pytest.mark.parametrize("executor_kind", ["inline", "process"])
    def test_sweep_parity_with_reuse(
        self, serve_spec, sequential_engine, executors, executor_kind
    ):
        """A multi-point sweep (fingerprint reuse active) stays bit-identical.

        Reuse decisions are made on the coordinator, so the
        mapped/exact/fresh mix of a sweep is the sequential engine's, point
        for point.
        """
        service = EvaluationService(serve_spec, executor=executors(executor_kind, 2))
        for point in SWEEP:
            reference = sequential_engine.evaluate_point(point)
            evaluation = service.evaluate(point)
            assert_stats_identical(evaluation.statistics, reference.statistics)
            assert [r.source for r in evaluation.reuse_reports] == [
                r.source for r in reference.reuse_reports
            ]
        assert service.stats.shard_tasks == 0

    @pytest.mark.parametrize("reuse", [True, False], ids=["reuse", "fresh"])
    def test_progressive_world_prefixes(
        self, serve_spec, sequential_engine, process_executor, reuse
    ):
        """Growing world prefixes (online refinement) keep parity."""
        service = EvaluationService(serve_spec, executor=process_executor)
        for stop in (4, 8, 16):
            reference = sequential_engine.evaluate_point(POINT, worlds=range(stop), reuse=reuse)
            evaluation = service.evaluate(POINT, worlds=range(stop), reuse=reuse)
            assert_stats_identical(evaluation.statistics, reference.statistics)


class TestMixedWorldParity:
    """A over a world prefix, then B over the full slice.

    The coordinator holds A's basis for half of B's worlds only, so it
    cannot map B from it; the pair answers with the sequential engine's
    bits whatever the executor, transport or reuse mode.
    """

    @pytest.mark.parametrize("reuse", [True, False], ids=["reuse", "fresh"])
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("executor_kind", ["inline", "process"])
    def test_partial_then_full_matches_the_sequential_engine(
        self, serve_spec, sequential_engine, executors, executor_kind, transport, reuse
    ):
        service = EvaluationService(
            serve_spec,
            executor=executors(executor_kind, 2),
            transport=TransportConfig(shard_transport=transport),
        )
        for point, stop in ((POINT_A, 8), (POINT_B, 16)):
            reference = sequential_engine.evaluate_point(
                point, worlds=range(stop), reuse=reuse
            )
            evaluation = service.evaluate(point, worlds=range(stop), reuse=reuse)
            assert_stats_identical(evaluation.statistics, reference.statistics)
        if executor_kind == "inline":  # the process pool is session-shared
            service.close()
        assert service._arena.live_segments() == 0
        assert service.stats.segments_leased == service.stats.segments_reclaimed

    def test_partial_then_full_is_cached_and_persisted(self, serve_spec, tmp_path):
        service = _inline_service(serve_spec, cache_dir=str(tmp_path / "results"))
        service.evaluate(POINT_A, worlds=range(8))
        service.evaluate(POINT_B, worlds=range(16))
        assert len(service.cache) == 2

        # Nothing latches: a second service over the same engine caches too.
        second = EvaluationService(
            engine=service.engine, cache_dir=str(tmp_path / "second")
        )
        second.evaluate(POINT_B, worlds=range(16))
        assert len(second.cache) == 1

        n_bases = len(service.engine.storage)
        assert n_bases > 0
        assert save_bases(service.engine, tmp_path / "bases") == n_bases


#: A sweep whose points meet every reuse decision (with ``reuse=True``): both
#: outputs miss; demand exact-hits while capacity misses or maps; a world
#: prefix is extended; demand maps from another feature; one output
#: exact-hits while the other extends. ``(point, worlds)`` pairs.
PIPELINE_SWEEP = [
    ({"purchase1": 0, "purchase2": 0, "feature": 12}, 8),
    ({"purchase1": 0, "purchase2": 26, "feature": 12}, 8),
    ({"purchase1": 0, "purchase2": 0, "feature": 12}, 16),
    ({"purchase1": 26, "purchase2": 26, "feature": 36}, 16),
    ({"purchase1": 0, "purchase2": 26, "feature": 36}, 16),
    ({"purchase1": 52, "purchase2": 52, "feature": 12}, 16),
    ({"purchase1": 26, "purchase2": 26, "feature": 12}, 16),
]


def _counters(service, scheduler=None) -> str:
    """``StatsReport.to_json()`` without its ``scheduler`` section."""
    from repro.api.stats import StatsReport

    if scheduler is None:
        scheduler = Scheduler(service)
    report = json.loads(
        StatsReport.gather(service.engine, service=service, scheduler=scheduler).to_json()
    )
    report.pop("scheduler", None)
    return json.dumps(report, sort_keys=True)


class TestQueuedSweepParity:
    """A queued sweep on a process pool starts point *k+1*'s task before
    point *k*'s is collected — and nothing anybody can count or hash may
    show it."""

    @pytest.mark.parametrize("reuse", [True, False], ids=["reuse", "fresh"])
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("executor_kind", ["inline", "process"])
    def test_queued_sweep_equals_one_evaluate_at_a_time(
        self, serve_spec, sequential_engine, executors, executor_kind, transport, reuse
    ):
        def service():
            return EvaluationService(
                serve_spec,
                executor=executors(executor_kind, 2),
                transport=TransportConfig(shard_transport=transport),
            )

        # The reference with no queue, hence nothing to start ahead.
        one_at_a_time = service()
        for point, stop in PIPELINE_SWEEP:
            one_at_a_time.evaluate(point, worlds=range(stop), reuse=reuse)

        queued = service()
        scheduler = Scheduler(queued)
        jobs = [
            scheduler.submit(point, worlds=range(stop), reuse=reuse)
            for point, stop in PIPELINE_SWEEP
        ]
        finished = scheduler.run_pending()

        assert [job.id for job in finished] == [job.id for job in jobs]  # in order
        sources = []
        for job, (point, stop) in zip(jobs, PIPELINE_SWEEP):
            reference = sequential_engine.evaluate_point(
                point, worlds=range(stop), reuse=reuse
            )
            assert job.status == "done"
            assert_stats_identical(job.result.statistics, reference.statistics)
            assert [r.source for r in job.result.reuse_reports] == [
                r.source for r in reference.reuse_reports
            ]
            sources += [r.source for r in reference.reuse_reports]
        if reuse:
            assert {"fresh", "exact", "mapped"} <= set(sources)
        assert _counters(queued, scheduler) == _counters(one_at_a_time)
        assert queued.engine.registry.mappings == one_at_a_time.engine.registry.mappings
        assert queued.engine.registry.mappings == sequential_engine.registry.mappings
        assert scheduler._started == {}
        assert queued._arena.live_segments() == 0
        assert queued.stats.segments_leased == queued.stats.segments_reclaimed

    def test_a_prefix_is_extended_and_a_basis_mapped_in_this_sweep(self, sequential_engine):
        """The sweep above is only worth its name if it meets the decisions
        it claims to: an extend (acquire after store) and a mapped hit."""
        store_calls = []
        original = sequential_engine.storage.store
        sequential_engine.storage.store = lambda f, a, s, w, seeds: (
            store_calls.append(len(w)) or original(f, a, s, w, seeds)
        )
        for point, stop in PIPELINE_SWEEP:
            sequential_engine.evaluate_point(point, worlds=range(stop))
        assert 16 in store_calls and 8 in store_calls
        assert sequential_engine.storage.mapped_hits > 0
        assert sequential_engine.storage.exact_hits > 0
        assert sequential_engine.storage.misses > 0

    def test_a_direct_evaluate_between_two_results_leaves_the_started_task_alone(
        self, serve_spec, sequential_engine, process_executor
    ):
        """``service.evaluate`` mid-sweep (no queue) arrives while the next
        job's task is in flight: it runs on the coordinator, and the task —
        which reads and writes no coordinator state — is collected, not
        redone, when its job runs."""
        service = EvaluationService(serve_spec, executor=process_executor)
        scheduler = Scheduler(service)
        (first, _), (second, _), (third, _) = (
            PIPELINE_SWEEP[0], PIPELINE_SWEEP[1], PIPELINE_SWEEP[3]
        )
        jobs = [scheduler.submit(point, reuse=False) for point in (first, second)]
        assert scheduler.run_next() is jobs[0]
        assert set(scheduler._started) == {jobs[1].id}
        interloper = service.evaluate(third)
        assert scheduler.run_next() is jobs[1]
        assert scheduler._started == {}
        for point, evaluation, reuse in (
            (first, jobs[0].result, False),
            (second, jobs[1].result, False),
            (third, interloper, True),
        ):
            reference = sequential_engine.evaluate_point(point, reuse=reuse)
            assert_stats_identical(evaluation.statistics, reference.statistics)
        # Nothing was sampled or decided twice: the counters are those of the
        # three requests evaluated one at a time in that order.
        in_order = EvaluationService(serve_spec, executor=process_executor)
        for point, reuse in ((first, False), (second, False), (third, True)):
            in_order.evaluate(point, reuse=reuse)
        assert _counters(service) == _counters(in_order)
        assert service.stats.shard_tasks == 2


class TestPooledRequestValidation:
    """A pooled ``reuse=False`` request is checked by the engine's own rules
    before it becomes a task: a bad one raises, counts as evaluated and
    starts no task."""

    @pytest.mark.parametrize(
        "worlds, message",
        [
            ([0.5, 1.5], "world ids must be integers"),
            (["1", "2"], "world ids must be integers"),
            ([1, 2, 2], "EvaluationService.evaluate world id 2 repeats"),
            ([], "needs at least one world"),
        ],
        ids=["floats", "strings", "repeats", "empty"],
    )
    def test_bad_worlds_raise_before_a_task(self, serve_spec, process_executor, worlds, message):
        service = EvaluationService(serve_spec, executor=process_executor)
        with pytest.raises(ScenarioError, match=message):
            service.evaluate(POINT, worlds=worlds, reuse=False)
        assert service.stats.points_evaluated == 1
        assert service.stats.shard_tasks == 0

    def test_an_off_grid_point_raises_before_a_task(self, serve_spec, process_executor):
        service = EvaluationService(serve_spec, executor=process_executor)
        with pytest.raises(ScenarioError):
            service.evaluate({**POINT, "purchase1": 13}, reuse=False)
        assert service.stats.shard_tasks == 0

    def test_an_inline_service_starts_no_task(self, serve_spec):
        service = EvaluationService(serve_spec, executor=InlineExecutor())
        with pytest.raises(ServeError, match="process executor"):
            service.start(POINT)


class TestResultCacheParity:
    def test_cache_hits_are_byte_identical(
        self, serve_spec, sequential_engine, tmp_path
    ):
        cache_dir = str(tmp_path / "results")
        first = _inline_service(serve_spec, cache_dir=cache_dir)
        computed = first.evaluate(POINT)
        assert first.stats.cache_misses == 1 and first.stats.cache_hits == 0

        key = first._key_for(computed.point, tuple(range(16)))
        stored_payload = first.cache.get(key).payload

        # A second service (fresh process, conceptually a restarted run)
        # must hit, with the identical payload bytes backing the answer.
        second = _inline_service(serve_spec, cache_dir=cache_dir)
        served = second.evaluate(POINT)
        assert second.stats.cache_hits == 1
        assert second.cache.get(key).payload == stored_payload
        assert_stats_identical(served.statistics, computed.statistics)

        reference = sequential_engine.evaluate_point(POINT)
        assert_stats_identical(served.statistics, reference.statistics)

        # Cache-served evaluations carry no samples but full reuse reports.
        assert served.samples == {}
        assert all(r.source == "exact" for r in served.reuse_reports)
        assert all(
            "result_cache" in r.kind_counts for r in served.reuse_reports
        )

    def test_repeated_put_never_rewrites(self, serve_spec, tmp_path):
        service = _inline_service(serve_spec, cache_dir=str(tmp_path))
        evaluation = service.evaluate(POINT)
        key = service._key_for(evaluation.point, tuple(range(16)))
        payload = service.cache.get(key).payload
        assert service.cache.put(key, evaluation.statistics) == payload


    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize(
        "worlds", [[1.5, 2.2, 3.9, 4.0], ["1", "2", "3", "4"]], ids=["floats", "strings"]
    )
    def test_non_integer_world_ids_are_rejected_before_the_cache(
        self, serve_spec, tmp_path, cached, worlds
    ):
        service = _inline_service(serve_spec, cache_dir=str(tmp_path) if cached else None)
        service.evaluate(POINT, worlds=[1, 2, 3, 4])
        with pytest.raises(ScenarioError, match="world ids must be integers"):
            service.evaluate(POINT, worlds=worlds)

    @pytest.mark.parametrize("cached", [False, True])
    def test_repeated_world_ids_are_rejected_before_the_cache(
        self, serve_spec, tmp_path, cached
    ):
        service = _inline_service(serve_spec, cache_dir=str(tmp_path) if cached else None)
        service.evaluate(POINT, worlds=[1, 2, 3, 4])
        # A cached service checks first; an uncached one leaves it to the engine.
        entry = "EvaluationService.evaluate" if cached else "evaluate_point"
        with pytest.raises(ScenarioError, match=f"{entry} world id 2 repeats"):
            service.evaluate(POINT, worlds=[1, 2, 2, 2])

    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
    def test_a_rejected_request_counts_as_evaluated_and_nothing_else(
        self, serve_spec, tmp_path, cached
    ):
        """``points_evaluated`` counts every request the service is asked,
        one the engine rejects included, with or without a result cache."""
        service = _inline_service(serve_spec, cache_dir=str(tmp_path) if cached else None)
        before = service.stats.as_dict()
        with pytest.raises(ScenarioError, match="world ids must be integers"):
            service.evaluate(POINT, worlds=[0.5, 1.5])
        with pytest.raises(ScenarioError):
            service.evaluate({**POINT, "purchase1": 13})  # off the grid
        after = service.stats.as_dict()
        moved = {name: after[name] - before[name] for name in after}
        assert {name: delta for name, delta in moved.items() if delta} == {
            "points_evaluated": 2
        }

    def test_numpy_world_ids_hit_the_python_int_entry(self, serve_spec, tmp_path):
        service = _inline_service(serve_spec, cache_dir=str(tmp_path))
        service.evaluate(POINT, worlds=[0, 1, 2, 3])
        served = service.evaluate(POINT, worlds=np.arange(4))
        assert service.stats.cache_hits == 1
        assert served.n_worlds == 4


class TestEngineOnlyService:
    def test_defaults_to_inline_executor(self, sequential_engine):
        """No spec means no process workers — on any core count."""
        service = EvaluationService(engine=sequential_engine)
        assert isinstance(service.executor, InlineExecutor)
        evaluation = service.evaluate(POINT)
        assert evaluation.statistics is not None


class TestSpecContentHash:
    """The hash is derived from every section field."""

    @staticmethod
    def _variants(config):
        """One spec per section field, differing from ``config`` in that field."""
        changed = {
            int: lambda v: v + 1,
            float: lambda v: v * 1.5,
            bool: lambda v: not v,
            str: lambda v: "loop",
            type(None): lambda v: 3,
        }
        for section in fields(config):
            values = getattr(config, section.name)
            for f in fields(values):
                value = getattr(values, f.name)
                if f.name == "basis_dir":
                    value, bump = None, (lambda v: "/spill")
                else:
                    bump = changed[type(value)]
                yield (section.name, f.name), replace(
                    config, **{section.name: replace(values, **{f.name: bump(value)})}
                )

    def test_every_knob_changes_the_hash(self, serve_config):
        base = EngineSpec.from_dsl(SERVE_DSL, config=serve_config).content_hash()
        for knob, variant in self._variants(serve_config):
            hashed = EngineSpec.from_dsl(SERVE_DSL, config=variant).content_hash()
            assert hashed != base, knob

    def test_default_spec_hashes_are_pinned(self):
        """Recorded before the stats-cache knob left ``ReuseConfig``: it was
        excluded from the hash, so deleting it moved no spec's digest (and no
        worker's cached engine)."""
        from repro.models import FIGURE2_DSL

        assert EngineSpec.from_dsl(FIGURE2_DSL).content_hash() == (
            "2524ff25ba3c72343bb7ec21984a7cf512dc871423f1bab11a6d414e4ca1088f"
        )
        assert EngineSpec.from_builder("risk_vs_cost", purchase_step=16).content_hash() == (
            "659aadddf71e8bbd0170c0cec68e37e7414dcd18f391564dc66875a81e0bc802"
        )
