"""Sharded-vs-sequential parity: the serve layer's core contract.

Sharded evaluation — any world pattern, shard count, executor and
transport — must return bit-identical :class:`AxisStatistics` to the plain
sequential ``ProphetEngine.evaluate_point``, and result-cache hits must
serve byte-identical payloads.
"""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.core.persistence import save_bases
from repro.errors import ScenarioError
from repro.serve import (
    EngineSpec,
    EvaluationService,
    InlineExecutor,
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


def _inline_service(spec, shards, **kwargs):
    return EvaluationService(
        spec,
        executor=InlineExecutor(),
        shards=shards,
        min_shard_worlds=1,
        **kwargs,
    )


class TestShardedParity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_inline_executor(self, serve_spec, sequential_engine, shards):
        reference = sequential_engine.evaluate_point(POINT)
        service = _inline_service(serve_spec, shards)
        evaluation = service.evaluate(POINT)
        assert_stats_identical(evaluation.statistics, reference.statistics)
        assert evaluation.n_worlds == reference.n_worlds

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_process_executor(
        self, serve_spec, sequential_engine, process_executor, shards
    ):
        reference = sequential_engine.evaluate_point(POINT)
        service = EvaluationService(
            serve_spec,
            executor=process_executor,
            shards=shards,
            min_shard_worlds=1,
        )
        evaluation = service.evaluate(POINT)
        assert_stats_identical(evaluation.statistics, reference.statistics)
        assert service.stats.shard_tasks >= shards  # one per output per shard

    def test_sweep_parity_with_reuse(self, serve_spec, sequential_engine):
        """A multi-point sweep (fingerprint reuse active) stays bit-identical.

        Reuse decisions are made on the coordinator — shard workers only
        ever fresh-sample — so the mapped/exact/fresh mix of a sweep is the
        sequential engine's, point for point.
        """
        points = [
            {"purchase1": 0, "purchase2": 0, "feature": 12},
            {"purchase1": 0, "purchase2": 26, "feature": 12},
            {"purchase1": 26, "purchase2": 26, "feature": 12},
            {"purchase1": 26, "purchase2": 52, "feature": 36},
        ]
        service = _inline_service(serve_spec, 2)
        for point in points:
            reference = sequential_engine.evaluate_point(point)
            evaluation = service.evaluate(point)
            assert_stats_identical(evaluation.statistics, reference.statistics)
            assert [r.source for r in evaluation.reuse_reports] == [
                r.source for r in reference.reuse_reports
            ]

    def test_progressive_world_prefixes(self, serve_spec, sequential_engine):
        """Growing world prefixes (online refinement) keep parity."""
        service = _inline_service(serve_spec, 4)
        for stop in (4, 8, 16):
            reference = sequential_engine.evaluate_point(POINT, worlds=range(stop))
            evaluation = service.evaluate(POINT, worlds=range(stop))
            assert_stats_identical(evaluation.statistics, reference.statistics)


class TestMixedWorldParity:
    """A over a world prefix, then B over the full slice.

    The coordinator holds A's basis for half of B's worlds only, so it
    cannot map B from it; every shard of B is fresh sampling and the pair
    answers with the sequential engine's bits whatever the shard geometry.
    """

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("executor_kind", ["inline", "process"])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_partial_then_full_matches_the_sequential_engine(
        self,
        serve_spec,
        sequential_engine,
        process_executor,
        shards,
        executor_kind,
        transport,
    ):
        executor = process_executor if executor_kind == "process" else InlineExecutor()
        service = EvaluationService(
            serve_spec,
            executor=executor,
            shards=shards,
            min_shard_worlds=1,
            transport=TransportConfig(shard_transport=transport),
        )
        for point, stop in ((POINT_A, 8), (POINT_B, 16)):
            reference = sequential_engine.evaluate_point(point, worlds=range(stop))
            evaluation = service.evaluate(point, worlds=range(stop))
            assert_stats_identical(evaluation.statistics, reference.statistics)
        if executor_kind == "inline":  # the process pool is session-shared
            service.close()
        assert service._arena.live_segments() == 0
        assert service.stats.segments_leased == service.stats.segments_reclaimed

    def test_partial_then_full_is_cached_and_persisted(self, serve_spec, tmp_path):
        service = _inline_service(serve_spec, 2, cache_dir=str(tmp_path / "results"))
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
    import json

    from repro.api.stats import StatsReport
    from repro.serve import Scheduler

    if scheduler is None:
        scheduler = Scheduler(service)
    report = json.loads(
        StatsReport.gather(service.engine, service=service, scheduler=scheduler).to_json()
    )
    report.pop("scheduler", None)
    return json.dumps(report, sort_keys=True)


class TestPipelinedSweepParity:
    """A queued sweep begins point *k+1* behind point *k*'s combine (on a
    process pool) — and nothing anybody can count or hash may show it."""

    @pytest.mark.parametrize("reuse", [True, False], ids=["reuse", "fresh"])
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("executor_kind", ["inline", "process"])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_queued_sweep_equals_one_evaluate_at_a_time(
        self,
        serve_spec,
        sequential_engine,
        process_executor,
        shards,
        executor_kind,
        transport,
        reuse,
    ):
        from repro.serve import Scheduler

        def service():
            return EvaluationService(
                serve_spec,
                executor=process_executor if executor_kind == "process" else InlineExecutor(),
                shards=shards,
                min_shard_worlds=1,
                transport=TransportConfig(shard_transport=transport),
            )

        # The reference with no queue, hence nothing to begin ahead.
        one_at_a_time = service()
        for point, stop in PIPELINE_SWEEP:
            one_at_a_time.evaluate(point, worlds=range(stop), reuse=reuse)

        queued = service()
        scheduler = Scheduler(queued)
        jobs = [
            scheduler.submit(point, worlds=range(stop), reuse=reuse)
            for point, stop in PIPELINE_SWEEP
        ]
        begun = []
        begin = queued.begin
        queued.begin = lambda point, **kw: begun.append(dict(point)) or begin(point, **kw)
        finished = scheduler.run_pending()

        assert [job.id for job in finished] == [job.id for job in jobs]  # in order
        # Every job but the first was begun behind its predecessor — exactly
        # when the shards run in other processes.
        expected_begun = [point for point, _ in PIPELINE_SWEEP[1:]]
        assert begun == (expected_begun if executor_kind == "process" else [])
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
        assert queued.engine._begun is None
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

    def test_a_direct_evaluate_between_two_results_keeps_the_begun_point(
        self, serve_spec, sequential_engine, process_executor
    ):
        """``service.evaluate`` mid-sweep (no queue) arrives while the next
        job is begun: the begun point lands first — it keeps its place in
        the order — and is resumed, not redone, when its job runs."""
        from repro.serve import Scheduler

        service = EvaluationService(
            serve_spec, executor=process_executor, shards=2, min_shard_worlds=1
        )
        scheduler = Scheduler(service)
        (first, _), (second, _), (third, _) = PIPELINE_SWEEP[0], PIPELINE_SWEEP[1], PIPELINE_SWEEP[3]
        jobs = [scheduler.submit(point) for point in (first, second)]
        assert scheduler.run_next() is jobs[0]
        assert service.engine._begun is not None  # job 2, begun behind job 1
        interloper = service.evaluate(third)
        assert service.engine._begun is not None  # landed, still waiting for its job
        assert scheduler.run_next() is jobs[1]
        assert service.engine._begun is None
        # The order that happened: first, second's samples, third, second's combine.
        for point, evaluation in ((first, jobs[0].result), (second, jobs[1].result), (third, interloper)):
            reference = sequential_engine.evaluate_point(point)
            assert_stats_identical(evaluation.statistics, reference.statistics)
        # Nothing was sampled or decided twice: the counters are those of the
        # three requests evaluated one at a time in that order.
        in_order = EvaluationService(
            serve_spec, executor=process_executor, shards=2, min_shard_worlds=1
        )
        for point in (first, second, third):
            in_order.evaluate(point)
        assert _counters(service) == _counters(in_order)
        assert service._arena.live_segments() == 0


class TestResultCacheParity:
    def test_cache_hits_are_byte_identical(
        self, serve_spec, sequential_engine, tmp_path
    ):
        cache_dir = str(tmp_path / "results")
        first = _inline_service(serve_spec, 2, cache_dir=cache_dir)
        computed = first.evaluate(POINT)
        assert first.stats.cache_misses == 1 and first.stats.cache_hits == 0

        key = first._key_for(computed.point, tuple(range(16)))
        stored_payload = first.cache.get(key).payload

        # A second service (fresh process, conceptually a restarted run)
        # must hit, with the identical payload bytes backing the answer.
        second = _inline_service(serve_spec, 2, cache_dir=cache_dir)
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
        service = _inline_service(serve_spec, 1, cache_dir=str(tmp_path))
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
        service = _inline_service(
            serve_spec, 1, cache_dir=str(tmp_path) if cached else None
        )
        service.evaluate(POINT, worlds=[1, 2, 3, 4])
        with pytest.raises(ScenarioError, match="world ids must be integers"):
            service.evaluate(POINT, worlds=worlds)

    @pytest.mark.parametrize("cached", [False, True])
    def test_repeated_world_ids_are_rejected_before_the_cache(
        self, serve_spec, tmp_path, cached
    ):
        service = _inline_service(
            serve_spec, 1, cache_dir=str(tmp_path) if cached else None
        )
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
        service = _inline_service(
            serve_spec, 1, cache_dir=str(tmp_path) if cached else None
        )
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
        service = _inline_service(serve_spec, 1, cache_dir=str(tmp_path))
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
