"""Service-level observability of the sampling-plane backend.

Worker engines keep their own ExecutionStats, so the coordinator cannot see
worker-side fallback there; the counts ride back on every ShardSample and
accumulate into ``ServiceStats.sampled_batched``/``sampled_fallback``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.instance import InstanceBatch
from repro.serve import EngineSpec, EvaluationService, InlineExecutor
from repro.serve.worker import ShardTask, run_shard
from serve_testutil import POINT, SERVE_DSL, assert_stats_identical


def _service(spec, shards: int) -> EvaluationService:
    return EvaluationService(
        spec, executor=InlineExecutor(), shards=shards, min_shard_worlds=1
    )


class TestServiceSamplingCounters:
    def test_batched_worlds_counted_across_shards(self, serve_spec):
        service = _service(serve_spec, shards=4)
        service.evaluate(POINT)
        n_outputs = len(service.scenario.vg_outputs)
        n_worlds = service.engine.config.sampling.n_worlds
        assert service.stats.sampled_batched == n_worlds * n_outputs
        assert service.stats.sampled_fallback == 0

    def test_loop_backend_counts_as_fallback(self, serve_config):
        config = replace(
            serve_config, sampling=replace(serve_config.sampling, backend="loop")
        )
        spec = EngineSpec.from_dsl(SERVE_DSL, config=config)
        service = _service(spec, shards=2)
        service.evaluate(POINT)
        n_outputs = len(service.scenario.vg_outputs)
        assert service.stats.sampled_batched == 0
        assert service.stats.sampled_fallback == config.sampling.n_worlds * n_outputs

    def test_backend_choice_is_bit_identical_through_serve(
        self, serve_spec, serve_config, sequential_engine
    ):
        batched = _service(serve_spec, shards=3).evaluate(POINT)
        loop_spec = EngineSpec.from_dsl(
            SERVE_DSL, config=replace(
            serve_config, sampling=replace(serve_config.sampling, backend="loop")
        )
        )
        loop = _service(loop_spec, shards=3).evaluate(POINT)
        assert_stats_identical(batched.statistics, loop.statistics)
        reference = sequential_engine.evaluate_point(POINT)
        assert_stats_identical(batched.statistics, reference.statistics)

    @pytest.mark.parametrize("backend", ["batched", "loop"])
    @pytest.mark.parametrize("executor", ["inline", "process"])
    def test_single_shard_generation_is_one_run_shard(
        self, serve_config, process_executor, backend, executor
    ):
        """A slice too small to split is sampled from the engine's own batch
        on the coordinator: bit-identical to ``sample_fresh``, and counted
        exactly as one :func:`run_shard` call over the same slice."""
        config = replace(
            serve_config, sampling=replace(serve_config.sampling, backend=backend)
        )
        spec = EngineSpec.from_dsl(SERVE_DSL, config=config)
        if executor == "inline":
            service = EvaluationService(spec, executor=InlineExecutor(), shards=1)
        else:
            # 12 worlds is below 2 * min_shard_worlds: one shard, never shipped.
            service = EvaluationService(
                spec, executor=process_executor, shards=2, min_shard_worlds=8
            )
        reference = spec.build()
        point = service.scenario.validate_sweep_point(POINT)
        worlds = tuple(range(12))
        for output in service.scenario.vg_outputs:
            before = service.stats.as_dict()
            batch = InstanceBatch.at_point(point, worlds, config.sampling.base_seed)
            samples = service._sharded_sampler(output, batch)
            shard = run_shard(
                ShardTask(None, output.alias, tuple(sorted(point.items())), worlds),
                reference,
            )
            fresh = reference.sample_fresh(output.alias, point, worlds)
            assert samples.tobytes() == shard.samples.tobytes() == fresh.tobytes()
            after = service.stats.as_dict()
            moved = {name: after[name] - before[name] for name in after}
            expected = {
                "shard_tasks": 1,
                "shard_generations": 1,
                "sampled_worlds": len(worlds),
                "sampled_batched": shard.sampled_batched,
                "sampled_fallback": shard.sampled_fallback,
            }
            assert {name: delta for name, delta in moved.items() if delta} == {
                name: delta for name, delta in expected.items() if delta
            }

    def test_single_shard_path_counts_too(self, serve_spec):
        service = EvaluationService(
            serve_spec, executor=InlineExecutor(), shards=1
        )
        service.evaluate(POINT)
        n_outputs = len(service.scenario.vg_outputs)
        n_worlds = service.engine.config.sampling.n_worlds
        assert service.stats.sampled_batched == n_worlds * n_outputs
