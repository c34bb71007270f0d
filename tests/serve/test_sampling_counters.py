"""Service-level observability of the sampling-plane backend.

Worker engines keep their own ExecutionStats, so the coordinator cannot see
worker-side fallback there; the counts ride back on every ShardSample and
accumulate into ``ServiceStats.sampled_batched``/``sampled_fallback``.
"""

from __future__ import annotations

from dataclasses import replace


from repro.serve import EngineSpec, EvaluationService, InlineExecutor
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

    def test_single_shard_path_counts_too(self, serve_spec):
        service = EvaluationService(
            serve_spec, executor=InlineExecutor(), shards=1
        )
        service.evaluate(POINT)
        n_outputs = len(service.scenario.vg_outputs)
        n_worlds = service.engine.config.sampling.n_worlds
        assert service.stats.sampled_batched == n_worlds * n_outputs
