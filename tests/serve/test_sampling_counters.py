"""Service-level observability of the sampling-plane backend.

Worker engines keep their own ExecutionStats, so the coordinator cannot see
worker-side fallback there; the counts ride back on every PointResult and
accumulate into ``ServiceStats.sampled_batched``/``sampled_fallback``. An
in-process service runs no task and counts no rows of its own: its
engine's ``sampling`` counters are the whole story.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.serve import EngineSpec, EvaluationService, InlineExecutor
from serve_testutil import POINT, SERVE_DSL, assert_stats_identical


def _spec(serve_config, backend: str) -> EngineSpec:
    config = replace(serve_config, sampling=replace(serve_config.sampling, backend=backend))
    return EngineSpec.from_dsl(SERVE_DSL, config=config)


class TestServiceSamplingCounters:
    @pytest.mark.parametrize("backend", ["batched", "loop"])
    def test_a_point_task_counts_its_rows_by_backend(
        self, serve_config, process_executor, backend
    ):
        service = EvaluationService(_spec(serve_config, backend), executor=process_executor)
        before = service.stats.as_dict()
        service.evaluate(POINT, worlds=range(12), reuse=False)
        after = service.stats.as_dict()
        moved = {name: after[name] - before[name] for name in after}
        rows = 12 * len(service.scenario.vg_outputs)
        n_weeks = service.engine.library.get("DemandModel").n_components
        expected = {
            "points_evaluated": 1,
            "shard_tasks": 1,
            "sampled_batched" if backend == "batched" else "sampled_fallback": rows,
            "bytes_shipped": 2 * len(service.scenario.output_aliases) * n_weeks * 8,
        }
        assert {name: delta for name, delta in moved.items() if delta} == expected
        assert service.engine.executor.stats.sampled_batched == 0  # not the coordinator

    def test_an_inline_service_counts_no_rows(self, serve_spec):
        service = EvaluationService(serve_spec, executor=InlineExecutor())
        service.evaluate(POINT, reuse=False)
        assert service.stats.sampled_batched == service.stats.shard_tasks == 0
        n_outputs = len(service.scenario.vg_outputs)
        n_worlds = service.engine.config.sampling.n_worlds
        assert service.engine.executor.stats.sampled_batched == n_worlds * n_outputs

    def test_backend_choice_is_bit_identical_through_serve(
        self, serve_config, process_executor, sequential_engine
    ):
        reference = sequential_engine.evaluate_point(POINT)
        for backend in ("batched", "loop"):
            spec = _spec(serve_config, backend)
            for executor in (InlineExecutor(), process_executor):
                service = EvaluationService(spec, executor=executor)
                evaluation = service.evaluate(POINT, reuse=False)
                assert_stats_identical(evaluation.statistics, reference.statistics)
