"""Tests for the sampling plane: backend parity, fallback, observability.

The acceptance gate of the batched sampling plane: the ``batched`` backend
must be bit-identical to the per-world ``loop`` backend through the *whole*
evaluation pipeline, for every scenario in the library; fallback to the
loop must be observable through the ``sampled_batched``/``sampled_fallback``
counters; and the empty-world-slice behavior must be uniform across entry
points.
"""

from __future__ import annotations

import pytest

from repro.core.config import EngineConfig, SamplingConfig
from repro.core.engine import ProphetEngine
from repro.core.sampling import SAMPLING_BACKENDS
from repro.errors import ScenarioError
from repro.models import (
    build_growth_scenario,
    build_maintenance_scenario,
    build_risk_vs_cost,
)
from repro.sqldb.pdbext import BATCH_FORM_SUFFIX

SCENARIOS = {
    "risk_vs_cost": (build_risk_vs_cost, {"purchase1": 8, "purchase2": 24, "feature": 12}),
    "growth": (build_growth_scenario, None),
    "maintenance": (build_maintenance_scenario, None),
}


def _engine(builder, backend: str, n_worlds: int = 24) -> ProphetEngine:
    scenario, library = builder()
    config = EngineConfig(sampling=SamplingConfig(n_worlds=n_worlds, backend=backend))
    return ProphetEngine(scenario, library, config)


def _point_for(scenario, override):
    if override is not None:
        return override
    return {
        parameter.name: parameter.values[0]
        for parameter in scenario.space
        if parameter.name.lower() != scenario.axis
    }


class TestBackendParity:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_full_pipeline_bit_identical_across_backends(self, name):
        """Statistics AND raw sample matrices agree byte-for-byte."""
        builder, override = SCENARIOS[name]
        batched = _engine(builder, "batched")
        loop = _engine(builder, "loop")
        point = _point_for(batched.scenario, override)
        evaluation_batched = batched.evaluate_point(point)
        evaluation_loop = loop.evaluate_point(point)
        for alias in evaluation_loop.statistics.aliases():
            assert (
                evaluation_batched.statistics.expectation(alias).tobytes()
                == evaluation_loop.statistics.expectation(alias).tobytes()
            )
            assert (
                evaluation_batched.statistics.stddev(alias).tobytes()
                == evaluation_loop.statistics.stddev(alias).tobytes()
            )
        for alias, matrix in evaluation_loop.samples.items():
            assert evaluation_batched.samples[alias].tobytes() == matrix.tobytes()

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_sample_fresh_bit_identical_across_backends(self, name):
        builder, override = SCENARIOS[name]
        batched = _engine(builder, "batched")
        loop = _engine(builder, "loop")
        point = _point_for(batched.scenario, override)
        alias = batched.scenario.vg_outputs[0].alias
        worlds = [0, 3, 5, 11]
        assert (
            batched.sample_fresh(alias, point, worlds).tobytes()
            == loop.sample_fresh(alias, point, worlds).tobytes()
        )

    def test_backends_registry(self):
        assert SAMPLING_BACKENDS == ("batched", "loop")

    def test_unknown_backend_rejected(self):
        scenario, library = build_risk_vs_cost()
        with pytest.raises(ScenarioError, match="unknown sampling backend"):
            ProphetEngine(
                scenario, library, EngineConfig(sampling=SamplingConfig(backend="turbo"))
            )


class TestCounters:
    def test_batched_backend_counts_batched_worlds(self):
        builder, point = SCENARIOS["risk_vs_cost"]
        engine = _engine(builder, "batched", n_worlds=10)
        engine.evaluate_point(point)
        stats = engine.executor.stats
        n_outputs = len(engine.scenario.vg_outputs)
        assert stats.sampled_batched == 10 * n_outputs
        assert stats.sampled_fallback == 0
        assert engine.sampling.last_backend == "batched"

    def test_loop_backend_counts_fallback_worlds(self):
        builder, point = SCENARIOS["risk_vs_cost"]
        engine = _engine(builder, "loop", n_worlds=10)
        engine.evaluate_point(point)
        stats = engine.executor.stats
        assert stats.sampled_batched == 0
        assert stats.sampled_fallback == 10 * len(engine.scenario.vg_outputs)
        assert engine.sampling.last_backend == "loop"

    def test_missing_batch_form_falls_back_observably(self):
        """A catalog without the TB form degrades to the loop, and says so."""
        builder, point = SCENARIOS["risk_vs_cost"]
        reference = _engine(builder, "loop", n_worlds=8)
        engine = _engine(builder, "batched", n_worlds=8)
        for output in engine.scenario.vg_outputs:
            engine.catalog.unregister_table_function(
                output.vg_name + BATCH_FORM_SUFFIX
            )
        evaluation = engine.evaluate_point(point)
        expected = reference.evaluate_point(point)
        for alias, matrix in expected.samples.items():
            assert evaluation.samples[alias].tobytes() == matrix.tobytes()
        stats = engine.executor.stats
        assert stats.sampled_batched == 0
        assert stats.sampled_fallback == 8 * len(engine.scenario.vg_outputs)
        assert engine.sampling.last_backend == "loop"


class TestEmptyWorldSlices:
    """Both evaluation entry points reject an empty world slice identically."""

    def test_evaluate_point_raises(self):
        builder, point = SCENARIOS["risk_vs_cost"]
        engine = _engine(builder, "batched")
        with pytest.raises(ScenarioError, match="at least one world"):
            engine.evaluate_point(point, worlds=[])

    def test_sample_fresh_raises(self):
        builder, point = SCENARIOS["risk_vs_cost"]
        engine = _engine(builder, "batched")
        alias = engine.scenario.vg_outputs[0].alias
        with pytest.raises(ScenarioError, match="at least one world"):
            engine.sample_fresh(alias, point, [])

    def test_plane_raises(self):
        from repro.core.instance import InstanceBatch

        builder, point = SCENARIOS["risk_vs_cost"]
        engine = _engine(builder, "batched")
        output = engine.scenario.vg_outputs[0]
        batch = InstanceBatch.at_point(
            engine.scenario.validate_sweep_point(point), (), engine.config.sampling.base_seed
        )
        with pytest.raises(ScenarioError, match="at least one world"):
            engine.sampling.sample(output, batch)


class TestQuerygenBatchTemplate:
    def test_template_text_is_constant_and_parameterized(self):
        scenario, library = build_risk_vs_cost()
        engine = ProphetEngine(scenario, library, EngineConfig(sampling=SamplingConfig(n_worlds=4)))
        output = engine.scenario.vg_outputs[0]
        template = engine.querygen.insert_batch_template(output)
        assert "@_worlds" in template and "@_seeds" in template
        assert template == engine.querygen.insert_batch_template(output)
        variables = engine.querygen.batch_variables(
            (1, 2), (10, 20), {"feature": 12}
        )
        assert variables["_worlds"] == (1, 2)
        assert variables["_seeds"] == (10, 20)
        assert variables["feature"] == 12

    def test_plane_uses_one_statement_per_slice(self):
        """The batched backend's statement count is slice-size independent."""
        builder, point = SCENARIOS["risk_vs_cost"]
        engine = _engine(builder, "batched", n_worlds=4)
        alias = engine.scenario.vg_outputs[0].alias
        engine.sample_fresh(alias, point, list(range(4)))
        small = engine.executor.stats.statements
        engine.sample_fresh(alias, point, list(range(4, 20)))
        large = engine.executor.stats.statements - small
        assert large == small  # drop + create + batch insert + readback
