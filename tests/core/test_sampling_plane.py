"""Tests for the sampling plane: backend parity, fallback, observability.

The acceptance gate of the batched sampling plane: the ``batched`` backend
must be bit-identical to the per-world ``loop`` backend through the *whole*
evaluation pipeline, for every scenario in the library; fallback to the
loop must be observable through the ``sampled_batched``/``sampled_fallback``
counters; and the empty-world-slice behavior must be uniform across entry
points.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.config import EngineConfig, ReuseConfig, SamplingConfig
from repro.core.engine import ProphetEngine
from repro.core.instance import InstanceBatch
from repro.core.sampling import SAMPLING_BACKENDS
from repro.errors import ScenarioError
from repro.models import (
    build_growth_scenario,
    build_maintenance_scenario,
    build_risk_vs_cost,
)
from repro.models.capacity import CapacityModel
from repro.models.demand import DemandModel
from repro.sqldb.pdbext import BATCH_FORM_SUFFIX
from repro.vg.seeds import world_seed

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


class TestReadBack:
    def test_rows_out_of_batch_order_are_rejected(self):
        """The read-back checks the landed ``world``/``t`` columns against
        the batch instead of sorting them: rows landed in another order than
        the batch's raise, they are never silently re-labelled."""
        builder, point = SCENARIOS["risk_vs_cost"]
        engine = _engine(builder, "batched", n_worlds=4)
        alias = engine.scenario.vg_outputs[0].alias
        assert engine.sample_fresh(alias, point, [3, 0, 2]).shape[0] == 3
        landed = engine.querygen.batch_variables
        engine.querygen.batch_variables = lambda worlds, seeds, values: landed(
            worlds[::-1], seeds[::-1], values
        )
        with pytest.raises(ScenarioError, match="not in batch order"):
            engine.sample_fresh(alias, point, [3, 0, 2])


class TestSeedEventStore:
    def test_no_world_is_drawn_twice_past_4096_worlds(self, monkeypatch):
        """Two fresh points over 5000 worlds draw each world's seed events
        once per model. (The per-seed memo this store replaced was cleared
        at 4096 seeds, so it redrew every history on every point.)"""
        drawn = {"capacity": Counter(), "demand": Counter()}
        for model, model_class, method in (
            ("capacity", CapacityModel, "_cumulative_events"),
            ("demand", DemandModel, "_noise"),
        ):
            draw = getattr(model_class, method)

            def counted(self, seed, draw=draw, counts=drawn[model]):
                counts[seed] += 1
                return draw(self, seed)

            monkeypatch.setattr(model_class, method, counted)
        builder, point = SCENARIOS["risk_vs_cost"]
        engine = _engine(builder, "batched", n_worlds=5000)
        # Two points that share no model arguments: both sample afresh.
        for values in (point, {"purchase1": 12, "purchase2": 28, "feature": 36}):
            engine.evaluate_point(values, reuse=False)
        assert engine.storage.exact_hits == engine.storage.mapped_hits == 0
        base_seed = engine.config.sampling.base_seed
        seeds = [world_seed(base_seed, world) for world in range(5000)]
        # reuse=False stores no basis, so no argument is fingerprinted on
        # the probe seeds: only the worlds are drawn.
        for counts in drawn.values():
            assert set(counts) == set(seeds)
            # World 0 is also the parity guard's scalar probe, re-drawn on
            # purpose; every other world was drawn exactly once.
            assert all(counts[seed] == 1 for seed in seeds[1:])

    def test_the_bound_is_the_world_universe(self):
        builder, point = SCENARIOS["risk_vs_cost"]
        scenario, library = builder()
        config = EngineConfig(
            sampling=SamplingConfig(n_worlds=30), reuse=ReuseConfig(fingerprint_seeds=5)
        )
        engine = ProphetEngine(scenario, library, config)
        assert {function.events.bound for function in library} == {35}
        engine.evaluate_point(point)
        seeds = {world_seed(config.sampling.base_seed, world) for world in range(30)}
        sampled = [library.get(output.vg_name) for output in scenario.vg_outputs]
        for function in sampled:
            assert seeds <= set(function.events) and len(function.events) <= 35
        # Worlds outside the universe are served exactly; their batch
        # empties the store first, and the universe refills it.
        reference = _engine(builder, "batched", n_worlds=90)
        outside = engine.evaluate_point(point, worlds=range(40, 90), reuse=False)
        expected = reference.evaluate_point(point, worlds=range(40, 90), reuse=False)
        for alias, matrix in expected.samples.items():
            assert outside.samples[alias].tobytes() == matrix.tobytes()
        outside_seeds = {world_seed(config.sampling.base_seed, world) for world in range(40, 90)}
        assert all(set(function.events) == outside_seeds for function in sampled)
        engine.evaluate_point({"purchase1": 12, "purchase2": 28, "feature": 36})
        for function in sampled:
            assert seeds <= set(function.events) and len(function.events) <= 35
        engine.reset_counters()
        assert all(len(function.events) == 0 for function in library)


    def test_adopted_rows_are_the_rows_drawing_would_give(self):
        """Two engines each draw half the worlds; each adopts the other's
        half (``rows`` -> ``adopt``) and then samples every world with no
        new draw, bit-identical to an engine that drew them all itself."""
        builder, point = SCENARIOS["risk_vs_cost"]
        halves = (range(0, 12), range(12, 24))
        engines = [_engine(builder, "batched") for _ in halves]
        drawn = []
        for engine, half in zip(engines, halves):
            for output in engine.scenario.vg_outputs:
                engine.sample_fresh(output.alias, point, half)
            drawn.append({f.name: f.events.rows() for f in engine.library if len(f.events)})
        assert set(drawn[0]) == {"CapacityModel", "DemandModel"}
        reference = _engine(builder, "batched").evaluate_point(point, reuse=False)
        for engine, other in zip(engines, reversed(drawn)):
            for name, (seeds, fields) in other.items():
                engine.library.get(name).events.adopt(seeds, fields)
            held = {name: len(engine.library.get(name).events) for name in other}
            evaluation = engine.evaluate_point(point, reuse=False)
            assert {name: len(engine.library.get(name).events) for name in other} == held
            assert all(count == 24 for count in held.values())
            for alias, matrix in reference.samples.items():
                assert evaluation.samples[alias].tobytes() == matrix.tobytes()


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
        batch = InstanceBatch.at_point({"feature": 12}, (1, 2), 42)
        variables = engine.querygen.batch_variables(
            batch.worlds, batch.seeds, batch.point_dict
        )
        # The batch's arrays are bound as they are, not copied into tuples.
        assert variables["_worlds"] is batch.worlds
        assert variables["_seeds"] is batch.seeds
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
        assert large == small  # drop + create + batch insert
