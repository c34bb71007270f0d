"""Integration tests for the Prophet engine (the Figure-1 cycle)."""

from unittest import mock

import numpy as np
import pytest

from repro.core.config import EngineConfig, SamplingConfig
from repro.core.engine import ProphetEngine
from repro.errors import ParameterError, ScenarioError
from repro.models import build_risk_vs_cost
from repro.vg.seeds import derive_seed, world_seed

POINT = {"purchase1": 16, "purchase2": 32, "feature": 12}
OTHER = {"purchase1": 32, "purchase2": 32, "feature": 12}


@pytest.fixture
def engine():
    scenario, library = build_risk_vs_cost(purchase_step=16)
    return ProphetEngine(scenario, library, EngineConfig(sampling=SamplingConfig(n_worlds=20)))


class TestWorldIds:
    """World ids are Python ints at the engine boundary."""

    @staticmethod
    def _bytes(evaluation):
        stats = evaluation.statistics
        return [
            (stats.expectation(alias).tobytes(), stats.stddev(alias).tobytes())
            for alias in sorted(stats.aliases())
        ]

    def test_numpy_ids_equal_python_ids_and_share_the_stats_cache(self, engine):
        from_range = engine.evaluate_point(POINT, worlds=range(5))
        assert len(engine._stats_cache) == 1
        from_numpy = engine.evaluate_point(POINT, worlds=np.arange(5))
        assert len(engine._stats_cache) == 1  # one key, served as a hit
        assert all(report.source == "exact" for report in from_numpy.reuse_reports)
        assert self._bytes(from_numpy) == self._bytes(from_range)

    def test_numpy_ids_cold_are_byte_identical(self, engine):
        scenario, library = build_risk_vs_cost(purchase_step=16)
        other = ProphetEngine(
            scenario, library, EngineConfig(sampling=SamplingConfig(n_worlds=20))
        )
        cold_numpy = other.evaluate_point(POINT, worlds=np.arange(5))
        assert self._bytes(cold_numpy) == self._bytes(
            engine.evaluate_point(POINT, worlds=range(5))
        )
        assert (
            other.sample_fresh("demand", POINT, np.arange(3, 9)).tobytes()
            == engine.sample_fresh("demand", POINT, range(3, 9)).tobytes()
        )

    def test_negative_ids_keep_their_seeds(self, engine):
        engine.evaluate_point(POINT, worlds=[-2, 3])
        _, entry = next(iter(engine.storage.entries()))
        base_seed = engine.config.sampling.base_seed
        assert entry.seeds == (
            derive_seed("world", base_seed, -2),
            derive_seed("world", base_seed, 3),
        )

    @pytest.mark.parametrize("bad", [1.5, "3", None])
    def test_non_integral_id_is_a_scenario_error(self, engine, bad):
        with pytest.raises(ScenarioError, match=f"world ids.*{bad!r}"):
            engine.evaluate_point(POINT, worlds=[0, bad])
        with pytest.raises(ScenarioError, match=f"world ids.*{bad!r}"):
            engine.sample_fresh("demand", POINT, [0, bad])

    def test_repeated_id_is_a_scenario_error(self, engine):
        """A repeated world would interleave its copies' sample rows."""
        with pytest.raises(ScenarioError, match="ProphetEngine.request world id 2 repeats"):
            engine.evaluate_point(POINT, worlds=[1, 2, 2, 2])
        with pytest.raises(ScenarioError, match="ProphetEngine.request world id 2 repeats"):
            engine.sample_fresh("demand", POINT, [2, np.int64(2)])


class TestEvaluatePoint:
    def test_cold_evaluation_is_fresh(self, engine):
        evaluation = engine.evaluate_point(POINT)
        assert evaluation.fully_fresh
        assert evaluation.n_worlds == 20
        assert set(evaluation.samples) == {"demand", "capacity"}
        assert evaluation.samples["demand"].shape == (20, 53)

    def test_statistics_cover_axis(self, engine):
        evaluation = engine.evaluate_point(POINT)
        stats = evaluation.statistics
        assert stats.axis_values == tuple(range(53))
        assert set(stats.aliases()) == {"demand", "capacity", "overload"}

    def test_overload_is_probability(self, engine):
        stats = engine.evaluate_point(POINT).statistics
        overload = stats.expectation("overload")
        assert ((overload >= 0.0) & (overload <= 1.0)).all()

    def test_overload_consistent_with_samples(self, engine):
        evaluation = engine.evaluate_point(POINT)
        demand = evaluation.samples["demand"]
        capacity = evaluation.samples["capacity"]
        manual = (capacity < demand).mean(axis=0)
        assert evaluation.statistics.expectation("overload") == pytest.approx(manual)

    def test_statistics_match_numpy_on_samples(self, engine):
        evaluation = engine.evaluate_point(POINT)
        demand = evaluation.samples["demand"]
        assert evaluation.statistics.expectation("demand") == pytest.approx(
            demand.mean(axis=0)
        )
        assert evaluation.statistics.stddev("demand") == pytest.approx(
            demand.std(axis=0, ddof=1)
        )

    def test_deterministic_across_engines(self):
        scenario, library = build_risk_vs_cost(purchase_step=16)
        first = ProphetEngine(scenario, library, EngineConfig(sampling=SamplingConfig(n_worlds=10)))
        a = first.evaluate_point(POINT)
        scenario2, library2 = build_risk_vs_cost(purchase_step=16)
        second = ProphetEngine(scenario2, library2, EngineConfig(
            sampling=SamplingConfig(n_worlds=10),
        ))
        b = second.evaluate_point(POINT)
        assert a.statistics.expectation("overload") == pytest.approx(
            b.statistics.expectation("overload")
        )

    def test_vectorized_tier_off_is_bit_identical(self):
        # The row path is the vectorized tier's fallback and its reference:
        # forcing it must not move a bit, and by default nothing falls back.
        def evaluate(vectorized):
            scenario, library = build_risk_vs_cost(purchase_step=16)
            engine = ProphetEngine(
                scenario, library, EngineConfig(sampling=SamplingConfig(n_worlds=20))
            )
            engine.executor.enable_vectorized = vectorized
            return engine, engine.evaluate_point(POINT, reuse=False).statistics

        default_engine, default = evaluate(True)
        _, rows = evaluate(False)
        assert default_engine.executor.stats.fallback_selects == 0
        assert sorted(default.aliases()) == sorted(rows.aliases())
        for alias in default.aliases():
            assert np.array_equal(default.expectation(alias), rows.expectation(alias))
            assert np.array_equal(default.stddev(alias), rows.stddev(alias))

    def test_point_validation(self, engine):
        with pytest.raises(ParameterError):
            engine.evaluate_point({"purchase1": 3, "purchase2": 32, "feature": 12})
        with pytest.raises(ParameterError):
            engine.evaluate_point({"purchase1": 16})

    def test_axis_value_in_point_is_ignored(self, engine):
        evaluation = engine.evaluate_point({**POINT, "current": 5})
        assert "current" not in evaluation.point

    def test_empty_worlds_rejected(self, engine):
        with pytest.raises(ScenarioError):
            engine.evaluate_point(POINT, worlds=[])


class TestReuse:
    def test_second_point_reuses(self, engine):
        engine.evaluate_point(POINT)
        samples_before = engine.component_sample_count()
        second = engine.evaluate_point(OTHER)
        fresh_cost = 2 * 20 * 53  # two models, full simulation
        used = engine.component_sample_count() - samples_before
        assert second.any_reuse
        assert used < fresh_cost / 2

    def test_reuse_matches_fresh_statistics(self):
        scenario, library = build_risk_vs_cost(purchase_step=16)
        engine = ProphetEngine(scenario, library, EngineConfig(
            sampling=SamplingConfig(n_worlds=16),
        ))
        engine.evaluate_point(POINT)
        reused = engine.evaluate_point(OTHER)

        scenario2, library2 = build_risk_vs_cost(purchase_step=16)
        cold = ProphetEngine(scenario2, library2, EngineConfig(
            sampling=SamplingConfig(n_worlds=16),
        ))
        fresh = cold.evaluate_point(OTHER, reuse=False)

        for alias in ("demand", "capacity", "overload"):
            assert reused.statistics.expectation(alias) == pytest.approx(
                fresh.statistics.expectation(alias), abs=1e-6
            )

    def test_repeat_point_hits_stats_cache(self, engine):
        engine.evaluate_point(POINT)
        invocations = engine.invocation_count()
        again = engine.evaluate_point(POINT)
        assert engine.invocation_count() == invocations
        assert again.statistics.expectation("overload") is not None

    def test_reuse_false_bypasses_stats_and_week_caches(self, engine):
        engine.evaluate_point(POINT)
        misses_before = engine.week_stats_misses
        points_before = engine.points_evaluated
        memo_before = dict(engine._week_stats_cache)
        with mock.patch.object(engine, "_week_keys", wraps=engine._week_keys) as hashed:
            engine.evaluate_point(POINT, reuse=False)
        # The week memo and point cache are both bypassed: every week's
        # statistics recomputed through SQL, and the memo neither read
        # (nothing hashed) nor written.
        assert engine.week_stats_misses == misses_before + 53
        assert engine.points_evaluated == points_before + 1
        assert hashed.call_count == 0
        assert len(engine._week_stats_cache) == len(memo_before)
        assert engine._week_stats_cache == memo_before

    def test_world_extension_reuses_prefix(self, engine):
        engine.evaluate_point(POINT, worlds=range(10))
        first_samples = engine.component_sample_count()
        engine.evaluate_point(POINT, worlds=range(20))
        added = engine.component_sample_count() - first_samples
        # Only the 10 new worlds are simulated, not all 20.
        assert added <= 2 * 10 * 53 + 2 * 8 * 53  # fresh worlds + probe margin

    def test_world_extension_stores_the_merged_basis(self, engine):
        """Extend mode: the basis covers a prefix of the requested worlds."""
        engine.evaluate_point(POINT, worlds=range(8))
        extended = engine.evaluate_point(POINT, worlds=range(20))
        scenario, library = build_risk_vs_cost(purchase_step=16)
        one_shot = ProphetEngine(
            scenario, library, EngineConfig(sampling=SamplingConfig(n_worlds=20))
        ).evaluate_point(POINT)
        for output in engine.scenario.vg_outputs:
            args = output.model_arg_values(extended.point)
            entry = engine.storage.validated_entry(
                engine.library.get(output.vg_name), args
            )
            assert entry.worlds == tuple(range(20))
            assert entry.seeds == tuple(
                world_seed(engine.config.sampling.base_seed, w) for w in range(20)
            )
            alias = output.alias.lower()
            assert entry.samples.tobytes() == one_shot.samples[alias].tobytes()
            assert extended.samples[alias].tobytes() == one_shot.samples[alias].tobytes()
        for alias in one_shot.statistics.aliases():
            assert (
                extended.statistics.expectation(alias).tobytes()
                == one_shot.statistics.expectation(alias).tobytes()
            )

    def test_extension_of_a_permuted_prefix_keeps_stored_order(self, engine):
        engine.evaluate_point(POINT, worlds=(3, 1, 2))
        engine.evaluate_point(POINT, worlds=range(5))
        output = engine.scenario.vg_outputs[0]
        entry = engine.storage.validated_entry(
            engine.library.get(output.vg_name), output.model_arg_values(POINT)
        )
        # Held worlds first, in stored order; the missing ones appended.
        assert entry.worlds == (3, 1, 2, 0, 4)
        assert entry.seeds == tuple(
            world_seed(engine.config.sampling.base_seed, w) for w in entry.worlds
        )

    def test_timings_accumulate(self, engine):
        engine.evaluate_point(POINT)
        assert engine.total_timings.total() > 0.0
        assert engine.points_evaluated == 1


class TestWeekMemo:
    def test_unchanged_weeks_not_recomputed(self, engine):
        engine.evaluate_point(POINT)
        hits_before = engine.week_stats_hits
        engine.evaluate_point(OTHER)
        assert engine.week_stats_hits > hits_before

    def test_memo_preserves_correctness_across_features(self):
        scenario, library = build_risk_vs_cost(purchase_step=16)
        engine = ProphetEngine(scenario, library, EngineConfig(
            sampling=SamplingConfig(n_worlds=12),
        ))
        a = engine.evaluate_point({"purchase1": 16, "purchase2": 32, "feature": 12})
        b = engine.evaluate_point({"purchase1": 16, "purchase2": 32, "feature": 44})
        # Capacity is identical across feature dates; demand differs.
        assert a.statistics.expectation("capacity") == pytest.approx(
            b.statistics.expectation("capacity")
        )
        assert not np.allclose(
            a.statistics.expectation("demand"), b.statistics.expectation("demand")
        )

    def test_different_world_slices_never_share_a_key(self, engine):
        """Same samples, same point — only the world identities differ."""
        from repro.core.instance import InstanceBatch

        base_seed = engine.config.sampling.base_seed
        matrices = {
            output.alias.lower(): np.zeros((4, 53))
            for output in engine.scenario.vg_outputs
        }
        slices = [(0, 1, 2, 3), (1, 2, 3, 4), (3, 2, 1, 0), (0, 1, 2, 259), (-1, 1, 2, 3)]
        keys = [
            engine._week_keys(POINT, InstanceBatch.at_point(POINT, worlds, base_seed), matrices)
            for worlds in slices
        ]
        flat = [key for week_keys in keys for key in week_keys]
        assert len(set(flat)) == len(flat) == len(slices) * 53
        # A shorter slice whose bytes are a prefix of a longer one's.
        short = engine._week_keys(
            POINT,
            InstanceBatch.at_point(POINT, (0, 1), base_seed),
            {alias: matrix[:2] for alias, matrix in matrices.items()},
        )
        assert not set(short) & set(flat)
