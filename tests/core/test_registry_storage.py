"""Unit tests for the fingerprint registry and the Storage Manager."""

import numpy as np
import pytest

from repro.core.fingerprint import CorrelationPolicy, FingerprintSpec
from repro.core.fingerprint.registry import FingerprintRegistry
from repro.core.storage import StorageManager, _nearest_candidates
from repro.models import CapacityModel, DemandModel
from repro.vg.seeds import world_seed


class TestNearestCandidates:
    def test_numeric_distance_ranks_nearest_first(self):
        ranked = _nearest_candidates((10.0,), [(50.0,), (13.0,), (8.0,)], limit=3)
        assert ranked == [(8.0,), (13.0,), (50.0,)]

    def test_bool_is_categorical_not_numeric(self):
        """Regression: ``isinstance(True, int)`` is true, so a bool-keyed
        basis used to tie at distance 0 with a numerically-equal float key
        and stable ordering could rank the wrong-typed basis first."""
        ranked = _nearest_candidates((1.0, 5.0), [(True, 5.0), (1.0, 5.0)], limit=2)
        assert type(ranked[0][0]) is float  # the true distance-0 candidate
        assert type(ranked[1][0]) is bool  # bool vs number = type mismatch

    def test_equal_bools_are_distance_zero(self):
        ranked = _nearest_candidates((True,), [(False,), (True,)], limit=2)
        assert ranked[0] == (True,) and ranked[0][0] is True
        ranked = _nearest_candidates((False,), [(True,), (False,)], limit=2)
        assert ranked[0][0] is False

    def test_shape_mismatch_sorts_last(self):
        ranked = _nearest_candidates((1.0, 2.0), [(1.0,), (9.0, 9.0)], limit=2)
        assert ranked[0] == (9.0, 9.0)

SPEC = FingerprintSpec(n_seeds=8)
POLICY = CorrelationPolicy(tolerance=1e-6)


def make_registry():
    return FingerprintRegistry(SPEC, POLICY)


def world_seeds(n, base=42):
    return [world_seed(base, w) for w in range(n)]


class TestFingerprintRegistry:
    def test_fingerprint_cached(self):
        registry = make_registry()
        vg = DemandModel()
        a = registry.fingerprint_of(vg, (12,))
        b = registry.fingerprint_of(vg, (12,))
        assert a is b
        assert registry.probes_computed == 1
        assert len(registry) == 1

    def test_known_args(self):
        registry = make_registry()
        vg = DemandModel()
        registry.fingerprint_of(vg, (12,))
        registry.fingerprint_of(vg, (36,))
        assert set(registry.known_args("demandmodel")) == {(12,), (36,)}
        assert registry.has_fingerprint("DemandModel", (12,))

    def test_best_match_picks_highest_fraction(self):
        registry = make_registry()
        vg = DemandModel()
        registry.fingerprint_of(vg, (12,))
        registry.fingerprint_of(vg, (36,))
        # Target 44: basis 36 maps more weeks than basis 12.
        outcome = registry.best_match(vg, (44,), [(12,), (36,)])
        assert outcome is not None
        assert outcome.basis_args == (36,)

    def test_best_match_excludes_self(self):
        registry = make_registry()
        vg = DemandModel()
        registry.fingerprint_of(vg, (12,))
        assert registry.best_match(vg, (12,), [(12,)]) is None

    def test_best_match_min_fraction(self):
        registry = make_registry()
        vg = DemandModel()
        registry.fingerprint_of(vg, (12,))
        outcome = registry.best_match(vg, (44,), [(12,)], min_fraction=0.99)
        assert outcome is None  # only ~55% of weeks map from 12 to 44

    def test_record_mapping(self):
        registry = make_registry()
        vg = DemandModel()
        registry.fingerprint_of(vg, (12,))
        outcome = registry.best_match(vg, (36,), [(12,)])
        registry.record_mapping("DemandModel", (12,), (36,), outcome.correlation)
        assert len(registry.mappings) == 1
        record = registry.mappings_for("demandmodel")[0]
        assert record.basis_args == (12,) and record.target_args == (36,)

    def test_best_match_ladders_the_unmemoised_candidates_in_one_pass(self, monkeypatch):
        """Every offered candidate the slot does not hold is correlated in one
        stacked pass; the strict ``>`` still keeps the first full map."""
        from repro.core.fingerprint import correlate
        from repro.core.fingerprint import registry as registry_module

        registry = make_registry()
        vg = DemandModel(with_growth_arg=True)
        # Growth changes map every week (affine); a feature change does not.
        candidates = [(20, 1.0), (12, 0.8), (12, 1.2), (36, 1.0)]
        for args in candidates:
            registry.fingerprint_of(vg, args)
        passes = []
        real = registry_module.correlate_many
        monkeypatch.setattr(
            registry_module,
            "correlate_many",
            lambda bases, target, policy: (
                passes.append([basis.args for basis in bases])
                or real(bases, target, policy)
            ),
        )
        outcome = registry.best_match(vg, (12, 1.0), candidates + [(36, 1.0), (12, 1.0)])
        assert outcome.basis_args == (12, 0.8) and outcome.mapped_fraction == 1.0
        assert passes == [candidates]  # once each, the target never
        registry.best_match(vg, (12, 1.0), [(8, 1.0)] + candidates)
        assert passes == [candidates]  # (8, 1.0) has no fingerprint; the rest are held
        # Same answer as scoring every candidate: the first of the maxima.
        fractions = [
            correlate(registry.fingerprint_of(vg, args), registry.fingerprint_of(vg, (12, 1.0)), POLICY)
            .mapped_fraction
            for args in candidates
        ]
        assert candidates[fractions.index(max(fractions))] == outcome.basis_args

    def test_mappings_for_is_case_insensitive_and_ordered(self):
        registry = make_registry()
        vg = DemandModel()
        registry.fingerprint_of(vg, (12,))
        correlation = registry.best_match(vg, (36,), [(12,)]).correlation
        registry.record_mapping("DemandModel", (12,), (36,), correlation)
        registry.record_mapping("other", (1,), (2,), correlation)
        registry.record_mapping("DEMANDMODEL", (12,), (44,), correlation)
        targets = [m.target_args for m in registry.mappings_for("demandModel")]
        assert targets == [(36,), (44,)]
        assert [m.vg_name for m in registry.mappings] == [
            "DemandModel", "other", "DEMANDMODEL"
        ]
        registry.clear()
        assert registry.mappings_for("demandmodel") == ()

    def test_clear(self):
        registry = make_registry()
        registry.fingerprint_of(DemandModel(), (12,))
        registry.clear()
        assert len(registry) == 0 and registry.probes_computed == 0


class TestStorageManager:
    def make(self):
        return StorageManager(make_registry())

    def matrix_for(self, vg, args, seeds):
        return np.vstack([vg.invoke(s, args) for s in seeds])

    def test_store_and_exact_hit(self):
        storage = self.make()
        vg = DemandModel()
        seeds = world_seeds(10)
        matrix = self.matrix_for(vg, (12,), seeds)
        storage.store(vg, (12,), matrix, range(10), seeds)
        samples, report = storage.acquire(vg, (12,), range(10), seeds)
        assert report.source == "exact"
        assert samples == pytest.approx(matrix)
        assert storage.exact_hits == 1

    def test_exact_hit_with_world_subset(self):
        storage = self.make()
        vg = DemandModel()
        seeds = world_seeds(10)
        matrix = self.matrix_for(vg, (12,), seeds)
        storage.store(vg, (12,), matrix, range(10), seeds)
        samples, report = storage.acquire(vg, (12,), [2, 5], [seeds[2], seeds[5]])
        assert report.source == "exact"
        assert samples == pytest.approx(matrix[[2, 5], :])

    def test_miss_when_empty(self):
        storage = self.make()
        vg = DemandModel()
        seeds = world_seeds(5)
        samples, report = storage.acquire(vg, (12,), range(5), seeds)
        assert samples is None and report.source == "fresh"
        assert storage.misses == 1

    def test_mapped_acquisition_matches_exact_simulation(self):
        storage = self.make()
        vg = DemandModel()
        seeds = world_seeds(12)
        basis = self.matrix_for(vg, (12,), seeds)
        storage.store(vg, (12,), basis, range(12), seeds)

        samples, report = storage.acquire(vg, (36,), range(12), seeds)
        assert report.source == "mapped"
        assert report.basis_args == (12,)
        assert 0 < report.mapped_fraction < 1
        exact = self.matrix_for(vg, (36,), seeds)
        assert samples == pytest.approx(exact, abs=1e-6)
        assert storage.mapped_hits == 1

    def test_mapped_result_is_stored_for_future_exact_hits(self):
        storage = self.make()
        vg = DemandModel()
        seeds = world_seeds(6)
        storage.store(vg, (12,), self.matrix_for(vg, (12,), seeds), range(6), seeds)
        storage.acquire(vg, (36,), range(6), seeds)
        _, report = storage.acquire(vg, (36,), range(6), seeds)
        assert report.source == "exact"

    def test_reuse_disabled_forces_miss(self):
        storage = self.make()
        vg = DemandModel()
        seeds = world_seeds(6)
        storage.store(vg, (12,), self.matrix_for(vg, (12,), seeds), range(6), seeds)
        samples, report = storage.acquire(vg, (36,), range(6), seeds, reuse=False)
        assert samples is None and report.source == "fresh"

    def test_min_mapped_fraction_gate(self):
        storage = self.make()
        vg = DemandModel()
        seeds = world_seeds(6)
        storage.store(vg, (12,), self.matrix_for(vg, (12,), seeds), range(6), seeds)
        samples, report = storage.acquire(
            vg, (44,), range(6), seeds, min_mapped_fraction=0.999
        )
        assert samples is None and report.source == "fresh"

    def test_basis_must_cover_worlds(self):
        storage = self.make()
        vg = DemandModel()
        seeds = world_seeds(4)
        storage.store(vg, (12,), self.matrix_for(vg, (12,), seeds), range(4), seeds)
        # Requesting worlds 0..9: the stored basis only has 0..3.
        wide_seeds = world_seeds(10)
        samples, report = storage.acquire(vg, (36,), range(10), wide_seeds)
        assert samples is None and report.source == "fresh"

    def test_capacity_model_reuse_report_counts(self):
        storage = self.make()
        vg = CapacityModel()
        seeds = world_seeds(8)
        storage.store(vg, (8, 24), self.matrix_for(vg, (8, 24), seeds), range(8), seeds)
        samples, report = storage.acquire(vg, (12, 24), range(8), seeds)
        assert report.source == "mapped"
        assert report.components_recomputed < vg.n_components // 4
        assert report.components_reused > 0
        exact = self.matrix_for(vg, (12, 24), seeds)
        assert samples == pytest.approx(exact, abs=1e-6)
        # The report names the re-simulated weeks: the two arrival windows.
        assert len(report.recomputed_components) == report.components_recomputed
        assert set(report.recomputed_components) <= set(range(8, 17))
        # ... and those weeks are real simulation, bit for bit.
        recomputed = list(report.recomputed_components)
        assert samples[:, recomputed].tobytes() == exact[:, recomputed].tobytes()

    def test_covers_worlds_fast_path_agrees_with_the_set_path(self):
        storage = self.make()
        stored = (0, 1, 2, 3, 4, 5)

        def by_sets(stored_worlds, worlds):
            return set(worlds) <= set(stored_worlds)

        for worlds in (
            stored,  # the equality fast path
            (5, 4, 3, 2, 1, 0),  # permuted
            (3, 1),  # subset
            (0, 1, 2, 3, 4, 5, 6),  # superset: not covered
            (7,),
            (),
            range(6),
            list(stored),
            np.arange(6),
            np.arange(7),
        ):
            assert storage._covers_worlds(stored, worlds) == by_sets(stored, worlds)
        assert storage._covers_worlds(None, stored) is False

    def test_store_validates_shapes(self):
        storage = self.make()
        vg = DemandModel()
        with pytest.raises(Exception):
            storage.store(vg, (12,), np.zeros(53), range(1), world_seeds(1))
        with pytest.raises(Exception):
            storage.store(vg, (12,), np.zeros((2, 53)), range(3), world_seeds(3))

    def test_clear(self):
        storage = self.make()
        vg = DemandModel()
        seeds = world_seeds(4)
        storage.store(vg, (12,), self.matrix_for(vg, (12,), seeds), range(4), seeds)
        storage.clear()
        assert len(storage) == 0
