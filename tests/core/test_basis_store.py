"""Tiered basis store: bounded memory tier, disk spill, fault-back."""

import os

import numpy as np

from repro.core.config import (
    EngineConfig,
    ReuseConfig,
    SamplingConfig,
    StoreConfig,
)
from repro.core.engine import ProphetEngine
from repro.core.fingerprint import CorrelationPolicy, FingerprintSpec
from repro.core.fingerprint.registry import FingerprintRegistry
from repro.core.storage import StorageManager
from repro.models import CapacityModel, DemandModel, build_risk_vs_cost
from repro.vg.seeds import world_seed

SPEC = FingerprintSpec(n_seeds=8)
POLICY = CorrelationPolicy(tolerance=1e-6)


def make_storage(**tier_kwargs) -> StorageManager:
    return StorageManager(FingerprintRegistry(SPEC, POLICY), **tier_kwargs)


def world_seeds(n, base=42):
    return [world_seed(base, w) for w in range(n)]


def matrix_for(vg, args, seeds):
    return np.vstack([vg.invoke(s, args) for s in seeds])


def fill_bases(storage, n, seeds):
    """Store n DemandModel bases at distinct feature args; returns matrices."""
    vg = DemandModel()
    matrices = {}
    for feature in range(n):
        matrices[feature] = matrix_for(vg, (feature,), seeds)
        storage.store(vg, (feature,), matrices[feature], range(len(seeds)), seeds)
    return vg, matrices


class TestMemoryTierBounds:
    def test_basis_cap_bounds_resident_count(self):
        storage = make_storage(basis_cap=3)
        seeds = world_seeds(4)
        fill_bases(storage, 6, seeds)
        assert storage.tier.resident_count == 3
        assert storage.tier.stats.evictions == 3
        assert storage.tier.stats.dropped == 3  # no spill dir

    def test_lru_order_evicts_oldest_first(self):
        storage = make_storage(basis_cap=2)
        seeds = world_seeds(4)
        vg, _ = fill_bases(storage, 2, seeds)
        # Touch basis 0 so basis 1 becomes the LRU victim.
        storage.acquire(vg, (0,), range(4), seeds)
        storage.store(vg, (2,), matrix_for(vg, (2,), seeds), range(4), seeds)
        assert storage.tier.spilled_count == 0  # no disk tier: keys() is memory
        assert {args for _, args in storage.tier.keys()} == {(0,), (2,)}

    def test_byte_cap_bounds_resident_bytes(self):
        seeds = world_seeds(4)
        vg = DemandModel()
        one_matrix = matrix_for(vg, (0,), seeds)
        cap = one_matrix.nbytes * 2  # room for two bases
        storage = make_storage(basis_byte_cap=cap)
        fill_bases(storage, 5, seeds)
        assert storage.tier.resident_bytes <= cap
        assert storage.tier.resident_count == 2

    def test_dropped_eviction_degrades_to_miss_never_error(self):
        storage = make_storage(basis_cap=1)
        seeds = world_seeds(4)
        vg, _ = fill_bases(storage, 2, seeds)  # basis (0,) dropped
        samples, report = storage.acquire(vg, (0,), range(4), seeds, reuse=False)
        assert samples is None and report.source == "fresh"
        assert storage.misses == 1


class TestDiskTier:
    def test_spill_and_fault_back_bit_identical(self, tmp_path):
        storage = make_storage(basis_cap=1, spill_dir=str(tmp_path))
        seeds = world_seeds(6)
        vg, matrices = fill_bases(storage, 3, seeds)
        assert storage.tier.spilled_count == 2
        assert storage.tier.stats.spills == 2
        for feature in range(3):
            samples, report = storage.acquire(vg, (feature,), range(6), seeds)
            assert report.source == "exact"
            assert samples.tobytes() == matrices[feature].tobytes()
        assert storage.tier.stats.faults >= 2

    def test_spilled_bases_still_serve_mapped_hits(self, tmp_path):
        seeds = world_seeds(8)
        vg = DemandModel()
        basis = matrix_for(vg, (12,), seeds)

        unbounded = make_storage()
        unbounded.store(vg, (12,), basis, range(8), seeds)
        expected, _ = unbounded.acquire(vg, (36,), range(8), seeds)

        tiered = make_storage(basis_cap=1, spill_dir=str(tmp_path))
        tiered.store(vg, (12,), basis, range(8), seeds)
        # Force (12,) out of memory with an unrelated model's basis, so the
        # mapped acquisition below must fault its basis from the disk tier.
        other = CapacityModel()
        tiered.store(other, (8, 24), matrix_for(other, (8, 24), seeds), range(8), seeds)
        assert tiered.tier.peek_worlds(("demandmodel", (12,))) == tuple(range(8))
        samples, report = tiered.acquire(vg, (36,), range(8), seeds)
        assert report.source == "mapped"
        assert samples.tobytes() == expected.tobytes()

    def test_unreadable_spill_file_degrades_to_miss(self, tmp_path):
        storage = make_storage(basis_cap=1, spill_dir=str(tmp_path))
        seeds = world_seeds(4)
        vg, _ = fill_bases(storage, 2, seeds)
        record = storage.tier._spilled[("demandmodel", (0,))]
        with open(record.path, "wb") as handle:
            handle.write(b"corrupt")
        samples, report = storage.acquire(vg, (0,), range(4), seeds, reuse=False)
        assert samples is None and report.source == "fresh"
        assert storage.tier.stats.failed_faults == 1

    def test_clean_fault_back_is_not_rewritten_on_re_eviction(self, tmp_path):
        storage = make_storage(basis_cap=1, spill_dir=str(tmp_path))
        seeds = world_seeds(4)
        vg, _ = fill_bases(storage, 2, seeds)
        assert storage.tier.stats.spills == 1
        storage.acquire(vg, (0,), range(4), seeds, reuse=False)  # fault (0,) back
        storage.acquire(vg, (1,), range(4), seeds, reuse=False)  # evicts clean (0,)
        # Three evictions total, but each distinct entry was written once:
        # the final eviction of (0,) found its disk copy current and skipped
        # the rewrite.
        assert storage.tier.stats.evictions == 3
        assert storage.tier.stats.spills == 2

    def test_warm_start_indexes_existing_spill_dir(self, tmp_path):
        seeds = world_seeds(4)
        first = make_storage(basis_cap=1, spill_dir=str(tmp_path))
        vg, matrices = fill_bases(first, 3, seeds)

        second = make_storage(basis_cap=4, spill_dir=str(tmp_path))
        assert second.tier.spilled_count == 2  # adopted from disk
        samples, report = second.acquire(vg, (0,), range(4), seeds, reuse=False)
        assert report.source == "exact"
        assert samples.tobytes() == matrices[0].tobytes()

    def test_len_counts_both_tiers(self, tmp_path):
        storage = make_storage(basis_cap=2, spill_dir=str(tmp_path))
        seeds = world_seeds(4)
        fill_bases(storage, 5, seeds)
        assert storage.tier.resident_count == 2
        assert len(storage) == 5


class TestEngineWithTiers:
    POINTS = [
        {"purchase1": 0, "purchase2": 0, "feature": 12},
        {"purchase1": 26, "purchase2": 0, "feature": 12},
        {"purchase1": 26, "purchase2": 52, "feature": 36},
        {"purchase1": 0, "purchase2": 0, "feature": 12},  # revisit
    ]

    def _engine(self, reuse=ReuseConfig(), **store_kwargs) -> ProphetEngine:
        scenario, library = build_risk_vs_cost(purchase_step=26)
        config = EngineConfig(
            sampling=SamplingConfig(n_worlds=8),
            reuse=reuse,
            store=StoreConfig(**store_kwargs),
        )
        return ProphetEngine(scenario, library, config)

    def _sweep(self, engine, reuse):
        return [
            engine.evaluate_point(point, reuse=reuse).statistics
            for point in self.POINTS
        ]

    @staticmethod
    def _assert_identical(actual, expected):
        for a, b in zip(actual, expected):
            for alias in b.aliases():
                assert a.expectation(alias).tobytes() == b.expectation(alias).tobytes()
                assert a.stddev(alias).tobytes() == b.stddev(alias).tobytes()

    def test_tiny_cap_never_changes_results_with_reuse_disabled(self):
        reference = self._sweep(self._engine(), reuse=False)
        capped = self._engine(ReuseConfig(enable_stats_cache=False), basis_cap=1)
        results = self._sweep(capped, reuse=False)
        self._assert_identical(results, reference)
        assert capped.storage.tier.stats.evictions > 0

    def test_cap_above_working_set_is_bit_identical_with_reuse(self, tmp_path):
        reference = self._sweep(self._engine(), reuse=True)
        capped = self._engine(basis_cap=64, basis_dir=str(tmp_path))
        results = self._sweep(capped, reuse=True)
        self._assert_identical(results, reference)
        assert capped.storage.tier.stats.evictions == 0

    def test_spilling_engine_sweep_stays_bounded(self, tmp_path):
        engine = self._engine(basis_cap=1, basis_dir=str(tmp_path))
        self._sweep(engine, reuse=True)
        assert engine.storage.tier.resident_count <= 1
        assert engine.storage.tier.stats.spills > 0
        assert os.listdir(tmp_path)  # spill files actually landed on disk


class TestPersistenceAcrossTiers:
    def test_save_bases_includes_spilled_entries(self, tmp_path):
        from repro.core.persistence import load_bases, save_bases

        scenario, library = build_risk_vs_cost(purchase_step=26)
        config = EngineConfig(
            sampling=SamplingConfig(n_worlds=8),
            store=StoreConfig(basis_cap=1, basis_dir=str(tmp_path / "spill")),
        )
        engine = ProphetEngine(scenario, library, config)
        engine.evaluate_point({"purchase1": 0, "purchase2": 26, "feature": 12})
        assert len(engine.storage) == 2  # demand + capacity, one spilled
        archive = tmp_path / "bases.npz"
        assert save_bases(engine, archive) == 2

        fresh_scenario, fresh_library = build_risk_vs_cost(purchase_step=26)
        fresh = ProphetEngine(fresh_scenario, fresh_library, EngineConfig(
            sampling=SamplingConfig(n_worlds=8),
        ))
        assert load_bases(fresh, archive) == 2


class TestWarmStartSafety:
    def test_adopted_bases_from_other_seed_degrade_to_miss(self, tmp_path):
        """Regression: a warm-started spill dir written under a different
        base seed must never serve its stale samples as exact hits."""
        seeds_a = [world_seed(42, w) for w in range(4)]
        first = make_storage(basis_cap=1, spill_dir=str(tmp_path))
        vg, _ = fill_bases(first, 2, seeds_a)  # basis (0,) spilled under seed 42

        second = make_storage(basis_cap=4, spill_dir=str(tmp_path))
        seeds_b = [world_seed(7, w) for w in range(4)]
        samples, report = second.acquire(vg, (0,), range(4), seeds_b, reuse=False)
        assert samples is None and report.source == "fresh"
        # The unserveable adoption is expelled entirely: a later request
        # must not fault the same stale matrix from disk again.
        assert second.tier.peek_worlds(("demandmodel", (0,))) is None
        faults_after_reject = second.tier.stats.faults
        second.acquire(vg, (0,), range(4), seeds_b, reuse=False)
        assert second.tier.stats.faults == faults_after_reject

        # A separate store under the matching seed serves the adoption.
        third = make_storage(basis_cap=4, spill_dir=str(tmp_path))
        samples, report = third.acquire(vg, (0,), range(4), seeds_a, reuse=False)
        assert report.source == "exact"

    def test_stale_seed_basis_never_feeds_mapped_reuse(self, tmp_path):
        seeds_a = [world_seeds(8)[i] for i in range(8)]
        first = make_storage(basis_cap=1, spill_dir=str(tmp_path))
        vg = DemandModel()
        first.store(vg, (12,), matrix_for(vg, (12,), seeds_a), range(8), seeds_a)
        other = CapacityModel()
        first.store(other, (8, 24), matrix_for(other, (8, 24), seeds_a), range(8), seeds_a)

        second = make_storage(basis_cap=4, spill_dir=str(tmp_path))
        seeds_b = [world_seed(7, w) for w in range(8)]
        samples, report = second.acquire(vg, (36,), range(8), seeds_b)
        assert samples is None and report.source == "fresh"

    def test_adopted_bases_serve_mapped_hits_after_warm_start(self, tmp_path):
        """Regression: adopted bases had no fingerprint and best_match
        silently skipped them, so warm restarts lost all mapped reuse."""
        seeds = world_seeds(8)
        vg = DemandModel()
        basis = matrix_for(vg, (12,), seeds)
        first = make_storage(basis_cap=1, spill_dir=str(tmp_path))
        first.store(vg, (12,), basis, range(8), seeds)
        other = CapacityModel()
        first.store(other, (8, 24), matrix_for(other, (8, 24), seeds), range(8), seeds)

        unbounded = make_storage()
        unbounded.store(vg, (12,), basis, range(8), seeds)
        expected, _ = unbounded.acquire(vg, (36,), range(8), seeds)

        second = make_storage(basis_cap=4, spill_dir=str(tmp_path))
        samples, report = second.acquire(vg, (36,), range(8), seeds)
        assert report.source == "mapped"
        assert report.basis_args == (12,)
        assert samples.tobytes() == expected.tobytes()


class TestEnumerationOrder:
    def test_candidate_enumeration_is_insertion_order_despite_access(self):
        """Regression: recency promotion must not reorder candidate
        enumeration — with all caps off the tier must enumerate exactly
        like the plain dict it replaced, or equal-distance/equal-fraction
        tie-breaks flip and sweeps lose bit-parity with the pre-tier path."""
        storage = make_storage()
        seeds = world_seeds(4)
        vg, _ = fill_bases(storage, 3, seeds)
        storage.acquire(vg, (1,), range(4), seeds)  # touch the middle entry
        storage.acquire(vg, (2,), range(4), seeds)
        assert storage.stored_args("demandmodel") == ((0,), (1,), (2,))

    def test_replacement_keeps_enumeration_position(self):
        storage = make_storage()
        seeds = world_seeds(4)
        vg, _ = fill_bases(storage, 3, seeds)
        storage.store(vg, (1,), matrix_for(vg, (1,), seeds), range(4), seeds)
        assert storage.stored_args("demandmodel") == ((0,), (1,), (2,))


class TestFailOpenSpillWrites:
    def test_spill_write_failure_drops_entry_instead_of_raising(
        self, tmp_path, monkeypatch
    ):
        """The write path fails open like the read path: a failed spill
        (disk full, dir gone) degrades to a dropped entry, never an error
        surfacing from store()/acquire()."""
        storage = make_storage(basis_cap=1, spill_dir=str(tmp_path))
        seeds = world_seeds(4)

        def explode(key, entry):
            raise OSError("disk full")

        monkeypatch.setattr(storage.tier, "_write_spill", explode)
        vg, _ = fill_bases(storage, 2, seeds)  # eviction must not raise
        assert storage.tier.stats.dropped == 1
        assert storage.tier.stats.spills == 0
        samples, report = storage.acquire(vg, (0,), range(4), seeds, reuse=False)
        assert samples is None and report.source == "fresh"


class TestStaleAdoptedBases:
    def test_save_bases_never_launders_stale_seed_adoptions(self, tmp_path):
        """Regression: an adopted entry from a foreign-seed spill dir that
        was never acquired (so no acquire-path validation fired) must not
        be written into a trusted archive by save_bases."""
        from repro.core.persistence import save_bases

        foreign_seeds = [world_seed(7, w) for w in range(4)]
        writer = make_storage(basis_cap=1, spill_dir=str(tmp_path / "spill"))
        fill_bases(writer, 2, foreign_seeds)  # spills basis (0,) under seed 7

        scenario, library = build_risk_vs_cost(purchase_step=26)
        engine = ProphetEngine(
            scenario,
            library,
            EngineConfig(
                sampling=SamplingConfig(n_worlds=4),
                store=StoreConfig(basis_dir=str(tmp_path / "spill")),
            ),
        )
        # The engine (base_seed=42) adopted the seed-7 basis at startup but
        # never touched it; the archive must exclude it.
        assert engine.storage.tier.spilled_count == 1
        assert save_bases(engine, tmp_path / "bases.npz") == 0

    def test_adopted_bases_with_stale_shape_degrade_to_miss(self, tmp_path):
        """Regression: a reused --basis-dir must not serve wrong-shaped
        samples after a model changes its component count (load_bases
        guards this for archives; the spill adoption path must too)."""
        from repro.vg.base import CallableVGFunction

        seeds = world_seeds(4)
        first = make_storage(basis_cap=1, spill_dir=str(tmp_path))
        fill_bases(first, 2, seeds)  # spills a 53-component (0,) basis

        reshaped = CallableVGFunction(
            "DemandModel", 30, ("feature",), lambda rng, args: rng.normal(size=30)
        )
        second = make_storage(basis_cap=4, spill_dir=str(tmp_path))
        samples, report = second.acquire(reshaped, (0,), range(4), seeds, reuse=False)
        assert samples is None and report.source == "fresh"
