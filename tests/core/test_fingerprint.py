"""Unit tests for fingerprints, correlation detection, and remapping."""

import numpy as np
import pytest

from repro.errors import FingerprintError
from repro.core.fingerprint import (
    ComponentMap,
    CorrelationPolicy,
    Fingerprint,
    FingerprintSpec,
    MapKind,
    compute_fingerprint,
    correlate,
    match_component,
    remap_error,
    remap_samples,
)
from repro.core.fingerprint.registry import FingerprintRegistry
from repro.models import CapacityModel, DemandModel
from repro.vg.timeseries import GaussianSeries

SPEC = FingerprintSpec(n_seeds=8)
POLICY = CorrelationPolicy(tolerance=1e-6)


class TestFingerprintSpec:
    def test_needs_two_seeds(self):
        with pytest.raises(FingerprintError):
            FingerprintSpec(n_seeds=1)

    def test_fixed_seed_sequence(self):
        assert FingerprintSpec(n_seeds=4).seeds == FingerprintSpec(n_seeds=4).seeds

    def test_compute_shape(self):
        vg = GaussianSeries("g", 10, base=0.0, sigma=1.0)
        fingerprint = compute_fingerprint(vg, (), SPEC)
        assert fingerprint.matrix.shape == (8, 10)
        assert fingerprint.n_components == 10

    def test_compute_costs_n_seeds_invocations(self):
        vg = GaussianSeries("g", 10, base=0.0, sigma=1.0)
        vg.reset_counters()
        compute_fingerprint(vg, (), SPEC)
        assert vg.invocations == SPEC.n_seeds

    def test_reprobe_is_free(self):
        # The registry's fingerprint memo answers a re-probe; the VG-Function
        # itself generates on every call.
        registry = FingerprintRegistry(SPEC, POLICY)
        vg = GaussianSeries("g", 10, base=0.0, sigma=1.0)
        first = registry.fingerprint_of(vg, ())
        assert vg.invocations == SPEC.n_seeds
        assert registry.fingerprint_of(vg, ()) is first
        assert vg.invocations == SPEC.n_seeds
        assert registry.probes_computed == 1

    def test_comparability(self):
        vg = GaussianSeries("g", 10, base=0.0, sigma=1.0)
        a = compute_fingerprint(vg, (), SPEC)
        b = compute_fingerprint(vg, (), FingerprintSpec(n_seeds=4))
        assert not a.comparable_with(b)

    def test_matrix_shape_validated(self):
        with pytest.raises(FingerprintError):
            Fingerprint("x", (), np.zeros((3, 5)), SPEC)  # 3 rows != 8 seeds


class TestMatchComponent:
    def rng(self):
        return np.random.default_rng(0)

    def test_identity(self):
        x = self.rng().normal(size=8)
        result = match_component(x, x.copy(), POLICY)
        assert result is not None and result.kind == MapKind.IDENTITY

    def test_shift(self):
        x = self.rng().normal(size=8)
        result = match_component(x, x + 5.0, POLICY)
        assert result.kind == MapKind.SHIFT
        assert result.offset == pytest.approx(5.0)

    def test_affine(self):
        x = self.rng().normal(size=8)
        result = match_component(x, 2.0 * x + 1.0, POLICY)
        assert result.kind == MapKind.AFFINE
        assert result.scale == pytest.approx(2.0)
        assert result.offset == pytest.approx(1.0)

    def test_unrelated_unmapped(self):
        rng = self.rng()
        x = rng.normal(size=8)
        y = rng.normal(size=8)
        assert match_component(x, y, POLICY) is None

    def test_identity_preferred_over_shift(self):
        # y == x also satisfies shift with b=0; identity must win (cheaper).
        x = self.rng().normal(size=8)
        assert match_component(x, x.copy(), POLICY).kind == MapKind.IDENTITY

    def test_constant_columns_shift(self):
        x = np.full(8, 3.0)
        y = np.full(8, 7.0)
        result = match_component(x, y, POLICY)
        assert result is not None and result.kind == MapKind.SHIFT
        assert result.offset == pytest.approx(4.0)

    def test_policy_can_disable_affine(self):
        x = self.rng().normal(size=8)
        policy = CorrelationPolicy(tolerance=1e-6, allow_affine=False)
        assert match_component(x, 2.0 * x, policy) is None

    def test_tolerance_controls_acceptance(self):
        x = self.rng().normal(size=64)
        noisy = x + np.random.default_rng(1).normal(scale=0.01, size=64)
        strict = CorrelationPolicy(tolerance=1e-6)
        loose = CorrelationPolicy(tolerance=0.1)
        assert match_component(x, noisy, strict) is None
        assert match_component(x, noisy, loose) is not None

    def test_shape_mismatch_rejected(self):
        with pytest.raises(FingerprintError):
            match_component(np.zeros(4), np.zeros(5), POLICY)

    def test_component_map_apply(self):
        values = np.array([1.0, 2.0])
        assert ComponentMap(MapKind.IDENTITY).apply(values) is values
        assert ComponentMap(MapKind.SHIFT, offset=1.0).apply(values) == pytest.approx([2.0, 3.0])
        assert ComponentMap(MapKind.AFFINE, scale=2.0, offset=1.0).apply(values) == pytest.approx(
            [3.0, 5.0]
        )

    def test_policy_validation(self):
        with pytest.raises(FingerprintError):
            CorrelationPolicy(tolerance=-1.0)
        with pytest.raises(FingerprintError):
            CorrelationPolicy(abs_floor=0.0)


class TestCorrelateModels:
    """Correlation structure of the real demo models (the paper's story)."""

    def test_demand_feature_shift(self):
        vg = DemandModel()
        old = compute_fingerprint(vg, (12,), SPEC)
        new = compute_fingerprint(vg, (36,), SPEC)
        result = correlate(old, new, POLICY)
        kinds = [m.kind if m else None for m in result.maps]
        # Weeks before either feature date: identity.
        assert all(k == MapKind.IDENTITY for k in kinds[:12])
        # Weeks between the dates: unmapped (surge noise on one side only).
        assert all(k is None for k in kinds[12:36])
        # Weeks after both dates: deterministic shift despite slope change.
        assert all(k == MapKind.SHIFT for k in kinds[36:])
        expected_offset = vg.surge_slope * (12 - 36)
        shifted = [m for m in result.maps[36:]]
        assert shifted[0].offset == pytest.approx(expected_offset)

    def test_capacity_purchase_window(self):
        vg = CapacityModel()
        old = compute_fingerprint(vg, (8, 24), SPEC)
        new = compute_fingerprint(vg, (12, 24), SPEC)
        result = correlate(old, new, POLICY)
        # Weeks strictly before the earliest possible arrival are identity.
        min_arrival = 8 + min(vg.lag_choices)
        for week in range(min_arrival):
            assert result.maps[week] is not None
            assert result.maps[week].kind == MapKind.IDENTITY
        # Weeks after both latest arrivals map again (identity: same cores).
        max_arrival = 12 + max(vg.lag_choices)
        for week in range(max_arrival, vg.n_components):
            assert result.maps[week] is not None
        # Something in the arrival window is unmapped (lag is random).
        assert any(m is None for m in result.maps[min_arrival:max_arrival])

    def test_growth_is_affine(self):
        vg = DemandModel(with_growth_arg=True)
        base = compute_fingerprint(vg, (12, 1.0), SPEC)
        scaled = compute_fingerprint(vg, (12, 1.2), SPEC)
        result = correlate(base, scaled, POLICY)
        assert result.mapped_fraction == 1.0
        for component_map in result.maps:
            assert component_map.kind == MapKind.AFFINE
            assert component_map.scale == pytest.approx(1.2)

    def test_incomparable_fingerprints_rejected(self):
        demand = compute_fingerprint(DemandModel(), (12,), SPEC)
        capacity = compute_fingerprint(CapacityModel(), (8, 24), SPEC)
        with pytest.raises(FingerprintError, match="not comparable"):
            correlate(demand, capacity, POLICY)

    def test_kind_counts(self):
        vg = DemandModel()
        old = compute_fingerprint(vg, (12,), SPEC)
        new = compute_fingerprint(vg, (36,), SPEC)
        counts = correlate(old, new, POLICY).kind_counts()
        assert counts["identity"] == 12
        assert counts["unmapped"] == 24
        assert counts["shift"] == 17
        assert sum(counts.values()) == 53


class TestRemap:
    def test_remap_and_fill_reconstruct_exactly(self):
        """Remapping a basis matrix + fresh unmapped columns must equal the
        exactly simulated target matrix — the core soundness property."""
        vg = DemandModel()
        seeds = [1000 + w for w in range(30)]
        basis = np.vstack([vg.invoke(s, (12,)) for s in seeds])
        exact = np.vstack([vg.invoke(s, (36,)) for s in seeds])

        old = compute_fingerprint(vg, (12,), SPEC)
        new = compute_fingerprint(vg, (36,), SPEC)
        correlation = correlate(old, new, POLICY)
        remapped = remap_samples(basis, correlation)

        mapped = list(remapped.mapped_components)
        assert remapped.samples[:, mapped] == pytest.approx(exact[:, mapped], abs=1e-6)

        fresh = np.vstack(
            [vg.invoke_components(s, (36,), remapped.unmapped_components) for s in seeds]
        )
        filled = remap_samples(basis, correlation, fresh).samples
        assert filled == pytest.approx(exact, abs=1e-6)
        # The mapped columns are the remap's, bit for bit.
        assert filled[:, mapped].tobytes() == remapped.samples[:, mapped].tobytes()
        assert remap_error(exact, filled, tuple(range(53))) < 1e-6

    def test_remap_shape_validation(self):
        vg = DemandModel()
        correlation = correlate(
            compute_fingerprint(vg, (12,), SPEC),
            compute_fingerprint(vg, (36,), SPEC),
            POLICY,
        )
        with pytest.raises(FingerprintError):
            remap_samples(np.zeros((4, 10)), correlation)  # 10 != 53
        with pytest.raises(FingerprintError):
            remap_samples(np.zeros(53), correlation)  # 1-D

    def test_remap_fresh_columns_shape_validation(self):
        vg = DemandModel()
        correlation = correlate(
            compute_fingerprint(vg, (12,), SPEC),
            compute_fingerprint(vg, (36,), SPEC),
            POLICY,
        )
        unmapped = len(correlation.unmapped_components)
        with pytest.raises(FingerprintError):
            remap_samples(np.zeros((4, 53)), correlation, np.zeros((4, unmapped + 1)))
        with pytest.raises(FingerprintError):
            remap_samples(np.zeros((4, 53)), correlation, np.zeros((3, unmapped)))

    def test_remap_error_empty_components(self):
        assert remap_error(np.zeros((2, 3)), np.ones((2, 3)), ()) == 0.0
