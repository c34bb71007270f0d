"""Mergeable accumulator properties: partition invariance, exactness."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregator import (
    ExactSum,
    MergeableAxisStats,
    MergeableMoments,
)
from repro.errors import ScenarioError

finite_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
# No underflow carve-out: squares whose residual needs bits below the
# subnormal floor carry an exact rational remainder (_exact_square's third
# return), so bit-exactness is promised in every regime.


def _partition(values, cuts):
    """Split a list at the given (sorted, deduplicated) cut positions."""
    positions = sorted({c % (len(values) + 1) for c in cuts})
    chunks, start = [], 0
    for position in positions:
        chunks.append(values[start:position])
        start = position
    chunks.append(values[start:])
    return [chunk for chunk in chunks if chunk]


class TestExactSum:
    @given(st.lists(finite_floats, min_size=0, max_size=60))
    def test_matches_fsum(self, values):
        assert ExactSum(values).value() == math.fsum(values)

    @given(
        st.lists(finite_floats, min_size=1, max_size=60),
        st.lists(st.integers(min_value=0, max_value=60), max_size=5),
    )
    def test_partition_invariance(self, values, cuts):
        """Any shard split merges to the bit-identical sum."""
        whole = ExactSum(values)
        chunks = _partition(values, cuts)
        merged = ExactSum()
        for chunk in chunks:
            merged.merge(ExactSum(chunk))
        assert merged.value() == whole.value()

    def test_cancellation_exactness(self):
        # 1e16 + 1 - 1e16 loses the 1 in naive float addition.
        total = ExactSum([1e16, 1.0, -1e16])
        assert total.value() == 1.0


class TestMergeableMoments:
    @given(
        st.lists(finite_floats, min_size=2, max_size=60),
        st.lists(st.integers(min_value=0, max_value=60), max_size=5),
    )
    @settings(max_examples=60)
    def test_partition_invariance(self, values, cuts):
        whole = MergeableMoments()
        whole.add_many(values)
        merged = MergeableMoments()
        for chunk in _partition(values, cuts):
            part = MergeableMoments()
            part.add_many(chunk)
            merged.merge(part)
        assert merged.count == whole.count == len(values)
        assert merged.total == whole.total
        assert merged.mean == whole.mean
        assert merged.variance() == whole.variance()
        assert merged.minimum == whole.minimum
        assert merged.maximum == whole.maximum

    @given(st.lists(finite_floats, min_size=2, max_size=60))
    def test_matches_exact_rational_reference(self, values):
        """Ground truth is exact rational arithmetic, not numpy.

        At large magnitudes numpy's two-pass variance is *less* accurate
        than the accumulator (it rounds the mean first), so numpy can only
        be compared with a condition-aware tolerance; the Fraction
        reference must match to the last bit.
        """
        from fractions import Fraction

        moments = MergeableMoments()
        moments.add_many(values)
        n = len(values)
        exact = [Fraction(v) for v in values]
        exact_mean = sum(exact) / n
        exact_var = sum((x - exact_mean) ** 2 for x in exact) / (n - 1)
        assert moments.mean == float(exact_mean)
        # (sumsq - sum^2/n)/(n-1) and sum((x-mean)^2)/(n-1) are the same
        # rational number, so the final rounding must agree exactly.
        assert moments.variance() == float(exact_var)
        data = np.asarray(values)
        # numpy's own rounding error grows with mean^2; allow for it.
        numpy_tolerance = 16 * n * np.finfo(float).eps * float(exact_mean) ** 2
        assert moments.variance() == pytest.approx(
            float(data.var(ddof=1)), rel=1e-6, abs=max(numpy_tolerance, 1e-9)
        )
        assert moments.minimum == data.min()
        assert moments.maximum == data.max()

    def test_empty_stream(self):
        moments = MergeableMoments()
        assert math.isnan(moments.mean)
        assert math.isnan(moments.variance())
        assert math.isnan(moments.stddev())


class TestMergeableAxisStats:
    def _matrices(self, n_worlds=12, n_weeks=5, seed=0):
        rng = np.random.default_rng(seed)
        return {
            "demand": rng.normal(100, 10, size=(n_worlds, n_weeks)),
            "capacity": rng.normal(200, 5, size=(n_worlds, n_weeks)),
        }

    def test_world_split_merges_bit_identically(self):
        matrices = self._matrices()
        whole = MergeableAxisStats.from_matrices(matrices)
        for cut in (1, 5, 11):
            merged = MergeableAxisStats.from_matrices(
                {a: m[:cut] for a, m in matrices.items()}
            )
            merged.merge(
                MergeableAxisStats.from_matrices(
                    {a: m[cut:] for a, m in matrices.items()}
                )
            )
            full = whole.to_axis_statistics()
            split = merged.to_axis_statistics()
            for alias in full.aliases():
                assert (
                    split.expectation(alias).tobytes()
                    == full.expectation(alias).tobytes()
                )
                assert split.stddev(alias).tobytes() == full.stddev(alias).tobytes()

    def test_matches_numpy_statistics(self):
        matrices = self._matrices()
        statistics = MergeableAxisStats.from_matrices(matrices).to_axis_statistics()
        for alias, matrix in matrices.items():
            np.testing.assert_allclose(
                statistics.expectation(alias), matrix.mean(axis=0), rtol=1e-12
            )
            np.testing.assert_allclose(
                statistics.stddev(alias), matrix.std(axis=0, ddof=1), rtol=1e-9
            )

    def test_merge_shape_mismatch_rejected(self):
        first = MergeableAxisStats.from_matrices(self._matrices(n_weeks=5))
        second = MergeableAxisStats.from_matrices(self._matrices(n_weeks=6))
        with pytest.raises(ScenarioError, match="merge"):
            first.merge(second)

    def test_axis_values_passthrough(self):
        statistics = MergeableAxisStats.from_matrices(
            self._matrices(n_weeks=3)
        ).to_axis_statistics(axis_values=(7, 8, 9))
        assert statistics.axis_values == (7, 8, 9)
