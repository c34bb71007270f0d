"""Property-based tests (hypothesis) for the fingerprint machinery.

The central soundness property: whenever correlation detection accepts a
per-component map from basis to target, applying that map to *world* samples
(seeds never seen during detection) reproduces the target's samples within
tolerance. We exercise it over randomly parameterized synthetic VG-Functions
with known ground-truth structure.
"""

from __future__ import annotations

import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fingerprint import (
    CorrelationPolicy,
    Fingerprint,
    FingerprintRegistry,
    FingerprintSpec,
    compute_fingerprint,
    correlate,
    correlate_many,
    match_component,
    remap_samples,
)
from repro.vg.base import VGFunction
from repro.vg.seeds import world_seed

SPEC = FingerprintSpec(n_seeds=8)
POLICY = CorrelationPolicy(tolerance=1e-6)


class AffineFamilyVG(VGFunction):
    """A VG whose parameterizations are exact affine transforms of a latent
    noise vector: value = scale * noise + offset * t_factor."""

    name = "AffineFamily"
    n_components = 12
    arg_names = ("scale", "offset")

    def generate(self, seed, args):
        scale, offset = float(args[0]), float(args[1])
        noise = self.rng(seed, ()).normal(size=self.n_components)
        return scale * noise + offset


class WindowedVG(VGFunction):
    """Identity outside a parameter-dependent window, noise inside it."""

    name = "Windowed"
    n_components = 16
    arg_names = ("start", "width")

    def generate(self, seed, args):
        start, width = int(args[0]), int(args[1])
        rng = self.rng(seed, ())
        base = rng.normal(size=self.n_components)
        extra = rng.normal(size=self.n_components)
        out = base.copy()
        out[start : start + width] += extra[start : start + width]
        return out


scales = st.floats(min_value=0.1, max_value=5.0, allow_nan=False)
offsets = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(s1=scales, o1=offsets, s2=scales, o2=offsets)
def test_affine_family_always_fully_maps(s1, o1, s2, o2):
    vg = AffineFamilyVG()
    basis = compute_fingerprint(vg, (s1, o1), SPEC)
    target = compute_fingerprint(vg, (s2, o2), SPEC)
    result = correlate(basis, target, POLICY)
    assert result.mapped_fraction == 1.0


@settings(max_examples=30, deadline=None)
@given(s1=scales, o1=offsets, s2=scales, o2=offsets)
def test_detected_maps_transfer_to_world_samples(s1, o1, s2, o2):
    """Soundness: maps found on probe seeds hold on world seeds."""
    vg = AffineFamilyVG()
    basis_fp = compute_fingerprint(vg, (s1, o1), SPEC)
    target_fp = compute_fingerprint(vg, (s2, o2), SPEC)
    result = correlate(basis_fp, target_fp, POLICY)

    seeds = [world_seed(1234, w) for w in range(10)]
    basis_samples = np.vstack([vg.invoke(s, (s1, o1)) for s in seeds])
    exact_target = np.vstack([vg.invoke(s, (s2, o2)) for s in seeds])
    remapped = remap_samples(basis_samples, result)
    mapped = list(remapped.mapped_components)
    scale_magnitude = max(abs(s1), abs(s2), abs(o1), abs(o2), 1.0)
    assert np.allclose(
        remapped.samples[:, mapped], exact_target[:, mapped],
        atol=1e-6 * scale_magnitude, rtol=1e-6,
    )


@settings(max_examples=30, deadline=None)
@given(
    start1=st.integers(min_value=0, max_value=10),
    start2=st.integers(min_value=0, max_value=10),
    width=st.integers(min_value=1, max_value=5),
)
def test_windowed_unmapped_exactly_in_symmetric_difference(start1, start2, width):
    vg = WindowedVG()
    basis = compute_fingerprint(vg, (start1, width), SPEC)
    target = compute_fingerprint(vg, (start2, width), SPEC)
    result = correlate(basis, target, POLICY)
    window1 = set(range(start1, min(start1 + width, 16)))
    window2 = set(range(start2, min(start2 + width, 16)))
    changed = window1 ^ window2
    unmapped = set(result.unmapped_components)
    # Components outside both windows (or inside both) are identity-mapped;
    # only the symmetric difference may need recomputation.
    assert unmapped <= changed
    for component in set(range(16)) - changed:
        assert result.maps[component] is not None


@settings(max_examples=50, deadline=None)
@given(
    x=st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        min_size=4,
        max_size=16,
    ),
    scale=scales,
    offset=offsets,
)
def test_match_component_recovers_exact_affine(x, scale, offset):
    x = np.asarray(x)
    y = scale * x + offset
    result = match_component(x, y, POLICY)
    assert result is not None
    reconstructed = result.apply(x)
    assert np.allclose(reconstructed, y, atol=1e-6 * max(1.0, np.abs(y).max()))


@settings(max_examples=50, deadline=None)
@given(
    x=st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        min_size=4,
        max_size=16,
    )
)
def test_identity_always_detected(x):
    x = np.asarray(x)
    result = match_component(x, x.copy(), POLICY)
    assert result is not None
    assert result.residual == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(n_seeds=st.integers(min_value=2, max_value=24))
def test_fingerprint_rows_match_direct_invocation(n_seeds):
    spec = FingerprintSpec(n_seeds=n_seeds)
    vg = AffineFamilyVG()
    fingerprint = compute_fingerprint(vg, (1.0, 0.0), spec)
    for row, seed in enumerate(spec.seeds):
        assert fingerprint.matrix[row] == pytest.approx(vg.invoke(seed, (1.0, 0.0)))


# -- batched correlate vs the one-column oracle --------------------------------

#: How a target column is derived from its basis column. The first four
#: exercise the four outcomes of the ladder; the rest are its edge inputs.
COLUMN_KINDS = (
    "identity", "shift", "affine", "noise",
    "constant_basis", "constant_both", "nan", "inf",
)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _assert_same_map(batched, oracle, component):
    """Field-by-field bit equality, so ``-0.0`` and NaN payloads count."""
    if oracle is None or batched is None:
        assert batched is oracle, f"component {component}: {batched} vs {oracle}"
        return
    assert batched.kind == oracle.kind, f"component {component}"
    for name in ("scale", "offset", "residual"):
        assert _bits(getattr(batched, name)) == _bits(getattr(oracle, name)), (
            f"component {component}: {name} {getattr(batched, name)!r} "
            f"vs {getattr(oracle, name)!r}"
        )


def _assert_matches_oracle(basis, target, policy):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # NaN/inf columns
        result = correlate(basis, target, policy)
        oracle = tuple(
            match_component(basis.column(c), target.column(c), policy)
            for c in range(basis.n_components)
        )
    assert len(result.maps) == len(oracle)
    for component, (batched, expected) in enumerate(zip(result.maps, oracle)):
        _assert_same_map(batched, expected, component)
    return result


def _column_pair(kind: str, rng: np.random.Generator, n_seeds: int):
    x = rng.normal(rng.uniform(-1e3, 1e3), rng.uniform(0.1, 50.0), size=n_seeds)
    if kind == "identity":
        return x, x.copy()
    if kind == "shift":
        return x, x + rng.uniform(-500.0, 500.0)
    if kind == "affine":
        return x, rng.uniform(0.2, 3.0) * x + rng.uniform(-500.0, 500.0)
    if kind == "noise":
        return x, rng.normal(0.0, 10.0, size=n_seeds)
    if kind == "constant_basis":  # x_var == 0: no affine fit exists
        return np.full(n_seeds, x[0]), rng.normal(0.0, 10.0, size=n_seeds)
    if kind == "constant_both":
        return np.full(n_seeds, x[0]), np.full(n_seeds, x[0])
    y = x.copy()
    y[rng.integers(n_seeds)] = np.nan if kind == "nan" else np.inf
    return (x, y) if rng.random() < 0.5 else (y, x)


@settings(max_examples=120, deadline=None)
@given(
    data_seed=st.integers(min_value=0, max_value=2**32 - 1),
    # Either side of NumPy's pairwise-sum block edges (8 and 128).
    n_seeds=st.sampled_from([2, 7, 8, 9, 16, 129]),
    kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=12),
    allow_shift=st.booleans(),
    allow_affine=st.booleans(),
    tolerance=st.sampled_from([0.0, 1e-9, 1e-6, 1e-2]),
    layout=st.sampled_from(["c", "fortran", "sliced"]),
)
def test_batched_correlate_is_bit_identical_to_match_component(
    data_seed, n_seeds, kinds, allow_shift, allow_affine, tolerance, layout
):
    rng = np.random.default_rng(data_seed)
    pairs = [_column_pair(kind, rng, n_seeds) for kind in kinds]
    basis_matrix = np.column_stack([x for x, _ in pairs])
    target_matrix = np.column_stack([y for _, y in pairs])
    if layout == "fortran":
        basis_matrix = np.asfortranarray(basis_matrix)
        target_matrix = np.asfortranarray(target_matrix)
    elif layout == "sliced":  # every other column of a wider matrix
        wide = np.zeros((n_seeds, 2 * len(kinds)))
        wide[:, ::2] = basis_matrix
        basis_matrix = wide[:, ::2]
        wide = np.zeros((n_seeds, 2 * len(kinds)))
        wide[:, ::2] = target_matrix
        target_matrix = wide[:, ::2]
    spec = FingerprintSpec(n_seeds=n_seeds)
    policy = CorrelationPolicy(
        tolerance=tolerance, allow_shift=allow_shift, allow_affine=allow_affine
    )
    # Adopted through seed_fingerprint, as persistence does.
    registry = FingerprintRegistry(spec, policy)
    registry.seed_fingerprint(Fingerprint("oracle", (0,), basis_matrix, spec))
    registry.seed_fingerprint(Fingerprint("oracle", (1,), target_matrix, spec))
    basis = registry.get_fingerprint("oracle", (0,))
    target = registry.get_fingerprint("oracle", (1,))
    assert basis.columns.flags.c_contiguous
    assert basis.columns.shape == (len(kinds), n_seeds)
    _assert_matches_oracle(basis, target, policy)


def test_batched_correlate_covers_all_four_outcomes():
    rng = np.random.default_rng(7)
    kinds = ["identity", "shift", "affine", "noise"] * 3
    pairs = [_column_pair(kind, rng, 8) for kind in kinds]
    spec = FingerprintSpec(n_seeds=8)
    basis = Fingerprint("o", (0,), np.column_stack([x for x, _ in pairs]), spec)
    target = Fingerprint("o", (1,), np.column_stack([y for _, y in pairs]), spec)
    result = _assert_matches_oracle(basis, target, POLICY)
    assert result.kind_counts() == {
        "identity": 3, "shift": 3, "affine": 3, "unmapped": 3
    }


def test_correlate_reduces_along_the_contiguous_axis_not_axis_zero():
    """Fails if a reduction runs along ``axis=0`` of the stored matrix.

    ``np.mean(M, axis=0)`` accumulates row by row; ``np.mean(M[:, c])`` uses
    the pairwise tree. At 8 seeds they differ in the last bit on many
    columns, and an affine map's scale and offset inherit the difference.
    """
    rng = np.random.default_rng(12)
    x = rng.normal(5000.0, 100.0, size=(8, 53))
    by_row = np.mean(x, axis=0)
    by_column = np.array([np.mean(x[:, c]) for c in range(53)])
    assert (by_row.view(np.int64) != by_column.view(np.int64)).any(), (
        "this NumPy sums axis 0 like a column; the case no longer discriminates"
    )
    spec = FingerprintSpec(n_seeds=8)
    basis = Fingerprint("o", (0,), x, spec)
    target = Fingerprint("o", (1,), 1.5 * x + 3.0, spec)
    result = _assert_matches_oracle(basis, target, POLICY)
    assert result.kind_counts()["affine"] == 53


# -- the stacked ladder vs the one-column oracle --------------------------------

#: Target columns: the bases are derived from them, so every basis in a
#: stack faces the same target, as in ``best_match``.
TARGET_KINDS = ("normal", "constant", "signed_zeros", "negative_zeros", "nan")
#: How a basis column is derived from its target column.
BASIS_KINDS = (
    "identity", "shift", "affine", "noise", "constant", "signed_zeros", "nan", "inf",
)


def _target_column(kind: str, rng: np.random.Generator, n_seeds: int) -> np.ndarray:
    if kind == "normal":
        return rng.normal(rng.uniform(-1e3, 1e3), rng.uniform(0.1, 50.0), size=n_seeds)
    if kind == "constant":
        return np.full(n_seeds, rng.uniform(-1e3, 1e3))
    if kind == "signed_zeros":
        return np.where(rng.random(n_seeds) < 0.5, -0.0, 0.0)
    if kind == "negative_zeros":  # constant, and every value -0.0
        return np.full(n_seeds, -0.0)
    column = rng.normal(0.0, 10.0, size=n_seeds)
    column[rng.integers(n_seeds)] = np.nan
    return column


def _basis_column(kind: str, y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    if kind == "identity":
        return y.copy()
    if kind == "shift":
        return y - rng.uniform(-500.0, 500.0)
    if kind == "affine":
        return (y - rng.uniform(-500.0, 500.0)) / rng.uniform(0.2, 3.0)
    if kind == "noise":
        return rng.normal(0.0, 10.0, size=y.size)
    if kind == "constant":  # x_var == 0: no affine fit exists
        return np.full(y.size, rng.uniform(-1e3, 1e3))
    if kind == "signed_zeros":
        return np.where(rng.random(y.size) < 0.5, -0.0, 0.0)
    x = y.copy()
    x[rng.integers(y.size)] = np.nan if kind == "nan" else np.inf
    return x


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    data=st.data(),
    data_seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_seeds=st.sampled_from([2, 7, 8, 9, 16, 129]),
    target_kinds=st.lists(st.sampled_from(TARGET_KINDS), min_size=1, max_size=6),
    k=st.integers(min_value=1, max_value=9),
    allow_shift=st.booleans(),
    allow_affine=st.booleans(),
    tolerance=st.sampled_from([0.0, 1e-9, 1e-6, 1e-2]),
)
def test_stacked_ladder_is_bit_identical_to_match_component(
    data, data_seed, n_seeds, target_kinds, k, allow_shift, allow_affine, tolerance
):
    """Every basis of one stacked ``correlate_many`` pass gets exactly the
    maps ``match_component`` finds for it alone, and the array-backed result
    reads, counts and remaps exactly as its materialised ``maps`` do."""
    rng = np.random.default_rng(data_seed)
    spec = FingerprintSpec(n_seeds=n_seeds)
    policy = CorrelationPolicy(
        tolerance=tolerance, allow_shift=allow_shift, allow_affine=allow_affine
    )
    target_columns = [_target_column(kind, rng, n_seeds) for kind in target_kinds]
    target = Fingerprint("oracle", ("target",), np.column_stack(target_columns), spec)
    bases: list[Fingerprint] = []
    for index in range(k):
        if bases and data.draw(st.booleans(), label="duplicate"):
            bases.append(bases[data.draw(st.integers(0, len(bases) - 1), label="of")])
            continue
        kinds = data.draw(
            st.lists(
                st.sampled_from(BASIS_KINDS),
                min_size=len(target_kinds),
                max_size=len(target_kinds),
            ),
            label="basis kinds",
        )
        columns = [_basis_column(kind, y, rng) for kind, y in zip(kinds, target_columns)]
        bases.append(Fingerprint("oracle", (index,), np.column_stack(columns), spec))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # NaN/inf columns
        results = correlate_many(bases, target, policy)
        oracles = [
            tuple(
                match_component(basis.column(c), target.column(c), policy)
                for c in range(target.n_components)
            )
            for basis in bases
        ]
        alone = correlate(bases[0], target, policy)
    assert len(results) == k
    assert alone == results[0]  # correlate is the one-basis stack
    samples = rng.normal(0.0, 100.0, size=(5, target.n_components))
    samples[0] = -0.0
    samples[1, 0] = np.nan
    for result, oracle in zip(results, oracles):
        assert len(result.maps) == len(oracle)
        for component, (stacked, expected) in enumerate(zip(result.maps, oracle)):
            _assert_same_map(stacked, expected, component)
        maps = result.maps
        assert result.mapped_fraction == sum(m is not None for m in maps) / len(maps)
        counts = {"identity": 0, "shift": 0, "affine": 0, "unmapped": 0}
        for component_map in maps:
            counts["unmapped" if component_map is None else component_map.kind.value] += 1
        assert result.kind_counts() == counts
        assert list(result.kind_counts()) == list(counts)
        assert result.mapped_components == tuple(
            c for c, m in enumerate(maps) if m is not None
        )
        assert result.unmapped_components == tuple(
            c for c, m in enumerate(maps) if m is None
        )
        looped = np.full_like(samples, np.nan)
        for component, component_map in enumerate(maps):
            if component_map is not None:
                looped[:, component] = component_map.apply(samples[:, component])
        assert remap_samples(samples, result).samples.tobytes() == looped.tobytes()
