"""Applying detected correlations to stored sample matrices.

Once :func:`~repro.core.fingerprint.correlation.correlate` has produced
per-component maps from a basis parameterization to a target one, this module
re-maps the basis's Monte Carlo sample matrix (``n_worlds x n_components``)
into an estimate of the target's — filling mapped components by transform and
reporting which components still need real simulation.

Soundness argument (paper §2): the probe seeds and the world seeds are both
*fixed* across parameter points, and VG-Functions draw their randomness from
seed-only streams. A relationship that holds for every probe seed is a
functional identity in the underlying random events, so it holds for the
world seeds too. Detection error is bounded by the correlation tolerance; the
``bench_ablation_tolerance`` benchmark quantifies the residual risk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FingerprintError
from repro.core.fingerprint.correlation import CorrelationResult, MapKind


@dataclass(frozen=True)
class RemapResult:
    """Outcome of remapping a basis sample matrix toward a target point.

    ``samples`` has mapped components filled and unmapped components NaN;
    callers overwrite the NaN columns with freshly simulated values.
    """

    samples: np.ndarray
    mapped_components: tuple[int, ...]
    unmapped_components: tuple[int, ...]

    @property
    def complete(self) -> bool:
        return not self.unmapped_components


def remap_samples(basis_samples: np.ndarray, correlation: CorrelationResult) -> RemapResult:
    """Transform ``basis_samples`` through the per-component maps."""
    if basis_samples.ndim != 2:
        raise FingerprintError(
            f"sample matrix must be 2-D (worlds x components), got {basis_samples.ndim}-D"
        )
    if basis_samples.shape[1] != correlation.n_components:
        raise FingerprintError(
            f"sample matrix has {basis_samples.shape[1]} components, "
            f"correlation has {correlation.n_components}"
        )
    # One column-vectorised step per map kind, elementwise exactly as
    # ComponentMap.apply does it per column.
    target = np.full_like(basis_samples, np.nan, dtype=float)
    identity = correlation.components(MapKind.IDENTITY)
    target[:, identity] = basis_samples[:, identity]
    shift = correlation.components(MapKind.SHIFT)
    target[:, shift] = basis_samples[:, shift] + correlation.offsets[shift]
    affine = correlation.components(MapKind.AFFINE)
    target[:, affine] = (
        correlation.scales[affine] * basis_samples[:, affine] + correlation.offsets[affine]
    )
    return RemapResult(
        samples=target,
        mapped_components=correlation.mapped_components,
        unmapped_components=correlation.unmapped_components,
    )


def fill_components(
    samples: np.ndarray, components: tuple[int, ...], fresh_columns: np.ndarray
) -> np.ndarray:
    """Overwrite ``components`` of ``samples`` with freshly simulated columns.

    ``fresh_columns`` must be ``n_worlds x len(components)``.
    """
    if fresh_columns.shape != (samples.shape[0], len(components)):
        raise FingerprintError(
            f"fresh columns shape {fresh_columns.shape} != "
            f"({samples.shape[0]}, {len(components)})"
        )
    filled = samples.copy()
    for position, component in enumerate(components):
        filled[:, component] = fresh_columns[:, position]
    return filled


def remap_error(
    exact_samples: np.ndarray, remapped_samples: np.ndarray, components: tuple[int, ...]
) -> float:
    """RMS error of remapped vs exactly simulated values on ``components``.

    Used by the tolerance-ablation benchmark to quantify how much accuracy a
    loose tolerance costs.
    """
    if not components:
        return 0.0
    index = np.asarray(components, dtype=int)
    difference = exact_samples[:, index] - remapped_samples[:, index]
    return float(np.sqrt(np.mean(np.square(difference))))
