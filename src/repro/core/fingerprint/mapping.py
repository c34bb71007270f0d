"""Applying detected correlations to stored sample matrices.

Once :func:`~repro.core.fingerprint.correlation.correlate` has produced
per-component maps from a basis parameterization to a target one, this module
re-maps the basis's Monte Carlo sample matrix (``n_worlds x n_components``)
into an estimate of the target's — filling mapped components by transform,
unmapped ones with the real simulation the caller ran for them.

Soundness argument (paper §2): the probe seeds and the world seeds are both
*fixed* across parameter points, and VG-Functions draw their randomness from
seed-only streams. A relationship that holds for every probe seed is a
functional identity in the underlying random events, so it holds for the
world seeds too. Detection error is bounded by the correlation tolerance; the
``bench_ablation_tolerance`` benchmark quantifies the residual risk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import FingerprintError
from repro.core.fingerprint.correlation import CorrelationResult, MapKind


@dataclass(frozen=True)
class RemapResult:
    """Outcome of remapping a basis sample matrix toward a target point.

    ``samples`` has mapped components filled, and unmapped components
    holding the re-simulated columns the caller passed — NaN without them.
    """

    samples: np.ndarray
    mapped_components: tuple[int, ...]
    unmapped_components: tuple[int, ...]

    @property
    def complete(self) -> bool:
        return not self.unmapped_components


def remap_samples(
    basis_samples: np.ndarray,
    correlation: CorrelationResult,
    fresh_columns: Optional[np.ndarray] = None,
) -> RemapResult:
    """Transform ``basis_samples`` through the per-component maps.

    One pass over a C-order copy of the basis: its identity columns are
    then already in place, and only the shift, affine and unmapped columns
    are overwritten — mapped ones elementwise exactly as
    :meth:`ComponentMap.apply` does it per column, unmapped ones with
    ``fresh_columns`` (``n_worlds x len(unmapped_components)``, freshly
    simulated by the caller), or NaN when none are given.
    """
    if basis_samples.ndim != 2:
        raise FingerprintError(
            f"sample matrix must be 2-D (worlds x components), got {basis_samples.ndim}-D"
        )
    if basis_samples.shape[1] != correlation.n_components:
        raise FingerprintError(
            f"sample matrix has {basis_samples.shape[1]} components, "
            f"correlation has {correlation.n_components}"
        )
    unmapped = correlation.unmapped_components
    if fresh_columns is not None and fresh_columns.shape != (
        basis_samples.shape[0], len(unmapped)
    ):
        raise FingerprintError(
            f"fresh columns shape {fresh_columns.shape} != "
            f"({basis_samples.shape[0]}, {len(unmapped)})"
        )
    target = np.array(basis_samples, dtype=float, order="C")
    shift = correlation.components(MapKind.SHIFT)
    if shift.size:
        target[:, shift] = basis_samples[:, shift] + correlation.offsets[shift]
    affine = correlation.components(MapKind.AFFINE)
    if affine.size:
        target[:, affine] = (
            correlation.scales[affine] * basis_samples[:, affine] + correlation.offsets[affine]
        )
    if unmapped:
        target[:, unmapped] = np.nan if fresh_columns is None else fresh_columns
    return RemapResult(
        samples=target,
        mapped_components=correlation.mapped_components,
        unmapped_components=unmapped,
    )


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
