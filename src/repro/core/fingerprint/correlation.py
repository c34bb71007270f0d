"""Correlation detection between fingerprints.

Given fingerprints of the same VG-Function at two parameter points, we test
each output component (week) for a deterministic relationship across the
fixed probe seeds, from cheapest to most general:

1. **IDENTITY** — ``y == x`` (within tolerance): the parameter change does
   not affect this component at all (e.g. weeks before the earliest
   hardware-purchase date).
2. **SHIFT** — ``y == x + b``: a constant offset (e.g. weeks after both
   purchase dates, where the same cores have arrived either way).
3. **AFFINE** — ``y == a*x + b`` by least squares: scale-and-offset
   relationships (e.g. a demand curve under a different growth multiplier).

A component with residuals above tolerance under all three models is
**unmapped** and must be re-simulated. The set of per-component maps is a
:class:`CorrelationResult`; applying it to a stored sample matrix is
implemented in :mod:`repro.core.fingerprint.mapping`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import FingerprintError
from repro.core.fingerprint.fingerprint import Fingerprint


class MapKind(enum.Enum):
    IDENTITY = "identity"
    SHIFT = "shift"
    AFFINE = "affine"


@dataclass(frozen=True)
class ComponentMap:
    """A detected per-component relationship ``y = scale * x + offset``."""

    kind: MapKind
    scale: float = 1.0
    offset: float = 0.0
    residual: float = 0.0

    def apply(self, values: np.ndarray) -> np.ndarray:
        if self.kind == MapKind.IDENTITY:
            return values
        if self.kind == MapKind.SHIFT:
            return values + self.offset
        return self.scale * values + self.offset


@dataclass(frozen=True)
class CorrelationResult:
    """Per-component maps from a basis parameterization to a target one.

    ``maps[c]`` is ``None`` when component ``c`` could not be mapped.
    """

    maps: tuple[Optional[ComponentMap], ...]

    @property
    def n_components(self) -> int:
        return len(self.maps)

    @property
    def mapped_components(self) -> tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.maps) if m is not None)

    @property
    def unmapped_components(self) -> tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.maps) if m is None)

    @property
    def mapped_fraction(self) -> float:
        if not self.maps:
            return 0.0
        return len(self.mapped_components) / len(self.maps)

    def kind_counts(self) -> dict[str, int]:
        """How many components matched under each relationship kind."""
        counts = {kind.value: 0 for kind in MapKind}
        counts["unmapped"] = 0
        for component_map in self.maps:
            if component_map is None:
                counts["unmapped"] += 1
            else:
                counts[component_map.kind.value] += 1
        return counts


@dataclass(frozen=True)
class CorrelationPolicy:
    """Detection tolerances.

    ``tolerance`` is the maximum allowed root-mean-square residual of a
    candidate relationship, *relative* to the component's scale
    (``max(std(x), std(y), abs_floor)``). ``abs_floor`` guards components
    that are (near-)constant across seeds.
    """

    tolerance: float = 1e-6
    abs_floor: float = 1e-9
    allow_affine: bool = True
    allow_shift: bool = True

    def __post_init__(self) -> None:
        if self.tolerance < 0:
            raise FingerprintError(f"tolerance must be >= 0, got {self.tolerance}")
        if self.abs_floor <= 0:
            raise FingerprintError(f"abs_floor must be > 0, got {self.abs_floor}")


def match_component(
    x: np.ndarray, y: np.ndarray, policy: CorrelationPolicy
) -> Optional[ComponentMap]:
    """Find the cheapest relationship mapping probe outputs ``x`` to ``y``."""
    if x.shape != y.shape:
        raise FingerprintError(f"component shape mismatch: {x.shape} vs {y.shape}")
    scale_reference = max(float(np.std(x)), float(np.std(y)), policy.abs_floor)
    threshold = policy.tolerance * scale_reference

    identity_residual = _rms(y - x)
    if identity_residual <= threshold:
        return ComponentMap(MapKind.IDENTITY, residual=identity_residual)

    if policy.allow_shift:
        offset = float(np.mean(y - x))
        shift_residual = _rms(y - x - offset)
        if shift_residual <= threshold:
            return ComponentMap(MapKind.SHIFT, offset=offset, residual=shift_residual)

    if policy.allow_affine:
        affine = _fit_affine(x, y)
        if affine is not None:
            scale, offset = affine
            affine_residual = _rms(y - (scale * x + offset))
            if affine_residual <= threshold:
                return ComponentMap(
                    MapKind.AFFINE, scale=scale, offset=offset, residual=affine_residual
                )
    return None


def correlate(
    basis: Fingerprint, target: Fingerprint, policy: CorrelationPolicy
) -> CorrelationResult:
    """Match every component of ``target`` against ``basis`` in one pass.

    The IDENTITY -> SHIFT -> AFFINE ladder of :func:`match_component`, run
    over all components at once: each rung tests the components the cheaper
    rungs left over and narrows that index set. Works on the fingerprints'
    ``(n_components, n_seeds)`` transposes, reducing along the contiguous
    last axis only — see :attr:`Fingerprint.columns` — and keeps
    ``match_component``'s operation order per element, so every residual,
    offset and scale is bit-identical to the one-column function.

    Raises :class:`FingerprintError` when the fingerprints are not
    comparable (different function, probe spec, or component count).
    """
    if not basis.comparable_with(target):
        raise FingerprintError(
            f"fingerprints not comparable: {basis.vg_name}/{basis.spec} vs "
            f"{target.vg_name}/{target.spec}"
        )
    x, y = basis.columns, target.columns
    maps: list[Optional[ComponentMap]] = [None] * x.shape[0]

    # max(std(x), std(y), abs_floor) with Python's max semantics: a later
    # value replaces the running one only when strictly greater (NaN never).
    reference = np.std(x, axis=1)
    y_std = np.std(y, axis=1)
    reference = np.where(y_std > reference, y_std, reference)
    reference = np.where(policy.abs_floor > reference, policy.abs_floor, reference)
    threshold = policy.tolerance * reference

    difference = y - x
    residual = _row_rms(difference)
    accepted = residual <= threshold
    for c, r in zip(np.flatnonzero(accepted).tolist(), residual[accepted].tolist()):
        maps[c] = ComponentMap(MapKind.IDENTITY, residual=r)
    left = np.flatnonzero(~accepted)

    if policy.allow_shift and left.size:
        offset = np.mean(difference[left], axis=1)
        residual = _row_rms(difference[left] - offset[:, None])
        accepted = residual <= threshold[left]
        for c, b, r in zip(
            left[accepted].tolist(), offset[accepted].tolist(), residual[accepted].tolist()
        ):
            maps[c] = ComponentMap(MapKind.SHIFT, offset=b, residual=r)
        left = left[~accepted]

    if policy.allow_affine and left.size:
        # Least squares y ~ a*x + b; a degenerate (constant) x has no fit.
        x_var = np.var(x[left], axis=1)
        fit = x_var > 0.0
        left, x_var = left[fit], x_var[fit]
        x_left, y_left = x[left], y[left]
        x_mean = np.mean(x_left, axis=1)
        y_mean = np.mean(y_left, axis=1)
        covariance = np.mean(
            (x_left - x_mean[:, None]) * (y_left - y_mean[:, None]), axis=1
        )
        scale = covariance / x_var
        offset = y_mean - scale * x_mean
        residual = _row_rms(y_left - (scale[:, None] * x_left + offset[:, None]))
        accepted = residual <= threshold[left]
        for c, a, b, r in zip(
            left[accepted].tolist(),
            scale[accepted].tolist(),
            offset[accepted].tolist(),
            residual[accepted].tolist(),
        ):
            maps[c] = ComponentMap(MapKind.AFFINE, scale=a, offset=b, residual=r)
    return CorrelationResult(maps=tuple(maps))


def _row_rms(values: np.ndarray) -> np.ndarray:
    return np.sqrt(np.mean(np.square(values), axis=1))


def _rms(values: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(values))))


def _fit_affine(x: np.ndarray, y: np.ndarray) -> Optional[tuple[float, float]]:
    """Least-squares fit ``y ~ a*x + b``; None when x is degenerate."""
    x_var = float(np.var(x))
    if x_var <= 0.0:
        return None
    x_mean = float(np.mean(x))
    y_mean = float(np.mean(y))
    covariance = float(np.mean((x - x_mean) * (y - y_mean)))
    scale = covariance / x_var
    offset = y_mean - scale * x_mean
    return scale, offset
