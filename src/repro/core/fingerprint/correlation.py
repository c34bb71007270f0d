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
from typing import Optional, Sequence

import numpy as np

from repro.errors import FingerprintError
from repro.core.fingerprint.fingerprint import Fingerprint


class MapKind(enum.Enum):
    IDENTITY = "identity"
    SHIFT = "shift"
    AFFINE = "affine"


#: The ladder's rungs, cheapest first; a component's kind code is its
#: rung's index here, or ``_UNMAPPED``.
_RUNGS = (MapKind.IDENTITY, MapKind.SHIFT, MapKind.AFFINE)
_UNMAPPED = -1


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


class CorrelationResult:
    """Per-component maps from a basis parameterization to a target one.

    Holds the ladder's per-component arrays as it left them — ``kinds``
    (the rung's index in IDENTITY, SHIFT, AFFINE; ``-1`` where unmapped),
    ``scales``, ``offsets``, ``residuals`` (read-only; unmapped entries
    mean nothing) — and ``n_mapped``. ``maps``, one :class:`ComponentMap`
    per component and ``None`` where it could not be mapped, is built on
    first read and kept: a candidate that loses the match never builds
    one. Two results are equal when their ``maps`` are.
    """

    __slots__ = ("kinds", "scales", "offsets", "residuals", "n_mapped", "_maps")

    def __init__(
        self,
        kinds: np.ndarray,
        scales: np.ndarray,
        offsets: np.ndarray,
        residuals: np.ndarray,
        n_mapped: int,
    ) -> None:
        self.kinds = kinds
        self.scales = scales
        self.offsets = offsets
        self.residuals = residuals
        self.n_mapped = n_mapped
        self._maps: Optional[tuple[Optional[ComponentMap], ...]] = None

    @property
    def maps(self) -> tuple[Optional[ComponentMap], ...]:
        if self._maps is None:
            self._maps = tuple(
                None if kind == _UNMAPPED else ComponentMap(_RUNGS[kind], a, b, r)
                for kind, a, b, r in zip(
                    self.kinds.tolist(),
                    self.scales.tolist(),
                    self.offsets.tolist(),
                    self.residuals.tolist(),
                )
            )
        return self._maps

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CorrelationResult):
            return NotImplemented
        return self.maps == other.maps

    def __hash__(self) -> int:
        return hash(self.maps)

    def __repr__(self) -> str:
        return f"CorrelationResult(maps={self.maps!r})"

    @property
    def n_components(self) -> int:
        return len(self.kinds)

    def components(self, kind: MapKind) -> np.ndarray:
        """Indices of the components mapped under ``kind``, ascending."""
        return np.flatnonzero(self.kinds == _RUNGS.index(kind))

    @property
    def mapped_components(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.kinds != _UNMAPPED).tolist())

    @property
    def unmapped_components(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.kinds == _UNMAPPED).tolist())

    @property
    def mapped_fraction(self) -> float:
        if not self.n_components:
            return 0.0
        return self.n_mapped / self.n_components

    def kind_counts(self) -> dict[str, int]:
        """How many components matched under each relationship kind."""
        unmapped, *by_rung = np.bincount(
            self.kinds + 1, minlength=len(_RUNGS) + 1
        ).tolist()
        counts = {kind.value: count for kind, count in zip(_RUNGS, by_rung)}
        counts["unmapped"] = unmapped
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
    """Match every component of ``target`` against one ``basis``.

    The one-basis call of :func:`correlate_many`.
    """
    (result,) = correlate_many((basis,), target, policy)
    return result


def correlate_many(
    bases: Sequence[Fingerprint], target: Fingerprint, policy: CorrelationPolicy
) -> tuple[CorrelationResult, ...]:
    """Match every component of ``target`` against each of ``bases``, at once.

    The IDENTITY -> SHIFT -> AFFINE ladder of :func:`match_component`, run
    once over the bases' stacked ``(k * n_components, n_seeds)`` columns
    against the target's columns tiled ``k`` times: each rung tests the
    rows the cheaper rungs left over and narrows that index set. Every
    reduction runs along the contiguous last axis — see
    :attr:`Fingerprint.columns` — so a row is reduced exactly as it would
    be alone, and the ladder keeps ``match_component``'s operation order
    per element: every residual, offset and scale is bit-identical to the
    one-column function, whatever else is stacked beside it.

    Raises :class:`FingerprintError` when a basis is not comparable with
    the target (different function, probe spec, or component count).
    """
    for basis in bases:
        if not basis.comparable_with(target):
            raise FingerprintError(
                f"fingerprints not comparable: {basis.vg_name}/{basis.spec} vs "
                f"{target.vg_name}/{target.spec}"
            )
    k = len(bases)
    if not k:
        return ()
    x = np.concatenate([basis.columns for basis in bases])
    y = np.tile(target.columns, (k, 1))
    rows = x.shape[0]
    kinds = np.full(rows, _UNMAPPED, dtype=np.int8)
    scales = np.ones(rows)
    offsets = np.zeros(rows)
    residuals = np.full(rows, np.nan)

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
    kinds[accepted] = 0
    residuals[accepted] = residual[accepted]
    left = np.flatnonzero(~accepted)

    if policy.allow_shift and left.size:
        offset = np.mean(difference[left], axis=1)
        residual = _row_rms(difference[left] - offset[:, None])
        accepted = residual <= threshold[left]
        done = left[accepted]
        kinds[done] = 1
        offsets[done] = offset[accepted]
        residuals[done] = residual[accepted]
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
        done = left[accepted]
        kinds[done] = 2
        scales[done] = scale[accepted]
        offsets[done] = offset[accepted]
        residuals[done] = residual[accepted]

    for array in (kinds, scales, offsets, residuals):
        array.setflags(write=False)  # shared by the results and the memo
    n = target.n_components
    n_mapped = np.count_nonzero((kinds != _UNMAPPED).reshape(k, n), axis=1).tolist()
    return tuple(
        CorrelationResult(
            kinds[i * n : (i + 1) * n],
            scales[i * n : (i + 1) * n],
            offsets[i * n : (i + 1) * n],
            residuals[i * n : (i + 1) * n],
            n_mapped[i],
        )
        for i in range(k)
    )


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
