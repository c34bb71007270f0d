"""Fingerprint registry: the index of explored parameterizations.

The registry remembers the fingerprint of every ``(vg, model_args)``
parameterization that has been probed, and answers the engine's central
question: *given a new parameterization, which explored one maps onto it
best?* It also records the established mappings, which is exactly the data
behind the paper's Figure 4 visualization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.core.fingerprint.correlation import (
    CorrelationPolicy,
    CorrelationResult,
    correlate_many,
)
from repro.core.fingerprint.fingerprint import (
    Fingerprint,
    FingerprintSpec,
    compute_fingerprint,
)
from repro.vg.base import VGFunction

ParamKey = tuple[Any, ...]


@dataclass(frozen=True)
class MatchOutcome:
    """Best-basis answer for one target parameterization."""

    basis_args: ParamKey
    correlation: CorrelationResult

    @property
    def mapped_fraction(self) -> float:
        return self.correlation.mapped_fraction


@dataclass(frozen=True)
class MappingRecord:
    """One established basis -> target mapping (Figure 4 material)."""

    vg_name: str
    basis_args: ParamKey
    target_args: ParamKey
    mapped_fraction: float
    kind_counts: dict[str, int]


class FingerprintRegistry:
    """Per-engine store of fingerprints and established mappings."""

    def __init__(self, spec: FingerprintSpec, policy: CorrelationPolicy) -> None:
        self.spec = spec
        self.policy = policy
        self._fingerprints: dict[tuple[str, ParamKey], Fingerprint] = {}
        self._mappings: list[MappingRecord] = []
        self._mapping_names: list[str] = []  # lowered vg name per record
        # One slot per vg name: the target ``best_match`` was last asked
        # about and its correlations by basis key. Rounds of one point ask
        # about the same target back to back; a correlation is a pure
        # function of the two stored fingerprints and the (frozen) policy,
        # so a slot is stale only once one of those fingerprints is replaced.
        self._recent: dict[str, tuple[ParamKey, dict[ParamKey, CorrelationResult]]] = {}
        self.probes_computed = 0

    # -- fingerprints --------------------------------------------------------

    def fingerprint_of(self, function: VGFunction, args: Iterable[Any]) -> Fingerprint:
        """Fetch (or compute and remember) the fingerprint at ``args``."""
        key = (function.name.lower(), tuple(args))
        existing = self._fingerprints.get(key)
        if existing is not None:
            return existing
        fingerprint = compute_fingerprint(function, key[1], self.spec)
        self._fingerprints[key] = fingerprint
        self.probes_computed += 1
        return fingerprint

    def known_args(self, vg_name: str) -> tuple[ParamKey, ...]:
        lowered = vg_name.lower()
        return tuple(args for (name, args) in self._fingerprints if name == lowered)

    def has_fingerprint(self, vg_name: str, args: Iterable[Any]) -> bool:
        return (vg_name.lower(), tuple(args)) in self._fingerprints

    def get_fingerprint(
        self, vg_name: str, args: Iterable[Any]
    ) -> Optional[Fingerprint]:
        """The stored fingerprint at ``args``, or ``None`` (never computes)."""
        return self._fingerprints.get((vg_name.lower(), tuple(args)))

    def seed_fingerprint(self, fingerprint: Fingerprint) -> None:
        """Adopt an externally computed fingerprint (persistence).

        The caller vouches that it was probed under this registry's spec.
        """
        name = fingerprint.vg_name.lower()
        self._fingerprints[(name, tuple(fingerprint.args))] = fingerprint
        # A remembered correlation may have read the fingerprint replaced here.
        self._recent.pop(name, None)

    # -- matching ---------------------------------------------------------------

    def best_match(
        self,
        function: VGFunction,
        target_args: Iterable[Any],
        candidate_args: Iterable[ParamKey],
        min_fraction: float = 0.0,
    ) -> Optional[MatchOutcome]:
        """Correlate the target against candidate bases; pick the best.

        ``candidate_args`` restricts the comparison to parameterizations the
        caller actually holds samples for (fingerprints alone cannot seed a
        remap). Every offered candidate with a fingerprint that the slot
        does not hold yet is correlated in one stacked pass
        (:func:`correlate_many`); the winner is the first candidate, in
        the order offered, with the highest mapped fraction. Returns
        ``None`` when no candidate maps at least ``min_fraction`` of
        components.
        """
        target_key = tuple(target_args)
        target_fp = self.fingerprint_of(function, target_key)
        name = function.name.lower()
        recent = self._recent.get(name)
        if recent is None or recent[0] != target_key:
            recent = self._recent[name] = (target_key, {})
        correlations = recent[1]
        offered = [
            basis_key
            for basis_key in map(tuple, candidate_args)
            if basis_key != target_key and (name, basis_key) in self._fingerprints
        ]
        unseen = [key for key in dict.fromkeys(offered) if key not in correlations]
        if unseen:
            bases = [self._fingerprints[name, key] for key in unseen]
            correlations.update(
                zip(unseen, correlate_many(bases, target_fp, self.policy))
            )
        best: Optional[MatchOutcome] = None
        best_fraction = -1.0
        for basis_key in offered:
            correlation = correlations[basis_key]
            fraction = correlation.mapped_fraction
            if fraction > best_fraction:
                best = MatchOutcome(basis_args=basis_key, correlation=correlation)
                best_fraction = fraction
                if fraction == 1.0:
                    # A later candidate only wins by strictly exceeding this.
                    break
        if best is None or best_fraction < max(min_fraction, 1e-12):
            return None
        return best

    # -- mapping log ---------------------------------------------------------------

    def record_mapping(
        self, vg_name: str, basis_args: ParamKey, target_args: ParamKey,
        correlation: CorrelationResult,
    ) -> MappingRecord:
        record = MappingRecord(
            vg_name=vg_name,
            basis_args=tuple(basis_args),
            target_args=tuple(target_args),
            mapped_fraction=correlation.mapped_fraction,
            kind_counts=correlation.kind_counts(),
        )
        self._mappings.append(record)
        self._mapping_names.append(vg_name.lower())
        return record

    @property
    def mappings(self) -> tuple[MappingRecord, ...]:
        return tuple(self._mappings)

    def mappings_for(self, vg_name: str) -> tuple[MappingRecord, ...]:
        lowered = vg_name.lower()
        return tuple(
            record
            for record, name in zip(self._mappings, self._mapping_names)
            if name == lowered
        )

    def clear(self) -> None:
        self._fingerprints.clear()
        self._mappings.clear()
        self._mapping_names.clear()
        self._recent.clear()
        self.probes_computed = 0

    def __len__(self) -> int:
        return len(self._fingerprints)
