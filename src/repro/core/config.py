"""The engine-facing configuration sections — each knob's one declaration.

:class:`SamplingConfig`, :class:`ReuseConfig` and :class:`StoreConfig` are
the frozen sections the evaluation cycle reads: the engine, the online and
offline drivers, :class:`~repro.serve.worker.EngineSpec` and the serve
workers all hold the *same* section objects the client was configured with
(:class:`~repro.api.ClientConfig` composes them with the serve-side
sections and re-exports them unchanged). :class:`EngineConfig` only groups
the three; it declares no knob of its own.

Validation happens at construction (the dataclasses are frozen): a bad
value raises :class:`~repro.errors.ScenarioError` naming the knob here, not
deep in the engine. Factories for the objects a section parameterizes
(:meth:`ReuseConfig.fingerprint_spec`, :meth:`ReuseConfig.
correlation_policy`) live on the section that owns their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Optional

from repro.core.fingerprint.correlation import CorrelationPolicy
from repro.core.fingerprint.fingerprint import FingerprintSpec
from repro.core.sampling import SAMPLING_BACKENDS
from repro.errors import ScenarioError


def require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioError(message)


def replace_fields(section: Any, **changes: Any) -> Any:
    """A validated copy of a frozen section with the given fields replaced.

    Unknown names raise :class:`ScenarioError` listing the section's fields
    — a typo in a fluent helper or a config file must not pass silently.
    """
    known = [f.name for f in fields(section)]
    unknown = sorted(set(changes) - set(known))
    require(
        not unknown,
        f"unknown key(s) for {type(section).__name__}: {unknown} (known: {known})",
    )
    return replace(section, **changes)


@dataclass(frozen=True)
class SamplingConfig:
    """The Monte Carlo sampling plane: worlds, seeds, backend.

    Which world prefixes a caller asks for — the round ladder — is not a
    sampling knob: it is the client's (:meth:`repro.api.ClientConfig.
    round_plan`), and cannot change a sample.
    """

    n_worlds: int = 200
    base_seed: int = 42
    #: ``"batched"`` lands a whole world slice per generated statement;
    #: ``"loop"`` executes one INSERT per world (the bit-identity
    #: reference). Backends are bit-identical by contract.
    backend: str = field(default="batched", metadata={"choices": SAMPLING_BACKENDS})

    def __post_init__(self) -> None:
        require(
            self.backend in SAMPLING_BACKENDS,
            f"unknown sampling backend {self.backend!r} "
            f"(known: {', '.join(SAMPLING_BACKENDS)})",
        )
        require(self.n_worlds >= 1, f"n_worlds must be >= 1, got {self.n_worlds}")


@dataclass(frozen=True)
class ReuseConfig:
    """Fingerprint-driven computation reuse (the paper's core mechanism)."""

    fingerprint_seeds: int = 8
    correlation_tolerance: float = 1e-6
    min_mapped_fraction: float = 0.05

    def __post_init__(self) -> None:
        require(
            self.fingerprint_seeds >= 2,
            f"fingerprint_seeds must be >= 2 (one probe seed cannot show "
            f"variation), got {self.fingerprint_seeds}",
        )
        require(
            self.correlation_tolerance >= 0.0,
            f"correlation_tolerance must be >= 0, got {self.correlation_tolerance}",
        )
        require(
            0.0 <= self.min_mapped_fraction <= 1.0,
            f"min_mapped_fraction must be in [0, 1], got {self.min_mapped_fraction}",
        )

    def fingerprint_spec(self) -> FingerprintSpec:
        return FingerprintSpec(n_seeds=self.fingerprint_seeds)

    def correlation_policy(self) -> CorrelationPolicy:
        return CorrelationPolicy(tolerance=self.correlation_tolerance)


@dataclass(frozen=True)
class StoreConfig:
    """The tiered basis store: memory-tier bounds and the disk spill tier.

    ``basis_cap`` / ``basis_byte_cap`` bound the resident basis count and
    resident sample bytes (``None`` = unbounded). Evicted bases spill to npz
    files under ``basis_dir`` and fault back on demand; with ``None`` they
    are dropped and degrade to fresh misses.
    """

    basis_cap: Optional[int] = None
    basis_byte_cap: Optional[int] = None
    basis_dir: Optional[str] = None

    def __post_init__(self) -> None:
        require(
            self.basis_cap is None or self.basis_cap >= 0,
            f"basis_cap must be >= 0 or None, got {self.basis_cap}",
        )
        require(
            self.basis_byte_cap is None or self.basis_byte_cap >= 0,
            f"basis_byte_cap must be >= 0 or None, got {self.basis_byte_cap}",
        )


@dataclass(frozen=True)
class EngineConfig:
    """The three sections the evaluation cycle reads, grouped — no knobs."""

    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    reuse: ReuseConfig = field(default_factory=ReuseConfig)
    store: StoreConfig = field(default_factory=StoreConfig)
