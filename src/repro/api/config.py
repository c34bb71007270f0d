"""Typed, layered client configuration.

One :class:`ClientConfig` composes nine frozen section dataclasses —
sampling, reuse, basis store, serving, resilience, shard transport, result
cache, adaptive sampling, observability — into one validated object. Each
knob is declared exactly once, on its section, next to the machinery it
configures: the three engine-facing sections live in
:mod:`repro.core.config` (re-exported here unchanged), resilience,
transport and observability beside their subsystems. Nothing copies a knob:
the engine, the serve workers and the CLI all read the same section
objects (:meth:`ClientConfig.engine_sections` regroups, it does not copy).

Round-trips: :meth:`ClientConfig.to_mapping` / :meth:`ClientConfig.
from_mapping` convert to and from plain nested mappings (config files,
service payloads). The portable form routes every leaf through
:mod:`repro.core.argcodec`'s tagged encoding, so a JSON hop preserves
concrete types exactly — bool vs int, tuples, non-finite floats —
``ClientConfig.from_mapping(cfg.to_mapping(portable=True)) == cfg`` always.

Validation happens at construction (the dataclasses are frozen): an
unknown sampling backend, a negative basis cap, or a bad executor kind
raises :class:`~repro.errors.ScenarioError` here, not deep in the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping, Optional

from repro.core.argcodec import decode_value, encode_value
from repro.core.config import (
    EngineConfig,
    ReuseConfig,
    SamplingConfig,
    StoreConfig,
    replace_fields,
    require,
)
from repro.core.rounds import RoundPlan
from repro.obs.config import ObsConfig
from repro.serve.resilience import ResilienceConfig
from repro.serve.transport import TransportConfig

#: Executor kinds the serving section accepts (see repro.serve.executors).
EXECUTOR_KINDS: tuple[str, ...] = ("auto", "process", "inline")


@dataclass(frozen=True)
class ServeConfig:
    """The sharded evaluation service: worker pool and shard geometry.

    All defaults mean "in-process, sequential" — a default-constructed
    section leaves :attr:`enabled` false and the client runs on a plain
    engine. Setting any knob (or an explicit executor kind) opts into the
    serve backend.
    """

    workers: Optional[int] = None
    shards: Optional[int] = None
    executor: str = field(default="auto", metadata={"choices": EXECUTOR_KINDS})
    min_shard_worlds: int = 8

    def __post_init__(self) -> None:
        require(
            self.executor in EXECUTOR_KINDS,
            f"unknown executor kind {self.executor!r} "
            f"(known: {', '.join(EXECUTOR_KINDS)})",
        )
        require(
            self.workers is None or self.workers >= 1,
            f"workers must be >= 1 or None, got {self.workers}",
        )
        require(
            self.shards is None or self.shards >= 1,
            f"shards must be >= 1 or None, got {self.shards}",
        )
        require(
            self.min_shard_worlds >= 1,
            f"min_shard_worlds must be >= 1, got {self.min_shard_worlds}",
        )

    @property
    def enabled(self) -> bool:
        """Did the caller ask for the serve backend at all?"""
        return (
            self.workers is not None
            or self.shards is not None
            or self.executor != "auto"
        )


@dataclass(frozen=True)
class CacheConfig:
    """The persistent cross-run result cache."""

    dir: Optional[str] = None

    def __post_init__(self) -> None:
        require(
            self.dir is None or (isinstance(self.dir, str) and bool(self.dir)),
            f"cache dir must be a non-empty path string or None, "
            f"got {self.dir!r}",
        )

    @property
    def enabled(self) -> bool:
        return self.dir is not None


@dataclass(frozen=True)
class AdaptiveConfig:
    """Adaptive anytime sampling: the round protocol's stopping rule.

    Setting ``target_ci`` turns adaptive sampling on: sweep points run in
    growing world-prefix rounds and retire once every output series'
    confidence half-width is at most ``target_ci``; the budget allocator
    reassigns their unspent worlds to unresolved points. Stopping is a pure
    function of accumulated statistics — never wall-clock — so adaptive
    runs are deterministic and shard-geometry independent.

    ``min_worlds`` / ``max_worlds`` / ``round_growth`` bound the round
    ladder (first round, fixed per-point budget, geometric growth). They
    absorb — and are the preferred spellings over — the
    ``refinement_first`` / ``refinement_growth`` knobs on
    :class:`SamplingConfig`, which they default to when left ``None``
    (``max_worlds`` defaults to ``n_worlds``).
    """

    target_ci: Optional[float] = None
    min_worlds: Optional[int] = None
    max_worlds: Optional[int] = None
    round_growth: Optional[float] = None

    def __post_init__(self) -> None:
        require(
            self.target_ci is None or self.target_ci > 0.0,
            f"target_ci must be > 0 or None, got {self.target_ci}",
        )
        require(
            self.min_worlds is None or self.min_worlds >= 1,
            f"min_worlds must be >= 1 or None, got {self.min_worlds}",
        )
        require(
            self.max_worlds is None or self.max_worlds >= 1,
            f"max_worlds must be >= 1 or None, got {self.max_worlds}",
        )
        require(
            self.round_growth is None or self.round_growth > 1.0,
            f"round_growth must be > 1 or None, got {self.round_growth}",
        )

    @property
    def enabled(self) -> bool:
        """Adaptive stopping is on exactly when a target is set."""
        return self.target_ci is not None


#: Section name -> section dataclass, in rendering order.
_SECTIONS: dict[str, type] = {
    "sampling": SamplingConfig,
    "reuse": ReuseConfig,
    "store": StoreConfig,
    "serve": ServeConfig,
    "resilience": ResilienceConfig,
    "transport": TransportConfig,
    "cache": CacheConfig,
    "adaptive": AdaptiveConfig,
    "obs": ObsConfig,
}


@dataclass(frozen=True)
class ClientConfig:
    """The one configuration object behind a :class:`~repro.api.ProphetClient`.

    Composes the nine sections; backends — in-process engine vs sharded
    service, loop vs batched sampling, tiered store, fault-tolerance
    ladder, result cache — are pure configuration here, never separate
    constructor dialects. The resilience section is defined next to the
    machinery it configures (:mod:`repro.serve.resilience`) and composed
    here like any other.
    """

    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    reuse: ReuseConfig = field(default_factory=ReuseConfig)
    store: StoreConfig = field(default_factory=StoreConfig)
    serve: ServeConfig = field(default_factory=ServeConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    transport: TransportConfig = field(default_factory=TransportConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    adaptive: AdaptiveConfig = field(default_factory=AdaptiveConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)

    def __post_init__(self) -> None:
        for name, section_type in _SECTIONS.items():
            value = getattr(self, name)
            require(
                isinstance(value, section_type),
                f"config section {name!r} must be a {section_type.__name__}, "
                f"got {type(value).__name__}",
            )
        adaptive = self.adaptive
        require(
            adaptive.min_worlds is None or adaptive.min_worlds <= self.world_budget,
            f"adaptive min_worlds ({adaptive.min_worlds}) must not exceed the "
            f"per-point budget ({self.world_budget}: max_worlds, else n_worlds)",
        )

    @property
    def world_budget(self) -> int:
        """Worlds one point may spend: ``adaptive.max_worlds``, else the
        fixed budget ``sampling.n_worlds``."""
        if self.adaptive.max_worlds is not None:
            return self.adaptive.max_worlds
        return self.sampling.n_worlds

    def engine_sections(self) -> EngineConfig:
        """The engine-facing sections, regrouped — the same objects, no copy."""
        return EngineConfig(
            sampling=self.sampling, reuse=self.reuse, store=self.store
        )

    # -- mapping round-trips ------------------------------------------------

    def to_mapping(self, *, portable: bool = False) -> dict[str, dict[str, Any]]:
        """Nested plain mapping of every knob, section by section.

        With ``portable=True`` every leaf is tagged through
        :func:`repro.core.argcodec.encode_value`, making the result safe to
        push through JSON and back without losing concrete types.
        """
        mapping: dict[str, dict[str, Any]] = {}
        for name in _SECTIONS:
            section = getattr(self, name)
            mapping[name] = {
                f.name: (
                    encode_value(getattr(section, f.name))
                    if portable
                    else getattr(section, f.name)
                )
                for f in fields(section)
            }
        return mapping

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "ClientConfig":
        """Rebuild a config from :meth:`to_mapping` output (either form).

        Unknown sections or keys raise :class:`ScenarioError` — a typo in a
        config file must not silently fall back to a default. Tagged leaves
        (the portable form) are detected per-value and decoded exactly.
        """
        unknown_sections = set(mapping) - set(_SECTIONS)
        require(
            not unknown_sections,
            f"unknown config section(s): {sorted(unknown_sections)} "
            f"(known: {sorted(_SECTIONS)})",
        )
        kwargs: dict[str, Any] = {}
        for name, section_type in _SECTIONS.items():
            if name not in mapping:
                continue
            payload = mapping[name]
            require(
                isinstance(payload, Mapping),
                f"config section {name!r} must be a mapping, "
                f"got {type(payload).__name__}",
            )
            kwargs[name] = replace_fields(
                section_type(),
                **{key: _plain_value(value) for key, value in payload.items()},
            )
        return cls(**kwargs)

    # -- fluent section replacement -----------------------------------------

    def replace_section(self, name: str, **changes: Any) -> "ClientConfig":
        """A copy with one section's fields replaced (validated)."""
        require(
            name in _SECTIONS,
            f"unknown config section {name!r} (known: {sorted(_SECTIONS)})",
        )
        return replace(
            self, **{name: replace_fields(getattr(self, name), **changes)}
        )

    def round_plan(self) -> RoundPlan:
        """The adaptive section's round ladder over :attr:`world_budget`;
        ``min_worlds`` / ``round_growth`` default to the sampling section's
        ``refinement_first`` / ``refinement_growth``, which they absorb."""
        adaptive, sampling, budget = self.adaptive, self.sampling, self.world_budget
        return RoundPlan(
            n_worlds=budget,
            first=(
                adaptive.min_worlds
                if adaptive.min_worlds is not None
                else min(sampling.refinement_first, budget)
            ),
            growth=(
                adaptive.round_growth
                if adaptive.round_growth is not None
                else sampling.refinement_growth
            ),
        )

    def wants_service(self) -> bool:
        """Does this config require the serve backend (vs a bare engine)?

        A non-default resilience section counts: deadlines, retry budgets,
        and rescue semantics only exist in the service's shard dispatcher,
        so asking for them is asking for the service. The same holds for a
        non-default transport section — the shared-memory shard transport
        only exists between the service coordinator and its workers. The
        obs section never counts — observability attaches to whichever
        backend the rest of the config selects.
        """
        return (
            self.serve.enabled
            or self.cache.enabled
            or self.resilience != ResilienceConfig()
            or self.transport != TransportConfig()
        )


def _plain_value(value: Any) -> Any:
    """Decode one mapping leaf: tagged (portable) payloads pass through
    argcodec; plain values are used as-is."""
    if isinstance(value, Mapping) and "t" in value:
        return decode_value(dict(value))
    return value
