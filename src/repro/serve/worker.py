"""Worker-side machinery for process-pool shard evaluation.

A worker process cannot receive a live :class:`ProphetEngine` (engines hold
an open SQL catalog, numpy matrices, and closures), so it receives an
:class:`EngineSpec` — a small picklable recipe — and builds the engine
itself, once, caching it for every later shard task. Specs describe the
scenario either as DSL text plus a named VG library, or as a named builder
from :data:`SCENARIO_BUILDERS`.

:func:`run_shard` is the one unit of work, and :class:`ShardTask` its one
frozen payload: sample one VG output over one contiguous world shard. The
task says *what* to compute — ``(spec, alias, point, worlds)`` — and each
bulk field says *where its bytes are*: in the pickle itself, or behind a
:mod:`repro.serve.transport` descriptor that :func:`run_shard` attaches
and views. Who runs the task changes only where the engine comes from: a
pool worker looks it up in this module's per-process cache keyed by
``task.spec``; the inline executor and the coordinator's rescue hand in
their own. Neither choice can change a bit of the answer, so one function
serves every transport, executor and rescue.

A shard runs only the generated-SQL sampling stage
(`ProphetEngine.sample_fresh`), a pure function of ``(scenario, config,
point, worlds)`` — all reuse and aggregation stay on the coordinator, so
results never depend on which worker ran which shard or on how the world
slice was cut.

The round protocol (:mod:`repro.core.rounds`) rides on this purity with no
worker-side machinery: a round's fresh increment reaches the workers as one
ordinary contiguous world shard (one shard generation), so deadlines,
retries, pool self-healing, and inline rescue apply to every round exactly
as to a one-shot evaluation — and because each task is a pure function of
``(spec, point, worlds)``, a point evaluated in rounds merges to the same
bits as the same point evaluated in one shot, under any executor.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, replace
from types import MappingProxyType
from typing import Any, Callable, Mapping, Optional

import numpy as np

from repro.core.config import EngineConfig
from repro.core.engine import ProphetEngine, StageTimings
from repro.dsl import parse_scenario
from repro.errors import ServeError
from repro.models import (
    build_demo_library,
    build_growth_scenario,
    build_maintenance_scenario,
    build_risk_vs_cost,
)
from repro.serve.transport import SegmentReader, SegmentRef

#: Named VG libraries a spec may reference (DSL-text specs). Immutable:
#: the registry pickles toward workers by name only, so a mutation on the
#: coordinator could never reach them anyway — freezing makes that
#: impossible to rely on by accident.
LIBRARY_BUILDERS: Mapping[str, Callable[[], Any]] = MappingProxyType(
    {
        "demo": build_demo_library,
    }
)

#: Named (scenario, library) builders a spec may reference instead of DSL.
SCENARIO_BUILDERS: Mapping[str, Callable[..., tuple[Any, Any]]] = MappingProxyType(
    {
        "risk_vs_cost": build_risk_vs_cost,
        "growth": build_growth_scenario,
        "maintenance": build_maintenance_scenario,
    }
)


@dataclass(frozen=True)
class EngineSpec:
    """A picklable recipe for constructing a :class:`ProphetEngine`.

    Exactly one of ``dsl`` or ``builder`` must be set. ``config`` is the
    coordinator's own frozen sections (worlds, seeds, tolerances); two specs
    with equal :meth:`content_hash` build engines that produce bit-identical
    samples for the same (point, worlds) requests.
    """

    dsl: Optional[str] = None
    library: str = "demo"
    builder: Optional[str] = None
    builder_args: tuple[tuple[str, Any], ...] = ()
    scenario_name: str = "serve_scenario"
    config: EngineConfig = field(default_factory=EngineConfig)

    @classmethod
    def from_dsl(
        cls,
        text: str,
        *,
        library: str = "demo",
        config: Optional[EngineConfig] = None,
        scenario_name: str = "serve_scenario",
    ) -> "EngineSpec":
        if library not in LIBRARY_BUILDERS:
            raise ServeError(
                f"unknown VG library {library!r} "
                f"(known: {sorted(LIBRARY_BUILDERS)})"
            )
        return cls(
            dsl=text,
            library=library,
            scenario_name=scenario_name,
            config=config or EngineConfig(),
        )

    @classmethod
    def from_builder(
        cls,
        name: str,
        *,
        config: Optional[EngineConfig] = None,
        **builder_kwargs: Any,
    ) -> "EngineSpec":
        if name not in SCENARIO_BUILDERS:
            raise ServeError(
                f"unknown scenario builder {name!r} "
                f"(known: {sorted(SCENARIO_BUILDERS)})"
            )
        return cls(
            builder=name,
            builder_args=tuple(sorted(builder_kwargs.items())),
            scenario_name=name,
            config=config or EngineConfig(),
        )

    def __post_init__(self) -> None:
        if (self.dsl is None) == (self.builder is None):
            raise ServeError("EngineSpec needs exactly one of dsl= or builder=")

    def content_hash(self) -> str:
        """Digest of everything that determines the engine's behavior: every
        section field participates, so a new knob is hashed by default."""
        payload = json.dumps(
            {
                "dsl": self.dsl,
                "library": self.library,
                "builder": self.builder,
                "builder_args": [[k, repr(v)] for k, v in self.builder_args],
                "config": asdict(self.config),  # section -> {field: value}
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def build_scenario(self) -> tuple[Any, Any]:
        """The (scenario, library) pair this spec describes (no engine)."""
        if self.builder is not None:
            return SCENARIO_BUILDERS[self.builder](**dict(self.builder_args))
        scenario = parse_scenario(self.dsl, name=self.scenario_name)
        return scenario, LIBRARY_BUILDERS[self.library]()

    def build(self) -> ProphetEngine:
        scenario, library = self.build_scenario()
        return ProphetEngine(scenario, library, self.config)


@dataclass(frozen=True)
class ShardSample:
    """One shard's freshly sampled matrix, shipped worker -> coordinator.

    ``samples`` is the shard's sample matrix (the coordinator merges the
    shards' matrices, in shard order, into the entry it stores).
    ``sampled_batched``/``sampled_fallback`` count the fresh world-rows by
    the sampling-plane backend that produced them (worker-side engines keep
    their own :class:`~repro.sqldb.executor.ExecutionStats`, so the counts
    ride back with the shard for the coordinator's ServiceStats).

    ``elapsed_seconds``/``timing`` are worker-side wall-clock, measured in
    the worker process and shipped back for coordinator-side observability
    (workers never hold a tracer; the dispatcher turns these into worker
    -track trace events). ``timing`` is a pickle-friendly tuple of
    ``(stage_name, seconds)`` pairs.

    In transit under the shm transport (:mod:`repro.serve.transport`)
    ``samples`` is a :class:`~repro.serve.transport.SegmentRef` descriptor
    of the pre-leased result region the worker wrote; the dispatcher
    resolves it back into the matrix before anyone else sees the sample.
    """

    samples: np.ndarray
    sampled_batched: int = 0
    sampled_fallback: int = 0
    elapsed_seconds: float = 0.0
    timing: tuple[tuple[str, float], ...] = ()


#: Per-process engine cache: one engine per spec, reused across shard tasks.
#: Per-process-safe: keyed by spec content hash, so a cold worker rebuilds
#: an identical engine — divergence from the coordinator is impossible.
_WORKER_ENGINES: dict[str, ProphetEngine] = {}


def _engine_for(spec: EngineSpec) -> ProphetEngine:
    key = spec.content_hash()
    engine = _WORKER_ENGINES.get(key)
    if engine is None:
        # Worker engines never consult their own basis store (shard tasks
        # only run sample_fresh), so drop the disk tier: indexing the
        # coordinator's spill dir in every worker process would be pure
        # startup I/O.
        scenario, library = spec.build_scenario()
        config = replace(
            spec.config, store=replace(spec.config.store, basis_dir=None)
        )
        engine = ProphetEngine(scenario, library, config)
        _WORKER_ENGINES[key] = engine
    return engine


@dataclass(frozen=True)
class ShardTask:
    """One shard of one fan-out: everything :func:`run_shard` needs.

    Each bulk field travels either as itself or as a descriptor of where
    its bytes live (:mod:`repro.serve.transport`): ``worlds`` is the world
    tuple or a :class:`SegmentRef` of packed int64 ids; ``result`` is
    ``None`` (the sample matrix rides back in the :class:`ShardSample`) or
    the pre-leased ``(len(worlds), n_components)`` float64 region the
    shard writes. ``spec`` is what a worker process builds its engine
    from; it may be ``None`` only when the caller passes the engine itself.
    """

    spec: Optional[EngineSpec]
    alias: str
    point_items: tuple[tuple[str, Any], ...]
    worlds: tuple[int, ...] | SegmentRef
    result: Optional[SegmentRef] = None


def run_shard(task: ShardTask, engine: Optional[ProphetEngine] = None) -> ShardSample:
    """The one shard entry point: sample ``task`` and ship its result.

    A process worker receives only the task and looks ``engine`` up in the
    per-process cache keyed by ``task.spec``; the inline executor and the
    coordinator's rescue pass their own. Either way the answer is the same
    pure function of (spec, point, worlds).
    """
    reader = SegmentReader()
    try:
        if engine is None:
            engine = _engine_for(task.spec)
        worlds = task.worlds
        if isinstance(worlds, SegmentRef):
            worlds = tuple(reader.view(worlds).tolist())
        # Worker-side observability shipped in ShardSample.elapsed_seconds
        # and timing; never read by reuse decisions.
        started = time.perf_counter()
        stages = StageTimings()
        samples = engine.sample_fresh(
            task.alias, dict(task.point_items), worlds, timings=stages
        )
        # Which backend the sampling plane used rides back with the shard,
        # so the coordinator can observe worker-side fallback.
        batched = engine.sampling.last_backend == "batched"
        sample = ShardSample(
            samples=np.asarray(samples, dtype=float),
            sampled_batched=len(worlds) if batched else 0,
            sampled_fallback=0 if batched else len(worlds),
            elapsed_seconds=time.perf_counter() - started,
            timing=(("querygen", stages.querygen), ("sql", stages.sql)),
        )
        if task.result is None:
            return sample
        # A shape mismatch is a deterministic bug (the coordinator sized the
        # region from the same plan), so it is a permanent ServeError.
        if sample.samples.shape != task.result.shape:
            raise ServeError(
                f"shard produced shape {sample.samples.shape}, result region "
                f"is {task.result.shape}"
            )
        reader.view(task.result)[...] = sample.samples
        return replace(sample, samples=task.result)
    finally:
        reader.close()
