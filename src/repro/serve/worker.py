"""Worker-side machinery for process-pool shard evaluation.

A worker process cannot receive a live :class:`ProphetEngine` (engines hold
an open SQL catalog, numpy matrices, and closures), so it receives an
:class:`EngineSpec` — a small picklable recipe — and builds the engine
itself, once, caching it for every later shard task. Specs describe the
scenario either as DSL text plus a named VG library, or as a named builder
from :data:`SCENARIO_BUILDERS`.

:func:`run_shard` is the one unit of work, and :class:`ShardTask` its one
frozen payload: sample one VG output over one contiguous world shard. The
task says *what* to compute — ``(spec, alias, point, worlds[, snapshot])``
— and each bulk field says *where its bytes are*: in the pickle itself, or
behind a :mod:`repro.serve.transport` descriptor that :func:`run_shard`
attaches and views. Who runs the task changes only where the engine and
the snapshot store come from: a pool worker looks both up in this module's
per-process caches keyed by ``task.spec``; the inline executor and the
coordinator's rescue hand in their own. Neither choice can change a bit of
the answer, so one function serves every transport, executor and rescue.

Without a snapshot the shard runs only the generated-SQL sampling stage
(`ProphetEngine.sample_fresh`), a pure function of ``(scenario, config,
point, worlds)`` — all reuse and aggregation stay on the coordinator, so
results never depend on which worker ran which shard.

With one, the coordinator ships a read-only :class:`BasisSnapshot` of its
hot in-memory bases (plus their fingerprints), a throwaway snapshot store
is seeded from it (once per ``(spec, version)`` per process), and the
shard is served through the ordinary Storage Manager acquire path — exact
hit, fingerprint map with fresh fill of unmapped components, or a full
fresh miss. Every worker (and the inline executor) sees the same snapshot,
and the snapshot contains only bases the coordinator itself could not use
for the request (overlapping some requested worlds, covering less than the
full slice), so the reuse decision for a shard is a pure function of
(coordinator history, shard worlds) — never of worker scheduling — and can
never contradict a coordinator decision. The produced shard bases ship back
in the :class:`ShardSample` and are merged, in shard order, into the entry
the coordinator stores.

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
from repro.core.fingerprint.fingerprint import Fingerprint
from repro.core.fingerprint.registry import FingerprintRegistry
from repro.core.storage import BasisEntry, StorageManager
from repro.dsl import parse_scenario
from repro.errors import ServeError
from repro.models import (
    build_demo_library,
    build_growth_scenario,
    build_maintenance_scenario,
    build_risk_vs_cost,
)
from repro.serve.transport import (
    SegmentReader,
    SegmentRef,
    SnapshotRef,
    close_segments,
    materialize_snapshot,
)
from repro.vg.seeds import world_seed

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


#: Knobs left out of :meth:`EngineSpec.content_hash` because they cannot
#: change a sample: the refinement pair only picks which world prefixes a
#: caller asks for (the worlds themselves travel with each task), and the
#: stats cache only short-circuits re-aggregation of identical samples.
#: Every other section field participates — a new knob is hashed by default.
_HASH_EXCLUDED = frozenset(
    {
        ("sampling", "refinement_first"),
        ("sampling", "refinement_growth"),
        ("reuse", "enable_stats_cache"),
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
        """Digest of everything that determines the engine's behavior."""
        config = asdict(self.config)  # section -> {field: value}
        for section, name in _HASH_EXCLUDED:
            del config[section][name]
        payload = json.dumps(
            {
                "dsl": self.dsl,
                "library": self.library,
                "builder": self.builder,
                "builder_args": [[k, repr(v)] for k, v in self.builder_args],
                "config": config,
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
class BasisSnapshot:
    """A read-only view of the coordinator's hot bases for one VG.

    ``entries`` are the coordinator's own (picklable)
    :class:`~repro.core.storage.BasisEntry` objects, shipped as-is.
    ``version`` is unique per snapshot build; workers cache the seeded
    snapshot store per ``(spec, version)`` so the shards of one sampling
    request share one store instead of re-seeding per task.
    ``fingerprints`` carries the coordinator's probe matrices for the
    snapshot bases and the current target, so workers never re-probe.
    """

    version: str
    vg_name: str
    entries: tuple[BasisEntry, ...]
    fingerprints: tuple[tuple[tuple[Any, ...], np.ndarray], ...] = ()

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class ShardSample:
    """One shard's acquisition outcome, shipped worker -> coordinator.

    ``samples`` is the shard's sample matrix (the newly produced basis the
    coordinator merges, in shard order, into its stored entry); ``source``
    says how it was obtained (``"exact"`` / ``"mapped"`` / ``"fresh"``).
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
    source: str
    basis_args: Optional[tuple[Any, ...]] = None
    mapped_fraction: float = 0.0
    components_recomputed: int = 0
    sampled_batched: int = 0
    sampled_fallback: int = 0
    elapsed_seconds: float = 0.0
    timing: tuple[tuple[str, float], ...] = ()


def build_snapshot_store(engine: ProphetEngine, snapshot: BasisSnapshot) -> StorageManager:
    """Seed a throwaway Storage Manager from a coordinator snapshot.

    The store's registry is pre-seeded with the shipped fingerprints, so
    seeding costs no probe invocations; entries keep the coordinator's
    order, which is what makes candidate ranking (and therefore the reuse
    decision) identical on every executor.
    """
    reuse = engine.config.reuse
    registry = FingerprintRegistry(
        reuse.fingerprint_spec(), reuse.correlation_policy()
    )
    # Non-mutating: snapshot stores are cached per content version and
    # shared across requests, so acquire must not retain mapped results —
    # decisions have to stay a pure function of the snapshot.
    store = StorageManager(registry, store_mapped_results=False)
    for args, matrix in snapshot.fingerprints:
        registry.seed_fingerprint(
            Fingerprint(
                vg_name=snapshot.vg_name,
                args=tuple(args),
                matrix=matrix,
                spec=registry.spec,
            )
        )
    for entry in snapshot.entries:
        function = engine.library.get(entry.vg_name)
        store.store(function, entry.args, entry.samples, entry.worlds, entry.seeds)
    return store


def _sample_shard(
    engine: ProphetEngine,
    store: Optional[StorageManager],
    alias: str,
    point: dict[str, Any],
    worlds: tuple[int, ...],
) -> ShardSample:
    """Serve one shard: reuse from ``store`` first, fresh sampling last.

    ``store=None`` *is* the fresh path. With a store, point normalization
    and output lookup are the scenario's own
    (:meth:`~repro.core.scenario.Scenario.validate_sweep_point`), so shard
    reuse keys cannot drift from the coordinator's. The returned
    :class:`ShardSample` carries which backend the sampling plane used
    (batched vs per-world loop) so coordinators can observe worker-side
    fallback.
    """
    # repro-lint: disable=DET001 -- worker-side observability shipped in
    # ShardSample.elapsed_seconds/timing; never read by reuse decisions.
    started = time.perf_counter()
    timing: tuple[tuple[str, float], ...] = ()
    if store is not None:
        output = engine.scenario.vg_output(alias)
        point = engine.scenario.validate_sweep_point(point)
        function = engine.library.get(output.vg_name)
        args = output.model_arg_values(point)
        seeds = tuple(world_seed(engine.config.sampling.base_seed, w) for w in worlds)
        samples, report = store.acquire(
            function,
            args,
            worlds,
            seeds,
            reuse=True,
            min_mapped_fraction=engine.config.reuse.min_mapped_fraction,
        )
        # repro-lint: disable=DET001 -- observability only (see above).
        acquire_elapsed = time.perf_counter() - started
        timing = (("reuse", acquire_elapsed),)
        if samples is not None:
            return ShardSample(
                samples=np.asarray(samples, dtype=float),
                source=report.source,
                basis_args=report.basis_args,
                mapped_fraction=report.mapped_fraction,
                components_recomputed=report.components_recomputed,
                elapsed_seconds=acquire_elapsed,
                timing=timing,
            )
    stages = StageTimings()
    samples = engine.sample_fresh(alias, point, worlds, timings=stages)
    batched = engine.sampling.last_backend == "batched"
    return ShardSample(
        samples=np.asarray(samples, dtype=float),
        source="fresh",
        sampled_batched=len(worlds) if batched else 0,
        sampled_fallback=0 if batched else len(worlds),
        # repro-lint: disable=DET001 -- observability only (see above).
        elapsed_seconds=time.perf_counter() - started,
        timing=timing + (("querygen", stages.querygen), ("sql", stages.sql)),
    )


#: Per-process engine cache: one engine per spec, reused across shard tasks.
#: Per-process-safe: keyed by spec content hash, so a cold worker rebuilds
#: an identical engine — divergence from the coordinator is impossible.
# repro-lint: disable=PUR001 -- documented per-process memo keyed by
# content hash; cold rebuild is bit-identical.
_WORKER_ENGINES: dict[str, ProphetEngine] = {}

#: Per-process snapshot-store cache: ``(spec_hash, snapshot_version)`` ->
#: ``(seeded store, attached segments)``. A snapshot shipped by descriptor
#: keeps the segments its matrices view open exactly as long as its store
#: is cached; a plain (pickled) snapshot holds none. Only the latest
#: version per (spec, VG) is retained, so stale snapshots never accumulate
#: in workers. The coordinator bounds the payload by shipping only
#: partial-coverage bases; uniform-world workloads ship nothing.
# repro-lint: disable=PUR001 -- documented per-process memo keyed by
# (spec hash, snapshot version); cold re-seeding is bit-identical.
_SNAPSHOT_STORES: dict[tuple[str, str], tuple[StorageManager, tuple[Any, ...]]] = {}


def _engine_for(spec: EngineSpec) -> ProphetEngine:
    key = spec.content_hash()
    engine = _WORKER_ENGINES.get(key)
    if engine is None:
        # Worker engines never consult their own basis store (shard tasks
        # run sample_fresh or the separate snapshot store), so drop the
        # disk tier: indexing the coordinator's spill dir in every worker
        # process would be pure startup I/O.
        scenario, library = spec.build_scenario()
        config = replace(
            spec.config, store=replace(spec.config.store, basis_dir=None)
        )
        engine = ProphetEngine(scenario, library, config)
        _WORKER_ENGINES[key] = engine
    return engine


def _snapshot_store_for(
    spec: EngineSpec,
    engine: ProphetEngine,
    snapshot: BasisSnapshot | SnapshotRef,
    reader: SegmentReader,
) -> StorageManager:
    spec_key = spec.content_hash()
    cache_key = (spec_key, snapshot.version)
    cached = _SNAPSHOT_STORES.get(cache_key)
    if cached is not None:
        return cached[0]
    segments: tuple[Any, ...] = ()
    if isinstance(snapshot, SnapshotRef):
        entries, fingerprints, segments = materialize_snapshot(snapshot, reader)
        snapshot = BasisSnapshot(
            snapshot.version, snapshot.vg_name, entries, fingerprints
        )
    store = build_snapshot_store(engine, snapshot)
    # Retain one store per (spec, VG): versions are prefixed with the VG
    # name, so evicting only same-prefix entries keeps the other outputs'
    # current stores warm (a scenario typically ships one snapshot per VG
    # output per evaluation). An evicted version's segments close once its
    # store — and therefore every view into them — is dropped.
    vg_prefix = f"{snapshot.vg_name.lower()}:"
    for stale in [
        k
        for k in _SNAPSHOT_STORES
        if k[0] == spec_key and k[1].startswith(vg_prefix) and k != cache_key
    ]:
        close_segments(_SNAPSHOT_STORES.pop(stale)[1])
    _SNAPSHOT_STORES[cache_key] = (store, segments)
    return store


@dataclass(frozen=True)
class ShardTask:
    """One shard of one fan-out: everything :func:`run_shard` needs.

    Each bulk field travels either as itself or as a descriptor of where
    its bytes live (:mod:`repro.serve.transport`): ``worlds`` is the world
    tuple or a :class:`SegmentRef` of packed int64 ids; ``snapshot`` is
    ``None`` (fresh sampling only), a :class:`BasisSnapshot`, or a
    :class:`SnapshotRef`; ``result`` is ``None`` (the sample matrix rides
    back in the :class:`ShardSample`) or the pre-leased
    ``(len(worlds), n_components)`` float64 region the shard writes.
    ``spec`` is what a worker process builds its engine from; it may be
    ``None`` only when the caller passes the engine itself.
    """

    spec: Optional[EngineSpec]
    alias: str
    point_items: tuple[tuple[str, Any], ...]
    worlds: tuple[int, ...] | SegmentRef
    snapshot: BasisSnapshot | SnapshotRef | None = None
    result: Optional[SegmentRef] = None


def run_shard(
    task: ShardTask,
    engine: Optional[ProphetEngine] = None,
    store: Optional[StorageManager] = None,
) -> ShardSample:
    """The one shard entry point: sample ``task`` and ship its result.

    A process worker receives only the task and looks ``engine``/``store``
    up in the per-process caches keyed by ``task.spec``; the inline
    executor and the coordinator's rescue pass their own. Either way the
    answer is the same pure function of (spec, point, worlds, snapshot).
    """
    reader = SegmentReader()
    try:
        if engine is None:
            engine = _engine_for(task.spec)
        if store is None and task.snapshot is not None:
            store = _snapshot_store_for(task.spec, engine, task.snapshot, reader)
        worlds = task.worlds
        if isinstance(worlds, SegmentRef):
            worlds = tuple(reader.view(worlds).tolist())
        sample = _sample_shard(
            engine, store, task.alias, dict(task.point_items), worlds
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
