"""The evaluation service: sharded parallel point evaluation + result cache.

:class:`EvaluationService` wraps one coordinator :class:`ProphetEngine` and
turns `evaluate` into a concurrent, cached operation:

1. **Result cache** (optional, persistent): if the exact (scenario, point,
   worlds, seed config) was ever answered before — by this process or any
   previous run — the stored statistics are returned without touching the
   engine.
2. **Coordinator reuse**: otherwise the coordinator engine runs its normal
   evaluation cycle — stats cache, exact basis hits, fingerprint-mapped
   reuse, the week memo — exactly as the sequential path would. Reuse
   decisions stay on the coordinator so they never depend on worker
   scheduling.
3. **Cross-shard basis reuse + sharded sampling**: only the samples no
   coordinator reuse layer could serve are sharded across the executor.
   Each shard task receives a read-only :class:`BasisSnapshot` of the
   coordinator's hot in-memory bases and serves its shard through the
   ordinary Storage Manager acquire path — an exact or fingerprint-mapped
   hit skips fresh simulation for the shard's mapped components — before
   falling back to fresh sampling from the fixed seed sequence. The shard
   bases ship back and merge, in shard order, into the entry the
   coordinator stores.

The snapshot contains only bases the coordinator *could not* use — ones
overlapping the requested worlds without covering the full slice — so a
shard hit can never contradict a coordinator decision. For uniform-world
workloads (full sweeps, fixed-prefix refreshes) every basis covers the
full slice, the snapshot is empty, and sharded evaluation stays
bit-identical to sequential for any shard count and either executor with
zero shipping overhead; mixed-world workloads (progressive refinement +
full refresh) gain mapped-reuse hits the fresh-only fan-out never had.
``reuse=False`` disables shard reuse entirely and restores the pure
fresh-sampling fan-out.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, fields, replace
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro.core.engine import PointEvaluation, ProphetEngine, StageTimings
from repro.core.instance import InstanceBatch
from repro.core.scenario import VGOutput
from repro.core.storage import BasisEntry, ReuseReport, StorageManager
from repro.errors import ServeError
from repro.obs.trace import NULL_TRACER
from repro.serve.cache import ResultCache, result_key, scenario_fingerprint
from repro.serve.executors import InlineExecutor, create_executor
from repro.serve.faults import FaultInjector, FaultPlan
from repro.serve.resilience import ResilienceConfig, ShardCall, ShardDispatcher
from repro.serve.sharding import plan_shards
from repro.serve.transport import (
    SegmentArena,
    SegmentLease,
    SegmentRef,
    SnapshotRef,
    TransportConfig,
    generation_nbytes,
    logical_nbytes,
    pack_snapshot,
    shm_available,
    snapshot_nbytes,
)
from repro.serve.worker import (
    BasisSnapshot,
    EngineSpec,
    ShardSample,
    ShardTask,
    build_snapshot_store,
    run_shard,
)


@dataclass
class ServiceStats:
    """Counters for one service instance."""

    points_evaluated: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    shard_tasks: int = 0
    #: Shard *generations*: one per fresh-sampling fan-out (one contiguous
    #: world slice sharded, dispatched, merged). Under the round protocol a
    #: round's fresh increment is exactly one generation per VG output —
    #: the invariant that lets the dispatcher's resilience ladder apply to
    #: every round unchanged, and that tests pin.
    shard_generations: int = 0
    sampled_worlds: int = 0
    parallel_seconds: float = 0.0
    #: Cross-shard basis reuse: how each shard task was served (exact hit
    #: against the shipped snapshot, fingerprint-mapped from it, or fresh),
    #: and how much snapshot state was shipped to make that possible.
    #: ``shard_exact_hits`` is expected to stay 0 under the current design
    #: (the engine's extend path consumes same-args coverage before the
    #: sampler runs); it exists as an invariant check, not a hot counter.
    shard_exact_hits: int = 0
    shard_mapped_hits: int = 0
    shard_fresh: int = 0
    snapshots_shipped: int = 0
    snapshot_bases_shipped: int = 0
    #: Sampling-plane dispatch across the whole fleet (coordinator and
    #: workers): fresh world-rows produced by the batched backend vs by the
    #: per-world loop, so silent fallback to the slow path is observable
    #: even when it happens inside a worker process.
    sampled_batched: int = 0
    sampled_fallback: int = 0
    #: The fault-tolerance ladder (see :mod:`repro.serve.resilience`): how
    #: many shard submissions were retried after a transient failure, how
    #: many missed their deadline, how many times the process pool was
    #: rebuilt to heal a crash or hang, and how many shards were re-run
    #: inline on the coordinator as the last resort. All zero on a healthy
    #: substrate.
    shard_retries: int = 0
    shard_timeouts: int = 0
    pool_rebuilds: int = 0
    inline_rescues: int = 0
    #: Shard transport (see :mod:`repro.serve.transport`). ``bytes_shipped``
    #: counts logical payload bytes (world ids, snapshot matrices, sample
    #: matrices) that crossed a process boundary through pickle;
    #: ``bytes_zero_copy`` counts the same logical bytes when they moved
    #: through shared-memory segments instead. Segment lease/reclaim
    #: counters must end a session equal — the leak assertion the chaos
    #: suite pins. ``transport_fallbacks`` counts generations that wanted
    #: shm but ran pickle (platform without shm, payload over the segment
    #: cap) — silent degradation, made observable.
    bytes_shipped: int = 0
    bytes_zero_copy: int = 0
    segments_leased: int = 0
    segments_reclaimed: int = 0
    transport_fallbacks: int = 0
    #: Wall-clock measured *inside* shard executions (worker processes or
    #: the inline executor) and shipped back in each ShardSample. Like
    #: ``parallel_seconds`` it is excluded from :meth:`as_dict` — timing is
    #: surfaced through :class:`repro.obs.TimingReport`, never the stable
    #: counter JSON.
    worker_seconds: float = 0.0

    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def shard_reuse_rate(self) -> float:
        """Fraction of shard tasks served by snapshot reuse (exact or mapped)."""
        reused = self.shard_exact_hits + self.shard_mapped_hits
        total = reused + self.shard_fresh
        return reused / total if total else 0.0

    def as_dict(self) -> dict[str, Any]:
        """Deterministic counters only: every ``int`` field, in declaration
        order. The ``float`` wall-clock fields are excluded so the dict is
        stable across identical runs; the unified
        :class:`repro.api.StatsReport` relies on that."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.type in (int, "int")
        }


class EvaluationService:
    """Concurrent, cached scenario evaluation over one coordinator engine."""

    def __init__(
        self,
        spec: Optional[EngineSpec] = None,
        *,
        engine: Optional[ProphetEngine] = None,
        executor: Any = None,
        workers: Optional[int] = None,
        shards: Optional[int] = None,
        cache_dir: Optional[str] = None,
        min_shard_worlds: int = 8,
        share_bases: bool = True,
        resilience: Optional[ResilienceConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        transport: Optional[TransportConfig] = None,
    ) -> None:
        if spec is None and engine is None:
            raise ServeError("EvaluationService needs a spec= or an engine=")
        self.spec = spec
        self.engine = engine if engine is not None else spec.build()
        if executor is None and spec is None:
            # Without a spec, process workers cannot build engines — the
            # only valid default is the in-process executor.
            executor = InlineExecutor()
        if spec is not None and engine is not None:
            # Workers sample from the spec while the coordinator merges with
            # this engine — they must describe the same evaluation or the
            # merged matrices silently mix seed streams.
            if spec.config != engine.config:
                raise ServeError(
                    "spec= and engine= carry different engine configs"
                )
            spec_scenario, spec_library = spec.build_scenario()
            if scenario_fingerprint(
                spec_scenario, spec_library
            ) != scenario_fingerprint(engine.scenario, engine.library):
                raise ServeError(
                    "spec= describes a different scenario/library than engine="
                )
        self.executor = (
            executor if executor is not None else create_executor("auto", workers)
        )
        if self.executor.kind == "process" and spec is None:
            raise ServeError(
                "a process executor needs an EngineSpec so workers can "
                "build their own engines; pass spec= or use an inline executor"
            )
        self.n_shards = shards if shards is not None else self.executor.workers
        if self.n_shards < 1:
            raise ServeError(f"shards must be >= 1, got {self.n_shards}")
        #: Below this many worlds a slice is not worth splitting: shard
        #: payload overhead would exceed the sampling work.
        self.min_shard_worlds = max(1, min_shard_worlds)
        #: Ship coordinator basis snapshots to shard tasks so shards reuse
        #: (exact/mapped) where the coordinator could not. Off = the pure
        #: fresh-sampling fan-out of the original serve layer.
        self.share_bases = share_bases
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.scenario = self.engine.scenario
        self._scenario_hash = scenario_fingerprint(self.scenario, self.engine.library)
        self.stats = ServiceStats()
        #: The fault-tolerance ladder applied to every shard fan-out
        #: (deadlines, bounded retries, pool self-healing, inline rescue).
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        #: Deterministic chaos harness: a fault plan wraps every dispatched
        #: shard task (coordinator-side for inline executors, inside the
        #: worker for process pools). ``None`` in production.
        self.injector = FaultInjector(fault_plan) if fault_plan is not None else None
        self._dispatcher = ShardDispatcher(
            self.executor, self.stats, self.resilience, self.injector
        )
        #: Shard transport: pickle by default; ``"shm"`` moves bulk arrays
        #: through shared-memory segments (bit-identical, descriptor-sized
        #: task pickles). Falls back to pickle — counted, never an error —
        #: where shared memory is unavailable.
        self.transport = transport if transport is not None else TransportConfig()
        self._arena = SegmentArena(ttl=self.transport.lease_ttl, stats=self.stats)
        self._shm_ok = self.transport.enabled and shm_available()
        #: Coordinator-side snapshot segment cache: one packed segment per
        #: live snapshot version (content-addressed), so sweeps that reship
        #: the same snapshot lease and pack it once, not once per fan-out.
        self._snapshot_leases: dict[str, tuple[SegmentLease, SnapshotRef]] = {}
        #: The coordinator's own seeded store for the latest snapshot
        #: version — what in-process shards and inline rescues acquire from.
        self._coordinator_store_cache: Optional[tuple[str, StorageManager]] = None
        # Tie lease cleanup into the executor's own lifecycle: a recycled
        # pool (every dispatcher heal included) sweeps expired leases, a
        # shutdown pool releases everything.
        if hasattr(self.executor, "add_recycle_hook"):
            self.executor.add_recycle_hook(self._arena.sweep_expired)
        if hasattr(self.executor, "add_teardown_hook"):
            self.executor.add_teardown_hook(self._release_transport)
        self._reuse_active = True
        self._cache_writes_enabled = True
        #: Observability: :meth:`set_tracer` replaces this shared no-op.
        self.tracer = NULL_TRACER

    def set_tracer(self, tracer: Any) -> None:
        """Attach one tracer across the service, dispatcher and engine."""
        self.tracer = tracer
        self._dispatcher.tracer = tracer
        self.engine.set_tracer(tracer)

    # -- public API --------------------------------------------------------

    def evaluate(
        self,
        point: Mapping[str, Any],
        *,
        worlds: Optional[Sequence[int]] = None,
        reuse: bool = True,
    ) -> PointEvaluation:
        """Evaluate one point: result cache, then the sharded engine cycle."""
        validated = self.scenario.validate_sweep_point(point)
        chosen = (
            tuple(worlds)
            if worlds is not None
            else tuple(range(self.engine.config.sampling.n_worlds))
        )
        self.stats.points_evaluated += 1

        key = None
        if self.cache is not None and reuse:
            key = self._key_for(validated, chosen)
            cached = self.cache.get(key)
            if cached is not None:
                self.stats.cache_hits += 1
                return self._evaluation_from_cache(validated, chosen, cached.statistics)
            self.stats.cache_misses += 1

        self._reuse_active = reuse
        evaluation = self.engine.evaluate_point(
            validated, worlds=chosen, reuse=reuse, sampler=self._sharded_sampler
        )
        if self.stats.shard_exact_hits + self.stats.shard_mapped_hits > 0:
            # Shard-snapshot reuse approximates within the mapping tolerance
            # in a way that depends on the shard geometry (worker count,
            # shard plan), which the result key deliberately does not
            # include. The approximate samples also land in the engine's
            # basis store, where later evaluations (stats-cache hits, exact
            # basis hits, onward mappings) can transitively depend on them
            # — so once any shard was served by reuse, nothing more from
            # this service may enter the cross-run cache, or a run with
            # different geometry would read geometry-dependent numbers back
            # as exact. Uniform-world workloads never take shard reuse and
            # cache as before; reads stay enabled either way. The disk
            # escape hatch is closed separately: shard-reused entries are
            # tainted in the tier and never spill or persist, so a future
            # run cannot adopt them and re-launder their statistics into
            # the cache.
            self._cache_writes_enabled = False
        if (
            key is not None
            and self._cache_writes_enabled
            and not self._uses_tainted_bases(validated)
        ):
            self.cache.put(
                key,
                evaluation.statistics,
                meta={
                    "scenario": self._scenario_hash,
                    "scenario_name": self.scenario.name,
                    "point": {k: repr(v) for k, v in sorted(validated.items())},
                    "n_worlds": len(chosen),
                    "base_seed": self.engine.config.sampling.base_seed,
                },
            )
        return evaluation

    def close(self) -> None:
        self.executor.shutdown()
        # The teardown hook already released the arena when the executor
        # supports hooks; calling again is idempotent and covers foreign
        # executors passed in without the hook interface.
        self._release_transport()

    def _release_transport(self) -> None:
        """Release every transport lease this service holds (idempotent)."""
        self._snapshot_leases.clear()
        self._arena.release_all()

    def __enter__(self) -> "EvaluationService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- internals ---------------------------------------------------------

    def _uses_tainted_bases(self, validated: Mapping[str, Any]) -> bool:
        """Does any of this point's VG bases carry geometry taint?

        The per-service cache-write latch cannot see contamination that
        entered the shared engine through *another* service (or before this
        service existed); the tier's taint marks can. A point whose basis
        key is tainted is served from geometry-dependent samples no matter
        which layer (stats cache, exact hit, mapping) answered, so its
        statistics must not enter the cross-run cache.
        """
        tier = self.engine.storage.tier
        for output in self.scenario.vg_outputs:
            key = (
                self.engine.library.get(output.vg_name).name.lower(),
                tuple(output.model_arg_values(validated)),
            )
            if tier.is_tainted(key):
                return True
        return False

    def _key_for(self, validated: Mapping[str, Any], worlds: Sequence[int]) -> str:
        config = self.engine.config
        return result_key(
            self._scenario_hash,
            validated,
            worlds,
            n_worlds=len(worlds),
            base_seed=config.sampling.base_seed,
            fingerprint_seeds=config.reuse.fingerprint_seeds,
            correlation_tolerance=config.reuse.correlation_tolerance,
            min_mapped_fraction=config.reuse.min_mapped_fraction,
        )

    def _evaluation_from_cache(
        self,
        validated: dict[str, Any],
        worlds: tuple[int, ...],
        statistics,
    ) -> PointEvaluation:
        """A :class:`PointEvaluation` served entirely from the result cache.

        No sample matrices travel through the cache — ``samples`` is empty
        and every VG output reports a full ``exact`` reuse, tagged with the
        ``result_cache`` kind so observers can tell the layers apart.
        """
        reports = tuple(
            ReuseReport(
                vg_name=output.vg_name,
                args=output.model_arg_values(validated),
                source="exact",
                basis_args=output.model_arg_values(validated),
                mapped_fraction=1.0,
                components_total=self.engine.library.get(output.vg_name).n_components,
                components_recomputed=0,
                kind_counts={
                    "result_cache": self.engine.library.get(
                        output.vg_name
                    ).n_components
                },
            )
            for output in self.scenario.vg_outputs
        )
        return PointEvaluation(
            point=validated,
            statistics=statistics,
            samples={},
            reuse_reports=reports,
            timings=StageTimings(),
            n_worlds=len(worlds),
        )

    def _snapshot_for(self, output: VGOutput, batch: InstanceBatch) -> BasisSnapshot:
        """A read-only snapshot of the coordinator's hot bases for one VG.

        Ships only the in-memory bases the coordinator *could not* use for
        this request: entries overlapping the requested worlds without
        covering the full slice. An entry covering the full slice was
        already ruled on by the coordinator's own acquire (hit or rejection
        applies to every shard equally), so shipping it could only let a
        shard contradict that decision — and in uniform-world workloads
        (every basis full-covering) the snapshot is therefore empty and the
        fan-out stays the zero-overhead pure-fresh path. The shipped bases'
        fingerprints and the current target's (always present after the
        coordinator's acquire attempt) ride along so shard tasks never
        re-probe.
        """
        engine = self.engine
        vg_lower = engine.library.get(output.vg_name).name.lower()
        requested = set(batch.worlds)
        entries: list[BasisEntry] = []
        fingerprints: list[tuple[tuple[Any, ...], np.ndarray]] = []
        seen_args: set[tuple[Any, ...]] = set()
        for (name, args), entry in engine.storage.tier.memory_items():
            if name != vg_lower:
                continue
            if engine.storage.tier.is_adopted((name, args)):
                # Warm-start adoptions carry foreign seeds the coordinator
                # validates per-acquire; a snapshot store would trust them
                # blindly, so they never travel.
                continue
            entry_worlds = set(entry.worlds)
            if requested <= entry_worlds:
                continue  # full-covering: the coordinator already ruled on it
            if not (requested & entry_worlds):
                continue  # overlaps no requested world: cannot serve a shard
            entries.append(entry)
            seen_args.add(args)
        target_args = output.model_arg_values(batch.point_dict)
        seen_args.add(tuple(target_args))
        for args in seen_args:
            fingerprint = engine.registry.get_fingerprint(vg_lower, args)
            if fingerprint is not None:
                fingerprints.append((args, fingerprint.matrix))
        fingerprints.sort(key=lambda item: repr(item[0]))
        # Content-addressed version: identical snapshot content across
        # requests (common in sweeps, whose full-slice results are filtered
        # out above) hashes identically, so the worker-side seeded-store
        # cache hits instead of rebuilding once per evaluation.
        digest = hashlib.blake2b(digest_size=16)
        for entry in entries:
            digest.update(repr((entry.args, entry.worlds, entry.seeds)).encode())
            digest.update(entry.samples.tobytes())
        for args, matrix in fingerprints:
            digest.update(repr(args).encode())
            digest.update(matrix.tobytes())
        return BasisSnapshot(
            version=f"{vg_lower}:{digest.hexdigest()}",
            vg_name=output.vg_name,
            entries=tuple(entries),
            fingerprints=tuple(fingerprints),
        )

    def _sharded_sampler(self, output: VGOutput, batch: InstanceBatch) -> np.ndarray:
        """The engine's fresh-sampling stage, fanned out across shards.

        With ``share_bases`` (and ``reuse=True``) each shard task first
        consults a shipped snapshot of the coordinator's hot bases; only
        what the snapshot cannot serve is freshly sampled.
        """
        worlds = batch.worlds
        n_shards = min(self.n_shards, max(1, len(worlds) // self.min_shard_worlds))
        shards = plan_shards(worlds, n_shards)
        self.stats.shard_generations += 1
        self.stats.sampled_worlds += len(worlds)
        point_items = tuple(sorted(batch.point_dict.items()))
        if len(shards) == 1:
            # Nothing to fan out — and nothing to reuse either: the
            # coordinator's own acquire already rejected every basis that
            # covers the full (= this single shard's) world slice.
            self.stats.shard_tasks += 1
            sample = run_shard(
                ShardTask(self.spec, output.alias, point_items, worlds), self.engine
            )
            self._count_shard_sample(sample)
            return sample.samples

        snapshot: Optional[BasisSnapshot] = None
        if self.share_bases and self._reuse_active:
            snapshot = self._snapshot_for(output, batch)
            if not snapshot.entries:
                snapshot = None  # nothing reusable; skip the shipping cost
        use_process = self.spec is not None and self.executor.kind == "process"
        n_components = self.engine.library.get(output.vg_name).n_components
        # Shard transport: the bytes this generation's segment needs (None
        # for the pickle path — default, unavailable shm, payload over cap).
        # Only process workers need the snapshot shipped (by descriptor
        # under shm); in-process shards are handed the coordinator's own
        # seeded store, and their task merely names the snapshot.
        need = self._generation_bytes(shards, n_components)
        shipped: BasisSnapshot | SnapshotRef | None = snapshot
        if need is not None and use_process and snapshot is not None:
            shipped = self._snapshot_ref_for(snapshot)
            if shipped is None:  # the snapshot alone exceeds the cap
                self.stats.transport_fallbacks += 1
                need, shipped = None, snapshot
        plain_tasks = [
            ShardTask(self.spec, output.alias, point_items, shard.worlds, shipped)
            for shard in shards
        ]
        tasks = plain_tasks
        lease: Optional[SegmentLease] = None
        try:
            if need is not None:
                with self.tracer.span(
                    "transport", alias=output.alias, shards=len(shards), bytes=need
                ):
                    lease = self._arena.lease(need, label="generation")
                    tasks = [
                        replace(
                            task,
                            worlds=lease.pack(np.asarray(task.worlds, dtype=np.int64)),
                            result=lease.reserve(
                                (len(task.worlds), n_components), np.float64
                            ),
                        )
                        for task in plain_tasks
                    ]
                self.stats.bytes_zero_copy += sum(
                    task.worlds.nbytes + task.result.nbytes for task in tasks
                )
            # repro-lint: disable=DET001 -- feeds stats.parallel_seconds, a
            # timing counter excluded from the byte-stable as_dict surface.
            started = time.perf_counter()
            calls = [
                self._shard_call(task, plain, n_components, snapshot, use_process, lease)
                for task, plain in zip(tasks, plain_tasks)
            ]
            # Counters are committed at dispatch time, before any result (or
            # failure) comes back, so an error mid-fan-out cannot leave them
            # understating the work that was actually submitted.
            self.stats.shard_tasks += len(shards)
            if snapshot is not None:
                self.stats.snapshots_shipped += 1
                self.stats.snapshot_bases_shipped += len(snapshot.entries)
            pickled = lease is None and use_process
            if pickled:
                # Pickle transport over a process boundary: world ids out per
                # shard, plus the full snapshot payload once per task (process
                # pools have no broadcast). Result bytes are counted at merge.
                self.stats.bytes_shipped += sum(len(s.worlds) * 8 for s in shards)
                self.stats.bytes_shipped += logical_nbytes(snapshot) * len(shards)
            try:
                # The dispatcher walks the fault-tolerance ladder: deadlines,
                # bounded retries, pool self-healing, inline rescue. On a
                # permanent error it collects every outstanding future before
                # re-raising — no in-flight work is leaked.
                with self.tracer.span(
                    "dispatch",
                    alias=output.alias,
                    shards=len(shards),
                    worlds=len(worlds),
                    executor=self.executor.kind,
                    snapshot_bases=len(snapshot.entries) if snapshot else 0,
                    transport="shm" if lease is not None else "pickle",
                ):
                    shard_samples = self._dispatcher.dispatch(calls)
            finally:
                # repro-lint: disable=DET001 -- observability only (see above).
                self.stats.parallel_seconds += time.perf_counter() - started
            with self.tracer.span(
                "merge", alias=output.alias, shards=len(shard_samples)
            ):
                parts: list[np.ndarray] = []
                any_shard_reuse = False
                for result in shard_samples:
                    self._count_shard_sample(result)
                    any_shard_reuse = any_shard_reuse or result.source != "fresh"
                    part = np.asarray(result.samples, dtype=float)
                    if pickled:
                        self.stats.bytes_shipped += part.nbytes
                    parts.append(part)
                if any_shard_reuse:
                    # The merged matrix the engine is about to store mixes shard-
                    # reused (geometry-dependent) rows in; taint the key before
                    # the store happens so the entry can never spill or persist.
                    # Taint is sticky across put(), so the ordering is race-free.
                    self.engine.storage.tier.taint(
                        (
                            self.engine.library.get(output.vg_name).name.lower(),
                            tuple(output.model_arg_values(batch.point_dict)),
                        )
                    )
                # The shard bases shipped back in ``parts`` merge here, in shard
                # order; the engine stores the merged entry in its tiered store,
                # where the next snapshot (and every other session) can reuse it.
                # ``vstack`` copies, so the generation's segment is released
                # right after (the arena defers unmapping past any live view).
                return np.vstack(parts)
        finally:
            # The lease has this one owner from ``arena.lease()`` to merge:
            # a raise while packing, building calls, dispatching or merging
            # releases it here, never at close() or the TTL.
            if lease is not None:
                self._arena.release(lease)

    def _generation_bytes(self, shards, n_components: int) -> Optional[int]:
        """Segment bytes one fan-out leases under shm; ``None`` = pickle path.

        ``None`` when the transport is disabled, shared memory is
        unavailable on this platform, or the payload would exceed the
        segment cap — the latter two are counted as ``transport_fallbacks``
        (silent degradation, never an error).
        """
        if not self.transport.enabled:
            return None
        need = generation_nbytes([len(shard) for shard in shards], n_components)
        if not self._shm_ok or need > self.transport.segment_cap_bytes:
            self.stats.transport_fallbacks += 1
            return None
        return need

    def _snapshot_ref_for(self, snapshot: BasisSnapshot) -> Optional[SnapshotRef]:
        """The packed-segment descriptor of a snapshot, cached per version.

        Snapshot versions are content-addressed, so sweeps that reship an
        identical snapshot hit the cache and pack nothing; a new version
        for the same VG evicts (releases) its predecessor's lease. Returns
        ``None`` when the snapshot alone would exceed the segment cap.
        """
        cached = self._snapshot_leases.get(snapshot.version)
        if cached is not None and self._arena.get(cached[0].name) is not None:
            self._arena.touch(cached[0])
            return cached[1]
        need = snapshot_nbytes(snapshot)
        if need > self.transport.segment_cap_bytes:
            return None
        lease = self._arena.lease(need, label=f"snapshot:{snapshot.version[:24]}")
        try:
            ref = pack_snapshot(lease, snapshot)
        except BaseException:
            # Not cached yet, so nobody else would ever release it.
            self._arena.release(lease)
            raise
        vg_prefix = snapshot.version.split(":", 1)[0] + ":"
        for stale in [
            version
            for version in self._snapshot_leases
            if version.startswith(vg_prefix) and version != snapshot.version
        ]:
            old_lease, _ = self._snapshot_leases.pop(stale)
            self._arena.release(old_lease)
        self._snapshot_leases[snapshot.version] = (lease, ref)
        self.stats.bytes_zero_copy += logical_nbytes(snapshot)
        return ref

    def _shard_call(
        self,
        task: ShardTask,
        plain: ShardTask,
        n_components: int,
        snapshot: Optional[BasisSnapshot],
        use_process: bool,
        lease: Optional[SegmentLease],
    ) -> ShardCall:
        """One shard's dispatcher call: the task, and the same task as rescue.

        A process worker gets the task alone and finds its engine and
        snapshot store by ``task.spec``; an in-process executor is handed
        the coordinator's. The rescue is :func:`run_shard` again on
        ``plain`` — the same task with its worlds in hand and no result
        region — with the coordinator's engine/store: same snapshot
        contents, same worlds, same seeds, so a rescued shard is
        bit-identical to what a healthy worker would have returned (and,
        running on plain arrays, it touches no transport segment: rescues
        can never leak leases).
        """

        def rescue() -> ShardSample:
            return run_shard(plain, self.engine, self._coordinator_store(snapshot))

        resolve = None
        if lease is not None:

            def resolve(payload: Any) -> Any:
                # Swap the returned descriptor for a view into the leased
                # result region (zero-copy; ``vstack`` copies at merge).
                # Anything else — a rescued plain sample, injected garbage
                # — passes through to the ordinary payload validation.
                if isinstance(payload, ShardSample) and isinstance(
                    payload.samples, SegmentRef
                ):
                    return replace(payload, samples=lease.view(payload.samples))
                return payload

        return ShardCall(
            fn=run_shard,
            args=(
                (task,)
                if use_process
                else (task, self.engine, self._coordinator_store(snapshot))
            ),
            rescue=rescue,
            expected_rows=len(plain.worlds),
            expected_components=n_components,
            resolve=resolve,
        )

    def _coordinator_store(
        self, snapshot: Optional[BasisSnapshot]
    ) -> Optional[StorageManager]:
        """The coordinator's seeded store for ``snapshot`` (``None`` for none).

        Cached for the latest version only: an in-process fan-out asks once
        per shard, an inline rescue of a process shard asks lazily (rescue
        is the rare path; most evaluations never build one).
        """
        if snapshot is None:
            return None
        cached = self._coordinator_store_cache
        if cached is None or cached[0] != snapshot.version:
            cached = (snapshot.version, build_snapshot_store(self.engine, snapshot))
            self._coordinator_store_cache = cached
        return cached[1]

    def _count_shard_sample(self, sample: ShardSample) -> None:
        if sample.source == "exact":
            self.stats.shard_exact_hits += 1
        elif sample.source == "mapped":
            self.stats.shard_mapped_hits += 1
        else:
            self.stats.shard_fresh += 1
        self.stats.sampled_batched += sample.sampled_batched
        self.stats.sampled_fallback += sample.sampled_fallback
        self.stats.worker_seconds += sample.elapsed_seconds
