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
3. **Sharded sampling**: only the samples no coordinator reuse layer could
   serve are sharded across the executor. Every shard task is
   ``sample_fresh`` over its world slice — a pure function of ``(spec,
   point, worlds)`` — and the shard matrices merge, in shard order, into
   the entry the coordinator stores.

A shard generation has two halves. **Start** cuts the slice, leases its
segment and submits every shard's first attempt; **collect** waits for
them (retry → heal → rescue), merges and releases the lease. In-process
executors run the halves back to back. On a process pool the engine is
handed the ``collect`` and calls it only when the point cannot go on
without the samples — which lets :meth:`EvaluationService.begin` start the
*next* request's generation while the coordinator is still combining the
current one (the scheduler does that for queued jobs). Starting early
moves no decision: a request is begun after every store of the one before
it, and stops exactly where it would have waited.

Because every reuse decision is the coordinator's and every shard is fresh
sampling from the fixed seed sequence, sharded evaluation is bit-identical
to sequential for any world pattern, shard count, executor and transport.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from repro.core.engine import (
    PointEvaluation,
    ProphetEngine,
    StageTimings,
    world_ids,
)
from repro.core.instance import InstanceBatch
from repro.core.scenario import VGOutput
from repro.core.storage import ReuseReport
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
    TransportConfig,
    generation_nbytes,
    shm_available,
)
from repro.serve.worker import EngineSpec, ShardSample, ShardTask, run_shard


@dataclass
class ServiceStats:
    """Counters for one service instance."""

    points_evaluated: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    shard_tasks: int = 0
    #: Shard *generations*: one per fresh-sampling fan-out (one contiguous
    #: world slice sharded, started, collected, merged), counted when it is
    #: started — which, for a queued job begun ahead, is before the job
    #: runs. A request starts one generation per VG output no reuse layer
    #: served (under the round protocol: per output's fresh increment) —
    #: the invariant that lets the dispatcher's resilience ladder apply to
    #: every round unchanged, and that tests pin.
    shard_generations: int = 0
    sampled_worlds: int = 0
    #: Wall-clock the coordinator spent *blocked* collecting shard futures.
    #: Submission is not in it, nor is anything the coordinator did while a
    #: started generation ran — so it still means "waited" when start and
    #: collect are apart.
    parallel_seconds: float = 0.0
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
    #: counts logical payload bytes (world ids, sample matrices) that
    #: crossed a process boundary through pickle;
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
        self._arena = SegmentArena(stats=self.stats)
        self._shm_ok = self.transport.enabled and shm_available()
        # Tie lease cleanup into the executor's own lifecycle: a recycled
        # pool (every dispatcher heal included) sweeps expired leases, a
        # shutdown pool releases everything.
        if hasattr(self.executor, "add_recycle_hook"):
            self.executor.add_recycle_hook(self._arena.sweep_expired)
        if hasattr(self.executor, "add_teardown_hook"):
            self.executor.add_teardown_hook(self._arena.release_all)
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
        overlap: Optional[Callable[[], None]] = None,
    ) -> PointEvaluation:
        """Evaluate one point: result cache, then the sharded engine cycle.

        ``overlap`` is the engine's: called once this point's samples have
        landed and before they are combined — where a scheduler that knows
        the next request calls :meth:`begin` for it.

        ``points_evaluated`` counts every request, one the engine then
        rejects included. The request is validated here only to build a
        result-cache key; otherwise the engine's own validation is the one.
        """
        self.stats.points_evaluated += 1
        key = None
        if self.cache is not None and reuse:
            point, worlds = self._request(point, worlds)
            key = self._key_for(point, worlds)
            cached = self.cache.get(key)
            if cached is not None:
                self.stats.cache_hits += 1
                return self._evaluation_from_cache(point, worlds, cached.statistics)
            self.stats.cache_misses += 1

        evaluation = self.engine.evaluate_point(
            point,
            worlds=worlds,
            reuse=reuse,
            sampler=self._sharded_sampler,
            overlap=overlap,
        )
        if key is not None:
            self.cache.put(
                key,
                evaluation.statistics,
                meta={
                    "scenario": self._scenario_hash,
                    "scenario_name": self.scenario.name,
                    "point": {k: repr(v) for k, v in sorted(point.items())},
                    "n_worlds": len(worlds),
                    "base_seed": self.engine.config.sampling.base_seed,
                },
            )
        return evaluation

    def begin(
        self,
        point: Mapping[str, Any],
        *,
        worlds: Optional[Sequence[int]] = None,
        reuse: bool = True,
    ) -> None:
        """Start the request that :meth:`evaluate` will be asked next.

        The coordinator engine makes the point's reuse decisions and, for
        the first output no reuse layer serves, the shard generation is
        submitted — then this returns, and the workers sample while the
        caller does something else (combining the previous point). The
        ``evaluate`` call for the same request picks the point up where it
        stopped. Counters move exactly as they would have: nothing is
        counted twice, and a request the result cache will answer is left
        to it.
        """
        if self.cache is not None and reuse:
            validated, chosen = self._request(point, worlds)
            if self._key_for(validated, chosen) in self.cache:
                return
        self.engine.begin_point(
            point, worlds=worlds, reuse=reuse, sampler=self._sharded_sampler
        )

    def close(self) -> None:
        self.executor.shutdown()
        # The teardown hook already released the arena when the executor
        # supports hooks; calling again is idempotent and covers foreign
        # executors passed in without the hook interface.
        self._arena.release_all()

    def __enter__(self) -> "EvaluationService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- internals ---------------------------------------------------------

    def _request(
        self, point: Mapping[str, Any], worlds: Optional[Sequence[int]]
    ) -> tuple[dict[str, Any], tuple[int, ...]]:
        """The request as the engine normalises it — for a result-cache key.

        The engine's own point and world-id rules, applied before the key
        is built: a request the engine would reject is never a cache hit.
        """
        validated = self.scenario.validate_sweep_point(point)
        chosen = world_ids(
            worlds
            if worlds is not None
            else range(self.engine.config.sampling.n_worlds),
            "EvaluationService.evaluate",
        )
        return validated, chosen

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

    def _sharded_sampler(
        self, output: VGOutput, batch: InstanceBatch
    ) -> "np.ndarray | Callable[[], np.ndarray]":
        """The engine's fresh-sampling stage, fanned out across shards.

        One call is one shard generation: the world slice is cut, leased a
        segment (shm), and every shard's first attempt is submitted. On a
        process pool that is where this returns — with the ``collect``
        that waits for the shards (walking the resilience ladder), merges
        them and releases the lease; the engine calls it when the point can
        go no further without the samples. In-process executors have
        nothing to overlap with and collect right here.

        A slice too small to split is one shard sampled right here, from
        the batch the engine already built (no re-validation, no re-derived
        seeds), and its counters move as that one :func:`run_shard` call's
        would. Its time is the coordinator's own (the engine's ``sql``
        stage), so it adds nothing to ``worker_seconds``.
        """
        worlds = batch.worlds.tolist()
        n_shards = min(self.n_shards, max(1, len(worlds) // self.min_shard_worlds))
        self.stats.shard_generations += 1
        self.stats.sampled_worlds += len(worlds)
        if n_shards == 1:
            self.stats.shard_tasks += 1
            samples = self.engine.sampling.sample(output, batch, StageTimings())
            if self.engine.sampling.last_backend == "batched":
                self.stats.sampled_batched += len(worlds)
            else:
                self.stats.sampled_fallback += len(worlds)
            return samples

        shards = plan_shards(worlds, n_shards)
        point_items = tuple(sorted(batch.point_dict.items()))
        use_process = self.spec is not None and self.executor.kind == "process"
        n_components = self.engine.library.get(output.vg_name).n_components
        # Shard transport: the bytes this generation's segment needs (None
        # for the pickle path — default, unavailable shm, payload over cap).
        need = self._generation_bytes(shards, n_components)
        plain_tasks = [
            ShardTask(self.spec, output.alias, point_items, shard.worlds)
            for shard in shards
        ]
        tasks = plain_tasks
        lease: Optional[SegmentLease] = None
        try:
            if need is not None:
                with self.tracer.span(
                    "transport", alias=output.alias, shards=len(shards), bytes=need
                ):
                    lease = self._arena.lease(need)
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
            calls = [
                self._shard_call(task, plain, n_components, use_process, lease)
                for task, plain in zip(tasks, plain_tasks)
            ]
            # Counters are committed at dispatch time, before any result (or
            # failure) comes back, so an error mid-fan-out cannot leave them
            # understating the work that was actually submitted.
            self.stats.shard_tasks += len(shards)
            pickled = lease is None and use_process
            if pickled:
                # Pickle transport over a process boundary: world ids out per
                # shard. Result bytes are counted at merge.
                self.stats.bytes_shipped += sum(len(s.worlds) * 8 for s in shards)
            with self.tracer.span(
                "dispatch",
                alias=output.alias,
                shards=len(shards),
                worlds=len(worlds),
                executor=self.executor.kind,
                transport="shm" if lease is not None else "pickle",
            ):
                started = self._dispatcher.start(calls)
        except BaseException:
            # Until the generation is started the lease is this frame's;
            # from here on it is ``collect``'s (or, never collected — an
            # abandoned sweep — the arena's, until close()).
            if lease is not None:
                self._arena.release(lease)
            raise

        def collect() -> np.ndarray:
            try:
                # The dispatcher walks the fault-tolerance ladder: deadlines,
                # bounded retries, pool self-healing, inline rescue. On a
                # permanent error it collects every outstanding future before
                # re-raising — no in-flight work is leaked.
                with self.tracer.span(
                    "collect", alias=output.alias, shards=len(shards)
                ):
                    shard_samples = self._dispatcher.finish(started)
                with self.tracer.span(
                    "merge", alias=output.alias, shards=len(shard_samples)
                ):
                    parts: list[np.ndarray] = []
                    for result in shard_samples:
                        self._count_shard_sample(result)
                        part = np.asarray(result.samples, dtype=float)
                        if pickled:
                            self.stats.bytes_shipped += part.nbytes
                        parts.append(part)
                    # The shard matrices merge here, in shard order; the
                    # engine stores the merged entry in its tiered store.
                    # ``vstack`` copies, so the generation's segment is
                    # released right after (the arena defers unmapping past
                    # any live view).
                    return np.vstack(parts)
            finally:
                # A started generation's lease has this one owner: collected
                # or failed, it is released here, never at the TTL.
                if lease is not None:
                    self._arena.release(lease)

        return collect if use_process else collect()

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

    def _shard_call(
        self,
        task: ShardTask,
        plain: ShardTask,
        n_components: int,
        use_process: bool,
        lease: Optional[SegmentLease],
    ) -> ShardCall:
        """One shard's dispatcher call: the task, and the same task as rescue.

        A process worker gets the task alone and finds its engine by
        ``task.spec``; an in-process executor is handed the coordinator's.
        The rescue is :func:`run_shard` again on ``plain`` — the same task
        with its worlds in hand and no result region — with the
        coordinator's engine: same worlds, same seeds, so a rescued shard
        is bit-identical to what a healthy worker would have returned
        (and, running on plain arrays, it touches no transport segment:
        rescues can never leak leases).
        """

        def rescue() -> ShardSample:
            return run_shard(plain, self.engine)

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
            args=(task,) if use_process else (task, self.engine),
            rescue=rescue,
            expected_rows=len(plain.worlds),
            expected_components=n_components,
            resolve=resolve,
        )

    def _count_shard_sample(self, sample: ShardSample) -> None:
        self.stats.sampled_batched += sample.sampled_batched
        self.stats.sampled_fallback += sample.sampled_fallback
        self.stats.worker_seconds += sample.elapsed_seconds
