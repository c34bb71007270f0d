"""The evaluation service: point-parallel evaluation + result cache.

:class:`EvaluationService` wraps one coordinator :class:`ProphetEngine` and
turns `evaluate` into a concurrent, cached operation:

1. **Result cache** (optional, persistent): if the exact (scenario, point,
   worlds, seed config) was ever answered before — by this process or any
   previous run — the stored statistics are returned without touching the
   engine.
2. **Coordinator reuse**: a ``reuse=True`` request runs the coordinator
   engine's normal evaluation cycle — stats cache, exact basis hits,
   fingerprint-mapped reuse, the week memo — exactly as the sequential
   path would, so reuse decisions never depend on worker scheduling.
3. **Point tasks**: a ``reuse=False`` request reads and writes no state an
   engine keeps between requests, so it is a pure function of ``(spec,
   point, worlds)``. On a process pool it is one
   :func:`~repro.serve.worker.run_point` task: a worker's own engine runs
   the whole point and ships back the statistics, fresh reuse reports and
   counters, with ``samples={}`` as on the result-cache path. On an
   in-process executor the coordinator engine runs it.

A task has two halves — :meth:`EvaluationService.start` submits it,
:meth:`EvaluationService.finish` waits for it (deadline → retry → heal →
rescue) — so the scheduler can keep every worker busy and still hand
results out in submission order. Each worker builds and warms
its engine when the service is built (and again after a pool heal), so no
request pays a fork or a first-touch world draw.

Because a point task is pure and every reuse decision is the
coordinator's, pooled evaluation is bit-identical to sequential for any
request sequence, worker count and transport.
"""

from __future__ import annotations

from concurrent.futures import CancelledError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields, replace
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro.core.engine import PointEvaluation, ProphetEngine, StageTimings, world_ids
from repro.core.storage import ReuseReport
from repro.errors import ServeError
from repro.obs.trace import NULL_TRACER
from repro.serve.cache import ResultCache, result_key, scenario_fingerprint
from repro.serve.executors import InlineExecutor, create_executor
from repro.serve.faults import FaultInjector, FaultPlan
from repro.serve.resilience import (
    ResilienceConfig,
    StartedTask,
    TaskCall,
    TaskDispatcher,
)
from repro.serve.transport import (
    SegmentArena,
    SegmentLease,
    SegmentRef,
    TransportConfig,
    shm_available,
)
from repro.serve.worker import (
    EngineSpec,
    PointResult,
    PointTask,
    draw_worlds,
    run_point,
    warm_lane,
)


@dataclass
class ServiceStats:
    """Counters for one service instance.

    The ``shard_`` counter names predate point tasks; they match the
    resilience settings they count and the perf ledger's metric names.
    """

    points_evaluated: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Point tasks started: one per ``reuse=False`` request on a process
    #: pool (retries and rescues of a task are not new tasks).
    shard_tasks: int = 0
    #: Fresh world-rows sampled inside point tasks, by the sampling-plane
    #: backend that produced them — so a silent fallback to the slow path
    #: is observable even when it happens in a worker process.
    sampled_batched: int = 0
    sampled_fallback: int = 0
    #: The fault-tolerance ladder (see :mod:`repro.serve.resilience`): how
    #: many task submissions were retried after a transient failure, how
    #: many missed their deadline, how many times the process pool was
    #: rebuilt to heal a crash or hang, and how many tasks were re-run
    #: inline on the coordinator as the last resort. All zero on a healthy
    #: substrate.
    shard_retries: int = 0
    shard_timeouts: int = 0
    pool_rebuilds: int = 0
    inline_rescues: int = 0
    #: Task transport (see :mod:`repro.serve.transport`). ``bytes_zero_copy``
    #: counts the statistics bytes that came back through a shared-memory
    #: result region; ``bytes_shipped`` those of every task collected
    #: without a region (through pickle, or rescued inline). Segment lease/reclaim counters
    #: must end a session equal — the leak assertion the chaos suite pins.
    #: ``transport_fallbacks`` counts tasks that wanted shm but ran pickle
    #: (a platform without shm) — silent degradation, made observable.
    bytes_shipped: int = 0
    bytes_zero_copy: int = 0
    segments_leased: int = 0
    segments_reclaimed: int = 0
    transport_fallbacks: int = 0
    #: Wall-clock the coordinator spent *blocked* waiting for point-task
    #: results. Submission is not in it, nor is anything the coordinator
    #: did while its tasks ran.
    parallel_seconds: float = 0.0
    #: Wall-clock measured *inside* point tasks (in the worker processes,
    #: or on the coordinator for a rescue) and shipped back in each
    #: PointResult. Like ``parallel_seconds`` it is excluded from
    #: :meth:`as_dict` — timing is surfaced through
    #: :class:`repro.obs.TimingReport`, never the stable counter JSON.
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


@dataclass
class StartedPoint:
    """A ``reuse=False`` request whose point task is in flight."""

    point: dict[str, Any]
    worlds: tuple[int, ...]
    task: StartedTask
    lease: Optional[SegmentLease]


class EvaluationService:
    """Concurrent, cached scenario evaluation over one coordinator engine."""

    def __init__(
        self,
        spec: Optional[EngineSpec] = None,
        *,
        engine: Optional[ProphetEngine] = None,
        executor: Any = None,
        workers: Optional[int] = None,
        cache_dir: Optional[str] = None,
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
            # Workers evaluate from the spec while the coordinator serves
            # with this engine — they must describe the same evaluation or
            # a pooled answer silently differs from an inline one.
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
        #: Whether ``reuse=False`` requests run as point tasks in worker
        #: processes (else the coordinator engine runs them).
        self.pooled = self.executor.kind == "process"
        if self.pooled and spec is None:
            raise ServeError(
                "a process executor needs an EngineSpec so workers can "
                "build their own engines; pass spec= or use an inline executor"
            )
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.scenario = self.engine.scenario
        self._scenario_hash = scenario_fingerprint(self.scenario, self.engine.library)
        self.stats = ServiceStats()
        #: The fault-tolerance ladder applied to every point task
        #: (deadlines, bounded retries, pool self-healing, inline rescue).
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        #: Deterministic chaos harness: a fault plan wraps every dispatched
        #: point task (inside the worker). ``None`` in production.
        self.injector = FaultInjector(fault_plan) if fault_plan is not None else None
        self._dispatcher = TaskDispatcher(
            self.executor, self.stats, self.resilience, self.injector
        )
        #: Task transport: pickle by default; ``"shm"`` brings each task's
        #: statistics back through a leased shared-memory region (bit-
        #: identical). Falls back to pickle — counted, never an error —
        #: where shared memory is unavailable.
        self.transport = transport if transport is not None else TransportConfig()
        self._arena = SegmentArena(stats=self.stats)
        self._shm_ok = self.transport.enabled and shm_available()
        #: The shape of a task's statistics columns: (mean, stddev) rows per
        #: output, one column per week (a model's component).
        self._columns_shape = (
            2 * len(self.engine.aggregator.output_aliases),
            self.engine.library.get(self.scenario.vg_outputs[0].vg_name).n_components,
        )
        # Tie lease cleanup into the executor's own lifecycle: a recycled
        # pool (every dispatcher heal included) sweeps expired leases, a
        # shutdown pool releases everything.
        if hasattr(self.executor, "add_recycle_hook"):
            self.executor.add_recycle_hook(self._arena.sweep_expired)
            self.executor.add_recycle_hook(self._warm_lanes)
        if hasattr(self.executor, "add_teardown_hook"):
            self.executor.add_teardown_hook(self._arena.release_all)
        #: Observability: :meth:`set_tracer` replaces this shared no-op.
        self.tracer = NULL_TRACER
        self._warm_lanes()

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
        """Evaluate one point: the result cache, then the engine cycle —
        on the coordinator, or as a point task on a process pool.

        ``points_evaluated`` counts every request, one the engine then
        rejects included. The request is validated here only to build a
        result-cache key or a task; otherwise the engine's own validation
        is the one.
        """
        self.stats.points_evaluated += 1
        if not reuse and self.pooled:
            return self._collect(self.start(point, worlds=worlds))
        key = None
        if self.cache is not None and reuse:
            point, worlds = self._request(point, worlds)
            key = self._key_for(point, worlds)
            cached = self.cache.get(key)
            if cached is not None:
                self.stats.cache_hits += 1
                return self._evaluation_from_cache(point, worlds, cached.statistics)
            self.stats.cache_misses += 1

        evaluation = self.engine.evaluate_point(point, worlds=worlds, reuse=reuse)
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

    def start(
        self, point: Mapping[str, Any], *, worlds: Optional[Sequence[int]] = None
    ) -> StartedPoint:
        """Submit a ``reuse=False`` request as a point task (process pools
        only) and return without waiting; :meth:`finish` collects it."""
        if not self.pooled:
            raise ServeError("point tasks need a process executor")
        validated, chosen = self._request(point, worlds)
        task = PointTask(self.spec, tuple(sorted(validated.items())), chosen)
        lease = self._lease() if self.transport.enabled else None
        try:
            shipped = task
            if lease is not None:
                shipped = replace(
                    task, result=lease.reserve(self._columns_shape, np.float64)
                )

            def rescue() -> PointResult:
                # The same task, with no result region, on the coordinator's
                # engine: same bits, and no transport segment to leak.
                return run_point(task, self.engine)

            call = TaskCall(
                fn=run_point,
                args=(shipped,),
                rescue=rescue,
                expected_shape=self._columns_shape,
                resolve=self._resolver(lease) if lease is not None else None,
            )
            with self.tracer.span("dispatch", worlds=len(chosen)):
                started = self._dispatcher.start(call)
        except BaseException:
            # Until the task is started the lease is this frame's; from here
            # on it is ``_collect``'s (or, never collected — an abandoned
            # sweep — the arena's, until close()).
            if lease is not None:
                self._arena.release(lease)
            raise
        self.stats.shard_tasks += 1
        return StartedPoint(validated, chosen, started, lease)

    def finish(self, started: StartedPoint) -> PointEvaluation:
        """Collect a request :meth:`start` submitted: its evaluation, with
        ``samples={}``. Counts the request as evaluated."""
        self.stats.points_evaluated += 1
        return self._collect(started)

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

    def _warm_lanes(self) -> None:
        """Have every worker build its engine and hold every world's seed
        events before the first request (no-op inline).

        Each lane draws its own share of the worlds, in parallel; then each
        adopts the others' shares and evaluates one point (:func:`warm_lane`).
        A lane that died drawing is left cold: the first task to meet it
        heals the pool, and the heal warms the new lanes.
        """
        if not self.pooled:
            return
        workers, n_worlds = self.executor.workers, self.engine.config.sampling.n_worlds
        shares = [
            range(n_worlds * lane // workers, n_worlds * (lane + 1) // workers)
            for lane in range(workers)
        ]
        drawing = [
            self.executor.submit(draw_worlds, self.spec, share, lane=lane)
            for lane, share in enumerate(shares)
            if share
        ]
        try:
            drawn = [future.result() for future in drawing]
        except (BrokenProcessPool, CancelledError):
            return
        for lane in range(workers):
            others = [events for index, events in enumerate(drawn) if index != lane]
            self.executor.submit(warm_lane, self.spec, others, lane=lane)

    def _lease(self) -> Optional[SegmentLease]:
        """A segment for one task's statistics, or ``None`` (pickle) where
        shared memory is unavailable — counted as a transport fallback."""
        if not self._shm_ok:
            self.stats.transport_fallbacks += 1
            return None
        rows, columns = self._columns_shape
        return self._arena.lease(rows * columns * 8)

    def _resolver(self, lease: SegmentLease):
        """Copy a returned region's statistics out of the lease. Anything
        else — a rescued plain result, injected garbage — passes through to
        the dispatcher's payload validation."""

        def resolve(payload: Any) -> Any:
            if isinstance(payload, PointResult) and isinstance(
                payload.columns, SegmentRef
            ):
                columns = np.array(lease.view(payload.columns))
                self.stats.bytes_zero_copy += columns.nbytes
                return replace(payload, columns=columns)
            return payload

        return resolve

    def _collect(self, started: StartedPoint) -> PointEvaluation:
        """Wait for a started task (the dispatcher walks the resilience
        ladder) and turn its result into the request's evaluation."""
        try:
            with self.tracer.span("collect", worlds=len(started.worlds)):
                result = self._dispatcher.finish(started.task)
        finally:
            # A started task's lease has this one owner: collected or
            # failed, it is released here, never at the TTL.
            if started.lease is not None:
                self._arena.release(started.lease)
        columns = np.array(result.columns, dtype=np.float64)
        if started.lease is None:
            self.stats.bytes_shipped += columns.nbytes
        self.stats.sampled_batched += result.sampled_batched
        self.stats.sampled_fallback += result.sampled_fallback
        self.stats.worker_seconds += result.elapsed_seconds
        return PointEvaluation(
            point=started.point,
            statistics=self.engine.aggregator.from_columns(
                columns, len(started.worlds), result.axis_values
            ),
            samples={},
            reuse_reports=result.reuse_reports,
            timings=result.timings,
            n_worlds=len(started.worlds),
        )

    def _request(
        self, point: Mapping[str, Any], worlds: Optional[Sequence[int]]
    ) -> tuple[dict[str, Any], tuple[int, ...]]:
        """The request as the engine normalises it — for a result-cache key
        or a point task.

        The engine's own point and world-id rules, applied first: a request
        the engine would reject is never a cache hit, nor a task.
        """
        validated = self.scenario.validate_sweep_point(point)
        chosen = (
            self.engine.default_worlds
            if worlds is None
            else world_ids(worlds, "EvaluationService.evaluate")
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
