"""``repro.serve`` — sharded parallel evaluation service.

Turns the single-process :class:`~repro.core.engine.ProphetEngine` into a
concurrent evaluation service: the fixed world-seed sequence is partitioned
into contiguous shards evaluated in a process pool (with an in-process
fallback executor), a job scheduler lets many logical sessions share one
pool with in-flight deduplication, and a persistent cross-run result cache
serves repeated questions instantly.

Reuse layers, in the order they fire for one evaluation request:

1. **result cache** (:class:`ResultCache`) — the exact (scenario, point,
   worlds, seeds) was answered before, possibly by another run;
2. **exact basis hit / stats cache** — the coordinator engine already holds
   these samples or statistics in memory;
3. **fingerprint map** — a correlated parameterization's samples are
   remapped, only unmapped components are simulated;
4. **sharded fresh sampling** — whatever survives all reuse is sharded
   across workers, deterministically, and merged bit-identically.

Every shard fan-out goes through the fault-tolerance ladder in
:mod:`repro.serve.resilience` — per-shard deadlines, bounded deterministic
retries, pool self-healing, and inline rescue as the last rung — so a
faulty substrate costs time, never answers; :mod:`repro.serve.faults`
provides the deterministic chaos harness that proves it.

Every shard is one call, :func:`repro.serve.worker.run_shard`, on one frozen
:class:`~repro.serve.worker.ShardTask`; which executor runs it, and whether
it is a first attempt or an inline rescue, changes only where its engine
comes from. The task's bulk fields (world slice, result matrix) can
optionally ride named shared-memory segments instead of the task pickle —
:mod:`repro.serve.transport`, ``TransportConfig(shard_transport="shm")`` —
with byte-identical results and O(1) task pickles in the world count.
"""

from repro.serve.cache import CachedResult, ResultCache, result_key, scenario_fingerprint
from repro.serve.executors import (
    InlineExecutor,
    ProcessExecutor,
    create_executor,
)
from repro.serve.faults import (
    FaultInjected,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.serve.resilience import ResilienceConfig, ShardCall, ShardDispatcher
from repro.serve.scheduler import Job, JobQueue, Scheduler
from repro.serve.service import EvaluationService, ServiceStats
from repro.serve.sharding import WorldShard, plan_shards
from repro.serve.transport import (
    SegmentArena,
    SegmentRef,
    TransportConfig,
    shm_available,
)
from repro.serve.worker import (
    EngineSpec,
    LIBRARY_BUILDERS,
    SCENARIO_BUILDERS,
    ShardSample,
)

__all__ = [
    "CachedResult",
    "EngineSpec",
    "EvaluationService",
    "FaultInjected",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InlineExecutor",
    "Job",
    "JobQueue",
    "LIBRARY_BUILDERS",
    "ProcessExecutor",
    "ResilienceConfig",
    "ResultCache",
    "SCENARIO_BUILDERS",
    "Scheduler",
    "SegmentArena",
    "SegmentRef",
    "ServiceStats",
    "ShardCall",
    "ShardDispatcher",
    "ShardSample",
    "TransportConfig",
    "WorldShard",
    "create_executor",
    "plan_shards",
    "result_key",
    "scenario_fingerprint",
    "shm_available",
]
