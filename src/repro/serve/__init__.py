"""``repro.serve`` — point-parallel evaluation service.

Turns the single-process :class:`~repro.core.engine.ProphetEngine` into a
concurrent evaluation service: ``reuse=False`` requests run as whole-point
tasks in a process pool (with an in-process fallback executor), a job
scheduler lets many logical sessions share one pool with in-flight
deduplication, and a persistent cross-run result cache serves repeated
questions instantly.

Reuse layers, in the order they fire for one evaluation request:

1. **result cache** (:class:`ResultCache`) — the exact (scenario, point,
   worlds, seeds) was answered before, possibly by another run;
2. **exact basis hit / stats cache** — the coordinator engine already holds
   these samples or statistics in memory;
3. **fingerprint map** — a correlated parameterization's samples are
   remapped, only unmapped components are simulated;
4. **fresh sampling** — whatever survives all reuse is simulated by the
   coordinator engine.

A ``reuse=False`` request skips layers 1-3 and touches no state the
coordinator keeps, so on a process pool it is one point task —
:func:`repro.serve.worker.run_point` on a frozen
:class:`~repro.serve.worker.PointTask` — run whole by a worker's own
engine. Every task goes through the fault-tolerance ladder in
:mod:`repro.serve.resilience` — deadlines, bounded deterministic retries,
pool self-healing, and inline rescue as the last rung — so a faulty
substrate costs time, never answers; :mod:`repro.serve.faults` provides
the deterministic chaos harness that proves it. A task's statistics can
optionally come back through a shared-memory region instead of the result
pickle — :mod:`repro.serve.transport`,
``TransportConfig(shard_transport="shm")`` — with byte-identical results.
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
from repro.serve.resilience import ResilienceConfig, TaskCall, TaskDispatcher
from repro.serve.scheduler import Job, JobQueue, Scheduler
from repro.serve.service import EvaluationService, ServiceStats
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
    PointResult,
    PointTask,
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
    "PointResult",
    "PointTask",
    "ProcessExecutor",
    "ResilienceConfig",
    "ResultCache",
    "SCENARIO_BUILDERS",
    "Scheduler",
    "SegmentArena",
    "SegmentRef",
    "ServiceStats",
    "TaskCall",
    "TaskDispatcher",
    "TransportConfig",
    "create_executor",
    "result_key",
    "scenario_fingerprint",
    "shm_available",
]
