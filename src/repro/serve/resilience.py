"""Fault tolerance for point tasks: deadlines, retries, self-healing.

The serving plane's availability contract is that a faulty substrate may
cost *time*, never *answers*: a point task is a pure function of ``(spec,
point, worlds)``, so a task that failed — a crashed worker, a missed
deadline, a mangled payload — can be re-run anywhere, including inline on
the coordinator, and produce the bit-identical statistics.
:class:`TaskDispatcher` turns that purity into a recovery ladder, applied
to every task:

1. **deadline** — the result is awaited with a timeout (``shard_timeout``),
   so a hung worker costs one deadline, not the session;
2. **bounded retries** — a task that failed transiently (timeout, crash,
   broken pool, injected fault, garbage payload) is re-submitted up to
   ``shard_retries`` more times, with deterministic exponential backoff;
3. **pool self-healing** — an attempt that timed out or met a
   ``BrokenProcessPool`` recycles the process pool (terminating stuck
   workers) before the retry, so one bad worker cannot poison every later
   submission;
4. **inline rescue** — when retries are exhausted, the task is re-run
   synchronously on the coordinator: sequential speed for that point,
   never a wrong or missing answer.

This is the serving plane's only retry ladder: the scheduler runs each
job once, and a failure that reaches it is final.

Permanent errors — anything not in the :class:`~repro.errors.
TransientServeError` branch, a broken pool, or a timeout — are *not*
retried: a deterministic bug recurs identically, so it is raised at once.

A task is dispatched in two halves — :meth:`TaskDispatcher.start` submits
its first attempt, :meth:`TaskDispatcher.finish` walks the ladder — so a
caller can keep several tasks in flight and collect them in order.
"""

from __future__ import annotations

import time
from concurrent.futures import CancelledError
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.core.config import require
from repro.errors import TaskPayloadError, TaskTimeoutError, TransientServeError
from repro.obs.trace import NULL_TRACER
from repro.serve.faults import FaultInjector
from repro.serve.worker import PointResult


@dataclass(frozen=True)
class ResilienceConfig:
    """Every knob of the fault-tolerance ladder, in one frozen section.

    The defaults are active — bounded retries, pool self-healing, and
    inline rescue all apply out of the box — but change nothing on a
    healthy substrate: with no deadline configured and no fault occurring,
    the dispatcher is a plain submit-and-collect loop.

    The ``shard_`` names predate point tasks; they are kept because they
    are the configuration's public field names (and CLI flags).

    ``shard_timeout``
        Seconds to wait for one point task's result before declaring it
        hung (``None`` = wait forever, the pre-resilience behavior).
    ``shard_retries``
        How many additional submissions a transiently-failed task gets
        before the rescue ladder's last rung.
    ``retry_backoff``
        Base seconds slept between attempts, doubling each attempt —
        deterministic (no jitter), so chaos runs are reproducible.
    """

    shard_timeout: Optional[float] = None
    shard_retries: int = 2
    retry_backoff: float = 0.05

    def __post_init__(self) -> None:
        require(
            self.shard_timeout is None or self.shard_timeout > 0,
            f"shard_timeout must be > 0 or None, got {self.shard_timeout}",
        )
        require(
            self.shard_retries >= 0,
            f"shard_retries must be >= 0, got {self.shard_retries}",
        )
        require(
            self.retry_backoff >= 0,
            f"retry_backoff must be >= 0, got {self.retry_backoff}",
        )


@dataclass
class TaskCall:
    """One point task, as the dispatcher sees it.

    ``fn(*args)`` is what goes to the executor (module-level and picklable
    — the service always sends :func:`~repro.serve.worker.run_point` on a
    ``PointTask``); ``rescue()`` re-runs the same pure computation
    synchronously on the coordinator — the caller guarantees both produce
    the bit-identical :class:`~repro.serve.worker.PointResult`.
    ``expected_shape`` (of the result's statistics columns) lets the
    dispatcher validate a payload without knowing anything else about it.
    """

    fn: Callable[..., Any]
    args: tuple[Any, ...]
    rescue: Callable[[], PointResult]
    expected_shape: tuple[int, int]
    #: Transport hook: maps the raw executor payload into the usable one
    #: (the shm transport resolves a returned segment descriptor into the
    #: statistics columns). Applied before payload validation; a resolve
    #: failure is a transient substrate fault (the ladder re-runs the
    #: task, ultimately inline where no resolution is needed).
    resolve: Optional[Callable[[Any], Any]] = None
    #: Assigned by the dispatcher: the global fault-plan sequence number.
    seq: int = field(default=-1, repr=False)


@dataclass
class StartedTask:
    """A task whose first attempt is submitted and not yet collected:
    ``(future, pool generation)`` of that attempt."""

    call: TaskCall
    future: Any
    generation: int


class TaskDispatcher:
    """Dispatch point tasks with deadlines, retries, healing, rescue.

    One per :class:`~repro.serve.service.EvaluationService`; mutates the
    service's :class:`~repro.serve.service.ServiceStats` counters
    (``shard_retries`` / ``shard_timeouts`` / ``pool_rebuilds`` /
    ``inline_rescues``) so every recovery is observable. The executor is
    held by reference and recycled *in place* (see
    :meth:`~repro.serve.executors.ProcessExecutor.recycle`), so the service
    and the dispatcher always agree on the live pool.
    """

    def __init__(
        self,
        executor: Any,
        stats: Any,
        config: ResilienceConfig,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        self.executor = executor
        self.stats = stats
        self.config = config
        self.injector = injector
        #: Observability: the service's ``set_tracer`` replaces this no-op.
        #: A task's in-worker wall-clock (shipped back in its PointResult)
        #: becomes a worker-track "task" event with attempt attribution.
        self.tracer = NULL_TRACER

    # -- public entrypoints -------------------------------------------------

    def start(self, call: TaskCall) -> StartedTask:
        """Submit the first attempt and return without waiting.

        The fault-plan sequence number is assigned here, so sequence
        numbers follow the order tasks are *started* in.
        """
        call.seq = self.injector.assign_seq() if self.injector else -1
        return StartedTask(call, *self._submit(call, 0))

    def finish(self, started: StartedTask) -> PointResult:
        """Collect a started task, walking the retry → heal → rescue ladder.

        Raises a *permanent* error at once; transient failures are retried.
        """
        call, future, generation = started.call, started.future, started.generation
        attempt = 0
        while True:
            payload, reason = self._collect(call, future, generation, attempt)
            if reason is None:
                return payload
            if attempt >= self.config.shard_retries:
                return self._rescue(call)
            self.stats.shard_retries += 1
            self._backoff(attempt)
            attempt += 1
            future, generation = self._submit(call, attempt)

    # -- one attempt -------------------------------------------------------

    def _submit(self, call: TaskCall, attempt: int) -> tuple[Any, int]:
        """Submit one attempt: ``(future, pool generation)``.

        The pool generation (the executor's rebuild count once the future
        is queued) tells the collector whether a future that died did so in
        the pool that is live now or in one a heal already replaced.
        """
        fn, args = call.fn, call.args
        if self.injector is not None:
            fn, args = self.injector.wrap(
                call.seq, attempt, self.executor.kind == "process", fn, args
            )
        try:
            future = self.executor.submit(fn, *args)
        except BrokenProcessPool:
            # A lane broken since its last collection (a worker that died
            # idle, a rescue that ran without a final heal) refuses new
            # work at submit time; heal once and resubmit.
            self._heal_pool()
            future = self.executor.submit(fn, *args)
        return future, self._pool_generation()

    def _pool_generation(self) -> int:
        return getattr(self.executor, "rebuilds", 0)

    def _collect(
        self, call: TaskCall, future: Any, generation: int, attempt: int
    ) -> tuple[Optional[PointResult], Optional[BaseException]]:
        """Wait for one attempt: ``(payload, None)`` or ``(None, reason)``
        for a transient failure; a permanent error is raised.

        The time spent blocked on the future is the coordinator's *wait*
        (``stats.parallel_seconds``).
        """
        # The clock feeds stats.parallel_seconds, a timing counter excluded
        # from the byte-stable as_dict surface.
        blocked = time.perf_counter()
        try:
            payload = future.result(timeout=self.config.shard_timeout)
        except FuturesTimeoutError:
            self.stats.shard_timeouts += 1
            # The worker may be hung in its slot.
            self._heal_if_current(generation)
            return None, TaskTimeoutError(
                f"point task missed its {self.config.shard_timeout}s deadline"
            )
        except (BrokenProcessPool, CancelledError) as error:
            # The future's pool died under it — or a heal that ran while it
            # was queued (another task's) cancelled it with the old pool.
            # The task is as retryable as ever; the pool needs healing only
            # if it is still the one the future died in.
            self._heal_if_current(generation)
            return None, error
        except TransientServeError as error:
            return None, error
        finally:
            self.stats.parallel_seconds += time.perf_counter() - blocked
        if call.resolve is not None:
            try:
                payload = call.resolve(payload)
            except Exception as error:
                # A descriptor that cannot be resolved (unknown or
                # reclaimed segment) is substrate damage, transient by the
                # same purity argument as a mangled payload.
                return None, TaskPayloadError(
                    f"point task payload failed to resolve: {error}"
                )
        problem = self._payload_problem(call, payload)
        if problem is not None:
            # Coordinator-side classification: a mangled payload is a
            # substrate fault (bit rot, a confused worker), transient by
            # the same purity argument as a crash.
            return None, TaskPayloadError(problem)
        self._record(attempt, payload, rescued=False)
        return payload, None

    # -- the recovery ladder -------------------------------------------------

    def _heal_if_current(self, generation: int) -> None:
        if generation == self._pool_generation():
            self._heal_pool()

    def _heal_pool(self) -> None:
        if self.executor.kind != "process":
            return
        # recycle() runs the executor's recycle hooks (the service's lease
        # sweep and lane warm-up), so a healed pool strands nothing.
        self.executor.recycle()
        self.stats.pool_rebuilds += 1

    def _backoff(self, attempt: int) -> None:
        if self.config.retry_backoff > 0:
            time.sleep(self.config.retry_backoff * (2**attempt))

    def _rescue(self, call: TaskCall) -> PointResult:
        # The rescue closure re-runs the pure task on the coordinator,
        # outside the fault injector and the executor — bit-identical by
        # construction, sequential by necessity.
        payload = call.rescue()
        self.stats.inline_rescues += 1
        self._record(self.config.shard_retries, payload, rescued=True)
        return payload

    def _record(self, attempt: int, payload: PointResult, *, rescued: bool) -> None:
        """Turn a task's in-worker timing into a worker-track event."""
        if not self.tracer.enabled:
            return
        attrs: dict[str, Any] = {"attempt": attempt, "rescued": rescued}
        for stage in ("querygen", "sql", "storage", "aggregate"):
            attrs[f"{stage}_seconds"] = round(getattr(payload.timings, stage), 6)
        self.tracer.event("task", payload.elapsed_seconds, **attrs)

    # -- payload validation --------------------------------------------------

    @staticmethod
    def _payload_problem(call: TaskCall, payload: Any) -> Optional[str]:
        """Why this payload is unusable, or ``None`` if it is sound."""
        if not isinstance(payload, PointResult):
            return f"expected a PointResult, got {type(payload).__name__}"
        columns = np.asarray(payload.columns)
        if columns.shape != call.expected_shape:
            return (
                f"point task statistics have shape {columns.shape}, "
                f"expected {call.expected_shape}"
            )
        if not np.issubdtype(columns.dtype, np.number):
            return f"point task statistics dtype {columns.dtype} is not numeric"
        return None


__all__ = [
    "ResilienceConfig",
    "StartedTask",
    "TaskCall",
    "TaskDispatcher",
]
