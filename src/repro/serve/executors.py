"""Shard executors: where shard sampling tasks actually run.

Two interchangeable backends behind one ``submit`` interface:

* :class:`ProcessExecutor` — one single-worker
  ``concurrent.futures.ProcessPoolExecutor`` per worker, a *lane*. A task
  submitted with ``lane=i`` always runs in worker ``i mod workers``, so
  shard *i* of every fan-out meets the same process: its engine is built
  once (from an :class:`~repro.serve.worker.EngineSpec`) and the per-seed
  memos it fills for its world slice are never redrawn by a neighbour.
  The lanes are *recyclable*: a crashed or hung worker is healed by
  :meth:`ProcessExecutor.recycle`, which tears every lane down
  (terminating stuck processes) and builds fresh ones in place — the
  executor object's identity, and everyone holding it, stays stable.
* :class:`InlineExecutor` — runs tasks synchronously in the calling
  process. The fallback for tests, debugging, single-core machines, and
  engines that cannot be described by a spec (closures are fine here
  because nothing is pickled).

Both return future-like objects exposing ``result(timeout=None)``, and
both shut down in bounded time: ``shutdown`` never waits forever on a
stuck worker, so ``EvaluationService.close()`` (and the ``ProphetClient``
context exit above it) always returns.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable, Optional

from repro.errors import ServeError


def _run_hooks(hooks: list) -> None:
    """Run cleanup hooks; a failing hook never masks the teardown itself."""
    for hook in hooks:
        try:
            hook()
        except Exception:  # pragma: no cover - cleanup is best-effort
            pass


class InlineFuture:
    """Already-resolved future: the task ran synchronously at submit.

    ``timeout`` is accepted for interface symmetry with real futures and
    ignored — the result is, by construction, already here.
    """

    __slots__ = ("_value", "_error")

    def __init__(self, value: Any = None, error: Optional[BaseException] = None) -> None:
        self._value = value
        self._error = error

    def result(self, timeout: Optional[float] = None) -> Any:
        if self._error is not None:
            raise self._error
        return self._value


class InlineExecutor:
    """Synchronous in-process executor (tests, debug, 1-core fallback)."""

    kind = "inline"

    def __init__(self) -> None:
        self.workers = 1
        self.tasks_run = 0
        self._teardown_hooks: list[Callable[[], None]] = []

    def submit(
        self, fn: Callable[..., Any], *args: Any, lane: Optional[int] = None
    ) -> InlineFuture:
        # ``lane`` names a worker; there is only this process.
        self.tasks_run += 1
        try:
            return InlineFuture(fn(*args))
        except Exception as error:  # surfaced on .result(), like a real future
            return InlineFuture(error=error)

    def add_teardown_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` on shutdown (transport arenas release segments here)."""
        self._teardown_hooks.append(hook)

    def shutdown(self, timeout: float = 5.0) -> None:  # interface symmetry
        _run_hooks(self._teardown_hooks)


class ProcessExecutor:
    """Process executor: one long-lived single-worker lane per worker.

    ``start_method`` defaults to ``fork`` where available (workers inherit
    the imported package instantly) and ``spawn`` elsewhere; either way the
    submitted task must be a module-level function with picklable arguments
    — see :mod:`repro.serve.worker`.
    """

    kind = "process"

    def __init__(self, workers: Optional[int] = None, start_method: Optional[str] = None) -> None:
        cpus = os.cpu_count() or 1
        self.workers = max(1, workers if workers is not None else cpus)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._mp_context = multiprocessing.get_context(start_method)
        self._lanes: Optional[list[ProcessPoolExecutor]] = self._new_lanes()
        self.tasks_run = 0
        #: How many times the lanes were rebuilt (self-healing observability).
        self.rebuilds = 0
        #: Cleanup hooks (see :meth:`add_recycle_hook` / :meth:`add_teardown_hook`):
        #: the shm transport registers its lease sweeper / arena release so
        #: pool churn can never strand shared-memory segments.
        self._recycle_hooks: list[Callable[[], None]] = []
        self._teardown_hooks: list[Callable[[], None]] = []

    def add_recycle_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` after every :meth:`recycle` (pool self-heal)."""
        self._recycle_hooks.append(hook)

    def add_teardown_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` after :meth:`shutdown` tears the lanes down."""
        self._teardown_hooks.append(hook)

    def _new_lanes(self) -> list[ProcessPoolExecutor]:
        return [
            ProcessPoolExecutor(max_workers=1, mp_context=self._mp_context)
            for _ in range(self.workers)
        ]

    def submit(
        self, fn: Callable[..., Any], *args: Any, lane: Optional[int] = None
    ) -> Future:
        """Queue ``fn(*args)`` on worker ``lane mod workers``.

        Tasks of one lane run in submission order in one process. Without
        a ``lane`` the lanes take turns. The lane is routing only — it is
        not part of what the worker receives.
        """
        if self._lanes is None:
            raise ServeError("executor is shut down; cannot submit new tasks")
        if lane is None:
            lane = self.tasks_run
        self.tasks_run += 1
        return self._lanes[lane % self.workers].submit(fn, *args)

    def recycle(self, timeout: float = 1.0) -> None:
        """Heal the pool: tear every lane down (killing stuck workers), rebuild.

        The replacement lanes live behind the same executor object, so a
        service (and its dispatcher) holding this executor keeps working
        without re-plumbing. Tasks still queued on a lane are cancelled and
        tasks running are lost with their worker; whoever holds such a
        future sees :class:`~concurrent.futures.CancelledError` or
        ``BrokenProcessPool`` — both transient to the dispatcher, and
        shard purity makes re-submission bit-identical.
        """
        self._teardown(self._lanes, timeout)
        self._lanes = self._new_lanes()
        self.rebuilds += 1
        _run_hooks(self._recycle_hooks)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Bounded shutdown: never blocks forever on a stuck worker.

        Cancels queued tasks, gives live workers ``timeout`` seconds total
        to drain, then terminates (and, as a last resort, kills) whatever
        is still running. Idempotent; ``submit`` after shutdown raises.
        """
        lanes, self._lanes = self._lanes, None
        self._teardown(lanes, timeout)
        _run_hooks(self._teardown_hooks)

    @staticmethod
    def _teardown(lanes: Optional[list[ProcessPoolExecutor]], timeout: float) -> None:
        """Stop every lane's worker; ``timeout`` bounds them all together."""
        if not lanes:
            return
        # Snapshot the worker processes before shutdown clears its books.
        processes = [
            process
            for pool in lanes
            for process in (getattr(pool, "_processes", None) or {}).values()
        ]
        for pool in lanes:
            # Never wait=True here: a worker hung inside a task would block
            # the join forever. cancel_futures drops everything still queued.
            pool.shutdown(wait=False, cancel_futures=True)
        # Teardown deadline for killing hung workers; runs after all
        # results are in, never affects them.
        deadline = time.monotonic() + max(0.0, timeout)
        for process in processes:
            process.join(max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
        for process in processes:
            if process.is_alive():
                process.join(1.0)
            if process.is_alive():
                process.kill()
                process.join(1.0)

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()


def create_executor(kind: str = "auto", workers: Optional[int] = None):
    """Build an executor: ``"process"``, ``"inline"``, or ``"auto"``.

    ``auto`` picks a process pool when more than one worker is requested
    (or available) and the inline executor otherwise.
    """
    if kind == "inline":
        return InlineExecutor()
    if kind == "process":
        return ProcessExecutor(workers)
    if kind == "auto":
        effective = workers if workers is not None else (os.cpu_count() or 1)
        if effective <= 1:
            return InlineExecutor()
        return ProcessExecutor(effective)
    raise ServeError(f"unknown executor kind {kind!r} (use process/inline/auto)")
