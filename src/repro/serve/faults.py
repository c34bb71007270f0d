"""Deterministic fault injection for the serving plane.

The chaos harness behind the resilience tests and benchmarks: a
:class:`FaultPlan` names exactly which dispatched point tasks fail and how
— crash the worker, hang it, raise a transient exception, or return a
garbage payload — and fires *deterministically*, keyed on the task's
global sequence number and attempt count, never on wall-clock or shared
mutable state. That keying is what makes injection work under a real
``ProcessPoolExecutor``: the plan is a small frozen picklable value shipped
with every task, so a retried task (attempt 1) dispatched to a different
worker process still sees the same verdict the plan gave it, with no
cross-process coordination.

Faults model the substrate, not the computation: point tasks are pure
functions of their inputs, so any injected fault the dispatcher survives
must leave the statistics bit-identical to the fault-free run — the property
the chaos suite pins.

:func:`run_with_fault` is the task wrapper the dispatcher submits; it is a
module-level function (picklable) that applies the plan's verdict and then
runs the real task. ``in_worker`` says whether a "crash" may genuinely
kill the process (`os._exit`) or must be simulated by raising
:class:`~repro.errors.WorkerCrashError` (inline executors run in the
coordinator process, which an ``os._exit`` would take down with them).
"""

from __future__ import annotations

import itertools
import os
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import ServeError, TransientServeError, WorkerCrashError

#: The injectable fault kinds.
FAULT_KINDS: tuple[str, ...] = ("crash", "hang", "raise", "garbage")

#: What a "garbage" fault returns instead of a PointResult. A plain string
#: — picklable, and guaranteed to fail the dispatcher's payload validation.
GARBAGE_PAYLOAD = "<<garbage task payload>>"


class FaultInjected(TransientServeError):
    """The transient exception a ``"raise"`` fault throws inside a task."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: which task, what kind, for how many attempts.

    ``attempts`` is how many consecutive attempts of the task fail before
    the fault clears: 1 (the default) models a one-off transient glitch —
    the first retry succeeds; a value above the dispatcher's retry budget
    models a stuck fault that forces inline rescue (or, with rescue off,
    retry exhaustion).
    """

    task: int
    kind: str
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ServeError(
                f"unknown fault kind {self.kind!r} (known: {', '.join(FAULT_KINDS)})"
            )
        if self.task < 0:
            raise ServeError(f"fault task index must be >= 0, got {self.task}")
        if self.attempts < 1:
            raise ServeError(f"fault attempts must be >= 1, got {self.attempts}")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, picklable schedule of injected faults.

    ``faults`` are matched against the global task sequence number the
    :class:`FaultInjector` assigns (0 for the first point task the service
    ever dispatches, 1 for the second, ...); the first matching spec wins.
    ``hang_seconds`` is how long a ``"hang"`` fault sleeps — point it above
    the dispatcher's deadline to exercise timeout expiry, or near zero to
    make a hang a harmless delay.
    """

    faults: tuple[FaultSpec, ...] = ()
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.hang_seconds < 0:
            raise ServeError(
                f"hang_seconds must be >= 0, got {self.hang_seconds}"
            )

    def fault_for(self, task_seq: int, attempt: int) -> Optional[str]:
        """The fault kind to inject for this (task, attempt), if any."""
        for spec in self.faults:
            if spec.task == task_seq and attempt < spec.attempts:
                return spec.kind
        return None

    def __len__(self) -> int:
        return len(self.faults)

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        tasks: int,
        rate: float = 0.25,
        kinds: tuple[str, ...] = ("raise", "garbage"),
        attempts: int = 1,
        hang_seconds: float = 30.0,
    ) -> "FaultPlan":
        """A reproducible random plan over the first ``tasks`` sequence
        numbers: each is faulted with probability ``rate``, with a kind
        drawn from ``kinds``. Same seed, same plan — always."""
        rng = random.Random(seed)
        faults = tuple(
            FaultSpec(task=index, kind=rng.choice(list(kinds)), attempts=attempts)
            for index in range(tasks)
            if rng.random() < rate
        )
        return cls(faults=faults, hang_seconds=hang_seconds)


def run_with_fault(
    plan: FaultPlan,
    task_seq: int,
    attempt: int,
    in_worker: bool,
    fn: Callable[..., Any],
    *args: Any,
) -> Any:
    """Apply the plan's verdict for one task, then run the real task.

    Module-level and picklable, so it travels through a process pool as the
    submitted function with the plan in its arguments. A ``"hang"`` sleeps
    and then *continues normally* — exactly what a stalled-but-alive worker
    does — so without a deadline it is only a delay, and with one the
    coordinator times out while the worker is still burning its slot.
    """
    kind = plan.fault_for(task_seq, attempt)
    if kind == "crash":
        if in_worker:
            os._exit(13)
        raise WorkerCrashError(
            f"injected worker crash at task {task_seq} (attempt {attempt})"
        )
    if kind == "hang":
        time.sleep(plan.hang_seconds)
    elif kind == "raise":
        raise FaultInjected(
            f"injected transient fault at task {task_seq} (attempt {attempt})"
        )
    elif kind == "garbage":
        return GARBAGE_PAYLOAD
    return fn(*args)


class FaultInjector:
    """Coordinator-side bookkeeping for one service's fault plan.

    Assigns every dispatched point task its global sequence number (in the
    order tasks are started, which is deterministic: requests in submission
    order) and wraps submissions through
    :func:`run_with_fault`. ``injected`` counts planned injections by kind
    — observability for tests; it counts verdicts handed out, including
    ones a crashed pool never got to execute.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._seq = itertools.count()
        self.injected: dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    def assign_seq(self) -> int:
        """The next global task sequence number (one per task; retries keep
        their task's original number)."""
        return next(self._seq)

    def wrap(
        self,
        task_seq: int,
        attempt: int,
        in_worker: bool,
        fn: Callable[..., Any],
        args: tuple[Any, ...],
    ) -> tuple[Callable[..., Any], tuple[Any, ...]]:
        """The (function, args) to actually submit for one task attempt."""
        kind = self.plan.fault_for(task_seq, attempt)
        if kind is not None:
            self.injected[kind] += 1
        return run_with_fault, (self.plan, task_seq, attempt, in_worker, fn) + tuple(
            args
        )
