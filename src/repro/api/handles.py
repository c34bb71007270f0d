"""The streaming sweep handles a :class:`~repro.api.ProphetClient` hands out.

``client.interactive()`` and ``client.optimize()`` return the mode drivers
themselves (:class:`~repro.core.online.OnlineSession`,
:class:`~repro.core.offline.OfflineOptimizer`); only sweeps need a handle:

* :class:`SweepHandle` — a **streaming** iterator over a scheduled sweep:
  each iteration runs exactly one queued job (in-flight duplicates
  coalesce, the result cache answers repeats) and yields its
  :class:`SweepResult` the moment it lands, so callers render progress
  without waiting for the whole grid;
* :class:`AdaptiveSweepHandle` — the same surface over the scheduler's CI
  budget allocator: each point runs its round ladder to its decision before
  the next point starts, and leaves the moment its confidence target resolves.

Both run on the client's scheduler and resolve identically under every
executor and worker count — bit-identical by the serve parity contract —
and neither owns private counters: :meth:`repro.api.ProphetClient.stats` is
the one stats surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.core.aggregator import AxisStatistics
from repro.core.engine import PointEvaluation, PointEvaluator
from repro.errors import ServeError
from repro.serve.scheduler import DONE, FAILED, AdaptiveSweepJob, Job, Scheduler


@dataclass(frozen=True)
class SweepResult:
    """One finished sweep point, yielded as soon as its job completes.

    The adaptive fields (``worlds_spent`` onward) are ``None`` on
    fixed-budget sweeps and populated by :class:`AdaptiveSweepHandle`.
    """

    index: int
    point: dict[str, Any]
    statistics: Optional[AxisStatistics]
    evaluation: Optional[PointEvaluation]
    deduplicated: bool  #: coalesced onto an identical in-flight job
    error: Optional[str]
    elapsed_seconds: float
    worlds_spent: Optional[int] = None
    rounds: Optional[int] = None
    max_ci: Optional[float] = None
    retired_early: Optional[bool] = None

    @property
    def ok(self) -> bool:
        return self.error is None


class _StreamingSweep:
    """What both sweep handles share: iterate to run, one result per entry.

    ``entries`` are the scheduler-side records (jobs or adaptive point
    evaluators), one per submitted point, each with an ``exception`` field. A
    subclass says how to advance the scheduler until entry *i* is final
    (:meth:`_settle`) and how to read its :class:`SweepResult`
    (:meth:`_result`).
    """

    def __init__(self, scheduler: Scheduler, entries: list) -> None:
        self._scheduler = scheduler
        self._entries = entries
        self.results: list[SweepResult] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[SweepResult]:
        return self

    def __next__(self) -> SweepResult:
        index = len(self.results)
        if index >= len(self._entries):
            raise StopIteration
        entry = self._entries[index]
        self._settle(entry)
        result = self._result(index, entry)
        self.results.append(result)
        return result

    def _settle(self, entry: Any) -> None:
        raise NotImplementedError

    def _result(self, index: int, entry: Any) -> SweepResult:
        raise NotImplementedError

    def run(self) -> list[SweepResult]:
        """Drain the whole sweep (the non-streaming spelling)."""
        for _ in self:
            pass
        return self.results

    @property
    def failures(self) -> list[SweepResult]:
        return [result for result in self.results if not result.ok]

    def raise_failures(self) -> None:
        """Re-raise the first failed point's original exception, if any."""
        for result in self.failures:
            exception = self._entries[result.index].exception
            if exception is not None:
                raise exception
            raise ServeError(f"sweep point {result.index} failed: {result.error}")


class SweepHandle(_StreamingSweep):
    """A streaming sweep: iterate to run, results arrive job by job.

    Jobs are queued at construction (so ``len(handle)`` is known up front
    and identical points have already coalesced); each ``next()`` steps the
    scheduler until the next submitted point — in submission order — has a
    result, then yields it. Coalesced followers resolve together with
    their primary, so a handle over N points always yields N results.

    Failed points yield a :class:`SweepResult` with ``error`` set instead
    of raising, so one bad point does not abort a long sweep; call
    :meth:`raise_failures` (or check ``result.ok``) for strictness.
    """

    def _settle(self, job: Job) -> None:
        while job.status not in (DONE, FAILED):
            if self._scheduler.run_next() is None:
                # Queue drained yet this job never resolved — a coalesced
                # follower whose primary was submitted outside this sweep
                # and never ran. Surface it rather than spinning.
                raise ServeError(
                    f"sweep job {job.id} never completed (status: {job.status})"
                )

    def _result(self, index: int, job: Job) -> SweepResult:
        return SweepResult(
            index=index,
            point=dict(job.request.point),
            statistics=job.result.statistics if job.result is not None else None,
            evaluation=job.result,
            deduplicated=job.coalesced_with is not None,
            error=job.error,
            elapsed_seconds=job.elapsed_seconds,
        )


class AdaptiveSweepHandle(_StreamingSweep):
    """A streaming *adaptive* sweep: points retire as their CI resolves.

    Mirrors :class:`SweepHandle` — iterate to run, one :class:`SweepResult`
    per submitted point, in submission order — but the work underneath is
    the scheduler's CI budget allocator: each pump runs one round of the
    earliest undecided point (points run their ladders one after another,
    in submission order), points whose target half-width is met retire
    early (freeing budget for unresolved points), and the yielded results
    carry the adaptive fields (``worlds_spent``, ``rounds``, ``max_ci``,
    ``retired_early``) and the summed time of the point's round jobs.

    A point is yielded once its outcome is final: converged, failed, or
    the allocator has spent everything it will ever spend on it. A point
    that converges or fails on the ladder therefore yields after its own
    rounds and its predecessors'; one that exhausts the plan unconverged
    yields only when the whole sweep is done — its budget could have grown
    until the very last reallocation — and holds back the results behind it.
    """

    def __init__(self, scheduler: Scheduler, sweep: AdaptiveSweepJob) -> None:
        super().__init__(scheduler, sweep.evaluators)
        self.sweep = sweep  #: escape hatch: budget, per-point evaluators

    def _settle(self, evaluator: PointEvaluator) -> None:
        # Final = no later round can change it: failed, converged on the
        # ladder, or the allocator is done (advance_adaptive returns False).
        plan = self.sweep.plan
        while not (
            evaluator.failed
            or (evaluator.converged and evaluator.worlds_spent <= plan.n_worlds)
        ):
            if not self._scheduler.advance_adaptive(self.sweep):
                break

    def _result(self, index: int, evaluator: PointEvaluator) -> SweepResult:
        evaluation = evaluator.result
        return SweepResult(
            index=index,
            point=dict(evaluator.point),
            statistics=evaluation.statistics if evaluation is not None else None,
            evaluation=evaluation,
            deduplicated=False,
            error=None if evaluator.exception is None else str(evaluator.exception),
            elapsed_seconds=evaluator.elapsed_seconds,
            worlds_spent=evaluator.worlds_spent,
            rounds=len(evaluator.rounds),
            max_ci=evaluator.max_ci,
            retired_early=evaluator.retired_early,
        )
