"""Job scheduler: many logical sessions sharing one evaluation service.

Sessions — interactive :class:`~repro.core.online.OnlineSession` users,
:class:`~repro.core.offline.OfflineOptimizer` sweeps, CLI batch runs —
submit point-evaluation and sweep jobs to one :class:`Scheduler`. The
scheduler:

* **deduplicates identical in-flight points**: a job whose request key
  (:meth:`~repro.core.engine.ProphetEngine.request`: point, worlds, reuse)
  matches a queued or running job coalesces onto it and receives the same
  result when it completes;
* drives every evaluation through the shared
  :class:`~repro.serve.service.EvaluationService`, so all sessions benefit
  from the same coordinator reuse layers, worker pool, and result cache;
* runs adaptive sweeps through a CI budget allocator, every round a
  regular job.

A mode driver joins by taking :meth:`Scheduler.evaluate` as its
``evaluate=`` callable (``functools.partial(scheduler.evaluate,
session=...)``) over the coordinator engine ``scheduler.service.engine``.

Results are handed out in FIFO order: ``run_next`` completes the oldest
pending job, so the same submissions always produce the same evaluations
in the same order. On a process pool ``reuse=False`` jobs are point tasks,
and the scheduler keeps two in flight per worker (one running, one queued
behind it): running a job first starts the tasks of the jobs queued right
behind it. That moves no decision — a ``reuse=False`` evaluation reads and
writes no coordinator state, so it may run in any order, anywhere — while
``reuse=True`` jobs run on the coordinator in their turn.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Sequence

from repro.core.engine import PointEvaluation, PointEvaluator, Request
from repro.core.rounds import RoundPlan
from repro.errors import ServeError
from repro.obs.trace import NULL_TRACER
from repro.serve.service import EvaluationService, StartedPoint

#: Job lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


@dataclass
class Job:
    """One point-evaluation request from one logical session."""

    id: int
    session: str
    request: Request
    status: str = PENDING
    result: Optional[PointEvaluation] = None
    error: Optional[str] = None
    #: The original exception of a failed job (``error`` is its rendering).
    exception: Optional[BaseException] = field(default=None, repr=False)
    #: id of the identical in-flight job this one coalesced onto, if any.
    coalesced_with: Optional[int] = None
    elapsed_seconds: float = 0.0

    @property
    def done(self) -> bool:
        return self.status == DONE

    def evaluation(self) -> PointEvaluation:
        if self.result is None:
            raise ServeError(
                f"job {self.id} has no result (status: {self.status})"
            )
        return self.result


@dataclass
class AdaptiveSweepJob:
    """An adaptive sweep: one round evaluator per point plus the shared budget.

    Each :class:`~repro.core.engine.PointEvaluator` is its point's whole
    record — rounds, worlds spent, convergence, failure, job time; ``done``
    turns true once the allocator has nothing left to run.
    """

    id: int
    session: str
    plan: RoundPlan
    target_ci: float
    z: float
    reuse: bool
    evaluators: list[PointEvaluator] = field(default_factory=list)
    done: bool = False
    _driver: Optional[Any] = field(default=None, repr=False)

    @property
    def worlds_budgeted(self) -> int:
        return self.plan.n_worlds * len(self.evaluators)

    @property
    def worlds_spent(self) -> int:
        return sum(evaluator.worlds_spent for evaluator in self.evaluators)


class JobQueue:
    """FIFO queue with an index of in-flight jobs by canonical key."""

    def __init__(self) -> None:
        self._pending: deque[Job] = deque()
        self._inflight: dict[tuple, Job] = {}

    def __len__(self) -> int:
        return len(self._pending)

    def find_inflight(self, key: tuple) -> Optional[Job]:
        return self._inflight.get(key)

    def push(self, job: Job) -> None:
        self._pending.append(job)
        self._inflight[job.request.key] = job

    def ahead(self, count: int) -> list[Job]:
        """The next ``count`` jobs :meth:`pop` would return, left queued."""
        return list(itertools.islice(self._pending, count))

    def pop(self) -> Optional[Job]:
        if not self._pending:
            return None
        job = self._pending.popleft()
        job.status = RUNNING
        return job

    def finish(self, job: Job) -> None:
        if self._inflight.get(job.request.key) is job:
            del self._inflight[job.request.key]


class Scheduler:
    """Accepts jobs from many sessions; drives them through one service.

    ``history_limit`` bounds :attr:`completed` and the adaptive sweeps
    :meth:`adaptive_report` lists: finished jobs and sweeps (whose results
    hold full sample matrices) are archived in rings so a long-lived
    scheduler serving interactive sessions does not grow without bound.
    ``jobs_completed`` and the adaptive world counters count them all.

    A job runs once: the service's task dispatcher already retries, heals
    and rescues its point task, so a failure that reaches a job is marked
    ``FAILED``.
    """

    def __init__(self, service: EvaluationService, history_limit: int = 256) -> None:
        self.service = service
        self.queue = JobQueue()
        self._ids = itertools.count(1)
        self._followers: dict[int, list[Job]] = {}
        self.completed: deque[Job] = deque(maxlen=history_limit)
        self.jobs_completed = 0
        self.dedup_hits = 0
        #: Adaptive sampling counters: points retired before their fixed
        #: budget, worlds actually evaluated vs worlds the fixed budget
        #: would have spent. All deterministic (no wall-clock involved).
        self.jobs_retired_early = 0
        self.worlds_spent = 0
        self.worlds_budgeted = 0
        self._adaptive_sweeps: deque[AdaptiveSweepJob] = deque(maxlen=history_limit)
        #: Point tasks started ahead of their job's turn, by job id (see
        #: :meth:`_start_ahead`).
        self._started: dict[int, StartedPoint] = {}
        #: Observability: job lifecycle spans; the API client replaces this
        #: shared no-op when tracing is configured.
        self.tracer = NULL_TRACER

    # -- submission --------------------------------------------------------

    def submit(
        self,
        point: Mapping[str, Any] | Request,
        *,
        worlds: Optional[Sequence[int]] = None,
        session: str = "default",
        reuse: bool = True,
    ) -> Job:
        """Queue one point evaluation; identical in-flight points coalesce.

        The engine normalises the request here, once (a request it would
        reject raises and never coalesces onto a job it only resembles);
        the job carries it to the service as it stands.
        """
        request = self.service.engine.request(point, worlds, reuse)
        job = Job(id=next(self._ids), session=session, request=request)
        primary = self.queue.find_inflight(request.key)
        if primary is not None:
            self.dedup_hits += 1
            job.coalesced_with = primary.id
            self._followers.setdefault(primary.id, []).append(job)
            return job
        self.queue.push(job)
        return job

    def submit_sweep(
        self,
        points: Optional[Iterable[Mapping[str, Any]]] = None,
        *,
        worlds: Optional[Sequence[int]] = None,
        session: str = "default",
        reuse: bool = True,
    ) -> list[Job]:
        """Queue one job per point (default: the full axis-excluded grid)."""
        scenario = self.service.scenario
        if points is None:
            points = scenario.space.grid(exclude=[scenario.axis])
        jobs = [
            self.submit(point, worlds=worlds, session=session, reuse=reuse)
            for point in points
        ]
        if not jobs:
            raise ServeError("sweep has no points")
        return jobs

    def submit_adaptive(
        self,
        points: Optional[Iterable[Mapping[str, Any]]] = None,
        *,
        target_ci: float,
        plan: Optional[RoundPlan] = None,
        z: float = 1.96,
        session: str = "default",
        reuse: bool = True,
    ) -> AdaptiveSweepJob:
        """Queue an adaptive sweep driven by the CI budget allocator.

        Each point runs in growing world-prefix rounds (``plan`` defaults to
        :meth:`RoundPlan.over` the engine's worlds) and retires once its
        worst CI half-width is at most ``target_ci``; budget retired points
        did not spend is reassigned to unresolved points. Every round is a regular scheduler
        job — it flows through the same queue, dedup and service as a
        fixed-budget evaluation.

        Stopping decisions are pure functions of the accumulated statistics
        (which are bitwise identical across executors and worker counts),
        so identical submissions retire identical points after identical
        rounds on every run.
        """
        scenario = self.service.scenario
        if points is None:
            points = scenario.space.grid(exclude=[scenario.axis])
        if target_ci <= 0.0:
            raise ServeError(f"target_ci must be > 0, got {target_ci}")
        chosen_plan = plan if plan is not None else RoundPlan.over(
            self.service.engine.config.sampling.n_worlds
        )
        sweep = AdaptiveSweepJob(
            id=next(self._ids),
            session=session,
            plan=chosen_plan,
            target_ci=target_ci,
            z=z,
            reuse=reuse,
        )
        for index, point in enumerate(points):
            sweep.evaluators.append(
                PointEvaluator(
                    self.service.engine,
                    self.service.engine.request(point, reuse=reuse),
                    plan=chosen_plan,
                    target_ci=target_ci,
                    z=z,
                    evaluate=self._round_evaluate(sweep, index),
                    tracer=self.tracer,
                )
            )
        if not sweep.evaluators:
            raise ServeError("sweep has no points")
        self.worlds_budgeted += sweep.worlds_budgeted
        sweep._driver = self._drive_adaptive(sweep)
        self._adaptive_sweeps.append(sweep)
        return sweep

    def advance_adaptive(self, sweep: AdaptiveSweepJob) -> bool:
        """Run the allocator's next round — the next round of the earliest
        undecided point, then reallocation rounds; False once the sweep is done.

        The streaming primitive behind ``repro.api``'s adaptive sweep
        handle, mirroring what :meth:`run_next` is for fixed sweeps.
        """
        if sweep._driver is None:
            raise ServeError("not an adaptive sweep submitted to this scheduler")
        try:
            next(sweep._driver)
            return True
        except StopIteration:
            sweep.done = True
            return False

    def run_adaptive(self, sweep: AdaptiveSweepJob) -> AdaptiveSweepJob:
        """Drive an adaptive sweep to completion (blocking)."""
        while self.advance_adaptive(sweep):
            pass
        return sweep

    def _round_evaluate(self, sweep: AdaptiveSweepJob, index: int):
        """A :class:`PointEvaluator` ``evaluate`` callable that routes one
        round :class:`Request` of ``sweep.evaluators[index]`` through the job
        queue — so dedup and the service's resilience ladder apply to every
        round unchanged — and books the job's time on the point."""

        def evaluate(request: Request) -> PointEvaluation:
            job = self.submit(request, session=sweep.session)
            while job.status in (PENDING, RUNNING):
                if self.run_next() is None:
                    raise ServeError(
                        f"queue drained with round job {job.id} unresolved"
                    )
            sweep.evaluators[index].elapsed_seconds += job.elapsed_seconds
            if job.status == FAILED:
                if job.exception is not None:
                    raise job.exception
                raise ServeError(f"round evaluation failed: {job.error}")
            return job.evaluation()

        return evaluate

    def _drive_adaptive(self, sweep: AdaptiveSweepJob):
        """The budget allocator (a generator: one yield per completed round,
        and one when a ladder round fails, so the failure is reported at once).

        Phase 1 — the ladder, one point at a time in submission order: a
        point steps through its round plan until its target half-width is
        met (it retires and frees its unspent budget), the plan is spent or
        a round fails, and only then does the next point start — a point is
        decided after its own rounds, not everyone's. Phase 2 —
        reallocation, once every point has left the ladder: the freed pool
        extends unresolved points past the plan, in submission order, one
        geometric-growth round at a time, until the pool is dry or every
        point resolves. A point whose round evaluation fails (permanently)
        is marked failed and frees nothing; the sweep continues.

        The scheduler's ``worlds_spent`` books a point's ladder spend once
        it leaves the ladder unfailed, and every reallocation round's
        increment (a point failing there keeps its ladder spend).

        The order of rounds decides no outcome: stopping reads a point's own
        statistics, and a basis is reused only if it covers the world prefix.
        """
        plan = sweep.plan
        for evaluator in sweep.evaluators:
            while not (evaluator.finished or evaluator.failed):
                if self._step(evaluator) and evaluator.finished:
                    self.worlds_spent += evaluator.worlds_spent
                    self.jobs_retired_early += evaluator.retired_early
                yield evaluator
        pool = sum(
            plan.n_worlds - evaluator.worlds_spent
            for evaluator in sweep.evaluators
            if evaluator.retired_early
        )
        progressed = True
        while pool > 0 and progressed:
            progressed = False
            unresolved = [
                evaluator
                for evaluator in sweep.evaluators
                if not (evaluator.failed or evaluator.converged)
            ]
            for evaluator in unresolved:
                if pool <= 0:
                    break
                spent = evaluator.worlds_spent
                if self._step(evaluator, min(plan.next_boundary(spent), spent + pool)):
                    added = evaluator.worlds_spent - spent
                    pool -= added
                    self.worlds_spent += added
                    progressed = True
                    yield evaluator

    @staticmethod
    def _step(evaluator: PointEvaluator, prefix: Optional[int] = None) -> bool:
        """One round for one point; a failure stays on the evaluator."""
        try:
            evaluator.step(prefix=prefix)
            return True
        except Exception:  # noqa: BLE001 — recorded per point
            return False

    def adaptive_report(self) -> Optional[dict[str, Any]]:
        """Per-point adaptive outcomes, or ``None`` if never used.

        Optional by design: fixed-budget runs must keep byte-identical
        stats output, so this only exists once an adaptive sweep ran.
        """
        if not self._adaptive_sweeps:
            return None
        points: list[dict[str, Any]] = []
        for sweep in self._adaptive_sweeps:
            for evaluator in sweep.evaluators:
                points.append(
                    {
                        "point": dict(evaluator.point),
                        "worlds_spent": evaluator.worlds_spent,
                        "rounds": len(evaluator.rounds),
                        "max_ci": evaluator.max_ci,
                        "converged": evaluator.converged,
                        "retired_early": evaluator.retired_early,
                        "failed": evaluator.failed,
                    }
                )
        return {
            "target_ci": self._adaptive_sweeps[-1].target_ci,
            "worlds_budgeted": self.worlds_budgeted,
            "worlds_spent": self.worlds_spent,
            "jobs_retired_early": self.jobs_retired_early,
            "points": points,
        }

    # -- execution ---------------------------------------------------------

    def run_next(self) -> Optional[Job]:
        """Run the oldest pending job to completion; ``None`` when idle.

        The streaming primitive behind ``repro.api``'s sweep handle: callers
        step the queue one job at a time and consume each result as it
        lands, instead of blocking on the whole sweep. Coalesced followers
        complete together with their primary, exactly as in
        :meth:`run_pending` (which is this, in a loop).
        """
        job = self.queue.pop()
        if job is None:
            return None
        # The clock feeds Job.elapsed_seconds, an observability field;
        # scheduling decisions never read it.
        started = time.perf_counter()
        with self.tracer.span("job", job=job.id, session=job.session) as span:
            try:
                job.result = self._evaluate(job)
                job.status = DONE
            except Exception as error:  # noqa: BLE001 — recorded on the job
                # The service's dispatcher already retried, healed and
                # rescued the job's task: what reaches here is final.
                job.status = FAILED
                job.error = str(error)
                job.exception = error
            span.set(status=job.status)
        job.elapsed_seconds = time.perf_counter() - started
        self.queue.finish(job)
        for follower in self._followers.pop(job.id, ()):
            follower.result = job.result
            follower.status = job.status
            follower.error = job.error
            follower.exception = job.exception
        self.completed.append(job)
        self.jobs_completed += 1
        return job

    def _evaluate(self, job: Job) -> PointEvaluation:
        """Run ``job``. On a process pool a ``reuse=False`` job is a point
        task — started ahead of its turn or right here — and the tasks of
        the jobs behind it are started before this one is waited for;
        anything else is the service's own ``evaluate``."""
        task = self._started.pop(job.id, None)
        if task is None and self.service.pooled and not job.request.reuse:
            task = self.service.start(job.request)
        self._start_ahead()
        if task is not None:
            return self.service.finish(task)
        return self.service.evaluate(job.request)

    def _start_ahead(self) -> None:
        """Keep every worker busy: start the tasks of the ``reuse=False``
        jobs among the next ``2 * workers - 1`` queued ones, so each worker
        has a task queued behind the one it runs. With only one task per
        worker, a worker that finished before the oldest task sat idle until
        the coordinator collected that one.

        A task that cannot be started here is left to its own job, whose
        turn starts it again and records any error on that job.
        """
        if not self.service.pooled:
            return
        for ahead in self.queue.ahead(2 * self.service.executor.workers - 1):
            if ahead.request.reuse or ahead.id in self._started:
                continue
            try:
                self._started[ahead.id] = self.service.start(ahead.request)
            except Exception:  # noqa: BLE001 — raised again in the job's turn
                return

    def run_pending(self) -> list[Job]:
        """Drain the queue; returns the jobs completed by this call."""
        finished: list[Job] = []
        while True:
            job = self.run_next()
            if job is None:
                break
            finished.append(job)
        return finished

    def evaluate(
        self,
        point: Mapping[str, Any],
        *,
        worlds: Optional[Sequence[int]] = None,
        session: str = "default",
        reuse: bool = True,
    ) -> PointEvaluation:
        """Submit one point and run the queue to completion (blocking).

        A failed evaluation re-raises the original exception, so callers
        see the same error types the sequential path would raise.
        """
        job = self.submit(point, worlds=worlds, session=session, reuse=reuse)
        self.run_pending()
        if job.status == FAILED:
            if job.exception is not None:
                raise job.exception
            raise ServeError(f"evaluation failed: {job.error}")
        return job.evaluation()
