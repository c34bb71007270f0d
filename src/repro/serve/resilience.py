"""Fault tolerance for the shard fan-out: deadlines, retries, self-healing.

The serving plane's availability contract is that a faulty substrate may
cost *time*, never *answers*: shards are pure functions of
``(spec, point, world slice)``, so any shard that failed — a
crashed worker, a missed deadline, a mangled payload — can be re-run
anywhere, including inline on the coordinator, and produce the bit-identical
rows. :class:`ShardDispatcher` turns that purity into a recovery ladder,
applied round by round to a fan-out:

1. **deadline** — each shard result is awaited with a per-shard timeout
   (``shard_timeout``), so a hung worker costs one deadline, not the
   session;
2. **bounded retries** — shards that failed transiently (timeout, crash,
   broken pool, injected fault, garbage payload) are re-submitted for up
   to ``shard_retries`` further rounds, with deterministic exponential
   backoff between rounds;
3. **pool self-healing** — a round that saw a timeout or a
   ``BrokenProcessPool`` recycles the process pool (terminating stuck
   workers) before the next round, so one bad worker cannot poison every
   subsequent submission;
4. **inline rescue** — when retries are exhausted, surviving failures are
   re-run synchronously on the coordinator (``inline_rescue``), degrading
   the fan-out to sequential speed for those shards but never to a wrong
   or missing answer.

Permanent errors — anything not in the :class:`~repro.errors.
TransientServeError` branch, a broken pool, or a timeout — are *not*
retried: a deterministic bug recurs identically, so the dispatcher
collects every outstanding future (no leaked in-flight work) and
re-raises immediately.
"""

from __future__ import annotations

import time
from concurrent.futures import CancelledError
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.errors import (
    RetryExhaustedError,
    ShardPayloadError,
    ShardTimeoutError,
    TransientServeError,
)
from repro.core.config import require
from repro.obs.trace import NULL_TRACER
from repro.serve.faults import FaultInjector
from repro.serve.worker import ShardSample


@dataclass(frozen=True)
class ResilienceConfig:
    """Every knob of the fault-tolerance ladder, in one frozen section.

    The defaults are active — bounded retries, pool self-healing, and
    inline rescue all apply out of the box — but change nothing on a
    healthy substrate: with no deadline configured and no fault occurring,
    the dispatcher is a plain submit-and-collect loop.

    ``shard_timeout``
        Seconds to wait for one shard result before declaring it hung
        (``None`` = wait forever, the pre-resilience behavior).
    ``shard_retries``
        How many additional submission rounds a transiently-failed shard
        gets before the rescue ladder's last rung.
    ``retry_backoff``
        Base seconds slept between rounds, doubling each round —
        deterministic (no jitter), so chaos runs are reproducible.
    ``inline_rescue``
        Re-run still-failing shards synchronously on the coordinator after
        retries are exhausted. Bit-identical by shard purity; turning it
        off surfaces :class:`~repro.errors.RetryExhaustedError` instead.
    ``job_retries``
        How many times the :class:`~repro.serve.scheduler.Scheduler`
        re-runs a whole job that failed with a *transient* error
        (permanent failures surface as ``FAILED`` immediately).
    """

    shard_timeout: Optional[float] = None
    shard_retries: int = 2
    retry_backoff: float = 0.05
    inline_rescue: bool = True
    job_retries: int = 1

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
        require(
            self.job_retries >= 0,
            f"job_retries must be >= 0, got {self.job_retries}",
        )


@dataclass
class ShardCall:
    """One shard's unit of work, as the dispatcher sees it.

    ``fn(*args)`` is what goes to the executor (module-level and picklable
    for process pools — the service always sends
    :func:`~repro.serve.worker.run_shard` on a ``ShardTask``); ``rescue()``
    re-runs the same pure computation synchronously on the coordinator —
    the caller guarantees both produce the bit-identical
    :class:`~repro.serve.worker.ShardSample`.
    ``expected_rows`` lets the dispatcher validate payload shape without
    knowing anything else about the computation.
    """

    fn: Callable[..., Any]
    args: tuple[Any, ...]
    rescue: Callable[[], ShardSample]
    expected_rows: int
    expected_components: Optional[int] = None
    #: Transport hook: maps the raw executor payload into the usable one
    #: (the shm transport resolves a returned segment descriptor into a
    #: sample-matrix view). Applied before payload validation; a resolve
    #: failure is a transient substrate fault (the ladder re-runs the
    #: shard, ultimately inline where no resolution is needed).
    resolve: Optional[Callable[[Any], Any]] = None
    #: Assigned by the dispatcher: the global fault-plan sequence number.
    seq: int = field(default=-1, repr=False)


@dataclass
class StartedCalls:
    """A fan-out whose first attempts are submitted and not yet collected."""

    calls: Sequence[ShardCall]
    futures: list[tuple[int, Any, int]]


class ShardDispatcher:
    """Dispatch shard fan-outs with deadlines, retries, healing, rescue.

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
        #: Worker-side shard wall-clock (shipped back in each ShardSample)
        #: becomes worker-track "shard" events with attempt attribution.
        self.tracer = NULL_TRACER

    # -- public entrypoints -------------------------------------------------

    def dispatch(self, calls: Sequence[ShardCall]) -> list[ShardSample]:
        """Run every call to completion; results in call order."""
        return self.finish(self.start(calls))

    def start(self, calls: Sequence[ShardCall]) -> StartedCalls:
        """Submit every call's first attempt and return without waiting.

        Fault-plan sequence numbers are assigned here, in call order, so
        they follow the order generations are *started* in. Call ``i`` goes
        to executor lane ``i``: one shard index, one worker.
        """
        for call in calls:
            call.seq = self.injector.assign_seq() if self.injector else -1
        pending = list(range(len(calls)))
        return StartedCalls(calls, self._submit_round(calls, pending, 0))

    def finish(self, started: StartedCalls) -> list[ShardSample]:
        """Collect a started fan-out; results in call order.

        Raises the first *permanent* error encountered (after collecting
        every outstanding future of the round, so no in-flight work is
        leaked); transient failures walk the retry → heal → rescue ladder.
        """
        calls, futures = started.calls, started.futures
        results: list[Optional[ShardSample]] = [None] * len(calls)
        reasons: dict[int, BaseException] = {}
        attempt = 0
        while True:
            failed, permanent = self._collect_round(
                calls, futures, attempt, results, reasons
            )
            if permanent is not None:
                raise permanent
            if not failed:
                return results  # type: ignore[return-value]
            if attempt < self.config.shard_retries:
                self.stats.shard_retries += len(failed)
                self._backoff(attempt)
                attempt += 1
                futures = self._submit_round(calls, failed, attempt)
                continue
            return self._rescue(calls, failed, results, reasons)

    # -- one submission round ----------------------------------------------

    def _submit_round(
        self, calls: Sequence[ShardCall], pending: Sequence[int], attempt: int
    ) -> list[tuple[int, Any, int]]:
        """Submit ``pending`` calls: ``(index, future, pool generation)`` each.

        The pool generation (the executor's rebuild count once the future
        is queued) tells the collector whether a future that died did so in
        the pool that is live now or in one a heal already replaced.
        """
        submitted = []
        for index in pending:
            future = self._submit(calls[index], index, attempt)
            submitted.append((index, future, self._pool_generation()))
        return submitted

    def _pool_generation(self) -> int:
        return getattr(self.executor, "rebuilds", 0)

    def _collect_round(
        self,
        calls: Sequence[ShardCall],
        futures: Sequence[tuple[int, Any, int]],
        attempt: int,
        results: list[Optional[ShardSample]],
        reasons: dict[int, BaseException],
    ) -> tuple[list[int], Optional[BaseException]]:
        """Collect *every* future of one round and classify what came back.

        Returns (transiently-failed indices, first permanent error). All
        futures are always collected before returning — the error path may
        not leave work in flight (a leaked future would keep a pool slot
        busy and its result would arrive into nothing). The time spent
        blocked on the futures is the coordinator's *wait*
        (``stats.parallel_seconds``).
        """
        failed: list[int] = []
        permanent: Optional[BaseException] = None
        needs_heal = False
        for index, future, generation in futures:
            # repro-lint: disable=DET001 -- feeds stats.parallel_seconds, a
            # timing counter excluded from the byte-stable as_dict surface.
            blocked = time.perf_counter()
            try:
                payload = future.result(timeout=self.config.shard_timeout)
            except FuturesTimeoutError:
                self.stats.shard_timeouts += 1
                reasons[index] = ShardTimeoutError(
                    f"shard missed its {self.config.shard_timeout}s deadline"
                )
                failed.append(index)
                # The worker may be hung in its slot.
                needs_heal |= generation == self._pool_generation()
                continue
            except (BrokenProcessPool, CancelledError) as error:
                # The future's pool died under it — or a heal that ran while
                # it was queued (another generation's, or this round's own
                # submit finding a broken lane) cancelled it with the old
                # pool. The shard is as retryable as ever; the pool needs
                # healing only if it is still the one the future died in.
                reasons[index] = error
                failed.append(index)
                needs_heal |= generation == self._pool_generation()
                continue
            except TransientServeError as error:
                reasons[index] = error
                failed.append(index)
                continue
            except Exception as error:  # permanent: collect the rest, then raise
                if permanent is None:
                    permanent = error
                continue
            finally:
                # repro-lint: disable=DET001 -- observability only (see above).
                self.stats.parallel_seconds += time.perf_counter() - blocked
            if calls[index].resolve is not None:
                try:
                    payload = calls[index].resolve(payload)
                except Exception as error:
                    # A descriptor that cannot be resolved (unknown or
                    # reclaimed segment) is substrate damage, transient by
                    # the same purity argument as a mangled payload.
                    reasons[index] = ShardPayloadError(
                        f"shard payload failed to resolve: {error}"
                    )
                    failed.append(index)
                    continue
            problem = self._payload_problem(calls[index], payload)
            if problem is not None:
                # Coordinator-side classification: a mangled payload is a
                # substrate fault (bit rot, a confused worker), transient
                # by the same purity argument as a crash.
                reasons[index] = ShardPayloadError(problem)
                failed.append(index)
                continue
            results[index] = payload
            self._record_shard(index, attempt, payload, rescued=False)
        if needs_heal:
            self._heal_pool()
        return failed, permanent

    def _submit(self, call: ShardCall, index: int, attempt: int) -> Any:
        fn, args = call.fn, call.args
        if self.injector is not None:
            fn, args = self.injector.wrap(
                call.seq, attempt, self.executor.kind == "process", fn, args
            )
        try:
            return self.executor.submit(fn, *args, lane=index)
        except BrokenProcessPool:
            # A lane broken since its last collection (a worker that died
            # idle, a rescue that ran without a final heal) refuses new
            # work at submit time; heal once and resubmit.
            self._heal_pool()
            return self.executor.submit(fn, *args, lane=index)

    # -- the recovery ladder -------------------------------------------------

    def _heal_pool(self) -> None:
        if self.executor.kind != "process":
            return
        # recycle() runs the executor's recycle hooks — the service's
        # expired-lease sweep among them — so a healed pool strands nothing.
        self.executor.recycle()
        self.stats.pool_rebuilds += 1

    def _backoff(self, attempt: int) -> None:
        if self.config.retry_backoff > 0:
            time.sleep(self.config.retry_backoff * (2**attempt))

    def _rescue(
        self,
        calls: Sequence[ShardCall],
        failed: Sequence[int],
        results: list[Optional[ShardSample]],
        reasons: dict[int, BaseException],
    ) -> list[ShardSample]:
        if not self.config.inline_rescue:
            last = reasons.get(failed[-1])
            raise RetryExhaustedError(
                f"{len(failed)} shard(s) still failing after "
                f"{self.config.shard_retries + 1} attempt(s) and inline "
                f"rescue is disabled (last failure: {last})"
            )
        for index in failed:
            # The rescue closure re-runs the pure shard computation on the
            # coordinator, outside the fault injector and the executor —
            # bit-identical by construction, sequential by necessity.
            payload = calls[index].rescue()
            results[index] = payload
            self.stats.inline_rescues += 1
            self._record_shard(
                index, self.config.shard_retries, payload, rescued=True
            )
        return results  # type: ignore[return-value]

    def _record_shard(
        self, index: int, attempt: int, payload: ShardSample, *, rescued: bool
    ) -> None:
        """Turn a shard's worker-side timing into a worker-track event."""
        if not self.tracer.enabled:
            return
        attrs: dict[str, Any] = {
            "shard": index,
            "attempt": attempt,
            "rescued": rescued,
        }
        for stage, seconds in payload.timing:
            attrs[f"{stage}_seconds"] = round(seconds, 6)
        self.tracer.event("shard", payload.elapsed_seconds, **attrs)

    # -- payload validation --------------------------------------------------

    @staticmethod
    def _payload_problem(call: ShardCall, payload: Any) -> Optional[str]:
        """Why this payload is unusable, or ``None`` if it is sound."""
        if not isinstance(payload, ShardSample):
            return f"expected a ShardSample, got {type(payload).__name__}"
        samples = np.asarray(payload.samples)
        if samples.ndim != 2 or samples.shape[0] != call.expected_rows:
            return (
                f"shard payload has shape {samples.shape}, expected "
                f"({call.expected_rows}, n_components)"
            )
        if (
            call.expected_components is not None
            and samples.shape[1] != call.expected_components
        ):
            return (
                f"shard payload has {samples.shape[1]} components, "
                f"expected {call.expected_components}"
            )
        if not np.issubdtype(samples.dtype, np.number):
            return f"shard payload dtype {samples.dtype} is not numeric"
        return None


#: Re-exported for callers that want to raise it themselves.
__all__ = [
    "ResilienceConfig",
    "ShardCall",
    "ShardDispatcher",
    "ShardPayloadError",
    "ShardTimeoutError",
]
