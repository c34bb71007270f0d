"""Shared-memory result transport for point tasks.

Over pickle, a point task's statistics come back through the
ProcessPoolExecutor's result pipe. With ``shard_transport="shm"`` they
come back through a named ``multiprocessing.shared_memory`` segment
instead:

* the coordinator's :class:`SegmentArena` leases one segment per task and
  reserves the task's result region in it;
* the task pickle carries only the region's :class:`SegmentRef` descriptor
  ``(segment, dtype, shape, offset)``;
* the worker attaches, writes the statistics into the region and returns
  the descriptor; the coordinator copies the region out and releases the
  lease.

This module is only about segments — the arena, leases and the reader. It
defines no task: :func:`repro.serve.worker.run_point` writes its result
through a :class:`SegmentReader`, so the worker module imports this one
and never the reverse.

The transport changes *where bytes live*, never *what they are*: the shm
path is bitwise identical to the pickle path (pinned by the parity
suites). Pickle remains the default and the automatic fallback: on a
platform without usable shared memory every task silently runs pickle,
counted as ``ServiceStats.transport_fallbacks``, never an error.

Leases are tied into the resilience ladder. A lease has exactly one owner
— the task that leased it — which releases it once collected (or on the
error path) however its attempts fared; retries re-use the same result
region safely because the dispatcher heals the pool — terminating any
stale writer — before re-submitting; inline rescues return plain
in-memory results and touch no segment at all. As a last-resort safety
net every lease carries a TTL, and expired leases are swept by the cleanup
hooks of :class:`~repro.serve.executors.ProcessExecutor`: once per recycle
(every :class:`~repro.serve.resilience.TaskDispatcher` pool heal is one)
and on shutdown.

CPython quirk this module absorbs: since 3.8 every ``SharedMemory``
*attach* registers the segment with the resource tracker. Forked workers
share the coordinator's tracker daemon (the arena ensures it is running
before any pool can fork), so their registrations are idempotent no-ops
and nothing special is needed; a *spawned* worker starts its own private
tracker, whose exit-time cleanup would unlink coordinator-owned segments
— so a process whose first attach had to start a tracker unregisters
right after attaching. Either way the coordinator's arena is the single
owner and the only unlinker.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.core.config import require
from repro.errors import ServeError, TransientServeError


#: Known task transports, in documentation order (the name predates point
#: tasks; it is the configuration field's).
SHARD_TRANSPORTS: tuple[str, ...] = ("pickle", "shm")

#: Segment packing alignment: every packed array starts on a 64-byte
#: boundary (cache line), so worker-side views are always aligned.
_ALIGN = 64


@dataclass(frozen=True)
class TransportConfig:
    """How point-task results travel from workers to the coordinator.

    ``shard_transport``
        ``"pickle"`` (default) ships results through the executor's
        ordinary pickling; ``"shm"`` writes each task's statistics into a
        leased shared-memory region and pickles only its descriptor.
    """

    shard_transport: str = field(
        default="pickle", metadata={"choices": SHARD_TRANSPORTS}
    )

    def __post_init__(self) -> None:
        require(
            self.shard_transport in SHARD_TRANSPORTS,
            f"unknown shard_transport {self.shard_transport!r} "
            f"(known: {', '.join(SHARD_TRANSPORTS)})",
        )

    @property
    def enabled(self) -> bool:
        return self.shard_transport == "shm"


@dataclass(frozen=True)
class SegmentRef:
    """A picklable descriptor of one array inside a shared segment."""

    segment: str
    dtype: str
    shape: tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count * np.dtype(self.dtype).itemsize


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


# Per-process platform probe: every process answers the same question
# about the same kernel, so divergence is only "this worker saw shm
# vanish" — the exact downgrade the probe exists for.
_SHM_PROBE: Optional[bool] = None


def shm_available() -> bool:
    """Can this platform create, attach and unlink shared memory segments?

    Probed once per process with a tiny throwaway segment. ``False`` (no
    ``/dev/shm``, sandboxed ``shm_open``, missing module) downgrades shm
    transport to pickle — counted, never an error.
    """
    global _SHM_PROBE
    if _SHM_PROBE is None:
        try:
            from multiprocessing import shared_memory

            probe = shared_memory.SharedMemory(create=True, size=_ALIGN)
            try:
                probe.buf[0] = 1
            finally:
                probe.close()
                probe.unlink()
            _SHM_PROBE = True
        except Exception:
            _SHM_PROBE = False
    return _SHM_PROBE


class SegmentLease:
    """One leased segment: a bump-pointer arena the coordinator packs.

    Created only by :meth:`SegmentArena.lease` and released by its one
    owner through :meth:`SegmentArena.release` (or reclaimed by the TTL
    sweeper if that owner leaked it).
    """

    __slots__ = ("name", "shm", "nbytes", "deadline", "_cursor")

    def __init__(self, shm: Any, nbytes: int, ttl: float) -> None:
        self.shm = shm
        self.name = shm.name
        self.nbytes = nbytes
        # Leak-reclaim TTL safety net; a lease's deadline never
        # influences evaluation results.
        self.deadline = time.monotonic() + ttl
        self._cursor = 0

    # -- packing -------------------------------------------------------------

    def pack(self, array: np.ndarray) -> SegmentRef:
        """Copy ``array`` into the segment; return its descriptor."""
        contiguous = np.ascontiguousarray(array)
        ref = self.reserve(contiguous.shape, contiguous.dtype)
        view = np.ndarray(
            contiguous.shape,
            dtype=contiguous.dtype,
            buffer=self.shm.buf,
            offset=ref.offset,
        )
        view[...] = contiguous
        del view
        return ref

    def reserve(self, shape: tuple[int, ...], dtype: Any) -> SegmentRef:
        """Claim an (aligned, uninitialized) region; return its descriptor.

        Used for result regions the *worker* writes — the coordinator
        never touches the bytes, only hands out the descriptor.
        """
        offset = _aligned(self._cursor)
        dt = np.dtype(dtype)
        count = 1
        for dim in shape:
            count *= dim
        end = offset + count * dt.itemsize
        if end > self.nbytes:
            raise ServeError(
                f"segment {self.name} overflow: need {end} of {self.nbytes} bytes"
            )
        self._cursor = end
        return SegmentRef(
            segment=self.name, dtype=dt.str, shape=tuple(shape), offset=offset
        )

    def view(self, ref: SegmentRef) -> np.ndarray:
        """A read view of a descriptor previously packed/reserved here."""
        if ref.segment != self.name:
            raise ServeError(
                f"descriptor names segment {ref.segment!r}, lease is {self.name!r}"
            )
        return np.ndarray(
            ref.shape, dtype=np.dtype(ref.dtype), buffer=self.shm.buf, offset=ref.offset
        )


class SegmentArena:
    """Coordinator-side owner of every leased shared-memory segment.

    The arena is the *single* unlink authority: workers attach and
    detach but never unlink (they unregister from the resource tracker
    precisely so they cannot). ``stats`` is any object with mutable
    ``segments_leased`` / ``segments_reclaimed`` int attributes — the
    service passes its :class:`~repro.serve.service.ServiceStats` so
    leak accounting is part of the stable counter surface.

    Releasing is two-phase because copied-out views may still reference the
    mapping when the service's ``finally`` runs: the segment is
    *unlinked* immediately (its name disappears — the leak-relevant
    event, counted as reclaimed) and the local mapping is closed as soon
    as no view pins it, retried opportunistically from every public
    call.
    """

    def __init__(self, ttl: float = 300.0, stats: Any = None) -> None:
        # Start the resource tracker *now*, before any process pool forks:
        # forked workers then inherit (share) it, and their attach-side
        # registrations stay idempotent instead of spawning private
        # trackers that would unlink our segments when the worker exits.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - platforms without a tracker
            pass
        self.ttl = ttl
        self.stats = stats
        self._leases: dict[str, SegmentLease] = {}
        self._deferred: list[Any] = []
        #: Arena-local counters (mirrored into ``stats`` when present).
        self.segments_leased = 0
        self.segments_reclaimed = 0
        self.segments_expired = 0

    # -- lease lifecycle -----------------------------------------------------

    def lease(self, nbytes: int) -> SegmentLease:
        """Lease a fresh named segment of at least ``nbytes`` bytes."""
        from multiprocessing import shared_memory

        self._drain_deferred()
        size = max(_ALIGN, nbytes)
        shm = shared_memory.SharedMemory(create=True, size=size)
        lease = SegmentLease(shm, size, self.ttl)
        self._leases[lease.name] = lease
        self.segments_leased += 1
        if self.stats is not None:
            self.stats.segments_leased += 1
        return lease

    def release(self, lease: SegmentLease) -> None:
        """Unlink the lease's segment (idempotent: the sweeper may race it)."""
        if lease.name in self._leases:
            self._reclaim(lease)
        self._drain_deferred()

    def release_all(self) -> None:
        """Unlink every live lease (service close / executor teardown)."""
        for lease in list(self._leases.values()):
            self._reclaim(lease)
        self._drain_deferred()

    def sweep_expired(self) -> int:
        """Reclaim leases past their TTL (the leak safety net); count them."""
        now = time.monotonic()
        expired = [lease for lease in self._leases.values() if lease.deadline < now]
        for lease in expired:
            self.segments_expired += 1
            self._reclaim(lease)
        self._drain_deferred()
        return len(expired)

    def live_segments(self) -> int:
        """Leased minus reclaimed — the leak assertion tests pin to zero."""
        return len(self._leases)

    # -- internals -----------------------------------------------------------

    def _reclaim(self, lease: SegmentLease) -> None:
        self._leases.pop(lease.name, None)
        try:
            lease.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - external unlink
            pass
        self.segments_reclaimed += 1
        if self.stats is not None:
            self.stats.segments_reclaimed += 1
        if not self._try_close(lease.shm):
            self._deferred.append(lease.shm)

    def _drain_deferred(self) -> None:
        still = [shm for shm in self._deferred if not self._try_close(shm)]
        self._deferred = still

    @staticmethod
    def _try_close(shm: Any) -> bool:
        try:
            shm.close()
            return True
        except BufferError:
            # A view still pins the mapping; the unlink already
            # happened (no leak), closing retries on the next arena call.
            return False


# -- worker side -------------------------------------------------------------


#: Decided at this process's first attach: did the attach have to start a
#: *private* resource tracker (spawned worker), whose exit-time cleanup
#: would unlink segments this process merely attached? If so, every
#: attach unregisters right away. Forked workers and the coordinator
#: share one pre-started tracker and must NOT unregister — the shared
#: cache holds one entry per segment, owned by the arena's unlink. The
#: answer is a property of this process's start method, never shared.
_PRIVATE_TRACKER: Optional[bool] = None


def _tracker_is_private() -> bool:
    global _PRIVATE_TRACKER
    if _PRIVATE_TRACKER is None:
        try:
            from multiprocessing import resource_tracker

            _PRIVATE_TRACKER = (
                getattr(resource_tracker._resource_tracker, "_pid", None) is None
            )
        except Exception:  # pragma: no cover - tracker API drift
            _PRIVATE_TRACKER = False
    return _PRIVATE_TRACKER


def _attach(name: str) -> Any:
    """Attach an existing segment without adopting its ownership.

    An unknown name means the coordinator already reclaimed the
    task's lease (a stale retry) — a transient substrate condition, so the
    resilience ladder handles it. See :data:`_PRIVATE_TRACKER` for the
    resource-tracker ownership rules this helper enforces.
    """
    from multiprocessing import shared_memory

    private = _tracker_is_private()  # decide BEFORE attach starts a tracker
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError as error:
        raise TransientServeError(
            f"task segment {name!r} is gone (lease reclaimed?)"
        ) from error
    if private:
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001
        except Exception:  # pragma: no cover - tracker API drift
            pass
    return shm


class SegmentReader:
    """One task's attachment cache: each named segment attaches once."""

    def __init__(self) -> None:
        self._segments: dict[str, Any] = {}

    def view(self, ref: SegmentRef) -> np.ndarray:
        shm = self._segments.get(ref.segment)
        if shm is None:
            shm = _attach(ref.segment)
            self._segments[ref.segment] = shm
        return np.ndarray(
            ref.shape, dtype=np.dtype(ref.dtype), buffer=shm.buf, offset=ref.offset
        )

    def close(self) -> None:
        """Close the attached segments (never unlinks)."""
        for shm in self._segments.values():
            try:
                shm.close()
            except BufferError:  # pragma: no cover - a view outlived its owner
                pass
        self._segments.clear()


__all__ = [
    "SHARD_TRANSPORTS",
    "SegmentArena",
    "SegmentLease",
    "SegmentReader",
    "SegmentRef",
    "TransportConfig",
    "shm_available",
]
