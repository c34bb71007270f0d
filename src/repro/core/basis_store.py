"""Tiered bounded basis storage: memory tier + disk spill tier.

The Storage Manager's economy (paper Figure 1, stage 3) is to keep basis
distributions around so later evaluations reuse instead of re-simulate.
Unbounded retention defeats the point at scale — a week-long sweep holds
millions of sample matrices while only a working set is hot. This module
bounds the resident state:

* **memory tier** — an LRU-ordered map capped by basis count
  (``basis_cap``) and by total resident sample bytes (``byte_cap``);
* **disk tier** — entries evicted from memory spill to one ``.npz`` file
  each under ``spill_dir`` (the :mod:`repro.core.persistence` array format,
  args encoded type-preservingly via :mod:`repro.core.argcodec`) and fault
  back transparently on exact or fingerprint-mapped hits;
* **degraded miss** — with no spill directory, eviction drops the samples;
  a later request for them is an ordinary fresh-sampling miss, never an
  error. Unreadable spill files degrade the same way (the tier is an
  optimization layer and fails open, like the serve result cache).

Spill metadata (which worlds an entry covers) stays in memory, so coverage
filtering during candidate selection never faults entries back just to
reject them. A store pointed at a previously used ``spill_dir`` indexes the
existing files on startup, which is what lets warm restarts reuse a
previous run's disk tier.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

from repro.core.argcodec import decode_args, encode_args
from repro.errors import FingerprintError
from repro.obs.trace import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (storage imports us)
    from repro.core.storage import BasisEntry

#: Spill-file layout version (independent of the persistence archive version).
_SPILL_FORMAT_VERSION = 1

#: A store key: ``(vg_name_lowercase, model_args_tuple)``.
StoreKey = tuple


@dataclass
class BasisTierStats:
    """Counters for one tiered store (CLI ``--stats`` / benchmarks read these)."""

    evictions: int = 0  #: entries pushed out of the memory tier
    spills: int = 0  #: evictions that wrote a new spill file
    faults: int = 0  #: spilled entries loaded back into memory on demand
    dropped: int = 0  #: evictions with no disk tier — degraded to future misses
    failed_faults: int = 0  #: unreadable spill files, degraded to misses

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass(frozen=True)
class SpillRecord:
    """In-memory index entry for one spilled basis."""

    path: str
    worlds: tuple[int, ...]
    n_bytes: int


class TieredBasisStore:
    """Bounded LRU memory tier over an optional npz disk tier."""

    def __init__(
        self,
        basis_cap: Optional[int] = None,
        byte_cap: Optional[int] = None,
        spill_dir: Optional[str] = None,
    ) -> None:
        if basis_cap is not None and basis_cap < 1:
            raise FingerprintError(f"basis_cap must be >= 1, got {basis_cap}")
        if byte_cap is not None and byte_cap < 1:
            raise FingerprintError(f"byte_cap must be >= 1, got {byte_cap}")
        self.basis_cap = basis_cap
        self.byte_cap = byte_cap
        self.spill_dir = str(spill_dir) if spill_dir is not None else None
        #: Entries in insertion order. Enumeration (candidate ranking,
        #: persistence) reads this, matching the plain-dict
        #: store this tier replaced — recency must not perturb tie-breaks.
        self._memory: dict[StoreKey, BasisEntry] = {}
        #: The same keys in recency order (LRU first); eviction reads this.
        self._recency: "OrderedDict[StoreKey, None]" = OrderedDict()
        self._spilled: dict[StoreKey, SpillRecord] = {}
        #: Keys whose memory copy is byte-identical to their spill file
        #: (faulted back, not modified since) — eviction skips the rewrite.
        self._clean: set[StoreKey] = set()
        #: Keys adopted from a pre-existing spill dir: foreign content whose
        #: world seeds and shape must be validated before serving (see
        #: StorageManager._adoption_valid / adopted_seeds_valid); entries
        #: this process stored are trusted and skip those checks.
        self._adopted: set[StoreKey] = set()
        self._resident_bytes = 0
        self.stats = BasisTierStats()
        #: Observability: replaced by the engine's ``set_tracer``; spill
        #: writes and disk faults show up as "spill" / "fault" spans.
        self.tracer = NULL_TRACER
        if self.spill_dir is not None:
            os.makedirs(self.spill_dir, exist_ok=True)
            self._index_spill_dir()

    # -- observability -----------------------------------------------------

    @property
    def resident_count(self) -> int:
        """Entries currently held in the memory tier."""
        return len(self._memory)

    @property
    def resident_bytes(self) -> int:
        """Total sample bytes currently held in the memory tier."""
        return self._resident_bytes

    @property
    def spilled_count(self) -> int:
        """Entries currently reachable only through the disk tier."""
        return sum(1 for key in self._spilled if key not in self._memory)

    def __len__(self) -> int:
        """Distinct known bases across both tiers."""
        return len(self._memory) + self.spilled_count

    # -- read --------------------------------------------------------------

    def get(self, key: StoreKey) -> Optional["BasisEntry"]:
        """Fetch an entry, faulting it back from disk if it was spilled.

        Returns ``None`` for unknown keys and for spilled entries whose file
        is gone or unreadable (those degrade to misses, never errors).
        """
        entry = self._memory.get(key)
        if entry is not None:
            self._recency.move_to_end(key)
            return entry
        record = self._spilled.get(key)
        if record is None:
            return None
        with self.tracer.span(
            "fault", vg=str(key[0]), bytes=record.n_bytes
        ) as span:
            entry = self._read_spill(record)
            if entry is None:
                del self._spilled[key]
                self.stats.failed_faults += 1
                span.set(failed=True)
                return None
        self.stats.faults += 1
        self._insert(key, entry, clean=True)
        return entry

    def peek_worlds(self, key: StoreKey) -> Optional[tuple[int, ...]]:
        """Which worlds ``key`` covers, from either tier, without faulting."""
        entry = self._memory.get(key)
        if entry is not None:
            return entry.worlds
        record = self._spilled.get(key)
        return record.worlds if record is not None else None

    def keys(self) -> tuple[StoreKey, ...]:
        """All known keys: memory tier (insertion order), then spilled-only."""
        memory = tuple(self._memory)
        spilled = tuple(k for k in self._spilled if k not in self._memory)
        return memory + spilled

    def is_adopted(self, key: StoreKey) -> bool:
        """Was this key's content adopted from a pre-existing spill dir?"""
        return key in self._adopted

    def items(self) -> Iterator[tuple[StoreKey, "BasisEntry"]]:
        """Iterate every readable entry; spilled ones are read without promotion."""
        yield from self._memory.items()
        for key, record in self._spilled.items():
            if key in self._memory:
                continue
            entry = self._read_spill(record)
            if entry is not None:
                yield key, entry

    # -- write -------------------------------------------------------------

    def put(self, key: StoreKey, entry: "BasisEntry") -> None:
        """Insert or replace an entry; evicts LRU overflow past the caps."""
        # The new content supersedes any spill file for this key, and
        # content this process produced is trusted (no seed validation).
        self._spilled.pop(key, None)
        self._adopted.discard(key)
        self._insert(key, entry, clean=False)

    def discard(self, key: StoreKey) -> None:
        """Forget one key entirely (both tiers; any spill file stays on disk).

        Used to expel adopted entries that failed seed validation — they
        can never serve this store's engine, and leaving them would fault
        the same unusable matrix from disk on every acquire.
        """
        entry = self._memory.pop(key, None)
        if entry is not None:
            self._resident_bytes -= entry.samples.nbytes
        self._recency.pop(key, None)
        self._spilled.pop(key, None)
        self._clean.discard(key)
        self._adopted.discard(key)

    def clear(self) -> None:
        """Forget both tiers (spill files are left on disk) and counters."""
        self._memory.clear()
        self._recency.clear()
        self._spilled.clear()
        self._clean.clear()
        self._adopted.clear()
        self._resident_bytes = 0
        self.stats = BasisTierStats()

    # -- internals ---------------------------------------------------------

    def _insert(self, key: StoreKey, entry: "BasisEntry", *, clean: bool) -> None:
        old = self._memory.get(key)
        if old is not None:
            # In-place replacement keeps the key's enumeration position,
            # exactly like assignment into the plain dict this replaces.
            self._resident_bytes -= old.samples.nbytes
        self._memory[key] = entry
        self._recency[key] = None
        self._recency.move_to_end(key)
        self._resident_bytes += entry.samples.nbytes
        if clean:
            self._clean.add(key)
        else:
            self._clean.discard(key)
        self._shrink()

    def _over_caps(self) -> bool:
        if self.basis_cap is not None and len(self._memory) > self.basis_cap:
            return True
        if self.byte_cap is not None and self._resident_bytes > self.byte_cap:
            return True
        return False

    def _shrink(self) -> None:
        while self._memory and self._over_caps():
            key, _ = self._recency.popitem(last=False)
            entry = self._memory.pop(key)
            self._resident_bytes -= entry.samples.nbytes
            self.stats.evictions += 1
            if key in self._clean and key in self._spilled:
                pass  # disk copy is current; nothing to write
            elif self.spill_dir is not None:
                try:
                    with self.tracer.span(
                        "spill", vg=str(key[0]), bytes=entry.samples.nbytes
                    ):
                        self._spilled[key] = self._write_spill(key, entry)
                    self.stats.spills += 1
                except Exception:
                    # Disk full, dir gone, unencodable args: the write path
                    # fails open exactly like the read path — the entry is
                    # dropped and degrades to a future fresh miss.
                    self._spilled.pop(key, None)
                    self.stats.dropped += 1
            else:
                self.stats.dropped += 1
            self._clean.discard(key)

    # -- disk tier ---------------------------------------------------------

    def _spill_path(self, key: StoreKey) -> str:
        vg_name, args = key
        digest = hashlib.sha256(
            json.dumps([vg_name, encode_args(args)]).encode("utf-8")
        ).hexdigest()
        return os.path.join(self.spill_dir, f"basis_{digest[:40]}.npz")

    def _write_spill(self, key: StoreKey, entry: "BasisEntry") -> SpillRecord:
        header = {
            "format_version": _SPILL_FORMAT_VERSION,
            "vg_name": entry.vg_name,
            "args": encode_args(entry.args),
            # Recorded so startup indexing never decompresses the samples.
            "n_bytes": int(entry.samples.nbytes),
        }
        path = self._spill_path(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as handle:
                np.savez_compressed(
                    handle,
                    samples=entry.samples,
                    worlds=np.asarray(entry.worlds, dtype=np.int64),
                    seeds=np.asarray(entry.seeds, dtype=np.uint64),
                    header=np.frombuffer(
                        json.dumps(header).encode("utf-8"), dtype=np.uint8
                    ),
                )
            os.replace(tmp, path)
        except BaseException:
            # A failed write (disk full) must not leave a partial tmp file
            # consuming exactly the space that is already scarce.
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        return SpillRecord(
            path=path, worlds=entry.worlds, n_bytes=entry.samples.nbytes
        )

    def _read_spill(self, record: SpillRecord) -> Optional["BasisEntry"]:
        from repro.core.storage import BasisEntry

        try:
            with np.load(record.path) as archive:
                header = json.loads(bytes(archive["header"]).decode("utf-8"))
                if header.get("format_version") != _SPILL_FORMAT_VERSION:
                    return None
                return BasisEntry(
                    vg_name=str(header["vg_name"]),
                    args=decode_args(header["args"]),
                    samples=np.asarray(archive["samples"], dtype=float),
                    worlds=tuple(int(w) for w in archive["worlds"]),
                    seeds=tuple(int(s) for s in archive["seeds"]),
                )
        except Exception:
            return None

    def _index_spill_dir(self) -> None:
        """Adopt spill files a previous run (or another process) left behind."""
        for name in sorted(os.listdir(self.spill_dir)):
            if not (name.startswith("basis_") and name.endswith(".npz")):
                continue
            path = os.path.join(self.spill_dir, name)
            try:
                with np.load(path) as archive:
                    header = json.loads(bytes(archive["header"]).decode("utf-8"))
                    if header.get("format_version") != _SPILL_FORMAT_VERSION:
                        continue
                    key = (
                        str(header["vg_name"]).lower(),
                        decode_args(header["args"]),
                    )
                    worlds = tuple(int(w) for w in archive["worlds"])
                    # The header carries the sample size, so indexing only
                    # touches the two tiny members, never the matrix.
                    n_bytes = int(header["n_bytes"])
            except Exception:
                continue  # unreadable file: ignore, it would fail open anyway
            self._spilled[key] = SpillRecord(
                path=path, worlds=worlds, n_bytes=n_bytes
            )
            self._adopted.add(key)


__all__ = [
    "BasisTierStats",
    "SpillRecord",
    "TieredBasisStore",
]
