"""Tiered bounded basis storage: memory tier + disk spill tier.

The Storage Manager's economy (paper Figure 1, stage 3) is to keep basis
distributions around so later evaluations reuse instead of re-simulate.
Unbounded retention defeats the point at scale — a week-long sweep holds
millions of sample matrices while only a working set is hot. This module
bounds the resident state:

* **memory tier** — an LRU-ordered map capped by basis count
  (``basis_cap``) and by total resident sample bytes (``byte_cap``);
* **disk tier** — entries evicted from memory spill to one basis file
  each under ``spill_dir`` and fault back transparently on exact or
  fingerprint-mapped hits;
* **degraded miss** — with no spill directory, eviction drops the samples;
  a later request for them is an ordinary fresh-sampling miss, never an
  error. Unreadable spill files degrade the same way (the tier is an
  optimization layer and fails open, like the serve result cache).

A basis file is the one on-disk form of a basis: a compressed ``.npz``
holding ``samples``, ``worlds``, ``seeds`` and a JSON ``header`` (format
version, model name, args encoded type-preservingly via
:mod:`repro.core.argcodec`, sample bytes). A file written by
:func:`repro.core.persistence.save_bases` also carries the basis's
``fingerprint`` and the header's ``probe_spec``; readers treat both as
optional. Spill metadata (which worlds an entry covers) stays in memory, so
coverage filtering during candidate selection never faults entries back
just to reject them. :meth:`TieredBasisStore.adopt` indexes a directory of
basis files — a previous run's ``spill_dir`` at startup, or a saved
directory — without reading any sample matrix.

Every basis read from a file passes the store's ``admit`` rule before it
first serves; one that fails is dropped and counted as a failed fault.
Bases put by this process are never re-checked.

Both tiers are kept per model name, so candidate selection reads one
model's keys (:meth:`TieredBasisStore.model_keys`) without enumerating the
others.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

import numpy as np

from repro.core.argcodec import decode_args, encode_args
from repro.core.atomic import atomic_write
from repro.core.fingerprint.fingerprint import Fingerprint, FingerprintSpec
from repro.errors import FingerprintError
from repro.obs.trace import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (storage imports us)
    from repro.core.fingerprint.registry import ParamKey
    from repro.core.storage import BasisEntry

#: Basis-file layout version. The fingerprint members are optional, so
#: files with and without them share it.
_BASIS_FILE_VERSION = 1

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
    """Bounded LRU memory tier over an optional npz disk tier.

    ``admit`` is the trust rule: it sees every entry read from a file and
    returns whether that entry may serve.
    """

    def __init__(
        self,
        admit: Callable[["BasisEntry"], bool],
        basis_cap: Optional[int] = None,
        byte_cap: Optional[int] = None,
        spill_dir: Optional[str] = None,
    ) -> None:
        if basis_cap is not None and basis_cap < 1:
            raise FingerprintError(f"basis_cap must be >= 1, got {basis_cap}")
        if byte_cap is not None and byte_cap < 1:
            raise FingerprintError(f"byte_cap must be >= 1, got {byte_cap}")
        self.admit = admit
        self.basis_cap = basis_cap
        self.byte_cap = byte_cap
        self.spill_dir = str(spill_dir) if spill_dir is not None else None
        #: Per model name, its entries in insertion order. Enumeration
        #: (candidate ranking, persistence) reads this, matching the
        #: plain-dict store this tier replaced — recency must not perturb
        #: tie-breaks.
        self._memory: dict[str, dict[ParamKey, BasisEntry]] = {}
        #: Every resident key in recency order (LRU first); eviction reads this.
        self._recency: "OrderedDict[StoreKey, None]" = OrderedDict()
        #: Per model name, its spill records.
        self._spilled: dict[str, dict[ParamKey, SpillRecord]] = {}
        #: Keys whose memory copy is byte-identical to their spill file
        #: (faulted back, not modified since) — eviction skips the rewrite.
        self._clean: set[StoreKey] = set()
        self._resident_bytes = 0
        self.stats = BasisTierStats()
        #: Observability: replaced by the engine's ``set_tracer``; spill
        #: writes and disk faults show up as "spill" / "fault" spans.
        self.tracer = NULL_TRACER
        if self.spill_dir is not None:
            os.makedirs(self.spill_dir, exist_ok=True)

    # -- observability -----------------------------------------------------

    @property
    def resident_count(self) -> int:
        """Entries currently held in the memory tier."""
        return len(self._recency)

    @property
    def resident_bytes(self) -> int:
        """Total sample bytes currently held in the memory tier."""
        return self._resident_bytes

    @property
    def spilled_count(self) -> int:
        """Entries currently reachable only through the disk tier."""
        return sum(
            1
            for vg_name, records in self._spilled.items()
            for args in records
            if args not in self._memory.get(vg_name, {})
        )

    def __len__(self) -> int:
        """Distinct known bases across both tiers."""
        return self.resident_count + self.spilled_count

    # -- read --------------------------------------------------------------

    def get(self, key: StoreKey) -> Optional["BasisEntry"]:
        """Fetch an entry, faulting it back from disk if it was spilled.

        Returns ``None`` for unknown keys and for spilled entries whose file
        is gone, unreadable or refused by ``admit`` (those are dropped and
        degrade to misses, never errors).
        """
        entry = self.resident(key)
        if entry is not None:
            self._recency.move_to_end(key)
            return entry
        record = self._spilled.get(key[0], {}).get(key[1])
        if record is None:
            return None
        with self.tracer.span(
            "fault", vg=str(key[0]), bytes=record.n_bytes
        ) as span:
            entry = self._load(key, record)
            if entry is None:
                span.set(failed=True)
                return None
        self.stats.faults += 1
        self._insert(key, entry, clean=True)
        return entry

    def resident(self, key: StoreKey) -> Optional["BasisEntry"]:
        """The memory tier's entry for ``key``, without faulting or recency."""
        return self._memory.get(key[0], {}).get(key[1])

    def peek_worlds(self, key: StoreKey) -> Optional[tuple[int, ...]]:
        """Which worlds ``key`` covers, from either tier, without faulting."""
        entry = self.resident(key)
        if entry is not None:
            return entry.worlds
        record = self._spilled.get(key[0], {}).get(key[1])
        return record.worlds if record is not None else None

    def model_keys(self, vg_name: str) -> Iterator[tuple[ParamKey, tuple[int, ...]]]:
        """``vg_name``'s (lowercase) args, each with the worlds it covers:
        memory tier (insertion order), then spilled-only."""
        memory = self._memory.get(vg_name, {})
        for args, entry in memory.items():
            yield args, entry.worlds
        for args, record in self._spilled.get(vg_name, {}).items():
            if args not in memory:
                yield args, record.worlds

    def keys(self) -> tuple[StoreKey, ...]:
        """All known keys, model by model in :meth:`model_keys` order."""
        return tuple(
            (vg_name, args)
            for vg_name in {**self._memory, **self._spilled}
            for args, _ in self.model_keys(vg_name)
        )

    def items(self) -> Iterator[tuple[StoreKey, "BasisEntry"]]:
        """Iterate every servable entry; spilled ones are read without promotion."""
        for vg_name, memory in self._memory.items():
            for args, entry in memory.items():
                yield (vg_name, args), entry
        for vg_name, records in self._spilled.items():
            for args, record in list(records.items()):
                if args in self._memory.get(vg_name, {}):
                    continue
                entry = self._load((vg_name, args), record)
                if entry is not None:
                    yield (vg_name, args), entry

    # -- write -------------------------------------------------------------

    def put(self, key: StoreKey, entry: "BasisEntry") -> None:
        """Insert or replace an entry; evicts LRU overflow past the caps."""
        # The new content supersedes any spill file for this key.
        self._drop_spilled(key)
        self._insert(key, entry, clean=False)

    def adopt(self, directory: str) -> list[tuple[StoreKey, Optional[Fingerprint]]]:
        """Index the basis files in ``directory``; returns what it adopted.

        Each adopted key comes with the fingerprint its file carries, or
        ``None``. Only the header, ``worlds`` and ``fingerprint`` members are
        read — never a sample matrix, so the trust rule runs when a basis is
        first read. A file that cannot be indexed is skipped, and a key this
        store already holds is never replaced. A directory that cannot be
        listed raises ``OSError``.
        """
        adopted = []
        for name in sorted(os.listdir(directory)):
            if not (name.startswith("basis_") and name.endswith(".npz")):
                continue
            path = os.path.join(directory, name)
            try:
                with np.load(path) as archive:
                    header = _header(archive)
                    key = (str(header["vg_name"]).lower(), decode_args(header["args"]))
                    if self.peek_worlds(key) is not None:
                        continue
                    record = SpillRecord(
                        path=path,
                        worlds=tuple(int(w) for w in archive["worlds"]),
                        # The header carries the sample size, so indexing
                        # never decompresses the matrix.
                        n_bytes=int(header["n_bytes"]),
                    )
                    fingerprint = _fingerprint(archive, header, key)
            except Exception:
                continue  # unreadable file: ignore, it would fail open anyway
            self._set_spilled(key, record)
            adopted.append((key, fingerprint))
        return adopted

    def clear(self) -> None:
        """Forget both tiers (spill files are left on disk) and counters."""
        self._memory.clear()
        self._recency.clear()
        self._spilled.clear()
        self._clean.clear()
        self._resident_bytes = 0
        self.stats = BasisTierStats()

    # -- internals ---------------------------------------------------------

    def _insert(self, key: StoreKey, entry: "BasisEntry", *, clean: bool) -> None:
        memory = self._memory.setdefault(key[0], {})
        old = memory.get(key[1])
        if old is not None:
            # In-place replacement keeps the key's enumeration position,
            # exactly like assignment into the plain dict this replaces.
            self._resident_bytes -= old.samples.nbytes
        memory[key[1]] = entry
        self._recency[key] = None
        self._recency.move_to_end(key)
        self._resident_bytes += entry.samples.nbytes
        if clean:
            self._clean.add(key)
        else:
            self._clean.discard(key)
        self._shrink()

    def _over_caps(self) -> bool:
        if self.basis_cap is not None and self.resident_count > self.basis_cap:
            return True
        if self.byte_cap is not None and self._resident_bytes > self.byte_cap:
            return True
        return False

    def _shrink(self) -> None:
        while self._recency and self._over_caps():
            key, _ = self._recency.popitem(last=False)
            entry = self._memory[key[0]].pop(key[1])
            self._resident_bytes -= entry.samples.nbytes
            self.stats.evictions += 1
            if key in self._clean and key[1] in self._spilled.get(key[0], {}):
                pass  # disk copy is current; nothing to write
            elif self.spill_dir is not None:
                try:
                    with self.tracer.span(
                        "spill", vg=str(key[0]), bytes=entry.samples.nbytes
                    ):
                        self._set_spilled(key, self._write_spill(key, entry))
                    self.stats.spills += 1
                except Exception:
                    # Disk full, dir gone, unencodable args: the write path
                    # fails open exactly like the read path — the entry is
                    # dropped and degrades to a future fresh miss.
                    self._drop_spilled(key)
                    self.stats.dropped += 1
            else:
                self.stats.dropped += 1
            self._clean.discard(key)

    def _set_spilled(self, key: StoreKey, record: SpillRecord) -> None:
        self._spilled.setdefault(key[0], {})[key[1]] = record

    def _drop_spilled(self, key: StoreKey) -> None:
        self._spilled.get(key[0], {}).pop(key[1], None)

    # -- disk tier ---------------------------------------------------------

    def _write_spill(self, key: StoreKey, entry: "BasisEntry") -> SpillRecord:
        return write_basis_file(self.spill_dir, key, entry)

    def _load(self, key: StoreKey, record: SpillRecord) -> Optional["BasisEntry"]:
        """Read a spilled entry through ``admit``; a failure drops the key."""
        entry = _read_basis_file(record.path)
        if (
            entry is None
            # The file must hold the key it is indexed under (compared
            # encoded, so a NaN arg still matches itself).
            or entry.vg_name.lower() != key[0]
            or encode_args(entry.args) != encode_args(key[1])
            or not self.admit(entry)
        ):
            self._drop_spilled(key)
            self.stats.failed_faults += 1
            return None
        return entry


def basis_file_path(directory: str, key: StoreKey) -> str:
    """Where the basis file for ``key`` lives in ``directory``."""
    vg_name, args = key
    digest = hashlib.sha256(
        json.dumps([vg_name, encode_args(args)]).encode("utf-8")
    ).hexdigest()
    return os.path.join(directory, f"basis_{digest[:40]}.npz")


def write_basis_file(
    directory: str,
    key: StoreKey,
    entry: "BasisEntry",
    fingerprint: Optional[Fingerprint] = None,
) -> SpillRecord:
    """Write one basis file atomically; returns its index record."""
    header: dict[str, Any] = {
        "format_version": _BASIS_FILE_VERSION,
        "vg_name": entry.vg_name,
        "args": encode_args(entry.args),
        # Recorded so indexing never decompresses the samples.
        "n_bytes": int(entry.samples.nbytes),
    }
    members = {
        "samples": entry.samples,
        "worlds": np.asarray(entry.worlds, dtype=np.int64),
        "seeds": np.asarray(entry.seeds, dtype=np.uint64),
    }
    if fingerprint is not None:
        header["probe_spec"] = [fingerprint.spec.n_seeds, fingerprint.spec.base_seed]
        members["fingerprint"] = fingerprint.matrix
    path = basis_file_path(directory, key)
    with atomic_write(path) as handle:
        np.savez_compressed(
            handle,
            **members,
            header=np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
        )
    return SpillRecord(path=path, worlds=entry.worlds, n_bytes=entry.samples.nbytes)


def _read_basis_file(path: str) -> Optional["BasisEntry"]:
    """The basis a file holds, or ``None`` when the file is not a whole one."""
    from repro.core.fingerprint.registry import ParamKey
    from repro.core.storage import BasisEntry

    try:
        with np.load(path) as archive:
            header = _header(archive)
            entry = BasisEntry(
                vg_name=str(header["vg_name"]),
                args=decode_args(header["args"]),
                samples=np.asarray(archive["samples"], dtype=float),
                worlds=tuple(int(w) for w in archive["worlds"]),
                seeds=tuple(int(s) for s in archive["seeds"]),
            )
    except Exception:
        return None
    rows = len(entry.worlds)
    if entry.samples.ndim != 2 or entry.samples.shape[0] != rows or len(entry.seeds) != rows:
        return None
    return entry


def _header(archive: Any) -> dict[str, Any]:
    header = json.loads(bytes(archive["header"]).decode("utf-8"))
    if header.get("format_version") != _BASIS_FILE_VERSION:
        raise ValueError(f"unsupported basis file version {header.get('format_version')!r}")
    return header


def _fingerprint(archive: Any, header: dict[str, Any], key: StoreKey) -> Optional[Fingerprint]:
    if "probe_spec" not in header:
        return None
    n_seeds, base_seed = header["probe_spec"]
    return Fingerprint(
        vg_name=str(header["vg_name"]),
        args=key[1],
        matrix=np.asarray(archive["fingerprint"], dtype=float),
        spec=FingerprintSpec(n_seeds=int(n_seeds), base_seed=int(base_seed)),
    )


__all__ = [
    "BasisTierStats",
    "SpillRecord",
    "TieredBasisStore",
    "basis_file_path",
    "write_basis_file",
]
