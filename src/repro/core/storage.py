"""The Storage Manager (paper Figure 1, stage 3).

Manages the set of *basis distributions*: for every VG parameterization the
engine has evaluated, the Monte Carlo sample matrix (``n_worlds x
n_components``) keyed by ``(vg_name, model_args)``. When the engine needs
samples for a new parameterization the Storage Manager:

1. returns the stored matrix on an exact hit;
2. otherwise asks the :class:`FingerprintRegistry` for the best correlated
   basis, remaps its matrix through the detected per-component maps, and
   fills only the unmapped components with real simulation — one batched
   call covering every requested world (see :meth:`_simulate_components`
   for what that asks of a VG-Function);
3. otherwise reports a miss — the engine then runs the full generated-SQL
   sampling path and stores the result here.

Bases live in a :class:`~repro.core.basis_store.TieredBasisStore`: an
LRU memory tier bounded by basis count and by resident sample bytes, over
an optional npz disk tier. Evicted entries spill to disk and fault back
transparently on exact or mapped hits; with no spill directory an evicted
entry simply degrades to a future fresh-sampling miss. Long sweeps thus
run in fixed memory — the ``--basis-cap`` / ``--basis-dir`` CLI knobs and
the :class:`~repro.core.config.StoreConfig` section they set size the tiers.

A basis read from a file — a spill fault, a previous run's spill dir, a
directory :func:`~repro.core.persistence.load_bases` adopted — is checked
once, by :meth:`StorageManager._serves`, before it first serves: every
world's seed must be this engine's seed for that world, and the matrix must
have the model's column count. A basis that fails is dropped and the
request becomes a counted miss.

The acquisition outcome is summarized in a :class:`ReuseReport`, the raw
material for every fingerprint-savings benchmark.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from repro.errors import FingerprintError
from repro.core.basis_store import TieredBasisStore, float_row
from repro.core.fingerprint.correlation import CorrelationResult, MapKind
from repro.core.fingerprint.mapping import remap_samples
from repro.core.fingerprint.registry import FingerprintRegistry, ParamKey
from repro.vg.base import VGFunction
from repro.vg.library import VGLibrary
from repro.vg.seeds import world_seed


def _nearest_candidates(
    target: ParamKey, candidates: Sequence[ParamKey], limit: int
) -> list[ParamKey]:
    """Rank basis candidates by argument distance, nearest first.

    Nearby parameterizations map best (their event windows overlap most),
    so correlation matching tries them first and skips distant ones.
    Booleans are categorical, never numeric — ``True`` must not tie with
    ``1.0`` at distance zero (``bool`` is an ``int`` subclass, and Python's
    stable ordering would otherwise rank a wrong-typed basis first). Bases
    with mismatched types or differently-shaped args sort last within the
    limit.
    """

    def distance(args: ParamKey) -> float:
        if len(args) != len(target):
            return float("inf")
        total = 0.0
        for a, b in zip(args, target):
            a_bool = isinstance(a, bool)
            b_bool = isinstance(b, bool)
            if not a_bool and not b_bool and isinstance(a, (int, float)) and isinstance(b, (int, float)):
                total += abs(float(a) - float(b))
            elif a_bool != b_bool:
                total += 1.0  # bool vs number: a type mismatch, never equal
            elif a != b:
                total += 1.0
        return total

    # O(n log k) partial ranking: the basis store grows with every sweep,
    # but only the nearest ``limit`` candidates are ever probed.
    # heapq.nsmallest is documented to be equivalent to sorted(...)[:k]
    # (same stable tie order), so results match the full sort exactly.
    return heapq.nsmallest(max(limit, 1), candidates, key=distance)


def _nearest_rows(rows: np.ndarray, target: np.ndarray, limit: int) -> list[int]:
    """Positions of the ``limit`` rows nearest ``target`` in L1 distance.

    Every distance accumulates column by column in argument order, so it is
    bit-equal to :func:`_nearest_candidates`' ``distance``; the stable sort
    keeps the tie order of its ``heapq.nsmallest``.
    """
    total = np.zeros(len(rows))
    with np.errstate(over="ignore"):
        for column, value in zip(rows.T, target):
            total += np.abs(column - value)
    return np.argsort(total, kind="stable")[: max(limit, 1)].tolist()


@dataclass(frozen=True)
class ReuseReport:
    """How one sample matrix was obtained."""

    vg_name: str
    args: ParamKey
    source: str  # "fresh" | "exact" | "mapped"
    basis_args: Optional[ParamKey] = None
    mapped_fraction: float = 0.0
    components_total: int = 0
    components_recomputed: int = 0
    kind_counts: dict[str, int] = field(default_factory=dict)
    #: Which components a mapped acquisition re-simulated (ascending); empty
    #: for exact hits, and for fresh misses, which re-simulate all of them.
    recomputed_components: tuple[int, ...] = ()

    @property
    def components_reused(self) -> int:
        return self.components_total - self.components_recomputed


def column_digests(
    samples: np.ndarray, known: Optional[Sequence[Optional[bytes]]] = None
) -> tuple[bytes, ...]:
    """One 16-byte blake2b digest per column of a sample matrix.

    The week memo's content key: column ``t`` of an output's matrix is that
    week's joint samples over the request's worlds, in order. ``known``
    holds, per column, a digest already known for exactly that column's
    bytes, or ``None``: only the ``None`` columns are hashed.
    """
    if known is None:
        columns = np.ascontiguousarray(samples.T)
        return tuple(
            hashlib.blake2b(column, digest_size=16).digest() for column in columns
        )
    hashed = iter(
        column_digests(samples[:, [i for i, d in enumerate(known) if d is None]])
    )
    return tuple(next(hashed) if digest is None else digest for digest in known)


@dataclass(frozen=True)
class BasisEntry:
    """One stored basis distribution; immutable, its samples read-only."""

    vg_name: str
    args: ParamKey
    samples: np.ndarray  # (n_worlds, n_components)
    worlds: tuple[int, ...]
    seeds: tuple[int, ...]
    #: Column digests known when the entry was made — a mapped entry's
    #: identity columns, its source's — per column, ``None`` where unknown.
    known_digests: Optional[tuple[Optional[bytes], ...]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.samples.flags.writeable = False

    @cached_property
    def digests(self) -> tuple[bytes, ...]:
        """:func:`column_digests` of :attr:`samples`, computed on first use
        (hashing only the columns :attr:`known_digests` leaves open)."""
        return column_digests(self.samples, self.known_digests)

    @property
    def hashed_digests(self) -> Optional[tuple[bytes, ...]]:
        """:attr:`digests` once computed, else ``None``; never hashes."""
        return self.__dict__.get("digests")


def _inherited_digests(
    source: BasisEntry, source_samples: np.ndarray, correlation: CorrelationResult
) -> Optional[tuple[Optional[bytes], ...]]:
    """What a mapped entry knows of its column digests from its source.

    An identity-mapped column is a copy of the source's column, so where the
    source served its own world slice (``source_samples`` *is* its matrix)
    and has hashed its columns, that column's digest is the source's. Any
    other column, and every column of a mapping from a world subset or from
    an unhashed source, stays ``None``.
    """
    digests = source.hashed_digests
    if source_samples is not source.samples or digests is None:
        return None
    identity = correlation.components(MapKind.IDENTITY).tolist()
    if not identity:
        return None
    known: list[Optional[bytes]] = [None] * len(digests)
    for column in identity:
        known[column] = digests[column]
    return tuple(known)


class StorageManager:
    """Basis-distribution store with fingerprint-driven reuse.

    ``library`` and ``base_seed`` are the engine's: a basis read from a file
    is checked against them. ``basis_cap`` / ``basis_byte_cap`` bound the
    memory tier (entry count and resident sample bytes); ``spill_dir``
    enables the disk tier evicted entries spill to, and its existing basis
    files are adopted at startup. All default off — an unbounded in-RAM
    store, the pre-tiering behavior.
    """

    def __init__(
        self,
        registry: FingerprintRegistry,
        library: VGLibrary,
        base_seed: int,
        *,
        basis_cap: Optional[int] = None,
        basis_byte_cap: Optional[int] = None,
        spill_dir: Optional[str] = None,
    ) -> None:
        self.registry = registry
        self.library = library
        self.base_seed = base_seed
        self.tier = TieredBasisStore(
            self._serves, basis_cap=basis_cap, byte_cap=basis_byte_cap, spill_dir=spill_dir
        )
        self.exact_hits = 0
        self.mapped_hits = 0
        self.misses = 0
        if spill_dir is not None:
            self.adopt(spill_dir)

    # -- store -------------------------------------------------------------

    def store(
        self,
        function: VGFunction,
        args: Sequence[Any],
        samples: np.ndarray,
        worlds: Sequence[int],
        seeds: Sequence[int],
    ) -> BasisEntry:
        """Remember a sample matrix (and ensure its fingerprint is indexed).

        The matrix is kept, not copied, and made read-only: exact and mapped
        hits hand out the stored array itself.
        """
        key = (function.name.lower(), tuple(args))
        matrix = np.asarray(samples, dtype=float)
        if matrix.ndim != 2:
            raise FingerprintError(f"sample matrix must be 2-D, got {matrix.ndim}-D")
        if matrix.shape[0] != len(worlds) or len(worlds) != len(seeds):
            raise FingerprintError(
                f"matrix rows {matrix.shape[0]} must match worlds {len(worlds)} "
                f"and seeds {len(seeds)}"
            )
        entry = BasisEntry(
            vg_name=function.name,
            args=key[1],
            samples=matrix,
            worlds=tuple(worlds),
            seeds=tuple(seeds),
        )
        self.tier.put(key, entry)
        self.registry.fingerprint_of(function, key[1])
        return entry

    def stored_args(self, vg_name: str) -> tuple[ParamKey, ...]:
        """Known parameterizations for ``vg_name``, both tiers included."""
        return tuple(args for args, _ in self.tier.model_keys(vg_name.lower()))

    def nearest_candidates(
        self,
        vg_name: str,
        target: ParamKey,
        worlds: Sequence[int],
        limit: int = 8,
    ) -> list[ParamKey]:
        """The stored parameterizations of ``vg_name`` a mapped hit may use.

        :func:`_nearest_candidates` over the keys covering ``worlds``, in
        :meth:`stored_args` order. It reads the model's candidate index
        (:meth:`TieredBasisStore.candidate_index`): coverage is decided
        once per distinct stored world tuple, and where the target and
        every covering key are plain numbers the index's float rows are
        ranked as they stand.
        """
        index = self.tier.candidate_index(vg_name.lower())
        # A world tuple no key covers any more (one a replacement left) is
        # not checked: it filters nothing.
        covering = [
            not size or self._covers_worlds(stored, worlds)
            for stored, size in zip(index.world_sets, index.set_sizes)
        ]
        if all(covering):
            keys, plain, rows = index.keys, index.plain, index.rows
        else:
            positions = np.flatnonzero(np.array(covering)[index.set_ids])
            keys = [index.keys[i] for i in positions.tolist()]
            plain, rows = index.plain[positions], index.rows[positions]
        if not keys:
            return []
        row = float_row(target, index.arity)
        if row is None or not plain.all():
            return _nearest_candidates(target, keys, limit)
        return [keys[i] for i in _nearest_rows(rows, row, limit)]

    def validated_entry(
        self, function: VGFunction, args: Sequence[Any]
    ) -> Optional[BasisEntry]:
        """Fetch one basis, faulting it back from the disk tier if spilled.

        A faulted basis has passed :meth:`_serves`; one that failed was
        dropped, and ``None`` is returned as for an unknown key.
        """
        return self.tier.get((function.name.lower(), tuple(args)))

    def basis_of(
        self, function: VGFunction, args: Sequence[Any], samples: np.ndarray
    ) -> Optional[BasisEntry]:
        """The resident basis whose matrix *is* ``samples``, if any.

        That is what :meth:`acquire` returns for an exact hit over the
        basis's own worlds and for a mapped hit, and what :meth:`store`
        keeps: the entry's cached :attr:`BasisEntry.digests` then describe
        ``samples``. Recency is not touched.
        """
        entry = self.tier.resident((function.name.lower(), tuple(args)))
        return entry if entry is not None and entry.samples is samples else None

    def entries(self) -> Iterator[tuple[tuple[str, ParamKey], BasisEntry]]:
        """Every servable ``(key, entry)`` across both tiers (persistence)."""
        return self.tier.items()

    def adopt(self, directory: str) -> list[tuple[str, ParamKey]]:
        """Index a directory of basis files; returns the keys it adopted.

        A basis this store holds is never replaced. A stored fingerprint
        probed under this registry's spec, for the model's current shape,
        seeds the registry; any other is ignored and the basis is re-probed
        on demand.
        """
        keys = []
        for key, fingerprint in self.tier.adopt(directory):
            keys.append(key)
            if (
                fingerprint is not None
                and fingerprint.spec == self.registry.spec
                and fingerprint.matrix.shape[1] == self._columns(key[0])
                and not self.registry.has_fingerprint(*key)
            ):
                self.registry.seed_fingerprint(fingerprint)
        return keys

    def __len__(self) -> int:
        return len(self.tier)

    def clear(self) -> None:
        self.tier.clear()
        self.exact_hits = 0
        self.mapped_hits = 0
        self.misses = 0

    # -- acquire -------------------------------------------------------------

    def acquire(
        self,
        function: VGFunction,
        args: Sequence[Any],
        worlds: Sequence[int],
        seeds: Sequence[int],
        *,
        reuse: bool = True,
        min_mapped_fraction: float = 0.05,
    ) -> tuple[Optional[np.ndarray], ReuseReport]:
        """Try to produce the sample matrix for ``args`` from stored bases.

        Returns ``(samples, report)``; ``samples`` is ``None`` on a miss
        (the caller must evaluate freshly and call :meth:`store`).
        """
        key = (function.name.lower(), tuple(args))
        n_components = function.n_components

        # Coverage checks run on spill metadata (peek) so that candidates
        # are only ever faulted back once actually selected.
        exact = None
        if self._covers_worlds(self.tier.peek_worlds(key), worlds):
            exact = self.tier.get(key)  # may fault back; None degrades to miss
        if exact is not None and self._covers(exact, worlds):
            self.exact_hits += 1
            report = ReuseReport(
                vg_name=function.name,
                args=key[1],
                source="exact",
                basis_args=key[1],
                mapped_fraction=1.0,
                components_total=n_components,
                components_recomputed=0,
                kind_counts={"identity": n_components},
            )
            return self._select_worlds(exact, worlds), report

        if reuse:
            candidates = self.nearest_candidates(function.name, key[1], worlds)
            # Bases adopted without a usable stored fingerprint have none
            # yet; probe the few surviving candidates so best_match can
            # actually consider them — fingerprint_of is a cached no-op for
            # everything stored by this process.
            for candidate in candidates:
                self.registry.fingerprint_of(function, candidate)
            match = self.registry.best_match(
                function, key[1], candidates, min_fraction=min_mapped_fraction
            )
            basis = (
                self.tier.get((key[0], match.basis_args))
                if match is not None
                else None
            )
            # A vanished, unreadable or refused spill file degrades to a
            # miss below.
            if basis is not None and self._covers(basis, worlds):
                basis_samples = self._select_worlds(basis, worlds)
                unmapped = match.correlation.unmapped_components
                fresh = (
                    self._simulate_components(function, key[1], seeds, unmapped)
                    if unmapped
                    else None
                )
                samples = remap_samples(basis_samples, match.correlation, fresh).samples
                self.registry.record_mapping(
                    function.name, match.basis_args, key[1], match.correlation
                )
                self.mapped_hits += 1
                self.tier.put(
                    key,
                    BasisEntry(
                        vg_name=function.name,
                        args=key[1],
                        samples=samples,
                        worlds=tuple(worlds),
                        seeds=tuple(seeds),
                        known_digests=_inherited_digests(
                            basis, basis_samples, match.correlation
                        ),
                    ),
                )
                report = ReuseReport(
                    vg_name=function.name,
                    args=key[1],
                    source="mapped",
                    basis_args=match.basis_args,
                    mapped_fraction=match.correlation.mapped_fraction,
                    components_total=n_components,
                    components_recomputed=len(unmapped),
                    kind_counts=match.correlation.kind_counts(),
                    recomputed_components=unmapped,
                )
                return samples, report

        self.misses += 1
        report = ReuseReport(
            vg_name=function.name,
            args=key[1],
            source="fresh",
            components_total=n_components,
            components_recomputed=n_components,
        )
        return None, report

    # -- helpers -----------------------------------------------------------------

    def _covers(self, entry: BasisEntry, worlds: Sequence[int]) -> bool:
        return self._covers_worlds(entry.worlds, worlds)

    def _serves(self, entry: BasisEntry) -> bool:
        """The trust rule for a basis read from a file.

        It may serve only if its model is still in the library with the
        same column count, and every row was simulated from this engine's
        seed for its world — a file from a run with another base seed, or
        written before the model changed shape, never serves.
        """
        if entry.samples.shape[1] != self._columns(entry.vg_name):
            return False
        base_seed = self.base_seed
        return all(
            world_seed(base_seed, world) == seed
            for world, seed in zip(entry.worlds, entry.seeds)
        )

    def _columns(self, vg_name: str) -> Optional[int]:
        """The model's component count, ``None`` once it left the library."""
        if vg_name not in self.library:
            return None
        return self.library.get(vg_name).n_components

    def _covers_worlds(
        self, stored_worlds: Optional[tuple[int, ...]], worlds: Sequence[int]
    ) -> bool:
        if stored_worlds is None:
            return False
        # The sweep case: every basis holds exactly the requested batch.
        if isinstance(worlds, tuple) and stored_worlds == worlds:
            return True
        return set(stored_worlds).issuperset(worlds)

    def _select_worlds(self, entry: BasisEntry, worlds: Sequence[int]) -> np.ndarray:
        if entry.worlds == worlds:  # the sweep case: the (read-only) matrix itself
            return entry.samples
        positions = {world: index for index, world in enumerate(entry.worlds)}
        rows = [positions[world] for world in worlds]
        return entry.samples[rows, :]

    def _simulate_components(
        self,
        function: VGFunction,
        args: ParamKey,
        seeds: Sequence[int],
        components: tuple[int, ...],
    ) -> np.ndarray:
        """Real simulation of only the unmapped components, all worlds at once.

        One :meth:`~repro.vg.base.VGFunction.invoke_components_batch` call
        per mapped acquisition. A model earns the vectorized path by
        implementing ``generate_partial_batch``, whose contract is: random
        events are a function of the seed alone (so they are drawn once per
        seed, whatever the parameterization), and every row is bit-identical
        to the model's own per-seed ``generate_partial`` — the first row is
        checked on every call, a mismatch falls back to the per-seed loop.
        Models without the override run that loop.
        """
        return function.invoke_components_batch(seeds, tuple(args), components)
