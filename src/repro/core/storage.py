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

The acquisition outcome is summarized in a :class:`ReuseReport`, the raw
material for every fingerprint-savings benchmark.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from repro.errors import FingerprintError
from repro.core.basis_store import TieredBasisStore
from repro.core.fingerprint.mapping import fill_components, remap_samples
from repro.core.fingerprint.registry import FingerprintRegistry, ParamKey
from repro.vg.base import VGFunction
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


@dataclass
class BasisEntry:
    """One stored basis distribution."""

    vg_name: str
    args: ParamKey
    samples: np.ndarray  # (n_worlds, n_components)
    worlds: tuple[int, ...]
    seeds: tuple[int, ...]


def adopted_seeds_valid(entry: BasisEntry, base_seed: int) -> bool:
    """Were all of this entry's rows simulated from ``base_seed``'s seeds?

    The one definition of warm-start seed validation — adopted spill-dir
    entries must pass it before they are served, merged, or persisted.
    """
    return all(
        world_seed(base_seed, world) == seed
        for world, seed in zip(entry.worlds, entry.seeds)
    )


class StorageManager:
    """Basis-distribution store with fingerprint-driven reuse.

    ``basis_cap`` / ``basis_byte_cap`` bound the memory tier (entry count
    and resident sample bytes); ``spill_dir`` enables the disk tier evicted
    entries spill to. All default off — an unbounded in-RAM store, the
    pre-tiering behavior.
    """

    def __init__(
        self,
        registry: FingerprintRegistry,
        *,
        basis_cap: Optional[int] = None,
        basis_byte_cap: Optional[int] = None,
        spill_dir: Optional[str] = None,
    ) -> None:
        self.registry = registry
        self.tier = TieredBasisStore(
            basis_cap=basis_cap, byte_cap=basis_byte_cap, spill_dir=spill_dir
        )
        self.exact_hits = 0
        self.mapped_hits = 0
        self.misses = 0

    # -- store -------------------------------------------------------------

    def store(
        self,
        function: VGFunction,
        args: Sequence[Any],
        samples: np.ndarray,
        worlds: Sequence[int],
        seeds: Sequence[int],
    ) -> BasisEntry:
        """Remember a sample matrix (and ensure its fingerprint is indexed)."""
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
        lowered = vg_name.lower()
        return tuple(args for (name, args) in self.tier.keys() if name == lowered)

    def entry(self, vg_name: str, args: Sequence[Any]) -> Optional[BasisEntry]:
        """Fetch one basis, faulting it back from the disk tier if spilled."""
        return self.tier.get((vg_name.lower(), tuple(args)))

    def validated_entry(
        self, function: VGFunction, args: Sequence[Any], base_seed: int
    ) -> Optional[BasisEntry]:
        """:meth:`entry` plus warm-start validation.

        An adopted basis (pre-existing spill dir) whose rows were simulated
        under a different base seed, or whose component count no longer
        matches the model, can never serve this engine; it is discarded —
        so it stops faulting from disk on every request — and ``None`` is
        returned. Bases this process stored are trusted.
        """
        key = (function.name.lower(), tuple(args))
        entry = self.tier.get(key)
        if entry is None or not self.tier.is_adopted(key):
            return entry
        if entry.samples.shape[1] == function.n_components and adopted_seeds_valid(
            entry, base_seed
        ):
            return entry
        self.tier.discard(key)
        return None

    def entries(self) -> Iterator[tuple[tuple[str, ParamKey], BasisEntry]]:
        """Every readable ``(key, entry)`` across both tiers (persistence)."""
        return self.tier.items()

    def persistable_entries(
        self, base_seed: int
    ) -> Iterator[tuple[tuple[str, ParamKey], BasisEntry]]:
        """:meth:`entries`, minus adopted bases that fail seed validation.

        An archive is trusted by whoever loads it, so a stale-seed adoption
        (spill dir from a run with another base seed) must never be
        laundered into one — the acquire paths reject such entries, and
        persistence must too.
        """
        for key, entry in self.tier.items():
            if self.tier.is_adopted(key) and not adopted_seeds_valid(entry, base_seed):
                continue
            yield key, entry

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
            if exact is not None and not self._adoption_valid(
                key, exact, function, worlds, seeds
            ):
                # Stale adopted basis: discard it so it stops faulting from
                # disk on every request — it can never serve these seeds.
                self.tier.discard(key)
                exact = None
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
            candidates = [
                stored_args
                for stored_args in self.stored_args(function.name)
                if self._covers_worlds(
                    self.tier.peek_worlds((key[0], stored_args)), worlds
                )
            ]
            candidates = _nearest_candidates(key[1], candidates, limit=8)
            # Bases adopted from a warm-started spill dir (or loaded with a
            # mismatched probe spec) have no fingerprint yet; probe the few
            # surviving candidates so best_match can actually consider them
            # — fingerprint_of is a cached no-op for everything stored by
            # this process.
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
            if basis is not None and not self._adoption_valid(
                (key[0], match.basis_args), basis, function, worlds, seeds
            ):
                # A warm start with another base seed must never feed stale
                # samples into a remap; expel the unserveable basis.
                self.tier.discard((key[0], match.basis_args))
                basis = None
            # A vanished or unreadable spill file degrades to a miss below.
            if basis is not None and self._covers(basis, worlds):
                basis_samples = self._select_worlds(basis, worlds)
                remapped = remap_samples(basis_samples, match.correlation)
                unmapped = remapped.unmapped_components
                if unmapped:
                    fresh = self._simulate_components(function, key[1], seeds, unmapped)
                    samples = fill_components(remapped.samples, unmapped, fresh)
                else:
                    samples = remapped.samples
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

    def _adoption_valid(
        self,
        key: tuple[str, ParamKey],
        entry: BasisEntry,
        function: VGFunction,
        worlds: Sequence[int],
        seeds: Sequence[int],
    ) -> bool:
        """Can this entry safely serve the request?

        Bases this process stored are trusted and skip every check; only
        entries adopted from a pre-existing spill dir are validated. Two
        ways an adoption can be stale: the dir was written under a
        different base seed (rows simulated from other seeds), or the
        model changed shape since the dir was written (wrong component
        count) — both must degrade to fresh misses, never serve.
        """
        if not self.tier.is_adopted(key):
            return True
        if entry.samples.shape[1] != function.n_components:
            return False
        position = {world: index for index, world in enumerate(entry.worlds)}
        for world, seed in zip(worlds, seeds):
            index = position.get(world)
            # A missing world means the faulted content no longer matches
            # its index record — treat like any other stale adoption.
            if index is None or entry.seeds[index] != seed:
                return False
        return True

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
        if entry.worlds == worlds:  # the sweep case: the very rows, in order
            return entry.samples.copy()
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
