"""Possible-world instances.

The Guide (paper Figure 1, stage 1) emits a sequence of *instances*: concrete
valuations for every parameter plus the Monte Carlo world identity. In PDB
terminology an instance is one possible world of the scenario at one
parameter point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import ScenarioError
from repro.vg.seeds import world_seed

#: Bound of the :func:`_world_seeds` memo, in world slices. A slice of
#: 2000 worlds holds 16 KB of seeds; a sweep asks for one slice per point,
#: a round ladder for one per round.
WORLD_SLICE_MEMO_SIZE = 32


@functools.lru_cache(maxsize=WORLD_SLICE_MEMO_SIZE)
def _world_seeds(base_seed: int, worlds: bytes) -> np.ndarray:
    """A world slice's seeds (from its int64 ids' bytes), read-only."""
    ids = np.frombuffer(worlds, dtype=np.int64).tolist()
    seeds = np.fromiter((world_seed(base_seed, world) for world in ids), np.uint64, len(ids))
    seeds.flags.writeable = False
    return seeds


@functools.lru_cache(maxsize=WORLD_SLICE_MEMO_SIZE)
def _id_tuple(ids: bytes, dtype: str) -> tuple[int, ...]:
    """An id array's bytes as Python ints, one shared tuple per slice."""
    return tuple(np.frombuffer(ids, dtype=dtype).tolist())


@dataclass(frozen=True)
class WorldInstance:
    """One possible world: a parameter point plus a world seed.

    ``point`` maps lowercase parameter names to values (the graph axis, if
    any, is *not* included — it is the component dimension). ``world`` is the
    Monte Carlo replicate index; ``seed`` the derived RNG seed shared across
    parameter points for that replicate.
    """

    point: tuple[tuple[str, Any], ...]
    world: int
    seed: int

    @classmethod
    def make(cls, point: Mapping[str, Any], world: int, base_seed: int) -> "WorldInstance":
        items = tuple(sorted((str(k).lower(), v) for k, v in point.items()))
        return cls(point=items, world=world, seed=world_seed(base_seed, world))

    @property
    def point_dict(self) -> dict[str, Any]:
        return dict(self.point)

    def value(self, name: str) -> Any:
        key = name.lstrip("@").lower()
        for item_name, item_value in self.point:
            if item_name == key:
                return item_value
        raise KeyError(f"instance has no parameter {name!r}")


@dataclass(frozen=True, eq=False)
class InstanceBatch:
    """A batch of instances at one parameter point (one per world).

    The Query Generator consumes batches: all worlds of one point can be
    expressed as one generated SQL script. A batch is the point plus its
    worlds' ids (int64) and seeds (uint64), in order, as read-only arrays —
    what every stage reads; per-world :class:`WorldInstance` objects are
    built only when the batch is iterated.
    """

    point: tuple[tuple[str, Any], ...]
    worlds: np.ndarray = field(repr=False)
    seeds: np.ndarray = field(repr=False)

    @classmethod
    def at_point(
        cls, point: Mapping[str, Any], worlds: Sequence[int], base_seed: int
    ) -> "InstanceBatch":
        try:
            ids = np.array(worlds, dtype=np.int64)
        except (OverflowError, TypeError, ValueError):
            raise ScenarioError(f"world ids must be int64 integers, got {worlds!r}") from None
        ids.flags.writeable = False
        items = tuple(sorted((str(k).lower(), v) for k, v in point.items()))
        return cls(items, ids, _world_seeds(base_seed, ids.tobytes()))

    @property
    def instances(self) -> tuple[WorldInstance, ...]:
        return tuple(
            WorldInstance(point=self.point, world=world, seed=seed)
            for world, seed in zip(self.worlds.tolist(), self.seeds.tolist())
        )

    @property
    def point_dict(self) -> dict[str, Any]:
        return dict(self.point)

    def id_tuples(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``worlds``, ``seeds`` as the Python-int tuples stored bases record."""
        return _id_tuple(self.worlds.tobytes(), "int64"), _id_tuple(self.seeds.tobytes(), "uint64")

    def __len__(self) -> int:
        return len(self.worlds)

    def __iter__(self) -> Iterator[WorldInstance]:
        return iter(self.instances)
