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

from repro.vg.seeds import world_seed

#: Bound of the :func:`_world_seeds` memo, in world slices. A slice of
#: 2000 worlds holds ~16 KB of references to seeds the per-world memo
#: already keeps; a sweep asks for one slice per point, a round ladder for
#: one per round.
WORLD_SLICE_MEMO_SIZE = 32


@functools.lru_cache(maxsize=WORLD_SLICE_MEMO_SIZE, typed=True)
def _world_seeds(base_seed: int, worlds: tuple[int, ...]) -> tuple[int, ...]:
    """The seeds of a whole world slice, memoised per ``(base_seed, worlds)``."""
    return tuple(world_seed(base_seed, world) for world in worlds)


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


@dataclass(frozen=True)
class InstanceBatch:
    """A batch of instances at one parameter point (one per world).

    The Query Generator consumes batches: all worlds of one point can be
    expressed as one generated SQL script. Every stage but the per-world
    loop backend reads only ``worlds`` and ``seeds``, so :meth:`at_point`
    derives those directly and ``instances`` is built on first read.
    """

    point: tuple[tuple[str, Any], ...]
    instances: tuple[WorldInstance, ...] = field(default_factory=tuple)
    #: World ids and seeds of ``instances``, in order — derived once per
    #: batch; every stage downstream reads them many times.
    worlds: tuple[int, ...] = field(init=False, repr=False, compare=False)
    seeds: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "worlds", tuple(instance.world for instance in self.instances)
        )
        object.__setattr__(
            self, "seeds", tuple(instance.seed for instance in self.instances)
        )

    @classmethod
    def at_point(
        cls, point: Mapping[str, Any], worlds: Sequence[int], base_seed: int
    ) -> "InstanceBatch":
        batch = cls.__new__(cls)
        worlds = tuple(worlds)
        object.__setattr__(
            batch, "point", tuple(sorted((str(k).lower(), v) for k, v in point.items()))
        )
        object.__setattr__(batch, "worlds", worlds)
        # ``(True,)`` equals ``(1,)`` but its world derives another seed:
        # only slices of plain ints share memo entries.
        if set(map(type, worlds)) <= {int}:
            seeds = _world_seeds(base_seed, worlds)
        else:
            seeds = tuple(world_seed(base_seed, world) for world in worlds)
        object.__setattr__(batch, "seeds", seeds)
        return batch

    def __getattr__(self, name: str) -> Any:
        # Reached only while ``instances`` is unset: a batch from at_point.
        if name != "instances":
            raise AttributeError(name)
        instances = tuple(
            WorldInstance(point=self.point, world=world, seed=seed)
            for world, seed in zip(self.worlds, self.seeds)
        )
        object.__setattr__(self, "instances", instances)
        return instances

    @property
    def point_dict(self) -> dict[str, Any]:
        return dict(self.point)

    def __len__(self) -> int:
        return len(self.worlds)

    def __iter__(self) -> Iterator[WorldInstance]:
        return iter(self.instances)
