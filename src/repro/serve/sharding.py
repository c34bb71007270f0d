"""World sharding: partitioning the fixed world-seed sequence.

The paper's premise (§2) is that a *fixed* seed sequence gives a
deterministic relationship between runs: world ``w`` of any evaluation is
always simulated from ``world_seed(base_seed, w)``, no matter which process
evaluates it or in what order. That makes the world axis embarrassingly
parallel — a contiguous slice of worlds evaluated elsewhere produces
exactly the rows the sequential engine would have produced, so shards can
be merged back (in shard order) into a bit-identical sample matrix.

The round protocol leans on the same invariant along the other axis: a
round's fresh increment is itself a contiguous world slice (one shard
generation; :class:`~repro.core.engine.PointEvaluator` asks the sampler for
exactly ``[worlds_total - worlds_added, worlds_total)``), so the dispatcher
and its resilience ladder apply to every round exactly as they do to a
one-shot evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ServeError


@dataclass(frozen=True)
class WorldShard:
    """One contiguous slice of the world sequence."""

    index: int
    worlds: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.worlds)


def plan_shards(worlds: Sequence[int], n_shards: int) -> tuple[WorldShard, ...]:
    """Split ``worlds`` into up to ``n_shards`` contiguous, ordered shards.

    Shards are near-equal in size (sizes differ by at most one, larger
    shards first) and never empty; fewer shards are returned when there are
    fewer worlds than requested. Concatenating the shards' worlds in shard
    order reproduces ``worlds`` exactly — the invariant the merge step
    relies on.
    """
    if n_shards < 1:
        raise ServeError(f"n_shards must be >= 1, got {n_shards}")
    ordered = tuple(worlds)
    if not ordered:
        raise ServeError("plan_shards needs at least one world")
    count = min(n_shards, len(ordered))
    base, extra = divmod(len(ordered), count)
    shards: list[WorldShard] = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        shards.append(WorldShard(index=index, worlds=ordered[start : start + size]))
        start += size
    return tuple(shards)

