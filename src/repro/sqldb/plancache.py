"""LRU plan cache: SQL text -> parsed statement AST.

Parsing dominates the per-statement cost of short statements (the sampling
INSERTs, the combine/aggregate queries), and with the Query Generator now
emitting *parameterized* SQL the same text is executed thousands of times
with different ``@variable`` bindings. Statement ASTs are immutable frozen
dataclasses, so one parsed plan can safely serve every execution.

The cache is a plain LRU over the exact SQL text. A capacity of zero
disables caching entirely (every lookup misses and nothing is stored),
which the parity tests use for their reference executor.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, Optional, TypeVar

T = TypeVar("T")


class PlanCache:
    """A small LRU cache mapping SQL text to parsed plans."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 0:
            raise ValueError(f"plan cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[object]:
        """Return the cached plan for ``key`` (None on miss), counting the lookup."""
        if self.capacity == 0:
            self.misses += 1
            return None
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        return None

    def put(self, key: Hashable, plan: object) -> None:
        """Store ``plan`` under ``key``, evicting the least recently used."""
        if self.capacity == 0:
            return
        self._entries[key] = plan
        self._entries.move_to_end(key)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def get_or_parse(self, key: Hashable, parse: Callable[[], T]) -> T:
        """Return the cached plan for ``key``, parsing (and caching) on miss."""
        plan = self.get(key)
        if plan is None:
            plan = parse()
            self.put(key, plan)
        return plan  # type: ignore[return-value]

    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never used)."""
        total = self.lookups()
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlanCache(capacity={self.capacity}, size={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
