"""Deterministic seed derivation for VG-Functions.

The fingerprinting technique (paper §2) requires that a VG-Function, given
the *same* PRNG seed, produce outputs with a deterministic relationship
across parameter values. All randomness in this library therefore flows
through seeds derived here: a stable 64-bit hash of structured key material,
independent of Python's per-process hash randomization.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from typing import Any, Iterable

import numpy as np

_MASK64 = (1 << 64) - 1

#: Bound of the :func:`world_seed` memo, in ``(base_seed, world)`` entries:
#: well above the largest world count a run uses per base seed, so a
#: prefix is hashed once per process rather than once per round per point.
WORLD_SEED_MEMO_SIZE = 1 << 15


def _encode_part(part: Any) -> bytes:
    """Encode one key part into a canonical byte string."""
    if part is None:
        return b"\x00N"
    if isinstance(part, bool):
        return b"\x00B" + (b"\x01" if part else b"\x00")
    if isinstance(part, int):
        return b"\x00I" + str(part).encode("ascii")
    if isinstance(part, float):
        return b"\x00F" + struct.pack("<d", part)
    if isinstance(part, str):
        return b"\x00S" + part.encode("utf-8")
    if isinstance(part, (tuple, list)):
        inner = b"".join(_encode_part(item) for item in part)
        return b"\x00T" + struct.pack("<I", len(part)) + inner
    raise TypeError(f"cannot derive seed from {type(part).__name__} value {part!r}")


def derive_seed(*parts: Any) -> int:
    """Derive a stable 64-bit seed from arbitrary structured key parts.

    ``derive_seed("CapacityModel", 3, (8, 24))`` is reproducible across
    processes and platforms.
    """
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        digest.update(_encode_part(part))
    return int.from_bytes(digest.digest(), "little") & _MASK64


def rng_for(seed: int) -> np.random.Generator:
    """A fresh, independent generator for the given 64-bit seed."""
    return np.random.default_rng(np.random.SeedSequence(seed & _MASK64))


@functools.lru_cache(maxsize=WORLD_SEED_MEMO_SIZE, typed=True)
def world_seed(base_seed: int, world: int) -> int:
    """Seed for Monte Carlo world ``world`` of a run rooted at ``base_seed``.

    World seeds are shared across parameter points: evaluating the scenario
    at two different parameter values with the same world index uses the
    same underlying randomness, which is what makes fingerprint-detected
    correlations transfer to the stored sample matrices.

    A pure function of its arguments, memoised (bounded, least recently
    used evicted) because every round of every point asks for the same
    world prefix again. ``typed`` keeps ``True`` and ``1``, which hash
    alike but derive different seeds, in separate entries.
    """
    return derive_seed("world", base_seed, world)


def fingerprint_seeds(base_seed: int, count: int) -> tuple[int, ...]:
    """The fixed probe-seed sequence used for fingerprinting.

    Deliberately disjoint from :func:`world_seed` streams so probes never
    collide with Monte Carlo worlds.
    """
    if count < 1:
        raise ValueError(f"fingerprint seed count must be >= 1, got {count}")
    return tuple(derive_seed("fingerprint", base_seed, index) for index in range(count))


def spawn_streams(seed: int, names: Iterable[str]) -> dict[str, np.random.Generator]:
    """Independent named sub-streams of one seed (for multi-part models)."""
    return {name: rng_for(derive_seed(seed, "stream", name)) for name in names}
