"""Persistence of basis distributions and fingerprints.

A Fuzzy Prophet deployment accumulates basis distributions as analysts
explore; persisting them means tomorrow's session starts warm. A saved
directory holds one basis file per basis — the same file the tiered store
spills (:mod:`repro.core.basis_store`), plus the basis's fingerprint and
probe spec — so loading one is adopting a spill dir.

Mappings are *not* persisted — they are cheap to re-derive and depend on
the correlation policy, which may change between sessions. Nothing loaded
is trusted: every basis passes the Storage Manager's trust rule (this
engine's world seeds, the model's shape) before it serves, and a stored
fingerprint is used only if it was probed under this engine's spec.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.core.basis_store import write_basis_file
from repro.core.engine import ProphetEngine


def save_bases(engine: ProphetEngine, directory: str | Path) -> int:
    """Write every basis the engine holds into ``directory``; returns the count.

    Each basis becomes one basis file, carrying its fingerprint when the
    registry holds one, written atomically: a save that fails part-way
    leaves every file it had not replaced yet as it was.
    """
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    saved = 0
    for key, entry in engine.storage.entries():
        write_basis_file(directory, key, entry, engine.registry.get_fingerprint(*key))
        saved += 1
    return saved


def load_bases(engine: ProphetEngine, directory: str | Path) -> int:
    """Adopt the basis files in ``directory``; returns how many will serve.

    Adoption never replaces a basis the engine holds. Each adopted basis is
    read once through the trust rule; one from a removed or reshaped model,
    or simulated under another base seed, is dropped (a counted failed
    fault) and not counted, and so is a file that cannot be read. A
    directory that cannot be listed raises ``OSError``.
    """
    storage = engine.storage
    adopted = storage.adopt(os.fspath(directory))
    return sum(storage.tier.get(key) is not None for key in adopted)
