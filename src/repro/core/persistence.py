"""Persistence of basis distributions and fingerprints.

A Fuzzy Prophet deployment accumulates basis distributions as analysts
explore; persisting them means tomorrow's session starts warm. This module
saves/loads the Storage Manager's bases and the fingerprint registry's
probe matrices to a single ``.npz`` archive (numpy's portable format).

Only state that is sound to reuse is persisted: sample matrices, world
ids/seeds, and fingerprints. Mappings are *not* persisted — they are cheap
to re-derive and depend on the correlation policy, which may change between
sessions. Loading validates that the engine's fingerprint spec matches the
archive's; mismatched probes would make stored fingerprints incomparable.

Model args are encoded with the type-preserving scheme from
:mod:`repro.core.argcodec` (format version 2): nested tuples, bools, and
non-finite floats all round-trip exactly, so a reloaded basis exact-hits
its original ``(vg_name, tuple(args))`` key. Version-1 archives (plain
JSON args) still load: their JSON arrays decode as nested tuples, which
restores hashability and the original tuple keys (bool/int aliasing from
v1 encoding is not recoverable).
"""

from __future__ import annotations

import json
import zipfile
import zlib
from pathlib import Path
from typing import Any, BinaryIO

import numpy as np

from repro.errors import FingerprintError
from repro.core.argcodec import decode_args, decode_legacy_args, encode_args
from repro.core.engine import ProphetEngine
from repro.core.fingerprint.fingerprint import Fingerprint, FingerprintSpec

_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)
#: What ``np.load``, ``zipfile`` and the header decode raise on bytes that are
#: not the archive :func:`save_bases` wrote.
_GARBLED = (
    EOFError, KeyError, NotImplementedError, OSError, RuntimeError, ValueError,
    zipfile.BadZipFile, zlib.error,
)


def _encode_args(args: tuple[Any, ...]) -> str:
    return encode_args(args)


def _decode_args(text: str, format_version: int = _FORMAT_VERSION) -> tuple[Any, ...]:
    if format_version == 1:
        return decode_legacy_args(text)
    return decode_args(text)


def save_bases(engine: ProphetEngine, path: str | Path) -> int:
    """Persist the engine's basis distributions; returns the entry count."""
    arrays: dict[str, np.ndarray] = {}
    manifest: list[dict[str, Any]] = []
    persistable = engine.storage.persistable_entries(engine.config.sampling.base_seed)
    for index, ((vg_name, args), entry) in enumerate(persistable):
        arrays[f"samples_{index}"] = entry.samples
        arrays[f"worlds_{index}"] = np.asarray(entry.worlds, dtype=np.int64)
        arrays[f"seeds_{index}"] = np.asarray(entry.seeds, dtype=np.uint64)
        record: dict[str, Any] = {
            "vg_name": entry.vg_name,
            "args": _encode_args(entry.args),
        }
        fingerprint = engine.registry.get_fingerprint(vg_name, args)
        if fingerprint is not None:
            arrays[f"fingerprint_{index}"] = fingerprint.matrix
            record["has_fingerprint"] = True
        else:
            record["has_fingerprint"] = False
        manifest.append(record)

    header = {
        "format_version": _FORMAT_VERSION,
        "scenario": engine.scenario.name,
        "n_probe_seeds": engine.registry.spec.n_seeds,
        "probe_base_seed": engine.registry.spec.base_seed,
        "entries": manifest,
    }
    arrays["header"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(Path(path), **arrays)
    return len(manifest)


def _read_archive(
    stream: BinaryIO, spec: FingerprintSpec, strict: bool
) -> list[tuple[str, tuple[Any, ...], dict[str, np.ndarray]]]:
    """Decode every entry of an open archive: ``(vg_name, args, arrays)``.

    Raises :class:`FingerprintError` on a version or probe-spec mismatch,
    and one of ``_GARBLED`` on bytes :func:`save_bases` did not write.
    """
    entries = []
    with np.load(stream) as archive:
        header = json.loads(bytes(archive["header"]).decode("utf-8"))
        format_version = header.get("format_version")
        if format_version not in _SUPPORTED_VERSIONS:
            raise FingerprintError(
                f"unsupported basis archive version: {format_version}"
            )
        spec_matches = (
            header["n_probe_seeds"] == spec.n_seeds
            and header["probe_base_seed"] == spec.base_seed
        )
        if strict and not spec_matches:
            raise FingerprintError(
                "archive probe spec "
                f"(k={header['n_probe_seeds']}, base={header['probe_base_seed']}) "
                f"differs from engine spec (k={spec.n_seeds}, base={spec.base_seed})"
            )
        for index, record in enumerate(header["entries"]):
            members = ["samples", "worlds", "seeds"]
            if spec_matches and record.get("has_fingerprint"):
                members.append("fingerprint")
            entries.append((
                record["vg_name"],
                _decode_args(record["args"], format_version),
                {name: archive[f"{name}_{index}"] for name in members},
            ))
    return entries


def load_bases(engine: ProphetEngine, path: str | Path, *, strict: bool = True) -> int:
    """Load persisted bases into the engine; returns the entries loaded.

    ``strict=True`` (default) raises when the archive's probe spec differs
    from the engine's; ``strict=False`` skips the stored fingerprints instead
    (bases still load — they will be re-probed on demand). An archive that
    cannot be read — truncated, corrupted, not an archive, a member or header
    field missing — raises :class:`FingerprintError` naming the path; a path
    that cannot be opened raises ``OSError`` as is. The whole archive is
    decoded before the engine is touched, so a failed load leaves nothing
    behind.
    """
    path = Path(path)
    spec = engine.registry.spec
    with path.open("rb") as stream:
        try:
            entries = _read_archive(stream, spec, strict)
        except _GARBLED as error:
            raise FingerprintError(
                f"cannot read basis archive {path}: {type(error).__name__}: {error}"
            ) from error

    loaded = 0
    for vg_name, args, arrays in entries:
        if vg_name not in engine.library:
            continue  # the model was removed; its bases are useless
        function = engine.library.get(vg_name)
        samples = arrays["samples"]
        if samples.shape[1] != function.n_components:
            continue  # the model changed shape; stale basis
        # Seed the registry before store(): store() indexes the
        # fingerprint and must find the persisted one instead of paying
        # k probe invocations per basis.
        if "fingerprint" in arrays:
            engine.registry.seed_fingerprint(
                Fingerprint(
                    vg_name=function.name,
                    args=args,
                    matrix=arrays["fingerprint"],
                    spec=spec,
                )
            )
        engine.storage.store(
            function,
            args,
            samples,
            arrays["worlds"].tolist(),
            [int(s) for s in arrays["seeds"]],
        )
        loaded += 1
    return loaded
