"""Cross-run result cache: persistent point statistics on disk.

The third reuse layer, above the engine's exact basis hits and fingerprint
mapping: finished :class:`AxisStatistics` keyed by *what was asked* — a
content hash of the scenario (structure + VG library signature), the
canonicalized parameter point, the world set, and the seed configuration.
A second session, or a restarted CLI run, that asks the same question gets
the stored answer instantly without touching the engine at all.

Storage format: one ``<key>.npz`` (statistics arrays) plus one
``<key>.json`` (human-readable metadata) per entry. The npz is written
through a fixed-timestamp, no-compression zip writer so identical
statistics always serialize to byte-identical payloads — which is what
lets tests (and paranoid operators) verify a hit byte-for-byte.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import zipfile
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro.core.aggregator import AxisStatistics, SeriesStats
from repro.core.atomic import atomic_write
from repro.core.scenario import Scenario, VGOutput
from repro.vg.library import VGLibrary

#: Epoch timestamp for zip entries: determinism over honesty about mtimes.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


def _pid_alive(pid: int) -> bool:
    """Is a process with this pid currently running?

    Signal 0 probes without touching the target; ``EPERM`` means it exists
    but belongs to someone else — still alive for our purposes.
    """
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True


def scenario_fingerprint(scenario: Scenario, library: VGLibrary) -> str:
    """Content hash of a scenario + VG library pairing.

    Structural, not textual: the parameter domains, output definitions, and
    library function signatures — the things that determine what a point
    evaluation returns. (``source_sql`` alone would be wrong: builders like
    ``build_risk_vs_cost(purchase_step=...)`` vary the space while keeping
    the Figure 2 text.)
    """
    outputs: list[dict[str, Any]] = []
    for output in scenario.outputs:
        if isinstance(output, VGOutput):
            outputs.append(
                {
                    "alias": output.alias.lower(),
                    "vg": output.vg_name.lower(),
                    "index": output.index_expr.render(),
                    "args": [arg.render() for arg in output.model_args],
                }
            )
        else:
            outputs.append(
                {
                    "alias": output.alias.lower(),
                    "expression": output.expression.render(),
                }
            )
    functions = []
    for name in sorted(library.names):
        function = library.get(name)
        functions.append(
            {
                "name": function.name.lower(),
                "type": type(function).__name__,
                "n_components": function.n_components,
                "arg_names": list(function.arg_names),
            }
        )
    payload = json.dumps(
        {
            "axis": scenario.axis,
            "parameters": [
                {"name": p.name.lower(), "values": [repr(v) for v in p.values]}
                for p in scenario.space
            ],
            "outputs": outputs,
            "library": functions,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def result_key(
    scenario_hash: str,
    point: Mapping[str, Any],
    worlds: Sequence[int],
    *,
    n_worlds: int,
    base_seed: int,
    fingerprint_seeds: int,
    correlation_tolerance: float = 1e-6,
    min_mapped_fraction: float = 0.05,
) -> str:
    """Cache key of one point evaluation request.

    Every knob that can change the stored statistics participates — the
    fingerprint-mapping tolerances included, because cached results are
    computed with reuse on and mapped samples are approximate within those
    tolerances.
    """
    payload = json.dumps(
        {
            "scenario": scenario_hash,
            "point": sorted((str(k).lower(), repr(v)) for k, v in point.items()),
            "worlds": hashlib.sha256(
                np.asarray(sorted(worlds), dtype=np.int64).tobytes()
            ).hexdigest(),
            "n_worlds": n_worlds,
            "base_seed": base_seed,
            "fingerprint_seeds": fingerprint_seeds,
            "correlation_tolerance": correlation_tolerance,
            "min_mapped_fraction": min_mapped_fraction,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _deterministic_npz(arrays: Mapping[str, np.ndarray]) -> bytes:
    """Serialize arrays as an npz with fixed timestamps (byte-reproducible)."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_STORED) as archive:
        for name in sorted(arrays):
            payload = io.BytesIO()
            np.save(payload, np.ascontiguousarray(arrays[name]))
            info = zipfile.ZipInfo(f"{name}.npy", date_time=_ZIP_EPOCH)
            archive.writestr(info, payload.getvalue())
    return buffer.getvalue()


@dataclass(frozen=True)
class CachedResult:
    """One cache hit: the statistics plus the raw payload they came from."""

    key: str
    statistics: AxisStatistics
    payload: bytes
    meta: dict[str, Any]


class ResultCache:
    """Disk-backed map from result keys to finished axis statistics."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Stale ``.tmp.<pid>`` files removed at init (crash-recovery
        #: observability; see :meth:`_sweep_stale_tmp`).
        self.tmp_swept = self._sweep_stale_tmp()

    # -- paths -------------------------------------------------------------

    def _npz_path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.npz")

    def _meta_path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._npz_path(key))

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.directory) if name.endswith(".npz"))

    # -- read --------------------------------------------------------------

    def get(self, key: str) -> Optional[CachedResult]:
        """Load one entry; ``None`` on a miss or an unreadable payload."""
        path = self._npz_path(key)
        try:
            with open(path, "rb") as handle:
                payload = handle.read()
            arrays = np.load(io.BytesIO(payload))
            aliases = [str(a) for a in arrays["aliases"]]
            axis_values = tuple(int(v) for v in arrays["axis_values"])
            # np.ascontiguousarray promotes 0-d to 1-d at write time.
            n_worlds = int(np.asarray(arrays["n_worlds"]).flat[0])
            series: dict[str, SeriesStats] = {}
            for alias in aliases:
                series[alias] = SeriesStats(
                    alias=alias,
                    expectation=np.asarray(arrays[f"e_{alias}"], dtype=float),
                    stddev=np.asarray(arrays[f"sd_{alias}"], dtype=float),
                    n_worlds=n_worlds,
                )
            statistics = AxisStatistics(
                axis_values=axis_values, series=series, n_worlds=n_worlds
            )
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # A corrupt or truncated entry is a miss, never an error: the
            # cache is an optimization layer and must fail open.
            self.misses += 1
            return None
        meta: dict[str, Any] = {}
        try:
            with open(self._meta_path(key)) as handle:
                meta = json.load(handle)
        except Exception:
            pass
        self.hits += 1
        return CachedResult(key=key, statistics=statistics, payload=payload, meta=meta)

    # -- write -------------------------------------------------------------

    def put(
        self,
        key: str,
        statistics: AxisStatistics,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> bytes:
        """Store one entry (atomic rename); returns the payload bytes.

        Re-putting an existing key is a no-op returning the stored bytes,
        so a key's payload never changes once written.
        """
        path = self._npz_path(key)
        if os.path.exists(path):
            with open(path, "rb") as handle:
                return handle.read()
        aliases = sorted(statistics.aliases())
        arrays: dict[str, np.ndarray] = {
            "aliases": np.asarray(aliases),
            "axis_values": np.asarray(statistics.axis_values, dtype=np.int64),
            "n_worlds": np.asarray(statistics.n_worlds, dtype=np.int64),
        }
        for alias in aliases:
            arrays[f"e_{alias}"] = np.asarray(
                statistics.expectation(alias), dtype=np.float64
            )
            arrays[f"sd_{alias}"] = np.asarray(
                statistics.stddev(alias), dtype=np.float64
            )
        payload = _deterministic_npz(arrays)
        with atomic_write(path) as handle:
            handle.write(payload)
        if meta is not None:
            with atomic_write(self._meta_path(key)) as handle:
                handle.write(json.dumps(dict(meta), sort_keys=True, indent=2).encode())
        self.stores += 1
        return payload

    def _sweep_stale_tmp(self) -> int:
        """Remove tmp files orphaned by a writer that crashed mid-write.

        :func:`~repro.core.atomic.atomic_write` stages every payload as
        ``<path>.tmp.<pid>``; a process killed between staging and
        ``os.replace`` leaves the tmp file behind forever (its key is
        content-addressed, so no later write reuses the exact name for
        long). Swept at init: a tmp file
        whose writer pid is no longer alive — or is *this* process, which
        cannot have a write in flight during construction — is garbage.
        Tmp files of live foreign writers are left alone.
        """
        swept = 0
        for name in os.listdir(self.directory):
            if ".tmp." not in name:
                continue
            pid_text = name.rsplit(".tmp.", 1)[1]
            try:
                pid = int(pid_text)
            except ValueError:
                pid = None  # malformed suffix: nobody owns it
            if pid is not None and pid != os.getpid() and _pid_alive(pid):
                continue
            try:
                os.unlink(os.path.join(self.directory, name))
                swept += 1
            except OSError:
                pass  # raced with the owner finishing; either way it's gone
        return swept

    # -- observability -----------------------------------------------------

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        for name in os.listdir(self.directory):
            if name.endswith((".npz", ".json")):
                os.unlink(os.path.join(self.directory, name))
        self.hits = self.misses = self.stores = 0
