"""A mapped basis inherits its source's identity-column digests, and only those.

A mapped hit copies every identity-mapped column of its source, so where
the source served its own world slice and has hashed its columns, the new
entry keeps the source's digest for each identity column and hashes only
the others (``BasisEntry.known_digests``). Four request sequences — a grid
sweep, an interactive slider walk, an adaptive round ladder and ``worlds=``
subset requests — must leave every resident basis with the digests of its
own samples, a mapping from a world subset must inherit nothing, and every
statistic and counter must equal a run that inherits no digest at all.
"""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest

from repro.api import ClientConfig, ProphetClient, SamplingConfig
from repro.core import storage as storage_module
from repro.core.storage import column_digests
from repro.models.scenario_library import FIGURE2_DSL


def _client(n_worlds: int) -> ProphetClient:
    return ProphetClient.open(
        FIGURE2_DSL, "demo", config=ClientConfig(sampling=SamplingConfig(n_worlds=n_worlds))
    )


def _grid(client):
    return [dict(p) for p in client.scenario.sweep_space.grid()]


def _grid_sweep(client):
    return [result.statistics for result in client.sweep(_grid(client)[:120])]


def _walk(client):
    grid = _grid(client)
    session = client.interactive()
    out = []
    for point in grid[200:260:3] + grid[200:230:6]:  # steps, then revisits
        session.set_sliders(point)
        out.append(session.refresh().statistics)
    return out


def _adaptive(client):
    adaptive = client.with_adaptive(target_ci=150.0, min_worlds=8)
    return [result.statistics for result in adaptive.sweep(_grid(client)[300:340:2])]


def _subsets(client):
    grid = _grid(client)
    out = [client.evaluate(point).statistics for point in grid[400:410]]
    for offset, point in enumerate(grid[410:430]):
        worlds = list(range(offset % 3, client.config.sampling.n_worlds, 2))
        out.append(client.evaluate(point, worlds=worlds).statistics)
    return out


SEQUENCES = {
    "grid_sweep": (_grid_sweep, 16),
    "interactive_walk": (_walk, 40),
    "adaptive_ladder": (_adaptive, 48),
    "world_subsets": (_subsets, 12),
}


def _statistics_bytes(statistics) -> bytes:
    return b"".join(
        statistics.expectation(alias).tobytes() + statistics.stddev(alias).tobytes()
        for alias in sorted(statistics.aliases())
    )


def _run(name):
    """The sequence's statistics, counters and resident bases; each mapped
    entry's source slice is recorded as it is made."""
    sequence, n_worlds = SEQUENCES[name]
    mapped_from: dict[int, bool] = {}  # id(entry samples) -> source served its own slice
    select = storage_module.StorageManager._select_worlds

    def recording_select(self, entry, worlds):
        samples = select(self, entry, worlds)
        recording_select.last = samples is entry.samples
        return samples

    recording_select.last = None

    remap = storage_module.remap_samples

    def recording_remap(basis_samples, correlation, fresh=None):
        result = remap(basis_samples, correlation, fresh)
        mapped_from[id(result.samples)] = recording_select.last
        return result

    client = _client(n_worlds)
    try:
        with mock.patch.object(
            storage_module.StorageManager, "_select_worlds", recording_select
        ), mock.patch.object(storage_module, "remap_samples", recording_remap):
            statistics = [_statistics_bytes(s) for s in sequence(client)]
        engine = client.engine
        entries = [entry for _, entry in engine.storage.entries()]
        return {
            "statistics": statistics,
            "counters": json.loads(client.stats().to_json()),
            "invocations": engine.invocation_count(),
            "component_samples": engine.component_sample_count(),
            "entries": entries,
            "mapped_from": mapped_from,
        }
    finally:
        client.close()


@pytest.mark.parametrize("name", list(SEQUENCES))
def test_resident_digests_are_their_own_samples_and_bits_hold(name):
    run = _run(name)
    inherited = 0
    for entry in run["entries"]:
        assert entry.digests == column_digests(entry.samples)
        own_slice = run["mapped_from"].get(id(entry.samples))
        if entry.known_digests is not None:
            # Only a mapping from the source's own world slice inherits.
            assert own_slice is True
            inherited += 1
        if own_slice is False:
            assert entry.known_digests is None
    if name == "world_subsets":
        assert False in run["mapped_from"].values()  # the subset case ran
    if name in ("grid_sweep", "interactive_walk"):
        assert inherited > 0  # and the inheriting case

    with mock.patch.object(storage_module, "_inherited_digests", lambda *args: None):
        reference = _run(name)
    assert all(entry.known_digests is None for entry in reference["entries"])
    for field in ("statistics", "counters", "invocations", "component_samples"):
        assert run[field] == reference[field], field
    assert [e.digests for e in run["entries"]] == [e.digests for e in reference["entries"]]
    assert all(
        np.array_equal(a.samples, b.samples) and a.samples.flags.c_contiguous
        for a, b in zip(run["entries"], reference["entries"])
    )
