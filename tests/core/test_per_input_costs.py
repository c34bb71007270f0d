"""Costs an immutable input already fixes are paid once, with the same bits.

* A fingerprint's per-component row std (``Fingerprint.row_std``) is
  computed once and is, byte for byte, the row of ``np.std(x, axis=1)``
  over any stack it is part of — which is what ``correlate_many`` reads
  instead of reducing the stacked basis and tiled target columns per call.
* A stored basis answers a world prefix with a read-only view.
* The extend path maps the worlds a basis is missing without storing the
  interim answer its merged basis replaces at once: every statistic,
  counter and mapping record is what storing it gave.
"""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ClientConfig, ProphetClient, SamplingConfig
from repro.core.fingerprint import Fingerprint, FingerprintSpec
from repro.core.storage import BasisEntry, StorageManager
from repro.models.scenario_library import FIGURE2_DSL

SPEC = FingerprintSpec(n_seeds=6)

column_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324]),
)


@st.composite
def fingerprints(draw, n_components: int) -> Fingerprint:
    columns = []
    for _ in range(n_components):
        if draw(st.booleans()):  # a constant component
            columns.append([draw(column_values)] * SPEC.n_seeds)
        else:
            columns.append(
                draw(st.lists(column_values, min_size=SPEC.n_seeds, max_size=SPEC.n_seeds))
            )
    matrix = np.array(columns, dtype=float).T
    return Fingerprint(vg_name="m", args=(0,), matrix=matrix, spec=SPEC)


@given(data=st.data(), n_components=st.integers(1, 9), k=st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_row_std_is_the_stacked_rows_byte_for_byte(data, n_components, k):
    bases = [data.draw(fingerprints(n_components)) for _ in range(k)]
    target = data.draw(fingerprints(n_components))
    with np.errstate(all="ignore"):
        stacked = np.std(np.concatenate([basis.columns for basis in bases]), axis=1)
        tiled = np.std(np.tile(target.columns, (k, 1)), axis=1)
        own = np.concatenate([basis.row_std for basis in bases])
        assert own.tobytes() == stacked.tobytes()
        assert np.tile(target.row_std, k).tobytes() == tiled.tobytes()
    assert target.row_std is target.row_std and not target.row_std.flags.writeable


def _entry(n_worlds: int) -> BasisEntry:
    samples = np.arange(n_worlds * 3, dtype=float).reshape(n_worlds, 3)
    worlds = tuple(range(n_worlds))
    return BasisEntry("m", (0,), samples, worlds, worlds)


def test_a_world_prefix_is_a_read_only_view():
    entry = _entry(10)
    select = StorageManager._select_worlds
    prefix = select(None, entry, (0, 1, 2, 3))
    assert np.shares_memory(prefix, entry.samples) and not prefix.flags.writeable
    assert np.array_equal(prefix, entry.samples[[0, 1, 2, 3]])
    assert select(None, entry, entry.worlds) is entry.samples
    shuffled = select(None, entry, (3, 1))
    assert not np.shares_memory(shuffled, entry.samples)
    assert np.array_equal(shuffled, entry.samples[[3, 1]])


def _adaptive_run(keep_interim: bool):
    """An adaptive ladder's statistics, counters, mapping records and the
    world sets of every basis stored; ``keep_interim`` restores storing the
    extend path's mapped answer."""
    acquire = StorageManager.acquire

    def acquiring(self, *args, **kwargs):
        if keep_interim:
            kwargs["keep"] = True
        return acquire(self, *args, **kwargs)

    put_worlds = []
    config = ClientConfig(sampling=SamplingConfig(n_worlds=48))
    client = ProphetClient.open(FIGURE2_DSL, "demo", config=config).with_adaptive(
        target_ci=150.0, min_worlds=8
    )
    try:
        tier_put = client.engine.storage.tier.put

        def put(key, entry):
            put_worlds.append(entry.worlds)
            tier_put(key, entry)

        client.engine.storage.tier.put = put
        grid = [dict(p) for p in client.scenario.sweep_space.grid()]
        with mock.patch.object(StorageManager, "acquire", acquiring):
            statistics = [
                result.statistics.expectation(alias).tobytes()
                + result.statistics.stddev(alias).tobytes()
                for result in client.sweep(grid[300:340:2])
                for alias in sorted(result.statistics.aliases())
            ]
        return {
            "statistics": statistics,
            "counters": json.loads(client.stats().to_json()),
            "mappings": client.engine.storage.registry.mappings,
            "puts": put_worlds,
        }
    finally:
        client.close()


def test_the_extend_path_stores_only_the_merged_basis():
    run, reference = _adaptive_run(False), _adaptive_run(True)
    for field in ("statistics", "counters", "mappings"):
        assert run[field] == reference[field], field
    assert run["counters"]["basis"]["mapped_hits"] > 0
    # Every stored basis covers a world prefix; the interim answers did not.
    assert all(worlds == tuple(range(len(worlds))) for worlds in run["puts"])
    interim = [w for w in reference["puts"] if w != tuple(range(len(w)))]
    assert interim and len(run["puts"]) == len(reference["puts"]) - len(interim)
