"""Week-memo keys built from column digests partition weeks like content hashing.

The week memo keys a week by a digest of the worlds and derived-expression
parameters, the week index, and each output's digest of its week column —
digests a stored basis computes once and keeps. The oracle is the key it
replaced: one blake2b over the same prefix, the week index and every
output's raw week column. Over seeded request sequences — grid subsets and
revisits, world prefixes, permuted prefixes, extend-mode growth, a
two-basis memory tier over a spill directory, a directory adopted with
``load_bases`` — two (point, week) pairs must share a new key exactly when
they share an oracle key, the memo must count the hits and misses the
oracle's memo would, and every statistic must equal, byte for byte, the
``reuse=False`` recomputation over the same samples.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from repro.core.config import EngineConfig, SamplingConfig, StoreConfig
from repro.core.engine import ProphetEngine
from repro.core.persistence import load_bases, save_bases
from repro.models import build_risk_vs_cost

N_WORLDS = 12


def _oracle_week_keys(engine, point, batch, matrices) -> list[bytes]:
    """The content key the column digests replaced, verbatim."""
    prefix = hashlib.blake2b(digest_size=16)
    prefix.update(len(batch).to_bytes(8, "little"))
    prefix.update(np.asarray(batch.worlds, dtype=np.int64).tobytes())
    prefix.update(
        repr(tuple((name, point.get(name)) for name in engine._derived_params)).encode()
    )
    by_week = [
        np.ascontiguousarray(matrices[output.alias.lower()].T)
        for output in engine.scenario.vg_outputs
    ]
    keys = []
    for week in range(by_week[0].shape[0]):
        digest = prefix.copy()
        digest.update(week.to_bytes(8, "little"))
        for rows in by_week:
            digest.update(rows[week])
        keys.append(digest.digest())
    return keys


class _Recorder:
    """Wraps an engine's ``_week_keys``: pairs every new key with the oracle's."""

    def __init__(self, engine):
        self.engine = engine
        self.new_to_oracle: dict[bytes, bytes] = {}
        self.oracle_to_new: dict[bytes, bytes] = {}
        self.oracle_seen: set[bytes] = set()
        self.oracle_hits = self.oracle_misses = 0
        self.calls = 0
        #: Output columns keyed by a stored basis's digests, and by digests
        #: of a matrix that is no basis (another world selection).
        self.from_bases = self.from_matrices = 0
        self._week_keys = engine._week_keys
        engine._week_keys = self

    def __call__(self, point, batch, matrices, bases=None):
        keys = self._week_keys(point, batch, matrices, bases)
        oracle = _oracle_week_keys(self.engine, point, batch, matrices)
        assert len(keys) == len(oracle)
        for new, old in zip(keys, oracle):
            assert self.new_to_oracle.setdefault(new, old) == old
            assert self.oracle_to_new.setdefault(old, new) == new
            if old in self.oracle_seen:
                self.oracle_hits += 1
            else:
                self.oracle_misses += 1
        self.oracle_seen.update(oracle)
        self.calls += 1
        held = len(bases or {})
        self.from_bases += held
        self.from_matrices += len(matrices) - held
        return keys


def _engine(**store) -> ProphetEngine:
    scenario, library = build_risk_vs_cost(purchase_step=16)
    return ProphetEngine(
        scenario,
        library,
        EngineConfig(sampling=SamplingConfig(n_worlds=N_WORLDS), store=StoreConfig(**store)),
    )


def _requests(seed: int, grid: list[dict]) -> list[tuple[dict, tuple[int, ...]]]:
    """A seeded mix of sweeps, revisits, prefixes, permutations and growth."""
    rng = random.Random(seed)
    subset = rng.sample(grid, 8)
    requests = []
    for _ in range(40):
        roll = rng.random()
        point = rng.choice(subset)
        if roll < 0.4:
            worlds = tuple(range(N_WORLDS))  # the sweep case
        elif roll < 0.6:
            worlds = tuple(range(rng.choice((3, 6, 9))))  # a prefix
        elif roll < 0.8:
            prefix = list(range(rng.choice((4, 8, N_WORLDS))))
            rng.shuffle(prefix)
            worlds = tuple(prefix)  # a permuted prefix
        else:
            # Extend-mode growth of one point, round by round.
            for size in (2, 5, N_WORLDS):
                requests.append((point, tuple(range(size))))
            continue
        requests.append((point, worlds))
    return requests


def _run(engine, requests) -> _Recorder:
    recorder = _Recorder(engine)
    for point, worlds in requests:
        hits, misses = engine.week_stats_hits, engine.week_stats_misses
        calls = recorder.calls
        oracle_hits, oracle_misses = recorder.oracle_hits, recorder.oracle_misses
        served = engine.evaluate_point(point, worlds=worlds)
        if recorder.calls > calls:  # not a stats-cache hit: the memo decided
            assert engine.week_stats_hits - hits == recorder.oracle_hits - oracle_hits
            assert engine.week_stats_misses - misses == recorder.oracle_misses - oracle_misses
        recomputed = engine.evaluate_point(point, worlds=worlds, reuse=False)
        assert all(report.source == "exact" for report in recomputed.reuse_reports)
        for alias in served.samples:
            assert served.samples[alias].tobytes() == recomputed.samples[alias].tobytes()
        for alias in served.statistics.aliases():
            assert (
                served.statistics.expectation(alias).tobytes()
                == recomputed.statistics.expectation(alias).tobytes()
            )
            assert (
                served.statistics.stddev(alias).tobytes()
                == recomputed.statistics.stddev(alias).tobytes()
            )
    assert recorder.oracle_hits > 0 and recorder.oracle_misses > 0
    assert recorder.from_bases > 0 and recorder.from_matrices > 0
    return recorder


def _grid(engine) -> list[dict]:
    return [dict(point) for point in engine.scenario.sweep_space.grid()]


@pytest.mark.parametrize("seed", range(3))
def test_unbounded_store(seed):
    engine = _engine()
    _run(engine, _requests(seed, _grid(engine)))


@pytest.mark.parametrize("seed", range(3))
def test_two_bases_in_memory_over_a_spill_dir(tmp_path, seed):
    engine = _engine(basis_cap=2, basis_dir=str(tmp_path))
    _run(engine, _requests(seed, _grid(engine)))
    assert engine.storage.tier.stats.faults > 0


def test_an_adopted_directory(tmp_path):
    source = _engine()
    grid = _grid(source)
    for point in grid[::5]:
        source.evaluate_point(point)
    assert save_bases(source, tmp_path) > 0
    engine = _engine()
    assert load_bases(engine, tmp_path) > 0
    # The adopted bases serve exact hits whose digests are computed anew.
    _run(engine, [(point, tuple(range(N_WORLDS))) for point in grid[::5]] + _requests(7, grid))
