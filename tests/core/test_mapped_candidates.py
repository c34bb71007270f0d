"""Mapped-hit candidates come from one model's keys, exactly like a store scan.

``StorageManager.nearest_candidates`` reads the requested model's candidate
index (``TieredBasisStore.candidate_index``, kept in ``model_keys`` order)
and decides coverage once per distinct world tuple. The oracle is the scan
it replaced: every stored key of the model in ``keys()`` order, filtered by
world coverage read through ``peek_worlds`` key by key, ranked by the
scalar ranking (kept here verbatim as ``_scalar_ranking``). Seeded random
churn — new keys, replacements over the same or other worlds, memory and
byte caps, spills, faults, failed faults (a refused seed, a deleted file),
directory adoption, ``clear`` — runs against one store; after every step
both must return the same list, in the same order, for int, float, bool,
string, non-finite, overflowing and wrong-arity args and targets. The
per-model order itself is pinned against the flat store's rules
separately, and ``_nearest_rows`` (the index's ranking of float rows)
against the scalar ranking on generated argument lists.
"""

from __future__ import annotations

import heapq
import os
import random
from unittest import mock

import numpy as np
import pytest

from repro.core.basis_store import float_row, write_basis_file
from repro.core.fingerprint import CorrelationPolicy, FingerprintSpec
from repro.core.fingerprint.registry import FingerprintRegistry
from repro.core.storage import BasisEntry, StorageManager, _nearest_rows
from repro.models import CapacityModel, DemandModel
from repro.vg.library import VGLibrary
from repro.vg.seeds import world_seed

BASE_SEED = 42
N_WEEKS = 53
#: Capacity keys stay plain numbers (their ranking reads the index's float
#: rows); demand keys mix bools, arities, strings, non-finite values and an
#: int beyond float range (their ranking falls back to the scalar one).
NUMERIC_ARGS = [(a, b) for a in (0, 4, 8, 12.5, -3, 2**53 + 1) for b in (24, 24.0, 7.25)]
MIXED_ARGS = [
    (12,), (36.0,), (True,), (False,), (1,), (0.0,), (12, 1), (True, 2.5), (),
    ("a",), (float("inf"),), (10**400,), (float("nan"),),
]
WORLD_SETS = [tuple(range(4)), tuple(range(6)), (3, 1, 2, 0), (1, 2), tuple(range(8))]
TARGETS = [
    (8, 24), (8.0, 24.0), (12.5, 7.25), (-3, 0), (True, 24), (8,), (8, 24, 1),
    (12,), (1.0,), (True,), (False,), (0,), (12, 1), (), ("a",), (float("inf"),),
]


def _library() -> VGLibrary:
    library = VGLibrary()
    library.register(DemandModel())
    library.register(CapacityModel())
    return library


def _storage(tmp_path, name, **tier) -> StorageManager:
    spill = tier.pop("spill", True)
    return StorageManager(
        FingerprintRegistry(FingerprintSpec(n_seeds=8), CorrelationPolicy(tolerance=1e-6)),
        _library(),
        BASE_SEED,
        spill_dir=str(tmp_path / name) if spill else None,
        **tier,
    )


def _entry(vg_name, args, worlds, rng, trusted=True) -> BasisEntry:
    seeds = tuple(world_seed(BASE_SEED if trusted else 7, w) for w in worlds)
    samples = rng.normal(size=(len(worlds), N_WEEKS))
    return BasisEntry(vg_name, args, samples, worlds, seeds)


def _scalar_ranking(target, candidates, limit):
    """The ranking before its vectorized path, verbatim, but for an int
    beyond float range: that pair is at distance ``inf``."""

    def distance(args):
        if len(args) != len(target):
            return float("inf")
        total = 0.0
        for a, b in zip(args, target):
            a_bool = isinstance(a, bool)
            b_bool = isinstance(b, bool)
            if not a_bool and not b_bool and isinstance(a, (int, float)) and isinstance(b, (int, float)):
                try:
                    total += abs(float(a) - float(b))
                except OverflowError:
                    total += float("inf")
            elif a_bool != b_bool:
                total += 1.0  # bool vs number: a type mismatch, never equal
            elif a != b:
                total += 1.0
        return total

    return heapq.nsmallest(max(limit, 1), candidates, key=distance)


def _scan(storage, vg_name, target, worlds, limit=8):
    """The scan ``nearest_candidates`` replaced."""

    def covers(stored):
        if stored is None:
            return False
        if isinstance(worlds, tuple) and stored == worlds:
            return True
        return set(stored).issuperset(worlds)

    lowered = vg_name.lower()
    candidates = [
        args
        for name, args in storage.tier.keys()
        if name == lowered and covers(storage.tier.peek_worlds((name, args)))
    ]
    return _scalar_ranking(target, candidates, limit)


def _outcome(rank, *args):
    """What a ranking returns: each key as the very object, with its arg
    types (equal keys of different types, 1 and True, must come back as the
    objects the tiers hold)."""
    return [(id(args), args, tuple(map(type, args))) for args in rank(*args)]


def _check(storage):
    for vg_name in ("CapacityModel", "demandmodel"):
        for target in TARGETS:
            for worlds in (WORLD_SETS[0], WORLD_SETS[2], WORLD_SETS[3], [0, 1]):
                request = (vg_name, target, worlds)
                assert _outcome(storage.nearest_candidates, *request) == _outcome(
                    _scan, storage, *request
                ), request


def _churn(storage, rng, steps, adopt_dir=None):
    keys = [("capacitymodel", args) for args in NUMERIC_ARGS] + [
        ("demandmodel", args) for args in MIXED_ARGS
    ]
    for _ in range(steps):
        roll = rng.random()
        key = rng.choice(keys)
        if roll < 0.5:
            # A put: a new key or a replacement, now and then over another
            # world set or with an untrusted seed that will fail its fault.
            entry = _entry(
                key[0], key[1], rng.choice(WORLD_SETS), np.random.default_rng(rng.randrange(2**32)),
                trusted=rng.random() > 0.1,
            )
            storage.tier.put(key, entry)
        elif roll < 0.8:
            storage.tier.get(key)  # recency, or a fault (maybe a failed one)
        elif roll < 0.88 and storage.tier.spill_dir is not None:
            files = sorted(os.listdir(storage.tier.spill_dir))
            if files:
                os.remove(os.path.join(storage.tier.spill_dir, rng.choice(files)))
        elif roll < 0.95 and adopt_dir is not None:
            storage.adopt(adopt_dir)
        elif roll < 0.97:
            storage.clear()
        _check(storage)


@pytest.fixture
def adopt_dir(tmp_path):
    """A directory of basis files, some of them keys the churn also puts."""
    directory = tmp_path / "saved"
    directory.mkdir()
    rng = np.random.default_rng(0)
    for vg_name, pool in (("capacitymodel", NUMERIC_ARGS), ("demandmodel", MIXED_ARGS)):
        for args in pool[::2]:
            entry = _entry(vg_name, args, WORLD_SETS[len(args) % len(WORLD_SETS)], rng)
            write_basis_file(str(directory), (vg_name, args), entry)
    return str(directory)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "tier",
    [
        {"basis_cap": 3},
        {"basis_cap": 5, "basis_byte_cap": 6 * 8 * N_WEEKS * 2},
        {"basis_cap": 2, "spill": False},
        {},
    ],
    ids=["cap3", "bytes", "no-disk", "unbounded"],
)
def test_candidates_equal_the_scan_under_churn(tmp_path, adopt_dir, seed, tier):
    storage = _storage(tmp_path, f"spill{seed}", **tier)
    _churn(storage, random.Random(seed), steps=80, adopt_dir=adopt_dir)


def test_a_store_adopted_at_startup_is_ranked(tmp_path, adopt_dir):
    storage = StorageManager(
        FingerprintRegistry(FingerprintSpec(n_seeds=8), CorrelationPolicy(tolerance=1e-6)),
        _library(),
        BASE_SEED,
        basis_cap=2,
        spill_dir=adopt_dir,
    )
    assert len(storage) > 0
    _check(storage)
    _churn(storage, random.Random(9), steps=40)


def test_a_key_beyond_float_range_ranks_last_and_acquire_still_answers(tmp_path):
    """An int arg beyond float range is at distance ``inf`` from a number:
    the key ranks after every finite one — here past the 8 candidates
    ``acquire`` probes — so ``acquire`` answers from the others instead of
    raising ``OverflowError``."""
    storage = _storage(tmp_path, "spill", spill=False)
    vg = storage.library.get("DemandModel")
    worlds = tuple(range(4))
    seeds = tuple(world_seed(BASE_SEED, w) for w in worlds)
    huge = (10**400,)
    storage.tier.put(("demandmodel", huge), _entry("DemandModel", huge, worlds, np.random.default_rng(0)))
    for feature in range(8):
        storage.store(
            vg, (feature,), np.vstack([vg.invoke(s, (feature,)) for s in seeds]), worlds, seeds
        )
    ranked = storage.nearest_candidates("DemandModel", (13,), worlds, limit=9)
    assert ranked == [(feature,) for feature in range(7, -1, -1)] + [huge]
    samples, report = storage.acquire(vg, (13,), worlds, seeds)
    assert (report.source, report.basis_args) == ("mapped", (7,))
    assert samples.shape == (4, N_WEEKS)


def test_acquire_reads_one_model_not_every_key(tmp_path):
    storage = _storage(tmp_path, "spill", spill=False)
    vg = DemandModel()
    seeds = [world_seed(BASE_SEED, w) for w in range(4)]
    for feature in range(12):
        storage.store(
            vg, (feature,), np.vstack([vg.invoke(s, (feature,)) for s in seeds]), range(4), seeds
        )
    tier = storage.tier
    with mock.patch.object(tier, "peek_worlds", wraps=tier.peek_worlds) as peeked, \
            mock.patch.object(tier, "keys", wraps=tier.keys) as listed:
        _, report = storage.acquire(vg, (40,), tuple(range(4)), seeds)
    assert report.source in ("mapped", "fresh")
    assert peeked.call_count == 1  # the exact-hit check only
    assert listed.call_count == 0


def test_model_keys_follow_the_flat_store_order(tmp_path):
    """Per model: memory insertion order (a fault re-inserts at the end, an
    in-place put keeps the position and the first args object), then
    spilled-only keys in spill order."""
    storage = _storage(tmp_path, "spill", basis_cap=3)
    tier, rng = storage.tier, np.random.default_rng(0)

    def put(vg_name, args):
        tier.put((vg_name, args), _entry(vg_name, args, WORLD_SETS[0], rng))

    def order(vg_name):
        return [(args, tuple(map(type, args))) for args, _ in tier.model_keys(vg_name)]

    put("capacitymodel", (0, 24))
    put("demandmodel", (1,))
    put("capacitymodel", (4, 24))
    put("demandmodel", (12,))  # evicts (0, 24) to disk
    assert order("capacitymodel") == [((4, 24), (int, int)), ((0, 24), (int, int))]
    assert tier.keys() == (
        ("capacitymodel", (4, 24)), ("capacitymodel", (0, 24)),
        ("demandmodel", (1,)), ("demandmodel", (12,)),
    )
    tier.get(("capacitymodel", (0, 24)))  # faults back at the end, evicts (1,)
    assert order("capacitymodel") == [((4, 24), (int, int)), ((0, 24), (int, int))]
    assert order("demandmodel") == [((12,), (int,)), ((1,), (int,))]
    put("demandmodel", (36,))  # (4, 24) spills after (0, 24)'s file
    assert order("capacitymodel") == [((0, 24), (int, int)), ((4, 24), (int, int))]
    assert order("demandmodel") == [((12,), (int,)), ((36,), (int,)), ((1,), (int,))]
    put("demandmodel", (12.0,))  # in place: position and args object kept
    assert order("demandmodel") == [((12,), (int,)), ((36,), (int,)), ((1,), (int,))]
    tier.get(("demandmodel", (1,)))  # faults back at the end; (0, 24) leaves memory
    assert order("demandmodel") == [((12,), (int,)), ((36,), (int,)), ((1,), (int,))]
    assert order("capacitymodel") == [((0, 24), (int, int)), ((4, 24), (int, int))]
    put("demandmodel", (True,))  # equal to (1,): in place, the int object kept
    assert order("demandmodel") == [((12,), (int,)), ((36,), (int,)), ((1,), (int,))]


ARG_POOL = [
    0, 1, 2, 8, 12.5, -3, 24, 24.0, 0.1, 0.2, 0.30000000000000004, 2**53 + 1,
    2**70 + 3, 10**400, 1e308, -1e308, float("inf"), float("nan"), True, False,
    np.float64(2.5), np.int64(3), "a",
]


@pytest.mark.parametrize("seed", range(4))
def test_vectorized_ranking_equals_the_scalar_one(seed):
    """``_nearest_rows`` over the candidates' float rows ranks as the scalar
    ranking does — same objects, same order, ties and overflowing distances
    included — wherever the target and every candidate have a ``float_row``
    (ints beyond 2**53 do; non-finite, huge, bool, numpy scalars, strings
    and mismatched arity do not, and keep the scalar ranking)."""
    rng = random.Random(seed)
    plain = ARG_POOL[:13]
    checked = 0
    for _ in range(2000):
        arity = rng.randrange(4)
        pool = plain if rng.random() < 0.8 else ARG_POOL
        target = tuple(rng.choice(pool) for _ in range(arity))
        candidates = [
            tuple(rng.choice(pool) for _ in range(arity if rng.random() < 0.95 else arity + 1))
            for _ in range(rng.randrange(30))
        ]
        limit = rng.choice([0, 1, 3, 8, 50])
        rows = [float_row(args, arity) for args in (target, *candidates)]
        if any(row is None for row in rows):
            continue
        rows = np.array(rows).reshape(len(rows), arity)
        expected = _scalar_ranking(target, candidates, limit)
        ranked = [candidates[i] for i in _nearest_rows(rows[1:], rows[0], limit)]
        assert len(ranked) == len(expected)
        assert all(a is b for a, b in zip(ranked, expected)), (target, candidates, limit)
        checked += 1
    assert checked > 500
