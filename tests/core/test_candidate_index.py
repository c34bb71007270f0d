"""The candidate index appends new keys, moves replaced ones, and is
dropped by every other change.

``TieredBasisStore`` keeps one :class:`CandidateIndex` per model: the keys in
``model_keys`` order, the worlds each covers and its args as float rows. A
new key appends a row, a replacement over other worlds moves the key to
another world set, and any other change drops the index; the next read
rebuilds it. That ``nearest_candidates`` over the index answers exactly what
a scan of the store would is pinned under generated churn in
``test_mapped_candidates.py``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from repro.core.basis_store import CandidateIndex
from repro.core.fingerprint import CorrelationPolicy, FingerprintSpec
from repro.core.fingerprint.registry import FingerprintRegistry
from repro.core.storage import BasisEntry, StorageManager
from repro.models import CapacityModel, DemandModel
from repro.vg.library import VGLibrary
from repro.vg.seeds import world_seed

BASE_SEED = 42
N_WEEKS = 53
WORLD_SETS = [tuple(range(4)), tuple(range(6))]


def _library() -> VGLibrary:
    library = VGLibrary()
    library.register(DemandModel())
    library.register(CapacityModel())
    return library


def _storage(spill_dir, basis_cap=None) -> StorageManager:
    return StorageManager(
        FingerprintRegistry(FingerprintSpec(n_seeds=8), CorrelationPolicy(tolerance=1e-6)),
        _library(),
        BASE_SEED,
        basis_cap=basis_cap,
        spill_dir=spill_dir,
    )


def _entry(key, worlds, seed) -> BasisEntry:
    seeds = tuple(world_seed(BASE_SEED, w) for w in worlds)
    samples = np.random.default_rng(seed).normal(size=(len(worlds), N_WEEKS))
    return BasisEntry(key[0], key[1], samples, worlds, seeds)


def test_new_keys_append_and_other_changes_rebuild(tmp_path):
    storage = _storage(str(tmp_path / "spill"), basis_cap=4)
    tier = storage.tier

    def put(args, worlds=WORLD_SETS[0]):
        key = ("capacitymodel", args)
        tier.put(key, _entry(key, worlds, len(tier)))

    def index():
        return tier.candidate_index("capacitymodel")

    put((0, 24))
    first = index()
    for args in ((4, 24), (8, 24.0), (12.5, 7.25)):
        put(args)
        assert index() is first  # appended in place
    assert first.keys == [args for args, _ in tier.model_keys("capacitymodel")]
    assert first.rows.tolist() == [[0, 24], [4, 24], [8, 24], [12.5, 7.25]]
    assert first.plain.all() and list(first.world_sets) == [WORLD_SETS[0]]

    put((4, 24.0))  # replaced over the same worlds: nothing to redo
    assert index() is first
    put((4, 24), WORLD_SETS[1])  # replaced over other worlds: moved in place
    assert index() is first
    assert list(first.world_sets) == [WORLD_SETS[0], WORLD_SETS[1]]
    assert first.set_ids.tolist() == [0, 1, 0, 0]
    assert first.set_sizes == [3, 1]

    put((-3, 24))  # evicts (0, 24) to disk
    evicted = index()
    assert evicted is not first
    assert evicted.keys[-1] == (0, 24)  # spilled-only keys enumerate last
    put((2**53 + 1, 7.25))  # a spilled-only key exists: rebuilt, not appended
    assert index() is not evicted
    faulted = index()
    tier.get(("capacitymodel", (0, 24)))  # a fault moves the key
    assert index() is not faulted
    adopted = index()
    storage.adopt(str(tmp_path / "spill"))  # nothing new to adopt: kept
    assert index() is adopted
    storage.clear()
    assert len(index()) == 0


def test_a_world_set_no_key_covers_is_not_checked():
    storage = _storage(None)
    tier = storage.tier
    keys = [("capacitymodel", args) for args in ((0, 24), (4, 24), (8, 24.0))]
    for key in keys:
        tier.put(key, _entry(key, WORLD_SETS[0], 0))
    index = tier.candidate_index("capacitymodel")
    for key in keys:  # the extend path: every key grows its worlds
        tier.put(key, _entry(key, WORLD_SETS[1], 1))
    assert tier.candidate_index("capacitymodel") is index
    assert list(index.world_sets) == WORLD_SETS
    assert index.set_sizes == [0, 3]  # the tuple left behind stays numbered
    with mock.patch.object(storage, "_covers_worlds", wraps=storage._covers_worlds) as covers:
        # (5,) is not in the tuple left behind, yet every key is found.
        ranked = storage.nearest_candidates("capacitymodel", (4, 24), (5,))
    assert ranked == [(4, 24), (0, 24), (8, 24.0)]
    assert [call.args[0] for call in covers.call_args_list] == [WORLD_SETS[1]]


def test_rows_grow_past_their_first_capacity():
    index = CandidateIndex()
    keys = [(float(n), n) for n in range(40)] + [("x", 1), (1, 2, 3)]
    for number, args in enumerate(keys):
        index.append(args, WORLD_SETS[number % 2])
    assert index.keys == keys
    assert index.rows[:40].tolist() == [[float(n), float(n)] for n in range(40)]
    assert index.plain.tolist() == [True] * 40 + [False, False]
    assert index.set_ids.tolist() == [n % 2 for n in range(42)]
