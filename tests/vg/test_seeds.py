"""Unit tests for deterministic seed derivation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.vg.seeds import (
    WORLD_SEED_MEMO_SIZE,
    derive_seed,
    fingerprint_seeds,
    rng_for,
    spawn_streams,
    world_seed,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed("a", 1, 2.5) == derive_seed("a", 1, 2.5)

    def test_sensitive_to_every_part(self):
        base = derive_seed("model", 1, (2, 3))
        assert derive_seed("model", 2, (2, 3)) != base
        assert derive_seed("other", 1, (2, 3)) != base
        assert derive_seed("model", 1, (3, 2)) != base

    def test_type_distinction(self):
        # 1 (int) and 1.0 (float) and "1" (str) must hash differently.
        assert derive_seed(1) != derive_seed(1.0)
        assert derive_seed(1) != derive_seed("1")
        assert derive_seed(True) != derive_seed(1)

    def test_nested_structures(self):
        assert derive_seed(("a", (1, 2))) == derive_seed(("a", (1, 2)))
        assert derive_seed(("a", (1, 2))) != derive_seed(("a", 1, 2))

    def test_none_supported(self):
        assert isinstance(derive_seed(None), int)

    def test_64_bit_range(self):
        for parts in [("x",), (12345,), ("y", 2.5)]:
            seed = derive_seed(*parts)
            assert 0 <= seed < 2**64

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            derive_seed({"a": 1})


class TestStreams:
    def test_rng_for_reproducible(self):
        a = rng_for(42).normal(size=5)
        b = rng_for(42).normal(size=5)
        assert (a == b).all()

    def test_different_seeds_differ(self):
        a = rng_for(1).normal(size=5)
        b = rng_for(2).normal(size=5)
        assert not (a == b).all()

    def test_world_seeds_distinct_and_stable(self):
        seeds = [world_seed(7, w) for w in range(100)]
        assert len(set(seeds)) == 100
        assert seeds == [world_seed(7, w) for w in range(100)]

    def test_fingerprint_seeds_fixed_sequence(self):
        assert fingerprint_seeds(1, 8) == fingerprint_seeds(1, 8)
        assert len(set(fingerprint_seeds(1, 8))) == 8

    def test_fingerprint_seeds_prefix_property(self):
        assert fingerprint_seeds(1, 4) == fingerprint_seeds(1, 8)[:4]

    def test_fingerprint_disjoint_from_world_streams(self):
        probes = set(fingerprint_seeds(1, 16))
        worlds = {world_seed(1, w) for w in range(1000)}
        assert not probes & worlds

    def test_fingerprint_count_validated(self):
        with pytest.raises(ValueError):
            fingerprint_seeds(1, 0)

    def test_spawn_streams_independent(self):
        streams = spawn_streams(5, ["a", "b"])
        a = streams["a"].normal(size=4)
        b = streams["b"].normal(size=4)
        assert not (a == b).all()
        again = spawn_streams(5, ["a"])["a"].normal(size=4)
        assert (a == again).all()


class TestWorldSeedMemo:
    """The bounded memo behind ``world_seed`` never changes a value."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([42, 7]),  # two base seeds, interleaved
                st.integers(min_value=-(2**63), max_value=2**63),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_equals_unmemoised_derivation(self, pairs):
        for base_seed, world in pairs + pairs:  # second pass reads the memo
            assert world_seed(base_seed, world) == derive_seed(
                "world", base_seed, world
            )

    def test_eviction_changes_nothing(self):
        world_seed.cache_clear()
        head = [world_seed(42, w) for w in range(64)]
        for world in range(64, WORLD_SEED_MEMO_SIZE + 64):
            world_seed(42, world)
        info = world_seed.cache_info()
        assert info.currsize == info.maxsize == WORLD_SEED_MEMO_SIZE
        # Worlds 0..63 were evicted; they re-derive to the same seeds.
        assert [world_seed(42, w) for w in range(64)] == head
        assert head == [derive_seed("world", 42, w) for w in range(64)]

    def test_bool_and_int_stay_separate_entries(self):
        assert world_seed(42, True) == derive_seed("world", 42, True)
        assert world_seed(42, 1) == derive_seed("world", 42, 1)
        assert world_seed(42, True) != world_seed(42, 1)
