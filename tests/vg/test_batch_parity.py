"""Property tests: ``generate_batch`` is bitwise-identical to the per-seed loop.

The sampling plane's whole correctness story rests on one contract: for any
VG-Function, any seed slice (empty and singleton included), and any argument
dtypes, the batched implementation produces byte-for-byte the matrix the
per-world ``generate`` loop would. These tests pin that contract for every
VG shape in the library — primitives, stepped chains, distribution series,
combinators, and the demo business models.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import build_demo_library
from repro.models.demand import DemandModel
from repro.models.capacity import CapacityModel, MaintenanceWindowCapacityModel
from repro.vg import (
    AR1Series,
    CallableVGFunction,
    DifferenceOf,
    DistributionSeries,
    Exponential,
    GaussianSeries,
    LogNormal,
    MixtureOf,
    Normal,
    Poisson,
    PoissonEventSeries,
    RandomWalk,
    ScaledBy,
    SeasonalSeries,
    SumOf,
    TransformedBy,
)

seeds_strategy = st.lists(
    st.integers(min_value=0, max_value=2**63 - 1), min_size=0, max_size=6
)

#: (factory, args) pairs covering every VG shape; factories build fresh
#: instances so memo caches and counters never leak across examples.
VG_CASES = {
    "gaussian": (lambda n: GaussianSeries("g", n, base=3.0, trend=0.5, sigma=2.0), ()),
    "random_walk": (lambda n: RandomWalk("rw", n, start=1.0, drift=0.25, sigma=0.7), ()),
    "ar1": (lambda n: AR1Series("ar", n, mu=2.0, phi=0.6, sigma=0.4, start=5.0), ()),
    "seasonal": (
        lambda n: SeasonalSeries(
            "sea", n, base=1.0, amplitude=2.0, period=7.0, trend=0.2, phase=1.5, sigma=0.3
        ),
        (),
    ),
    "poisson_events": (lambda n: PoissonEventSeries("pe", n, rate=3.5), ()),
    "dist_normal": (lambda n: DistributionSeries("dn", n, Normal(1.0, 2.0)), ()),
    "dist_lognormal": (lambda n: DistributionSeries("dl", n, LogNormal(0.1, 0.4)), ()),
    "dist_poisson": (lambda n: DistributionSeries("dp", n, Poisson(2.5)), ()),
    "dist_exponential": (lambda n: DistributionSeries("de", n, Exponential(1.5)), ()),
    "sum": (
        lambda n: SumOf(
            "sum",
            [GaussianSeries("c1", n, base=1.0, sigma=1.0), PoissonEventSeries("c2", n, rate=2.0)],
        ),
        (),
    ),
    "difference": (
        lambda n: DifferenceOf(
            "diff",
            [
                GaussianSeries("c1", n, base=9.0, sigma=1.0),
                PoissonEventSeries("c2", n, rate=2.0),
                RandomWalk("c3", n, sigma=0.5),
            ],
        ),
        (),
    ),
    "scaled": (
        lambda n: ScaledBy("sc", GaussianSeries("c1", n, base=1.0, sigma=1.0), 2.5, offset=-1.0),
        (),
    ),
    "transformed": (
        lambda n: TransformedBy(
            "tr",
            GaussianSeries("c1", n, base=1.0, sigma=1.0),
            lambda vector, args: np.maximum(vector, 0.0),
        ),
        (),
    ),
    "mixture": (
        lambda n: MixtureOf(
            "mix",
            [GaussianSeries("c1", n, base=1.0, sigma=1.0), RandomWalk("c2", n, sigma=0.5)],
            weights=[0.3, 0.7],
        ),
        (),
    ),
    "callable": (
        lambda n: CallableVGFunction(
            "cv", n, (), lambda rng, args: rng.normal(0.0, 1.0, size=n) ** 2
        ),
        (),
    ),
    "demand_int_arg": (lambda n: DemandModel("dm", n_weeks=n), (12,)),
    "demand_float_growth": (
        lambda n: DemandModel("dg", n_weeks=n, with_growth_arg=True),
        (12, 1.25),
    ),
    "capacity_int_args": (lambda n: CapacityModel("cm", n_weeks=n), (8, 24)),
    "capacity_initial_arg": (
        lambda n: CapacityModel("ci", n_weeks=n, with_initial_arg=True),
        (1, 3, 6400.5),
    ),
    "maintenance_capacity": (
        lambda n: MaintenanceWindowCapacityModel("mw", n_weeks=n, window_every=3, window_width=1),
        (1,),
    ),
}


def _loop_reference(function, seeds, args) -> np.ndarray:
    matrix = np.empty((len(seeds), function.n_components), dtype=float)
    for row, seed in enumerate(seeds):
        matrix[row] = np.asarray(function.generate(seed, args), dtype=float)
    return matrix


@pytest.mark.parametrize("case", sorted(VG_CASES))
@given(seeds=seeds_strategy, n_components=st.integers(min_value=1, max_value=9))
@settings(max_examples=20, deadline=None)
def test_generate_batch_matches_per_seed_loop(case, seeds, n_components):
    factory, args = VG_CASES[case]
    function = factory(n_components)
    batch = function.generate_batch(tuple(seeds), args)
    reference = _loop_reference(function, seeds, args)
    assert batch.shape == (len(seeds), function.n_components)
    assert batch.dtype == np.float64
    assert batch.tobytes() == reference.tobytes()
    assert function.parity_fallbacks == 0


@pytest.mark.parametrize("case", sorted(VG_CASES))
@given(seeds=seeds_strategy)
@settings(max_examples=12, deadline=None)
def test_invoke_batch_matches_per_seed_invoke(case, seeds):
    factory, args = VG_CASES[case]
    batched = factory(7)
    looped = factory(7)
    batch = batched.invoke_batch(tuple(seeds), args)
    if seeds:
        reference = np.stack([looped.invoke(seed, args) for seed in seeds])
        assert batch.tobytes() == reference.tobytes()
    else:
        assert batch.shape == (0, 7)
    # Instrumentation parity: same real generations, same component counts.
    assert batched.invocations == looped.invocations
    assert batched.component_samples == looped.component_samples


@given(seeds=st.lists(st.integers(min_value=0, max_value=2**63 - 1), min_size=1, max_size=6))
@settings(max_examples=12, deadline=None)
def test_invoke_batch_serves_cached_rows_without_recounting(seeds):
    function = GaussianSeries("g", 5, base=0.0, sigma=1.0)
    primed = function.invoke(seeds[0], ())
    assert function.invocations == 1
    batch = function.invoke_batch(tuple(seeds), ())
    assert batch[0].tobytes() == primed.tobytes()
    # Only genuinely new (seed, args) pairs count as invocations — cached
    # rows and within-batch duplicates are served from the memo.
    assert function.invocations == 1 + len(set(seeds) - {seeds[0]})


@pytest.mark.parametrize("singleton", [[], [123456789]])
def test_empty_and_singleton_slices(singleton):
    for case in sorted(VG_CASES):
        factory, args = VG_CASES[case]
        function = factory(4)
        batch = function.generate_batch(tuple(singleton), args)
        assert batch.shape == (len(singleton), 4)
        assert batch.tobytes() == _loop_reference(function, singleton, args).tobytes()


def test_demo_library_batch_parity():
    """Every VG registered in the demo library honors the batch contract."""
    args_by_name = {
        "demandmodel": (12,),
        "capacitymodel": (8, 24),
        "maintenancecapacitymodel": (3,),
    }
    seeds = (0, 1, 987654321, 2**62 + 17)
    library = build_demo_library()
    assert len(library) >= 3
    for function in library:
        args = args_by_name[function.name.lower()]
        batch = function.generate_batch(seeds, args)
        reference = _loop_reference(function, seeds, args)
        assert batch.tobytes() == reference.tobytes(), function.name
        assert function.parity_fallbacks == 0


def test_parity_guard_catches_broken_vectorization():
    """A vectorized batch that disagrees with the scalar path is rejected."""

    class BrokenBatch(GaussianSeries):
        def generate_batch(self, seeds, args):
            matrix = super(GaussianSeries, self).generate_batch(seeds, args) + 1.0
            return self.guarded_batch(seeds, args, matrix)

    function = BrokenBatch("broken", 5, base=0.0, sigma=1.0)
    seeds = (11, 22, 33)
    batch = function.generate_batch(seeds, ())
    # The guard fell back to the per-seed loop: output is still bit-correct.
    assert batch.tobytes() == _loop_reference(function, seeds, ()).tobytes()
    assert function.parity_fallbacks == 1


def test_stepped_subclass_overrides_disable_vectorized_walk():
    """A RandomWalk subclass with a custom step keeps bit-identity."""

    class CustomWalk(RandomWalk):
        def step(self, state, t, rng, args):
            return state + abs(rng.normal(self.drift, self.sigma))

    function = CustomWalk("cw", 6, start=0.0, drift=0.1, sigma=1.0)
    seeds = (5, 6, 7)
    batch = function.generate_batch(seeds, ())
    assert batch.tobytes() == _loop_reference(function, seeds, ()).tobytes()
    assert function.parity_fallbacks == 0  # structural check, not the guard


def test_generate_override_disables_vectorized_gaussian():
    """A GaussianSeries subclass with a seed-conditional tweak stays exact.

    The first-world parity probe alone could miss a seed-conditional
    override; the structural check must route every batch through the loop.
    """

    class SpikedGaussian(GaussianSeries):
        def generate(self, seed, args):
            vector = super().generate(seed, args)
            return vector + 100.0 if seed % 2 == 0 else vector

    function = SpikedGaussian("sg", 5, base=0.0, sigma=1.0)
    seeds = (1, 2, 3, 4)  # first seed does NOT trigger the override
    batch = function.generate_batch(seeds, ())
    assert batch.tobytes() == _loop_reference(function, seeds, ()).tobytes()
    assert function.parity_fallbacks == 0  # structural check, not the guard


def test_generate_override_disables_vectorized_composites():
    class OffsetSum(SumOf):
        def generate(self, seed, args):
            return super().generate(seed, args) + (1.0 if seed % 2 == 0 else 0.0)

    function = OffsetSum(
        "osum",
        [GaussianSeries("c1", 4, base=1.0, sigma=1.0),
         GaussianSeries("c2", 4, base=2.0, sigma=1.0)],
    )
    seeds = (1, 2, 3, 4)
    batch = function.generate_batch(seeds, ())
    assert batch.tobytes() == _loop_reference(function, seeds, ()).tobytes()


def test_library_counts_parity_fallbacks():
    from repro.vg import VGLibrary

    class BrokenBatch(GaussianSeries):
        def generate_batch(self, seeds, args):
            matrix = super(GaussianSeries, self).generate_batch(seeds, args) + 1.0
            return self.guarded_batch(seeds, args, matrix)

    library = VGLibrary()
    library.register(BrokenBatch("broken", 4, base=0.0, sigma=1.0))
    library.register(GaussianSeries("fine", 4, base=0.0, sigma=1.0))
    assert library.total_parity_fallbacks() == 0
    for function in library:
        function.generate_batch((1, 2), ())
    assert library.total_parity_fallbacks() == 1
    library.reset_counters()
    assert library.total_parity_fallbacks() == 0


def test_observe_override_disables_vectorized_ar1():
    class ObservedAR1(AR1Series):
        def observe(self, state, t, args):
            return state * 2.0

    function = ObservedAR1("oar", 6, mu=0.0, phi=0.5, sigma=1.0)
    seeds = (5, 6, 7)
    batch = function.generate_batch(seeds, ())
    assert batch.tobytes() == _loop_reference(function, seeds, ()).tobytes()


def test_mixture_groups_preserve_row_order():
    """Worlds scattered across regimes land back in their own rows."""
    children = [
        GaussianSeries("lo", 4, base=-100.0, sigma=0.1),
        GaussianSeries("hi", 4, base=100.0, sigma=0.1),
    ]
    function = MixtureOf("mix", children, weights=[0.5, 0.5])
    seeds = tuple(range(40))
    batch = function.generate_batch(seeds, ())
    reference = _loop_reference(function, seeds, ())
    assert batch.tobytes() == reference.tobytes()
    # Sanity: both regimes actually occurred, so grouping was exercised.
    assert (batch.mean(axis=1) < 0).any() and (batch.mean(axis=1) > 0).any()


# -- invoke_components_batch vs the per-seed invoke_components loop ------------


def _memo_state(function):
    """The invocation memo as comparable bytes (insertion order included)."""
    return [(key, vector.tobytes()) for key, vector in function._cache.items()]


components_strategy = st.lists(
    st.integers(min_value=0, max_value=6), min_size=0, max_size=9
)


@pytest.mark.parametrize("case", sorted(VG_CASES))
@given(
    # A small seed pool makes duplicates within one batch the common case.
    seeds=st.lists(
        st.sampled_from([0, 1, 5, 987654321, 2**62 + 17]), min_size=0, max_size=7
    ),
    components=components_strategy,
    primed=st.booleans(),
)
@settings(max_examples=15, deadline=None)
def test_invoke_components_batch_matches_per_seed_loop(case, seeds, components, primed):
    factory, args = VG_CASES[case]
    batched, looped = factory(7), factory(7)
    if primed and seeds:  # one row already in the invocation memo
        batched.invoke(seeds[0], args)
        looped.invoke(seeds[0], args)
    batch = batched.invoke_components_batch(tuple(seeds), args, tuple(components))
    reference = np.empty((len(seeds), len(components)), dtype=float)
    for row, seed in enumerate(seeds):
        reference[row] = looped.invoke_components(seed, args, tuple(components))
    assert batch.shape == reference.shape
    assert batch.dtype == np.float64
    assert batch.tobytes() == reference.tobytes()
    assert batched.invocations == looped.invocations
    assert batched.component_samples == looped.component_samples
    assert _memo_state(batched) == _memo_state(looped)
    assert batched.parity_fallbacks == 0


@pytest.mark.parametrize("model", ["demand_float_growth", "capacity_int_args"])
def test_batch_partial_models_take_the_vectorized_path(model):
    """The demo models answer a batch with one call, not a per-seed loop."""
    factory, args = VG_CASES[model]
    function = factory(53)
    calls = []
    scalar = function.generate_partial
    function.generate_partial = lambda *a: calls.append(a) or scalar(*a)
    seeds = tuple(range(100, 164))
    batch = function.invoke_components_batch(seeds, args, (3, 17, 18, 52))
    assert len(calls) == 1  # the first-row guard's probe, nothing else
    assert function.invocations == 64
    assert function.component_samples == 64 * 4
    looped = factory(53)
    reference = np.stack(
        [looped.invoke_components(seed, args, (3, 17, 18, 52)) for seed in seeds]
    )
    assert batch.tobytes() == reference.tobytes()
    # A second parameterization re-uses the seed-only events.
    events = dict(function._event_memo)
    other = (36, 0.8) if model == "demand_float_growth" else (24, 40)
    function.invoke_components_batch(seeds, other, (3, 17))
    assert all(function._event_memo[seed] is events[seed] for seed in seeds)


def test_wrong_partial_batch_override_degrades_to_the_loop():
    class BrokenPartialBatch(DemandModel):
        def generate_partial_batch(self, seeds, args, components):
            return super().generate_partial_batch(seeds, args, components) + 1.0

    broken, looped = BrokenPartialBatch("dm", n_weeks=9), DemandModel("dm", n_weeks=9)
    seeds, components = (11, 22, 22, 33), (0, 4, 8)
    batch = broken.invoke_components_batch(seeds, (4,), components)
    reference = np.stack(
        [looped.invoke_components(seed, (4,), components) for seed in seeds]
    )
    assert batch.tobytes() == reference.tobytes()
    assert broken.parity_fallbacks == 1
    assert broken.invocations == looped.invocations
    assert broken.component_samples == looped.component_samples


def test_wrong_shape_partial_batch_override_degrades_to_the_loop():
    class ShortBatch(CapacityModel):
        def generate_partial_batch(self, seeds, args, components):
            return super().generate_partial_batch(seeds, args, components)[:-1]

    short, looped = ShortBatch("cm", n_weeks=9), CapacityModel("cm", n_weeks=9)
    batch = short.invoke_components_batch((1, 2, 3), (2, 5), (1, 6))
    reference = np.stack(
        [looped.invoke_components(seed, (2, 5), (1, 6)) for seed in (1, 2, 3)]
    )
    assert batch.tobytes() == reference.tobytes()
    assert short.parity_fallbacks == 1


def test_scalar_override_disables_vectorized_partial_batch():
    """A seed-conditional scalar tweak is invisible to the first-row guard;
    the structural check must route the batch through the loop."""

    class SpikedDemand(DemandModel):
        def generate_partial(self, seed, args, components):
            partial = super().generate_partial(seed, args, components)
            return partial + 100.0 if seed % 2 == 0 else partial

    class LateCapacity(CapacityModel):
        def _world_events(self, seed):
            lags, losses = super()._world_events(seed)
            return (lags + 1 if seed % 2 == 0 else lags), losses

    for function, args in (
        (SpikedDemand("sd", n_weeks=9), (4,)),
        (LateCapacity("lc", n_weeks=9), (1, 3)),
    ):
        seeds = (1, 2, 3, 4)  # the first seed does NOT trigger the override
        batch = function.invoke_components_batch(seeds, args, (0, 4, 5, 8))
        reference = np.stack(
            [function.generate_partial(seed, args, np.array([0, 4, 5, 8])) for seed in seeds]
        )
        assert batch.tobytes() == reference.tobytes()
        assert function.parity_fallbacks == 0  # structural check, not the guard
        assert not function._event_memo


def test_event_memo_is_cleared_by_reset_counters_and_bounded():
    function = CapacityModel("cm", n_weeks=5)
    function.invoke_components_batch((1, 2, 3), (0, 2), (1, 2))
    assert sorted(function._event_memo) == [1, 2, 3]
    function.reset_counters()
    assert function._event_memo == {}
    assert (function.invocations, function.component_samples) == (0, 0)

    # Same clear-at-limit rule as the invocation memo.
    function._cache_limit = 4
    function.invoke_components_batch((1, 2, 3, 4), (0, 2), (1,))
    assert len(function._event_memo) == 4
    function.invoke_components_batch((5, 6), (0, 2), (1,))
    assert sorted(function._event_memo) == [5, 6]
    looped = CapacityModel("cm", n_weeks=5)
    batch = function.invoke_components_batch((6, 1, 5, 7, 8, 9), (0, 2), (0, 4))
    reference = np.stack(
        [looped.invoke_components(seed, (0, 2), (0, 4)) for seed in (6, 1, 5, 7, 8, 9)]
    )
    assert batch.tobytes() == reference.tobytes()
    assert len(function._event_memo) <= 4


# -- full generation through the seed-event batch kernel -----------------------

PAPER_MODEL_CASES = {
    "demand": (lambda: DemandModel("dm"), [(12,), (36,), (0,), (52,), (60,)]),
    "demand_growth": (
        lambda: DemandModel("dg", with_growth_arg=True),
        [(12, 1.25), (12, 0.8), (44, 1.0)],
    ),
    "capacity": (
        lambda: CapacityModel("cm"),
        # (48, 52): one arrival may, the other must, land past the last week.
        [(8, 24), (24, 8), (48, 52), (52, 52), (0, 0)],
    ),
    "capacity_initial": (
        lambda: CapacityModel("ci", with_initial_arg=True),
        [(1, 3, 6400.5), (1, 3, 120.0), (50, 51, 7000.0)],
    ),
}


@pytest.mark.parametrize("case", sorted(PAPER_MODEL_CASES))
def test_paper_models_generate_full_batches_through_the_kernel(case):
    factory, arg_sets = PAPER_MODEL_CASES[case]
    batched, looped = factory(), factory()
    scalar_calls = []
    scalar = batched.generate
    batched.generate = lambda seed, args: scalar_calls.append(seed) or scalar(seed, args)
    seeds = tuple(range(500, 540)) + (2**62 + 17,)
    for round_, args in enumerate(arg_sets + arg_sets[:1]):  # last round: warm memo
        scalar_calls.clear()
        events = dict(batched._event_memo)
        batch = batched.generate_batch(seeds, args)
        assert batch.tobytes() == _loop_reference(looped, seeds, args).tobytes(), args
        assert scalar_calls == [seeds[0]]  # the parity probe, nothing else
        if round_:  # one draw per seed, shared by every parameterization
            assert all(batched._event_memo[seed] is events[seed] for seed in seeds)
    assert batched.parity_fallbacks == 0

    # Counters move exactly as the per-seed invoke loop moves them.
    batched, looped = factory(), factory()
    duplicated = seeds[:5] + seeds[:2]
    matrix = batched.invoke_batch(duplicated, arg_sets[0])
    reference = np.stack([looped.invoke(seed, arg_sets[0]) for seed in duplicated])
    assert matrix.tobytes() == reference.tobytes()
    assert (batched.invocations, batched.component_samples) == (5, 5 * 53)
    assert (looped.invocations, looped.component_samples) == (5, 5 * 53)
    assert _memo_state(batched) == _memo_state(looped)
    assert batched.parity_fallbacks == 0


def test_generate_override_keeps_paper_models_on_the_loop():
    """A seed-conditional ``generate`` is invisible to the first-row probe."""

    class SpikedDemand(DemandModel):
        def generate(self, seed, args):
            vector = super().generate(seed, args)
            return vector + 100.0 if seed % 2 == 0 else vector

    class SpikedCapacity(CapacityModel):
        def generate(self, seed, args):
            vector = super().generate(seed, args)
            return vector + 100.0 if seed % 2 == 0 else vector

    for function, args in ((SpikedDemand("sd"), (12,)), (SpikedCapacity("sc"), (8, 24))):
        seeds = (1, 2, 3, 4)  # the first seed does NOT trigger the override
        batch = function.generate_batch(seeds, args)
        assert batch.tobytes() == _loop_reference(function, seeds, args).tobytes()
        assert function.parity_fallbacks == 0  # structural check, not the guard
        assert not function._event_memo


def test_wrong_kernel_degrades_full_generation_to_the_loop_once():
    class BrokenKernel(DemandModel):
        def generate_partial_batch(self, seeds, args, components):
            return super().generate_partial_batch(seeds, args, components) + 1.0

    class ShortKernel(CapacityModel):
        def generate_partial_batch(self, seeds, args, components):
            return super().generate_partial_batch(seeds, args, components)[:-1]

    for function, args in ((BrokenKernel("bk"), (12,)), (ShortKernel("sk"), (8, 24))):
        batch = function.generate_batch((11, 22, 33), args)
        assert batch.tobytes() == _loop_reference(function, (11, 22, 33), args).tobytes()
        assert function.parity_fallbacks == 1  # and the fallback did not recurse


def test_library_batch_overrides_win_over_the_default_kernel():
    class WithKernel(GaussianSeries):
        kernel_calls = 0

        def generate_partial_batch(self, seeds, args, components):
            type(self).kernel_calls += 1
            return None

    function = WithKernel("wk", 5, base=1.0, sigma=2.0)
    seeds = (3, 4, 5)
    batch = function.generate_batch(seeds, ())
    assert batch.tobytes() == _loop_reference(function, seeds, ()).tobytes()
    assert WithKernel.kernel_calls == 0  # GaussianSeries.generate_batch answered


def test_memoised_seed_events_are_read_only():
    for function, args in ((CapacityModel("cm"), (8, 24)), (DemandModel("dm"), (12,))):
        seeds = (7, 8, 9)
        first = function.generate_batch(seeds, args)
        for events in function._event_memo.values():
            assert isinstance(events, tuple) and len(events) == 2
            for array in events:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0.0
        again = function.generate_batch(seeds, args)
        assert again.tobytes() == first.tobytes()
        assert first.tobytes() == _loop_reference(function, seeds, args).tobytes()
        assert first.flags.writeable  # results are the caller's own


def test_batch_past_the_event_memo_bound_is_still_bit_identical():
    function = CapacityModel("cm", n_weeks=6)
    assert function._cache_limit == 4096  # the bound the docstring states
    seeds = tuple(range(5000))
    batch = function.generate_batch(seeds, (1, 3))
    assert batch.tobytes() == _loop_reference(function, seeds, (1, 3)).tobytes()
    assert function.parity_fallbacks == 0
    assert len(function._event_memo) == 5000 - 4096  # cleared once, when full
