"""Unit tests for the VG-Function protocol."""

import numpy as np
import pytest

from repro.errors import VGFunctionError
from repro.vg.base import CallableVGFunction, SteppedVGFunction, VGFunction, as_vg_function


class ConstantVG(VGFunction):
    name = "ConstVG"
    n_components = 4
    arg_names = ("level",)

    def generate(self, seed, args):
        (level,) = args
        return np.full(self.n_components, float(level))


class NoisyVG(VGFunction):
    name = "NoisyVG"
    n_components = 6
    arg_names = ()

    def generate(self, seed, args):
        return self.rng(seed, args).normal(size=self.n_components)


class CountingChain(SteppedVGFunction):
    name = "Chain"
    n_components = 5
    arg_names = ("start",)

    def initial_state(self, rng, args):
        return float(args[0])

    def step(self, state, t, rng, args):
        return state + 1.0

    def observe(self, state, t, args):
        return state * 10.0


class TestVGFunction:
    def test_invoke_returns_vector_and_counts(self):
        vg = ConstantVG()
        out = vg.invoke(1, (3,))
        assert out.shape == (4,)
        assert (out == 3.0).all()
        assert vg.invocations == 1
        assert vg.component_samples == 4

    def test_invoke_counts_every_call(self):
        vg = NoisyVG()
        a = vg.invoke(1, ())
        b = vg.invoke(1, ())
        assert a is not b and a.tobytes() == b.tobytes()
        assert vg.invocations == 2
        assert vg.component_samples == 2 * vg.n_components

    def test_different_args_are_new_invocations(self):
        vg = ConstantVG()
        vg.invoke(1, (3,))
        vg.invoke(1, (4,))
        assert vg.invocations == 2

    def test_determinism_across_instances(self):
        a = NoisyVG().invoke(99, ())
        b = NoisyVG().invoke(99, ())
        assert (a == b).all()

    def test_arity_checked(self):
        with pytest.raises(VGFunctionError, match="expects 1 args"):
            ConstantVG().invoke(1, ())

    def test_bad_shape_rejected(self):
        class BadVG(VGFunction):
            name = "Bad"
            n_components = 3

            def generate(self, seed, args):
                return np.zeros(7)

        with pytest.raises(VGFunctionError, match="shape"):
            BadVG().invoke(1, ())

    def test_invoke_components_default_slices_full(self):
        vg = NoisyVG()
        full = vg.invoke(5, ())
        partial = vg.invoke_components(5, (), [1, 4])
        assert partial == pytest.approx([full[1], full[4]])

    def test_invoke_components_empty(self):
        assert ConstantVG().invoke_components(1, (3,), []).size == 0

    def test_reset_counters(self):
        vg = ConstantVG()
        vg.invoke(1, (3,))
        vg.reset_counters()
        assert vg.invocations == 0 and vg.component_samples == 0

    def test_rng_independent_of_args(self):
        vg = NoisyVG()
        # Same seed must give the same stream regardless of args identity.
        assert (vg.rng(3, ()).normal(size=4) == vg.rng(3, ()).normal(size=4)).all()

    def test_component_labels_default(self):
        assert ConstantVG().component_labels() == [0, 1, 2, 3]


class TestSteppedVGFunction:
    def test_generate_runs_chain(self):
        chain = CountingChain()
        out = chain.invoke(1, (0,))
        assert out == pytest.approx([10.0, 20.0, 30.0, 40.0, 50.0])

    def test_trace_returns_states_and_observations(self):
        chain = CountingChain()
        states, observations = chain.trace(1, (2,))
        assert states == pytest.approx([3.0, 4.0, 5.0, 6.0, 7.0])
        assert observations == pytest.approx([30.0, 40.0, 50.0, 60.0, 70.0])

    def test_observe_defaults_to_identity(self):
        class PlainChain(SteppedVGFunction):
            name = "Plain"
            n_components = 3

            def initial_state(self, rng, args):
                return 0.0

            def step(self, state, t, rng, args):
                return state + 1.0

        assert PlainChain().invoke(1, ()) == pytest.approx([1.0, 2.0, 3.0])


class TestCallableVG:
    def test_wraps_plain_function(self):
        vg = CallableVGFunction(
            "Doubler", 3, ["x"], lambda rng, args: np.full(3, 2.0 * args[0])
        )
        assert vg.invoke(1, (5,)) == pytest.approx([10.0, 10.0, 10.0])

    def test_as_vg_function(self):
        vg = ConstantVG()
        assert as_vg_function(vg) is vg
        with pytest.raises(VGFunctionError):
            as_vg_function(lambda: None)
