"""Failure-injection tests: the engine must fail loudly and cleanly.

A production what-if tool cannot silently swallow a broken model or a
malformed scenario — these tests inject faults at every layer and check the
failure surfaces as the right exception with a useful message, without
corrupting engine state for subsequent work.
"""

import numpy as np
import pytest

from repro.core.config import EngineConfig, SamplingConfig
from repro.core.engine import ProphetEngine
from repro.core.online import OnlineSession
from repro.errors import (
    ExecutionError,
    ScenarioError,
    VGFunctionError,
)
from repro.models import build_risk_vs_cost
from repro.vg.base import VGFunction
from repro.vg.library import VGLibrary

POINT = {"purchase1": 16, "purchase2": 32, "feature": 12}
CONFIG = EngineConfig(sampling=SamplingConfig(n_worlds=8))


class ExplodingVG(VGFunction):
    """Fails after a configurable number of invocations."""

    name = "DemandModel"  # impersonates the demand model
    n_components = 53
    arg_names = ("feature",)

    def __init__(self, fail_after: int = 0) -> None:
        self.fail_after = fail_after
        super().__init__()

    def generate(self, seed, args):
        if self.invocations >= self.fail_after:
            raise VGFunctionError("model backend unavailable")
        return np.zeros(self.n_components)


class ShortVG(VGFunction):
    name = "DemandModel"
    n_components = 53
    arg_names = ("feature",)

    def generate(self, seed, args):
        return np.zeros(10)  # wrong length


#: ``VGFunction.invoke``'s message, which every generation path raises.
SHORT_MESSAGE = r"DemandModel\.generate returned shape \(10,\), expected \(53,\)"


class NaNVG(VGFunction):
    name = "DemandModel"
    n_components = 53
    arg_names = ("feature",)

    def generate(self, seed, args):
        out = self.rng(seed, args).normal(5000.0, 100.0, size=self.n_components)
        out[10] = np.nan
        return out


def engine_with_demand_replaced(replacement: VGFunction) -> ProphetEngine:
    scenario, library = build_risk_vs_cost(purchase_step=16)
    library.register(replacement, replace=True)
    return ProphetEngine(scenario, library, CONFIG)


class TestVGFailures:
    def test_vg_error_propagates_from_sql_path(self):
        engine = engine_with_demand_replaced(ExplodingVG(fail_after=0))
        with pytest.raises(VGFunctionError, match="backend unavailable"):
            engine.evaluate_point(POINT)

    def test_failure_mid_batch_propagates(self):
        engine = engine_with_demand_replaced(ExplodingVG(fail_after=3))
        with pytest.raises(VGFunctionError):
            engine.evaluate_point(POINT)

    def test_engine_recovers_after_model_fix(self):
        scenario, library = build_risk_vs_cost(purchase_step=16)
        broken = ExplodingVG(fail_after=0)
        library.register(broken, replace=True)
        engine = ProphetEngine(scenario, library, CONFIG)
        with pytest.raises(VGFunctionError):
            engine.evaluate_point(POINT)

        # The analyst fixes the model (the paper's model-update workflow).
        from repro.models import DemandModel
        from repro.sqldb.pdbext import register_vg_function

        fixed = DemandModel()
        library.register(fixed, replace=True)
        register_vg_function(engine.catalog, fixed, replace=True)
        evaluation = engine.evaluate_point(POINT)
        assert evaluation.n_worlds == CONFIG.sampling.n_worlds

    def test_nan_outputs_flow_through_not_crash(self):
        # NaNs are data, not errors: statistics must carry them visibly.
        engine = engine_with_demand_replaced(NaNVG())
        evaluation = engine.evaluate_point(POINT)
        demand = evaluation.statistics.expectation("demand")
        assert np.isnan(demand[10])
        assert np.isfinite(demand[0])

    def test_wrong_shape_model_rejected(self):
        engine = engine_with_demand_replaced(ShortVG())
        with pytest.raises(VGFunctionError, match="shape"):
            engine.evaluate_point(POINT)

    @pytest.mark.parametrize("reuse", [True, False])
    def test_wrong_shape_model_gets_the_same_error_on_every_path(self, reuse):
        """The batched sampling path (``generate_loop``) and the probes
        (``invoke_batch``) raise ``invoke``'s error, not a broadcast
        ``ValueError``."""
        engine = engine_with_demand_replaced(ShortVG())
        with pytest.raises(VGFunctionError, match=SHORT_MESSAGE):
            engine.evaluate_point(POINT, reuse=reuse)

    def test_wrong_shape_model_rejected_by_invoke_batch(self):
        vg = ShortVG()
        with pytest.raises(VGFunctionError, match=SHORT_MESSAGE):
            vg.invoke_batch([11, 12, 13], (12,))
        with pytest.raises(VGFunctionError, match=SHORT_MESSAGE):
            vg.generate_loop([11], (12,))
        assert vg.invocations == 0 and vg.component_samples == 0


class TestScenarioFailures:
    def test_library_missing_model(self):
        scenario, _ = build_risk_vs_cost(purchase_step=16)
        empty = VGLibrary()
        with pytest.raises(ScenarioError, match="unknown VG-Function"):
            ProphetEngine(scenario, empty, CONFIG)

    def test_direct_sql_errors_surface(self):
        scenario, library = build_risk_vs_cost(purchase_step=16)
        engine = ProphetEngine(scenario, library, CONFIG)
        engine.evaluate_point(POINT)  # materialize the samples tables
        with pytest.raises(ExecutionError, match="unknown column"):
            engine.executor.execute("SELECT nonsense_column FROM fp_samples_demand")

    def test_session_survives_rejected_slider(self):
        scenario, library = build_risk_vs_cost(purchase_step=16)
        session = OnlineSession(ProphetEngine(scenario, library, CONFIG))
        from repro.errors import OnlineSessionError

        with pytest.raises(OnlineSessionError):
            session.set_slider("purchase1", 999)
        # State unchanged; the session still works.
        assert session.sliders["purchase1"] == 0
        view = session.refresh()
        assert view.n_worlds == CONFIG.sampling.n_worlds


class TestDeterminismUnderFaults:
    def test_partial_failure_leaves_no_poisoned_cache(self):
        """A failed evaluation must not leave half-written bases that change
        later answers."""
        scenario, library = build_risk_vs_cost(purchase_step=16)
        flaky = ExplodingVG(fail_after=4)
        library.register(flaky, replace=True)
        engine = ProphetEngine(scenario, library, CONFIG)
        with pytest.raises(VGFunctionError):
            engine.evaluate_point(POINT)

        from repro.models import DemandModel
        from repro.sqldb.pdbext import register_vg_function

        fixed = DemandModel()
        library.register(fixed, replace=True)
        register_vg_function(engine.catalog, fixed, replace=True)
        engine.registry.clear()
        engine.storage.clear()
        after_failure = engine.evaluate_point(POINT)

        scenario2, library2 = build_risk_vs_cost(purchase_step=16)
        clean = ProphetEngine(scenario2, library2, CONFIG)
        reference = clean.evaluate_point(POINT)
        assert after_failure.statistics.expectation("demand") == pytest.approx(
            reference.statistics.expectation("demand")
        )
