"""Property-based tests (hypothesis) for engine-level invariants.

The invariant that makes the whole reproduction trustworthy: *reuse never
changes answers*. For random parameter points and random evaluation orders,
a reusing engine must produce the same statistics as a fresh engine — and
the same engine must be deterministic across processes/instances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EngineConfig, SamplingConfig
from repro.core.engine import ProphetEngine
from repro.models import build_risk_vs_cost

CONFIG = EngineConfig(sampling=SamplingConfig(n_worlds=10))

purchase_values = st.sampled_from([0, 16, 32, 48])
feature_values = st.sampled_from([12, 36, 44])
point_strategy = st.fixed_dictionaries(
    {
        "purchase1": purchase_values,
        "purchase2": purchase_values,
        "feature": feature_values,
    }
)


def fresh_engine() -> ProphetEngine:
    scenario, library = build_risk_vs_cost(purchase_step=16)
    return ProphetEngine(scenario, library, CONFIG)


# One shared reference engine (no reuse) to compare against.
_reference_engine = None


def reference_statistics(point):
    global _reference_engine
    if _reference_engine is None:
        scenario, library = build_risk_vs_cost(purchase_step=16)
        _reference_engine = ProphetEngine(
            scenario, library, EngineConfig(sampling=SamplingConfig(n_worlds=10))
        )
    return _reference_engine.evaluate_point(point, reuse=False).statistics


@settings(max_examples=12, deadline=None)
@given(points=st.lists(point_strategy, min_size=2, max_size=5))
def test_reuse_path_independent_of_evaluation_order(points):
    """Statistics at a point do not depend on which points came before."""
    engine = fresh_engine()
    last = engine_eval_many(engine, points)
    expected = reference_statistics(points[-1])
    for alias in ("demand", "capacity", "overload"):
        assert last.expectation(alias) == pytest.approx(
            expected.expectation(alias), abs=1e-6, nan_ok=True
        )


def engine_eval_many(engine, points):
    statistics = None
    for point in points:
        statistics = engine.evaluate_point(point).statistics
    return statistics


@settings(max_examples=10, deadline=None)
@given(point=point_strategy)
def test_engines_are_deterministic(point):
    a = fresh_engine().evaluate_point(point).statistics
    b = fresh_engine().evaluate_point(point).statistics
    for alias in ("demand", "capacity", "overload"):
        left, right = a.expectation(alias), b.expectation(alias)
        assert np.allclose(left, right, equal_nan=True)


@settings(max_examples=10, deadline=None)
@given(point=point_strategy)
def test_overload_probability_bounds(point):
    statistics = fresh_engine().evaluate_point(point).statistics
    overload = statistics.expectation("overload")
    assert ((overload >= 0.0) & (overload <= 1.0)).all()


@settings(max_examples=8, deadline=None)
@given(point=point_strategy, extra=st.integers(min_value=1, max_value=8))
def test_world_subsets_are_prefixes_of_full_runs(point, extra):
    """Evaluating w worlds then w+extra worlds must agree with a direct
    (w+extra)-world evaluation — world identity is stable."""
    engine = fresh_engine()
    engine.evaluate_point(point, worlds=range(4))
    grown = engine.evaluate_point(point, worlds=range(4 + extra)).statistics

    scenario, library = build_risk_vs_cost(purchase_step=16)
    direct_engine = ProphetEngine(scenario, library, CONFIG)
    direct = direct_engine.evaluate_point(point, worlds=range(4 + extra)).statistics
    for alias in ("demand", "capacity"):
        assert grown.expectation(alias) == pytest.approx(
            direct.expectation(alias), abs=1e-6
        )
