"""A request is normalised once, by the engine, whichever layers it crosses.

``ProphetEngine.request`` validates the point, applies the world-id rule and
builds the identity key; the scheduler, the service, the engine's own
evaluation and a point task all take the resulting ``Request`` as it stands.
Counted here on the ledger's two queued sweeps: a fixed sweep validates
each point once, and so does an adaptive sweep — when the point is
submitted; each round is that request over a world prefix, which keeps the
world-id rule by construction and is not re-checked.
"""

from __future__ import annotations

import sys

import pytest

import repro.core.engine
from repro.api import ClientConfig, ProphetClient, SamplingConfig  # loads every serve module
from repro.core.scenario import Scenario
from repro.models.scenario_library import FIGURE2_DSL


@pytest.fixture
def calls(monkeypatch):
    counted = {"validate_sweep_point": 0, "world_ids": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counted[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    validate = Scenario.validate_sweep_point
    monkeypatch.setattr(
        Scenario, "validate_sweep_point", counting("validate_sweep_point", validate)
    )
    world_ids = repro.core.engine.world_ids
    replacement = counting("world_ids", world_ids)
    # Wherever it is bound: a module that imported it by name calls its own binding.
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            vars(module).get("world_ids") is world_ids
        ):
            monkeypatch.setattr(module, "world_ids", replacement)
    return counted


def _client(n_worlds: int) -> ProphetClient:
    config = ClientConfig(sampling=SamplingConfig(n_worlds=n_worlds, base_seed=42))
    return ProphetClient.open(FIGURE2_DSL, "demo", config=config)


def test_a_fixed_sweep_validates_each_point_once(calls):
    with _client(64) as client:
        results = list(client.sweep())
    assert len(results) == 588 and all(result.ok for result in results)
    assert calls == {"validate_sweep_point": 588, "world_ids": 0}


def test_an_adaptive_sweep_validates_each_point_and_round_once(calls):
    with _client(400).with_adaptive(target_ci=150.0, min_worlds=50) as client:
        points = [dict(p) for p in client.scenario.sweep_space.grid()][::8]
        results = list(client.sweep(points))
        rounds = client.stats().scheduler["jobs_completed"]
    assert len(results) == 74 and all(result.ok for result in results)
    assert rounds == 153
    # Each point is normalised when it is submitted; its rounds are that
    # request over a world prefix (``Request.over_prefix``), checked by none.
    assert calls == {"validate_sweep_point": 74, "world_ids": 0}
