"""Shared fixtures for the observability tests."""

from __future__ import annotations

import pytest

from repro.core.config import EngineConfig, SamplingConfig
from repro.serve import EngineSpec
from obs_testutil import OBS_DSL


@pytest.fixture(scope="session")
def obs_config() -> EngineConfig:
    return EngineConfig(sampling=SamplingConfig(n_worlds=16))


@pytest.fixture(scope="session")
def obs_spec(obs_config: EngineConfig) -> EngineSpec:
    return EngineSpec.from_dsl(OBS_DSL, config=obs_config)
