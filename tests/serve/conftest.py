"""Shared fixtures for the serve-layer tests."""

from __future__ import annotations

import pytest

from repro.core.config import EngineConfig, SamplingConfig
from repro.core.engine import ProphetEngine
from repro.dsl import parse_scenario
from repro.models import build_demo_library
from repro.serve import EngineSpec, ProcessExecutor
from serve_testutil import SERVE_DSL


@pytest.fixture(scope="session")
def serve_config() -> EngineConfig:
    return EngineConfig(sampling=SamplingConfig(n_worlds=16, refinement_first=8))


@pytest.fixture(scope="session")
def serve_spec(serve_config: EngineConfig) -> EngineSpec:
    return EngineSpec.from_dsl(SERVE_DSL, config=serve_config)


@pytest.fixture
def sequential_engine(serve_config: EngineConfig) -> ProphetEngine:
    """A fresh engine on the same scenario, for sequential references."""
    scenario = parse_scenario(SERVE_DSL, name="serve_scenario")
    return ProphetEngine(scenario, build_demo_library(), serve_config)


@pytest.fixture(scope="session")
def process_executor():
    """One long-lived 2-worker pool shared by every process-executor test."""
    executor = ProcessExecutor(2)
    yield executor
    executor.shutdown()
