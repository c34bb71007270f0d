"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.config import EngineConfig, SamplingConfig
from repro.core.engine import ProphetEngine
from repro.models import build_risk_vs_cost
from repro.sqldb import Catalog, Executor


@pytest.fixture
def catalog() -> Catalog:
    return Catalog(name="test")


@pytest.fixture
def executor(catalog: Catalog) -> Executor:
    return Executor(catalog)


@pytest.fixture
def people(executor: Executor) -> Executor:
    """A small populated table shared by many SQL tests."""
    executor.execute("CREATE TABLE people (id INT, name VARCHAR, age INT, score FLOAT)")
    executor.execute(
        "INSERT INTO people VALUES "
        "(1, 'ada', 36, 9.5), (2, 'bob', 41, 7.25), (3, 'cyd', 29, NULL), "
        "(4, 'dee', 36, 8.0), (5, 'eli', NULL, 6.5)"
    )
    return executor


@pytest.fixture(scope="session")
def small_config() -> EngineConfig:
    """A fast engine configuration for integration tests."""
    return EngineConfig(sampling=SamplingConfig(n_worlds=24))


@pytest.fixture
def demo_engine(small_config: EngineConfig) -> ProphetEngine:
    scenario, library = build_risk_vs_cost(purchase_step=16)
    return ProphetEngine(scenario, library, small_config)
