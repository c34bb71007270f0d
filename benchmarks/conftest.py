"""Shared helpers for the benchmark suite.

Each benchmark regenerates one table/figure/claim from the paper and prints
the measured shape next to the paper's expectation. Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.core.config import EngineConfig, ReuseConfig, SamplingConfig


def report(title: str, lines: list[str]) -> None:
    """Print a small framed report (captured by pytest -s, kept in logs)."""
    width = max(len(title), *(len(line) for line in lines)) + 2
    print("\n+" + "-" * width + "+")
    print(f"| {title.ljust(width - 2)} |")
    print("+" + "-" * width + "+")
    for line in lines:
        print(f"| {line.ljust(width - 2)} |")
    print("+" + "-" * width + "+")


@pytest.fixture
def fast_config() -> EngineConfig:
    """Small-but-meaningful engine configuration for benchmarks."""
    return EngineConfig(sampling=SamplingConfig(n_worlds=60, refinement_first=15))


@pytest.fixture
def sweep_config() -> EngineConfig:
    return EngineConfig(sampling=SamplingConfig(n_worlds=30))


@pytest.fixture
def baseline_sweep_config() -> EngineConfig:
    """Reuse-free baseline: all caching layers off."""
    return EngineConfig(
        sampling=SamplingConfig(n_worlds=30),
        reuse=ReuseConfig(enable_stats_cache=False),
    )
