"""V2 — the sampling plane: batched world slices vs the per-world loop.

Guards the two contracts of the batched fresh-sampling backend:

* **parity** (always): the ``batched`` backend's sample matrices are
  bit-identical to the per-world ``loop`` backend over the same world
  slice;
* **speedup** (>= 2 cores; self-skips on constrained runners): the
  fresh-sampling stage at ``n_worlds=400`` through the batched backend
  beats the per-world loop by >= 3x wall-clock.
"""

from __future__ import annotations

import os
import time

import pytest

from conftest import report
from repro.core.config import EngineConfig, SamplingConfig
from repro.core.engine import ProphetEngine
from repro.models import build_risk_vs_cost

POINT = {"purchase1": 8, "purchase2": 24, "feature": 12}


def _engine(backend: str, n_worlds: int) -> ProphetEngine:
    scenario, library = build_risk_vs_cost()
    config = EngineConfig(sampling=SamplingConfig(n_worlds=n_worlds, backend=backend))
    return ProphetEngine(scenario, library, config)


def _sample_all_outputs(engine: ProphetEngine, worlds: list[int]) -> dict[str, bytes]:
    return {
        output.alias: engine.sample_fresh(output.alias, POINT, worlds).tobytes()
        for output in engine.scenario.vg_outputs
    }


@pytest.mark.benchmark(group="V2-sampling")
def test_v2_backend_parity_guard(benchmark):
    """Batched sampling must be bit-identical to the per-world loop, always."""
    worlds = list(range(64))

    def sample_both():
        return (
            _sample_all_outputs(_engine("batched", 64), worlds),
            _sample_all_outputs(_engine("loop", 64), worlds),
        )

    batched, loop = benchmark.pedantic(sample_both, rounds=1, iterations=1)
    assert batched == loop, "batched backend diverged from the per-world loop"
    report(
        "V2: sampling backend parity (batched vs per-world loop)",
        [
            f"n_worlds 64; outputs {', '.join(sorted(batched))}",
            "batched matrices bit-identical to the loop: yes (guard)",
        ],
    )


@pytest.mark.benchmark(group="V2-sampling")
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="speedup guard needs an unconstrained runner (>= 2 cores)",
)
def test_v2_batched_speedup_guard(benchmark):
    """Batched fresh sampling at n_worlds=400 must beat the loop by >= 3x."""
    n_worlds = 400
    worlds = list(range(n_worlds))

    loop_engine = _engine("loop", n_worlds)
    started = time.perf_counter()
    loop_samples = _sample_all_outputs(loop_engine, worlds)
    loop_seconds = time.perf_counter() - started

    def sample_batched():
        engine = _engine("batched", n_worlds)
        inner_started = time.perf_counter()
        samples = _sample_all_outputs(engine, worlds)
        return engine, samples, time.perf_counter() - inner_started

    engine, batched_samples, batched_seconds = benchmark.pedantic(
        sample_batched, rounds=1, iterations=1
    )
    assert batched_samples == loop_samples
    assert engine.executor.stats.sampled_batched == n_worlds * len(
        engine.scenario.vg_outputs
    )
    speedup = loop_seconds / batched_seconds
    report(
        "V2: fresh-sampling stage, batched vs loop (n_worlds=400)",
        [
            f"per-world loop {loop_seconds * 1000:.0f} ms",
            f"batched        {batched_seconds * 1000:.0f} ms",
            f"speedup        {speedup:.2f}x (guard: >= 3x)",
        ],
    )
    assert speedup >= 3.0, (
        f"batched sampling speedup {speedup:.2f}x fell below the 3x guard — "
        f"the batch table form or the columnar insert path regressed"
    )
