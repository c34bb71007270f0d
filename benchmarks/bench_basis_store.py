"""V2 — the tiered basis store: bounded memory, spill/fault round-trips.

Guards the tentpole contracts of the tiered Storage Manager:

* **bounded** (always): a 200-point sweep under ``basis_cap=24`` keeps the
  resident basis count <= cap at every checkpoint while spilling evictions
  to disk — fixed memory for arbitrarily long sweeps;
* **transparent** (always): with the cap above the working-set size a
  sweep is bit-identical to the unbounded store's;
* **round-trip** (always): spill -> fault-back returns bit-identical
  sample matrices, and the per-entry round-trip cost is reported.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from conftest import report
from repro.core.config import EngineConfig, SamplingConfig, StoreConfig
from repro.core.engine import ProphetEngine
from repro.core.fingerprint import CorrelationPolicy, FingerprintSpec
from repro.core.fingerprint.registry import FingerprintRegistry
from repro.core.storage import StorageManager
from repro.models import DemandModel, build_risk_vs_cost
from repro.vg.seeds import world_seed

BASIS_CAP = 24


def _sweep_points(n_points: int, purchase_step: int):
    scenario, _ = build_risk_vs_cost(purchase_step=purchase_step)
    grid = scenario.space.grid(exclude=[scenario.axis])
    return list(itertools.islice(grid, n_points))


@pytest.mark.benchmark(group="V2-basis-store")
def test_v2_bounded_sweep_guard(benchmark, tmp_path):
    """200 points under basis_cap=24: resident count stays <= cap throughout."""
    points = _sweep_points(200, purchase_step=6)
    assert len(points) == 200
    scenario, library = build_risk_vs_cost(purchase_step=6)
    engine = ProphetEngine(
        scenario,
        library,
        EngineConfig(
            sampling=SamplingConfig(n_worlds=12),
            store=StoreConfig(basis_cap=BASIS_CAP, basis_dir=str(tmp_path)),
        ),
    )

    def sweep():
        peak_resident = 0
        for index, point in enumerate(points):
            engine.evaluate_point(point)
            resident = engine.storage.tier.resident_count
            peak_resident = max(peak_resident, resident)
            assert resident <= BASIS_CAP, (
                f"resident basis count {resident} exceeded cap {BASIS_CAP} "
                f"at point {index} — eviction regressed"
            )
        return peak_resident

    started = time.perf_counter()
    peak = benchmark.pedantic(sweep, rounds=1, iterations=1)
    elapsed = time.perf_counter() - started
    tier = engine.storage.tier
    report(
        "V2: bounded basis store (200-point sweep, cap=24)",
        [
            f"sweep       {elapsed:.2f}s for 200 points x 12 worlds",
            f"resident    peak {peak} / cap {BASIS_CAP} (guard: <= cap)",
            f"tier        {tier.stats.evictions} evictions, "
            f"{tier.stats.spills} spills, {tier.stats.faults} faults",
            f"reuse       {engine.storage.exact_hits} exact / "
            f"{engine.storage.mapped_hits} mapped / {engine.storage.misses} fresh",
        ],
    )
    assert peak <= BASIS_CAP
    assert tier.stats.evictions > 0, "cap never bit — sweep too small to guard"
    assert tier.stats.spills > 0


@pytest.mark.benchmark(group="V2-basis-store")
def test_v2_cap_above_working_set_parity_guard(benchmark):
    """With the cap above the working set, results match the unbounded store."""
    points = _sweep_points(27, purchase_step=26)
    scenario, library = build_risk_vs_cost(purchase_step=26)
    unbounded = ProphetEngine(scenario, library, EngineConfig(sampling=SamplingConfig(n_worlds=24)))
    reference = [unbounded.evaluate_point(p).statistics for p in points]

    def capped_sweep():
        capped_scenario, capped_library = build_risk_vs_cost(purchase_step=26)
        capped = ProphetEngine(
            capped_scenario, capped_library, EngineConfig(
                sampling=SamplingConfig(n_worlds=24),
                store=StoreConfig(basis_cap=512),
            )
        )
        return capped, [capped.evaluate_point(p).statistics for p in points]

    capped, results = benchmark.pedantic(capped_sweep, rounds=1, iterations=1)
    for mine, theirs in zip(results, reference):
        for alias in theirs.aliases():
            assert mine.expectation(alias).tobytes() == theirs.expectation(alias).tobytes()
            assert mine.stddev(alias).tobytes() == theirs.stddev(alias).tobytes()
    report(
        "V2: cap above working set (27-point sweep, cap=512)",
        [
            f"bases stored {len(capped.storage)}; evictions "
            f"{capped.storage.tier.stats.evictions} (expected 0)",
            "statistics bit-identical to unbounded store: yes (guard)",
        ],
    )
    assert capped.storage.tier.stats.evictions == 0


@pytest.mark.benchmark(group="V2-basis-store")
def test_v2_spill_fault_roundtrip_timing(benchmark, tmp_path):
    """Spill -> fault-back is bit-identical; reports the per-entry cost."""
    n_entries = 16
    n_worlds = 64
    vg = DemandModel()
    seeds = [world_seed(42, w) for w in range(n_worlds)]
    matrices = {
        feature: np.vstack([vg.invoke(s, (feature,)) for s in seeds])
        for feature in range(n_entries)
    }
    storage = StorageManager(
        FingerprintRegistry(FingerprintSpec(n_seeds=8), CorrelationPolicy(1e-6)),
        basis_cap=1,
        spill_dir=str(tmp_path),
    )

    spill_started = time.perf_counter()
    for feature, matrix in matrices.items():
        storage.store(vg, (feature,), matrix, range(n_worlds), seeds)
    spill_seconds = time.perf_counter() - spill_started

    def fault_all():
        for feature, matrix in matrices.items():
            samples, report_ = storage.acquire(
                vg, (feature,), range(n_worlds), seeds, reuse=False
            )
            assert report_.source == "exact"
            assert samples.tobytes() == matrix.tobytes(), (
                f"fault-back of basis {feature} was not bit-identical"
            )

    fault_started = time.perf_counter()
    benchmark.pedantic(fault_all, rounds=1, iterations=1)
    fault_seconds = time.perf_counter() - fault_started
    per_entry_ms = fault_seconds / n_entries * 1000
    report(
        "V2: spill/fault round-trip (16 bases x 64 worlds x 53 weeks)",
        [
            f"spill  {spill_seconds * 1000:.0f} ms total "
            f"({storage.tier.stats.spills} files)",
            f"fault  {fault_seconds * 1000:.0f} ms total "
            f"({per_entry_ms:.2f} ms/entry)",
            "fault-back bit-identical to stored matrices: yes (guard)",
        ],
    )
    assert storage.tier.stats.faults >= n_entries - 1
