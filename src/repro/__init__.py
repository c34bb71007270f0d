"""Fuzzy Prophet — a probabilistic-database what-if engine.

A reproduction of *"Fuzzy Prophet: Parameter Exploration in Uncertain
Enterprise Scenarios"* (Kennedy, Lee, Loboz, Smyl, Nath — SIGMOD 2011):
construct business scenarios over stochastic black-box VG-Functions,
simulate them by Monte Carlo through a SQL substrate, and explore their
parameter spaces interactively (online mode) or by constrained optimization
(offline mode) — with *fingerprinting* detecting correlated
parameterizations so that already-computed sample distributions are remapped
instead of re-simulated.

The public surface is :mod:`repro.api` — one client, typed layered
configuration, streaming sweep handles, one stats report. Quickstart::

    from repro.api import ProphetClient
    from repro.models import FIGURE2_DSL

    client = ProphetClient.open(FIGURE2_DSL, "demo", name="risk_vs_cost")
    session = client.interactive()
    session.set_sliders({"purchase1": 8, "purchase2": 24, "feature": 12})
    view = session.refresh()
    print(view.statistics.expectation("overload"))

Backends — the point-task serve pool, the cross-run result cache, the tiered
basis store, the batched sampling plane — are pure configuration::

    client = (
        ProphetClient.open(FIGURE2_DSL, "demo")
        .with_serving(workers=4)
        .with_cache(".repro-cache")
    )
    for result in client.sweep():      # streams as points complete
        print(result.point)
    print(client.stats().to_json())

The machinery behind the client lives under ``repro.core`` / ``repro.vg``
/ ``repro.models`` / ``repro.serve``; import it from there.
"""

from repro.api import (
    AdaptiveConfig,
    AdaptiveSweepHandle,
    CacheConfig,
    ClientConfig,
    ObsConfig,
    ProphetClient,
    ResilienceConfig,
    ReuseConfig,
    SamplingConfig,
    ServeConfig,
    StatsReport,
    StoreConfig,
    SweepHandle,
    SweepResult,
    TimingReport,
    TransportConfig,
)
from repro.dsl import parse_scenario

__version__ = "1.1.0"

__all__ = [
    # the client surface (canonical: repro.api)
    "ProphetClient",
    "AdaptiveConfig",
    "AdaptiveSweepHandle",
    "ClientConfig",
    "SamplingConfig",
    "ReuseConfig",
    "StoreConfig",
    "ServeConfig",
    "ResilienceConfig",
    "TransportConfig",
    "CacheConfig",
    "ObsConfig",
    "SweepHandle",
    "SweepResult",
    "StatsReport",
    "TimingReport",
    # the DSL front door
    "parse_scenario",
    "__version__",
]
