"""``repro.api`` — the public client surface of the Fuzzy Prophet reproduction.

Everything a caller needs lives here and only here:

* :class:`ProphetClient` — ``open(scenario, library, config=...)`` plus the
  fluent ``with_serving`` / ``with_cache`` / ``with_basis_store`` /
  ``with_sampling`` / ``with_adaptive`` / ``with_resilience`` /
  ``with_transport`` helpers;
* the typed layered configuration — :class:`ClientConfig` composing
  :class:`SamplingConfig`, :class:`ReuseConfig`, :class:`StoreConfig`,
  :class:`ServeConfig`, :class:`ResilienceConfig`, :class:`TransportConfig`,
  :class:`CacheConfig`, :class:`AdaptiveConfig`, :class:`ObsConfig`;
* the sweep handles — :class:`SweepHandle` and :class:`AdaptiveSweepHandle`
  (streaming :class:`SweepResult` iterators; the adaptive one retires
  points as their CI target resolves); ``client.interactive()`` and
  ``client.optimize()`` return the ``repro.core`` mode drivers themselves;
* the one stats surface — :class:`StatsReport`, carrying the wall-clock
  :class:`TimingReport` separately from its byte-stable counter JSON.

``__all__`` is the public contract: the API surface snapshot test pins it,
so accidental export changes fail CI instead of shipping.
"""

from repro.api.client import ProphetClient
from repro.api.config import (
    AdaptiveConfig,
    CacheConfig,
    ClientConfig,
    ResilienceConfig,
    ReuseConfig,
    SamplingConfig,
    ServeConfig,
    StoreConfig,
    TransportConfig,
)
from repro.api.handles import (
    AdaptiveSweepHandle,
    SweepHandle,
    SweepResult,
)
from repro.api.stats import StatsReport
from repro.obs import ObsConfig, TimingReport

__all__ = [
    "AdaptiveConfig",
    "AdaptiveSweepHandle",
    "CacheConfig",
    "ClientConfig",
    "ObsConfig",
    "ProphetClient",
    "ResilienceConfig",
    "ReuseConfig",
    "SamplingConfig",
    "ServeConfig",
    "StatsReport",
    "StoreConfig",
    "SweepHandle",
    "SweepResult",
    "TimingReport",
    "TransportConfig",
]
