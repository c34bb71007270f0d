"""The public-API surface contract.

Locks ``repro.api.__all__`` to an explicit snapshot — an accidental export
addition or removal fails here, in CI, instead of silently changing the
public surface — and checks the top-level package re-exports it.
"""

from __future__ import annotations

import warnings

import pytest

import repro
import repro.api
import repro.serve

#: THE public surface. Changing it is an API decision: update this
#: snapshot deliberately, in the same commit, with a changelog entry.
#: Both snapshots are also read *statically* by the ``repro lint`` SRF001
#: rule, so a drifted ``__all__`` fails the lint gate before the test run.
SURFACE_SNAPSHOT = (
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
)

#: The serve plane's public surface (``repro.serve.__all__``), same rules.
SERVE_SURFACE_SNAPSHOT = (
    "CachedResult",
    "EngineSpec",
    "EvaluationService",
    "FaultInjected",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InlineExecutor",
    "Job",
    "JobQueue",
    "LIBRARY_BUILDERS",
    "ProcessExecutor",
    "ResilienceConfig",
    "ResultCache",
    "SCENARIO_BUILDERS",
    "Scheduler",
    "SegmentArena",
    "SegmentRef",
    "ServiceStats",
    "ShardCall",
    "ShardDispatcher",
    "ShardSample",
    "TransportConfig",
    "WorldShard",
    "create_executor",
    "plan_shards",
    "result_key",
    "scenario_fingerprint",
    "shm_available",
)


class TestApiSurface:
    def test_all_matches_snapshot(self):
        assert tuple(sorted(repro.api.__all__)) == SURFACE_SNAPSHOT

    def test_every_export_resolves(self):
        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None

    def test_no_private_leaks(self):
        assert not [name for name in repro.api.__all__ if name.startswith("_")]


class TestServeSurface:
    def test_all_matches_snapshot(self):
        assert tuple(sorted(repro.serve.__all__)) == SERVE_SURFACE_SNAPSHOT

    def test_all_is_sorted(self):
        assert list(repro.serve.__all__) == sorted(repro.serve.__all__)

    def test_every_export_resolves(self):
        for name in repro.serve.__all__:
            assert getattr(repro.serve, name) is not None


class TestTopLevelSurface:
    def test_client_surface_reexported_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in repro.api.__all__:
                assert getattr(repro, name) is getattr(repro.api, name)

    def test_parse_scenario_not_deprecated(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert repro.parse_scenario is not None

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.NoSuchThing
