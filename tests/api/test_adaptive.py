"""Adaptive anytime sampling through the client surface.

Pins the PR 8 contracts end to end:

* ``AdaptiveConfig`` — validation, mapping round-trip, ``with_adaptive``
  only changing the knobs actually passed, ``round_plan()`` falling back
  to the sampling section's legacy refinement spellings;
* adaptive **off** (the default) is byte-identical to the fixed-budget
  path — same results, same counter JSON;
* adaptive **on** with an unreachable target and ``max_worlds ==
  n_worlds`` is bitwise identical to the fixed-budget sweep;
* stopping decisions are deterministic across re-runs and across shard
  geometry / executor changes;
* the streaming :class:`AdaptiveSweepHandle` yields one result per point
  with the adaptive fields populated, and an explicit ``worlds=`` slice
  raises.
"""

from __future__ import annotations

import pytest

from api_testutil import API_DSL, POINT, assert_stats_identical
from repro.api import AdaptiveConfig, ClientConfig, ProphetClient, SamplingConfig
from repro.core.aggregator import MergeableAxisStats
from repro.errors import ScenarioError
from repro.serve.scheduler import AdaptiveSweepJob

N_WORLDS = 16

BASE_CONFIG = ClientConfig(
    sampling=SamplingConfig(n_worlds=N_WORLDS, refinement_first=8)
)


def open_client(config: ClientConfig = BASE_CONFIG) -> ProphetClient:
    return ProphetClient.open(API_DSL, "demo", config=config)


class TestAdaptiveConfig:
    def test_disabled_by_default(self):
        config = AdaptiveConfig()
        assert not config.enabled
        assert ClientConfig().adaptive == config

    def test_target_ci_is_the_switch(self):
        assert AdaptiveConfig(target_ci=0.5).enabled
        assert not AdaptiveConfig(max_worlds=100).enabled

    def test_validation(self):
        with pytest.raises(ScenarioError, match="target_ci"):
            AdaptiveConfig(target_ci=0.0)
        with pytest.raises(ScenarioError, match="min_worlds"):
            AdaptiveConfig(min_worlds=0)
        with pytest.raises(ScenarioError, match="max_worlds"):
            AdaptiveConfig(max_worlds=0)
        with pytest.raises(ScenarioError, match="round_growth"):
            AdaptiveConfig(round_growth=1.0)

    def test_mapping_round_trip(self):
        config = BASE_CONFIG.replace_section(
            "adaptive", target_ci=0.25, max_worlds=64, round_growth=3.0
        )
        rebuilt = ClientConfig.from_mapping(config.to_mapping())
        assert rebuilt == config
        assert rebuilt.adaptive.target_ci == 0.25
        portable = ClientConfig.from_mapping(config.to_mapping(portable=True))
        assert portable.adaptive == config.adaptive

    def test_round_plan_falls_back_to_sampling_section(self):
        plan = BASE_CONFIG.round_plan()
        assert plan.n_worlds == N_WORLDS
        assert plan.first == 8  # sampling.refinement_first
        assert plan.growth == BASE_CONFIG.sampling.refinement_growth

    def test_round_plan_adaptive_knobs_win(self):
        config = BASE_CONFIG.replace_section(
            "adaptive", target_ci=1.0, min_worlds=4, max_worlds=32, round_growth=4.0
        )
        plan = config.round_plan()
        assert (plan.n_worlds, plan.first, plan.growth) == (32, 4, 4.0)

    def test_min_above_max_rejected_at_construction(self):
        with pytest.raises(ScenarioError, match="min_worlds"):
            BASE_CONFIG.replace_section(
                "adaptive", target_ci=1.0, min_worlds=20, max_worlds=10
            )

    def test_with_adaptive_changes_only_passed_knobs(self):
        with open_client() as client:
            tuned = client.with_adaptive(target_ci=0.5).with_adaptive(
                max_worlds=64
            )
            adaptive = tuned.config.adaptive
            assert adaptive.target_ci == 0.5  # survived the second call
            assert adaptive.max_worlds == 64
            assert adaptive.min_worlds is None
            # The original client is untouched (immutably layered).
            assert not client.config.adaptive.enabled


class TestAdaptiveOffUnchanged:
    def test_default_config_mapping_has_disabled_adaptive(self):
        mapping = BASE_CONFIG.to_mapping()
        assert mapping["adaptive"] == {
            "target_ci": None,
            "min_worlds": None,
            "max_worlds": None,
            "round_growth": None,
        }

    def test_sweep_returns_fixed_budget_handle(self):
        with open_client() as client:
            handle = client.sweep([POINT])
            assert not hasattr(handle, "sweep")  # SweepHandle, not adaptive
            results = handle.run()
        assert results[0].worlds_spent is None
        assert results[0].retired_early is None


class TestUnreachableTargetParity:
    """Adaptive on + unreachable target == fixed budget, bit for bit."""

    def _fixed_results(self, points):
        with open_client() as client:
            return client.sweep(points).run()

    def _adaptive_results(self, points, **serving):
        with open_client() as client:
            adaptive = client.with_adaptive(
                target_ci=1e-12, max_worlds=N_WORLDS
            )
            if serving:
                adaptive = adaptive.with_serving(**serving)
            return adaptive.sweep(points).run()

    def test_bitwise_identical_statistics(self):
        points = [
            {"purchase1": 0, "purchase2": 0, "feature": 12},
            {"purchase1": 26, "purchase2": 52, "feature": 36},
            POINT,
        ]
        fixed = self._fixed_results(points)
        adaptive = self._adaptive_results(points)
        assert len(adaptive) == len(fixed)
        for a, f in zip(adaptive, fixed):
            assert a.ok and f.ok
            assert a.point == f.point
            assert_stats_identical(a.statistics, f.statistics)
            assert a.worlds_spent == N_WORLDS
            assert a.retired_early is False

    def test_bitwise_identical_across_shard_geometry(self):
        fixed = self._fixed_results([POINT])
        sharded = self._adaptive_results([POINT], executor="inline", shards=3)
        assert_stats_identical(sharded[0].statistics, fixed[0].statistics)

    def test_evaluate_adaptive_matches_fixed(self):
        with open_client() as client:
            expected = client.evaluate(POINT)
        with open_client() as client:
            adaptive = client.with_adaptive(target_ci=1e-12, max_worlds=N_WORLDS)
            actual = adaptive.evaluate(POINT)
        assert_stats_identical(actual.statistics, expected.statistics)

    def test_bitwise_identical_under_process_pool(self):
        fixed = self._fixed_results([POINT])
        pooled = self._adaptive_results(
            [POINT], executor="process", workers=2, shards=2
        )
        assert_stats_identical(pooled[0].statistics, fixed[0].statistics)

    def test_bitwise_identical_with_result_cache(self, tmp_path):
        fixed = self._fixed_results([POINT])
        with open_client() as client:
            adaptive = client.with_adaptive(
                target_ci=1e-12, max_worlds=N_WORLDS
            ).with_cache(str(tmp_path / "cache"))
            cold = adaptive.sweep([POINT]).run()
        with open_client() as client:
            adaptive = client.with_adaptive(
                target_ci=1e-12, max_worlds=N_WORLDS
            ).with_cache(str(tmp_path / "cache"))
            warm = adaptive.sweep([POINT]).run()
        assert_stats_identical(cold[0].statistics, fixed[0].statistics)
        assert_stats_identical(warm[0].statistics, fixed[0].statistics)


class TestAdaptiveDeterminism:
    TARGET = 1000.0  # reachable for some points at this scenario's scale

    def _run(self, **serving):
        with open_client() as client:
            adaptive = client.with_adaptive(target_ci=self.TARGET)
            if serving:
                adaptive = adaptive.with_serving(**serving)
            results = adaptive.sweep().run()
            report = adaptive.stats()
        return results, report

    @staticmethod
    def _decisions(results):
        return [
            (r.point["purchase1"], r.point["purchase2"], r.point["feature"],
             r.worlds_spent, r.rounds, r.retired_early, r.ok)
            for r in results
        ]

    def test_rerun_identical_decisions(self):
        first, report_a = self._run()
        second, report_b = self._run()
        assert self._decisions(first) == self._decisions(second)
        assert report_a.to_json() == report_b.to_json()

    def test_shard_count_does_not_change_decisions(self):
        plain, _ = self._run()
        sharded, _ = self._run(executor="inline", shards=3)
        assert self._decisions(plain) == self._decisions(sharded)
        for a, b in zip(plain, sharded):
            assert_stats_identical(a.statistics, b.statistics)


class TestMomentsOffTheBlockingPath:
    """Exact mergeable moments are an on-demand roll-up, never a round cost."""

    TARGET = 500.0  # two points retire in round 0; their budget extends one

    def _run(self):
        with open_client() as client:
            adaptive = client.with_adaptive(target_ci=self.TARGET)
            results = adaptive.sweep().run()
            return results, adaptive.stats().adaptive

    def test_adaptive_sweep_never_calls_from_matrices(self, monkeypatch):
        expected, expected_report = self._run()
        # The sweep exercises both allocator phases: early retirement, and
        # a reallocation round stepping an explicit prefix past the plan.
        assert any(r.retired_early for r in expected)
        assert any(r.worlds_spent > N_WORLDS for r in expected)

        def refuse(cls, matrices):
            raise AssertionError("exact moments computed on the blocking path")

        monkeypatch.setattr(MergeableAxisStats, "from_matrices", classmethod(refuse))
        actual, actual_report = self._run()
        assert [r.point for r in actual] == [r.point for r in expected]
        for a, e in zip(actual, expected):
            assert a.ok
            assert_stats_identical(a.statistics, e.statistics)
        assert actual_report == expected_report


class TestAdaptiveSweepHandle:
    def test_streaming_yields_every_point_with_adaptive_fields(self):
        with open_client() as client:
            adaptive = client.with_adaptive(target_ci=1e6)  # trivially met
            handle = adaptive.sweep()
            assert isinstance(handle.sweep, AdaptiveSweepJob)
            count = 0
            for result in handle:
                count += 1
                assert result.ok
                assert result.worlds_spent >= 1
                assert result.rounds >= 1
                assert result.max_ci is not None
                assert result.retired_early is True  # huge target: round 0
            assert count == len(handle)
            sweep = handle.sweep
            assert sweep.worlds_spent < sweep.worlds_budgeted

    def test_budget_accounting_in_stats(self):
        with open_client() as client:
            adaptive = client.with_adaptive(target_ci=1e6)
            adaptive.sweep().run()
            report = adaptive.stats()
        scheduler = report.scheduler
        assert scheduler["worlds_budgeted"] > 0
        assert scheduler["worlds_spent"] <= scheduler["worlds_budgeted"]
        assert scheduler["jobs_retired_early"] == len(report.adaptive["points"])
        assert all(p["converged"] for p in report.adaptive["points"])

    def test_explicit_worlds_slice_raises(self):
        with open_client() as client:
            adaptive = client.with_adaptive(target_ci=1.0)
            with pytest.raises(ScenarioError, match="worlds"):
                adaptive.sweep([POINT], worlds=range(4))

    def test_unreachable_target_exhausts_budget(self):
        with open_client() as client:
            adaptive = client.with_adaptive(target_ci=1e-12)
            results = adaptive.sweep([POINT]).run()
            sweep_job = adaptive.stats().scheduler
        assert results[0].retired_early is False
        # Nothing converged, so every budgeted world was spent.
        assert sweep_job["worlds_spent"] == sweep_job["worlds_budgeted"]
