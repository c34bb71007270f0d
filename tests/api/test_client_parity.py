"""`ProphetClient` handles are bit-identical to the legacy entrypoints.

The compatibility contract of the API redesign: a client-configured
backend — in-process engine, inline serve, or process-pool serve — must
produce byte-for-byte the same ``AxisStatistics`` as the pre-client
spellings (``OnlineSession``, ``OfflineOptimizer``, ``Scheduler``), and
the unified stats report must be deterministic across identical runs.
"""

from __future__ import annotations

import json

import pytest

from api_testutil import API_DSL, POINT, assert_stats_identical
from repro.api import ClientConfig, ProphetClient, SamplingConfig
from repro.core.config import EngineConfig, SamplingConfig
from repro.core.engine import ProphetEngine
from repro.core.offline import OfflineOptimizer
from repro.core.online import OnlineSession
from repro.dsl import parse_scenario
from repro.errors import ScenarioError
from repro.models import build_demo_library

N_WORLDS = 16

CLIENT_CONFIG = ClientConfig(
    sampling=SamplingConfig(n_worlds=N_WORLDS, refinement_first=8)
)

ENGINE_CONFIG = EngineConfig(sampling=SamplingConfig(n_worlds=N_WORLDS, refinement_first=8))

SLIDERS = {"purchase1": 26, "purchase2": 52, "feature": 12}

#: The 36-point demo sweep (3 x 3 x 4): ``API_DSL`` with a denser @feature axis.
DEMO_SWEEP_DSL = API_DSL.replace(
    "@feature AS SET (12, 36)", "@feature AS SET (0, 12, 24, 36)"
)

DEMO_SWEEP_STATS = {
    "in-process": (
        '{"basis": {"exact_hits": 59, "mapped_hits": 11, "misses": 2, "resident": 13, '
        '"resident_bytes": 220480, "spilled": 0, "tier_dropped": 0, "tier_evictions": 0, '
        '"tier_failed_faults": 0, "tier_faults": 0, "tier_spills": 0}, "execution": '
        '{"fallback_selects": 0, "plan_cache_hits": 190, "plan_cache_misses": 10, '
        '"rows_fallback": 0, "rows_vectorized": 53600, "statements": 200, "vectorized_selects": '
        '68}, "sampling": {"backend": "batched", "parity_fallbacks": 0, "sampled_batched": 80, '
        '"sampled_fallback": 0}, "scheduler": {"dedup_hits": 0, "jobs_completed": 36, '
        '"jobs_retired_early": 0, "jobs_retried": 0, "worlds_budgeted": 0, "worlds_spent": 0}, '
        '"service": {"bytes_shipped": 0, "bytes_zero_copy": 0, "cache_hits": 0, "cache_misses": '
        '0, "cache_tmp_swept": 0, "executor_kind": "inline", "executor_workers": 1, '
        '"inline_rescues": 0, "points_evaluated": 36, "pool_rebuilds": 0, "sampled_batched": 80, '
        '"sampled_fallback": 0, "sampled_worlds": 80, "segments_leased": 0, "segments_reclaimed":'
        ' 0, "shard_generations": 2, "shard_retries": 0, "shard_tasks": 2, '
        '"shard_timeouts": 0, "shard_transport": "pickle", "transport_fallbacks": 0}, "week_memo": {"hits": 1344, "misses": 564}}'
    ),
    "process-pool": (
        '{"basis": {"exact_hits": 59, "mapped_hits": 11, "misses": 2, "resident": 13, '
        '"resident_bytes": 220480, "spilled": 0, "tier_dropped": 0, "tier_evictions": 0, '
        '"tier_failed_faults": 0, "tier_faults": 0, "tier_spills": 0}, "execution": '
        '{"fallback_selects": 0, "plan_cache_hits": 186, "plan_cache_misses": 6, "rows_fallback":'
        ' 0, "rows_vectorized": 45120, "statements": 192, "vectorized_selects": 64}, "sampling": '
        '{"backend": "batched", "parity_fallbacks": 0, "sampled_batched": 0, "sampled_fallback": '
        '0}, "scheduler": {"dedup_hits": 0, "jobs_completed": 36, "jobs_retired_early": 0, '
        '"jobs_retried": 0, "worlds_budgeted": 0, "worlds_spent": 0}, "service": '
        '{"bytes_shipped": 34560, "bytes_zero_copy": 0, "cache_hits": 0, "cache_misses": 0, '
        '"cache_tmp_swept": 0, "executor_kind": "process", "executor_workers": 2, '
        '"inline_rescues": 0, "points_evaluated": 36, "pool_rebuilds": 0, "sampled_batched": 80, '
        '"sampled_fallback": 0, "sampled_worlds": 80, "segments_leased": 0, "segments_reclaimed":'
        ' 0, "shard_generations": 2, "shard_retries": 0, "shard_tasks": 4, '
        '"shard_timeouts": 0, "shard_transport": "pickle", "transport_fallbacks": 0}, "week_memo": {"hits": 1344, "misses": 564}}'
    ),
}


def open_client(**with_kwargs) -> ProphetClient:
    client = ProphetClient.open(API_DSL, "demo", config=CLIENT_CONFIG)
    if with_kwargs:
        client = client.with_serving(**with_kwargs)
    return client


@pytest.fixture
def legacy_parts():
    scenario = parse_scenario(API_DSL, name="scenario")
    return scenario, build_demo_library()


class TestInteractiveParity:
    def _legacy_views(self, legacy_parts):
        scenario, library = legacy_parts
        session = OnlineSession(ProphetEngine(scenario, library, ENGINE_CONFIG))
        session.set_sliders(SLIDERS)
        first = session.refresh()
        session.set_slider("purchase1", 0)
        second = session.refresh()
        return first, second

    def _client_views(self, client):
        session = client.interactive()
        assert isinstance(session, OnlineSession)  # the driver itself
        session.set_sliders(SLIDERS)
        first = session.refresh()
        session.set_slider("purchase1", 0)
        second = session.refresh()
        return first, second

    def test_in_process_backend(self, legacy_parts):
        expected = self._legacy_views(legacy_parts)
        with open_client() as client:
            actual = self._client_views(client)
        for view, reference in zip(actual, expected):
            assert_stats_identical(view.statistics, reference.statistics)
            assert view.refreshed_weeks == reference.refreshed_weeks

    def test_inline_serve_backend(self, legacy_parts):
        expected = self._legacy_views(legacy_parts)
        with open_client(executor="inline") as client:
            actual = self._client_views(client)
        for view, reference in zip(actual, expected):
            assert_stats_identical(view.statistics, reference.statistics)

    def test_progressive_refresh_parity(self, legacy_parts):
        scenario, library = legacy_parts
        session = OnlineSession(ProphetEngine(scenario, library, ENGINE_CONFIG))
        session.set_sliders(SLIDERS)
        expected = session.refresh_progressive()
        with open_client() as client:
            session = client.interactive()
            session.set_sliders(SLIDERS)
            actual = session.refresh_progressive()
        assert len(actual) == len(expected)
        for view, reference in zip(actual, expected):
            assert_stats_identical(view.statistics, reference.statistics)


class TestSweepParity:
    def _reference_statistics(self, legacy_parts, points):
        scenario, library = legacy_parts
        engine = ProphetEngine(scenario, library, ENGINE_CONFIG)
        return [engine.evaluate_point(point).statistics for point in points]

    def _grid(self, legacy_parts):
        scenario, _ = legacy_parts
        return list(scenario.space.grid(exclude=[scenario.axis]))

    @pytest.mark.parametrize(
        "serving",
        [
            {},
            {"executor": "inline", "shards": 2},
            {"executor": "process", "workers": 2},
        ],
        ids=["in-process", "inline-sharded", "process-pool"],
    )
    def test_full_grid_bitwise(self, legacy_parts, serving):
        points = self._grid(legacy_parts)
        expected = self._reference_statistics(legacy_parts, points)
        with open_client(**serving) as client:
            results = list(client.sweep(points))
        assert [result.point for result in results] == [
            client.scenario.validate_sweep_point(point) for point in points
        ]
        for result, reference in zip(results, expected):
            assert result.ok
            assert_stats_identical(result.statistics, reference)

    @pytest.mark.parametrize("backend", ["in-process", "process-pool"])
    def test_demo_sweep_counters_repeat_the_recorded_bytes(self, backend):
        """Batch-granular reuse must not move a single counter.

        ``DEMO_SWEEP_STATS`` is ``client.stats().to_json()`` of the 36-point
        demo sweep as recorded at commit 912df2e, before the reuse plane went
        per-batch: same hits, misses, week-memo traffic, statements and
        shard traffic, byte for byte.
        """
        client = ProphetClient.open(
            DEMO_SWEEP_DSL,
            "demo",
            config=ClientConfig(sampling=SamplingConfig(n_worlds=40)),
        )
        if backend == "process-pool":
            client = client.with_serving(executor="process", workers=2, shards=2)
        with client:
            points = [dict(point) for point in client.scenario.sweep_space.grid()]
            assert len(points) == 36
            assert all(result.ok for result in client.sweep(points))
            recorded = DEMO_SWEEP_STATS[backend]
            assert json.loads(client.stats().to_json()) == json.loads(recorded)
            assert client.stats().to_json() == recorded
            engine = client.engine
            assert (engine.week_stats_hits, engine.week_stats_misses) == (1344, 564)

    def test_streaming_yields_one_job_per_step(self):
        with open_client() as client:
            handle = client.sweep([POINT, {**POINT, "purchase1": 26}])
            assert len(handle) == 2
            report = client.stats()
            assert report.scheduler["jobs_completed"] == 0
            first = next(handle)
            assert first.ok
            assert client.stats().scheduler["jobs_completed"] == 1
            second = next(handle)
            assert second.ok
            with pytest.raises(StopIteration):
                next(handle)

    def test_evaluate_mid_sweep_leaves_queue_untouched(self):
        with open_client() as client:
            handle = client.sweep([POINT, {**POINT, "purchase1": 26}])
            next(handle)
            assert client.stats().scheduler["jobs_completed"] == 1
            evaluation = client.evaluate({**POINT, "feature": 36})
            # The direct evaluation ran on the engine, not the job queue:
            # the second sweep job is still pending.
            assert client.stats().scheduler["jobs_completed"] == 1
            assert evaluation.n_worlds == N_WORLDS
            second = next(handle)
            assert second.ok

    def test_duplicate_points_coalesce(self):
        with open_client() as client:
            results = list(client.sweep([POINT, POINT, POINT]))
            assert [result.deduplicated for result in results] == [
                False,
                True,
                True,
            ]
            assert client.stats().scheduler["dedup_hits"] == 2
            # Followers carry the primary's result, bit for bit.
            assert_stats_identical(results[1].statistics, results[0].statistics)


class TestOptimizeParity:
    @pytest.mark.parametrize(
        "serving",
        [{}, {"executor": "inline", "shards": 2}],
        ids=["in-process", "inline-sharded"],
    )
    def test_run_matches_legacy(self, legacy_parts, serving):
        scenario, library = legacy_parts
        expected = OfflineOptimizer(ProphetEngine(scenario, library, ENGINE_CONFIG)).run()
        with open_client(**serving) as client:
            optimizer = client.optimize()
            assert isinstance(optimizer, OfflineOptimizer)  # the driver itself
            result = optimizer.run()
        assert result.best is not None and expected.best is not None
        assert result.best_point() == expected.best_point()
        assert result.best.point == expected.best.point
        assert len(result.records) == len(expected.records)
        for record, reference in zip(result.records, expected.records):
            assert record.point == reference.point
            assert record.feasible == reference.feasible
            assert_stats_identical(record.statistics, reference.statistics)

    def test_session_name_propagates_to_jobs(self):
        with open_client(executor="inline") as client:
            client.optimize(session_name="opt-x").run()
            assert {job.session for job in client._scheduler.completed} == {"opt-x"}


class TestOneSeam:
    """The backend is chosen once, at build; ``sweep()`` never flips it."""

    SWEPT = [POINT, {**POINT, "purchase1": 26}]
    LATER = {**POINT, "feature": 36}

    def _refresh(self, session):
        session.set_sliders(SLIDERS)
        return session.refresh().statistics

    def test_default_client_stays_on_its_engine_after_a_sweep(self):
        with open_client() as client:
            assert client.backend_description() == "sequential"
            early = client.interactive()  # opened before the sweep
            assert all(result.ok for result in client.sweep(self.SWEPT).run())
            swept = client.stats().service["points_evaluated"]
            late = self._refresh(client.interactive())
            client.evaluate(self.LATER)
            report = client.stats()
            assert report.scheduler["jobs_completed"] == len(self.SWEPT)
            assert report.service["points_evaluated"] == swept
            assert client.backend_description() == "sequential"
            assert_stats_identical(late, self._refresh(early))

    def test_served_client_runs_every_refresh_as_a_job(self):
        with open_client() as bare:  # same steps: reuse state shapes a refresh
            bare.sweep(self.SWEPT).run()
            expected = self._refresh(bare.interactive())
        with open_client(executor="inline", shards=2) as client:
            described = client.backend_description()
            client.sweep(self.SWEPT).run()
            session = client.interactive()
            for refreshes in (1, 2):
                statistics = self._refresh(session)
                completed = client.stats().scheduler["jobs_completed"]
                assert completed == len(self.SWEPT) + refreshes
                assert_stats_identical(statistics, expected)
            assert client.backend_description() == described != "sequential"

    @pytest.mark.parametrize(
        "serving", [{}, {"executor": "inline"}], ids=["in-process", "inline-serve"]
    )
    def test_failing_neighbor_raises_the_original_exception(
        self, serving, monkeypatch
    ):
        def explode(self, point, **kwargs):
            raise RuntimeError("neighbor lost")

        monkeypatch.setattr(ProphetEngine, "evaluate_point", explode)
        with open_client(**serving) as client:
            session = client.interactive()
            with pytest.raises(RuntimeError, match="neighbor lost"):
                session.explore_proactively(max_points=2)


class TestResultCache:
    def test_second_client_serves_from_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        points = [POINT, {**POINT, "feature": 36}]
        with open_client().with_cache(cache_dir) as first:
            cold = list(first.sweep(points))
            assert first.stats().service["cache_hits"] == 0
        with open_client().with_cache(cache_dir) as second:
            warm = list(second.sweep(points))
            assert second.stats().service["cache_hits"] == len(points)
        for cold_result, warm_result in zip(cold, warm):
            assert_stats_identical(warm_result.statistics, cold_result.statistics)


class TestStatsReport:
    def _run_and_report(self):
        with open_client() as client:
            session = client.interactive()
            session.set_sliders(SLIDERS)
            session.refresh()
            list(client.sweep([POINT]))
            return client.stats()

    def test_json_stable_across_identical_runs(self):
        assert self._run_and_report().to_json() == self._run_and_report().to_json()

    def test_sections_present(self):
        report = self._run_and_report()
        payload = report.to_dict()
        assert set(payload) == {
            "execution",
            "sampling",
            "basis",
            "week_memo",
            "service",
            "scheduler",
        }
        assert report.sampling["backend"] == "batched"
        assert report.sampling["sampled_batched"] > 0

    def test_render_covers_every_block(self):
        text = self._run_and_report().render()
        for marker in (
            "execution stats:",
            "plan cache:",
            "sampling:",
            "basis reuse:",
            "basis tier:",
            "week memo:",
            "service stats:",
            "result cache:",
            "shard sampling:",
            "scheduler:",
        ):
            assert marker in text

    def test_engine_only_report_omits_service(self):
        with open_client() as client:
            session = client.interactive()
            session.set_sliders(SLIDERS)
            session.refresh()
            report = client.stats()
        assert report.service is None
        assert "service stats:" not in report.render()
        assert "service" not in report.to_dict()


class TestFluentConfiguration:
    def test_with_helpers_return_new_clients(self):
        base = open_client()
        tuned = base.with_sampling(n_worlds=8).with_basis_store(cap=4)
        assert tuned is not base
        assert tuned.config.sampling.n_worlds == 8
        assert tuned.config.store.basis_cap == 4
        assert base.config.sampling.n_worlds == N_WORLDS

    def test_chained_fluent_calls_accumulate(self):
        client = (
            open_client()
            .with_serving(workers=2)
            .with_serving(executor="inline")
            .with_basis_store(cap=4)
            .with_basis_store(dir="/spill")
        )
        assert client.config.serve.workers == 2  # not reset by the 2nd call
        assert client.config.serve.executor == "inline"
        assert client.config.store.basis_cap == 4  # not reset by dir=
        assert client.config.store.basis_dir == "/spill"

    def test_bare_with_serving_opts_in(self):
        with open_client().with_serving() as client:
            assert client.config.serve.enabled
            assert client.backend_description() != "sequential"

    def test_fluent_after_backend_build_rejected(self):
        with open_client() as client:
            client.interactive()  # forces the backend
            with pytest.raises(ScenarioError, match="before the backend"):
                client.with_sampling(n_worlds=8)

    def test_unknown_library_name(self):
        with pytest.raises(ScenarioError, match="unknown VG library"):
            ProphetClient.open(API_DSL, "nope")

    def test_process_serving_requires_shippable_scenario(self, legacy_parts):
        scenario, library = legacy_parts
        client = ProphetClient.open(scenario, library).with_serving(
            workers=2, executor="process"
        )
        with pytest.raises(Exception, match="shippable"):
            client.engine
