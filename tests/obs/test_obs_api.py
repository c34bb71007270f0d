"""Observability at the client façade and the CLI.

Two contracts meet here: the *ergonomic* one (``with_observability`` is a
chainable config section, traces export Chrome-loadable, profiles render)
and the *determinism* one — turning every knob on must leave the stable
counter JSON (``StatsReport.to_json()``) byte-identical and the statistics
bit-identical.
"""

from __future__ import annotations

import json

import pytest

from contracts import timing_keys
from obs_testutil import OBS_DSL, POINT, assert_stats_identical
from repro.api import ClientConfig, ObsConfig, ProphetClient, SamplingConfig
from repro.cli import main
from repro.errors import ScenarioError
from repro.obs import NULL_TRACER

CLIENT_CONFIG = ClientConfig(
    sampling=SamplingConfig(n_worlds=16)
)


def open_client() -> ProphetClient:
    return ProphetClient.open(OBS_DSL, "demo", config=CLIENT_CONFIG)


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.sql"
    path.write_text(OBS_DSL)
    return str(path)


class TestObsConfigSection:
    def test_portable_round_trip(self):
        config = ClientConfig(
            obs=ObsConfig(trace=True, trace_file="out.json", profile=True)
        )
        payload = json.dumps(config.to_mapping(portable=True))
        assert ClientConfig.from_mapping(json.loads(payload)) == config

    def test_from_mapping_section(self):
        config = ClientConfig.from_mapping({"obs": {"profile": True}})
        assert config.obs.profile is True
        assert config.obs.enabled

    def test_with_observability_chains_accumulate(self):
        client = (
            open_client()
            .with_observability(trace_file="t.json")
            .with_observability(profile=True)
        )
        assert client.config.obs.trace_file == "t.json"
        assert client.config.obs.profile is True
        assert client.config.obs.tracing


class TestClientTracing:
    def test_off_by_default(self):
        client = open_client()
        client.evaluate(POINT)
        assert client.tracer is NULL_TRACER
        assert not client.tracer.enabled

    def test_tracing_populates_stats_timing(self):
        client = open_client().with_observability(trace=True)
        client.evaluate(POINT)
        report = client.stats()
        assert report.timing is not None
        assert report.timing.spans  # tracer aggregate made it into the report
        assert "evaluate" in report.timing.spans
        assert len(client.tracer) > 0

    def test_timing_never_in_stable_json(self):
        client = open_client().with_observability(trace=True)
        client.evaluate(POINT)
        payload = json.loads(client.stats().to_json())
        assert "timing" not in payload

    def test_counter_json_byte_identical_traced_vs_untraced(self):
        plain = open_client()
        plain_stats = plain.evaluate(POINT)

        traced = open_client().with_observability(trace=True)
        traced_stats = traced.evaluate(POINT)

        assert_stats_identical(traced_stats.statistics, plain_stats.statistics)
        assert traced.stats().to_json() == plain.stats().to_json()

        # Process workers report timings too; none may reach the counters.
        pooled = open_client().with_observability(trace=True)
        pooled = pooled.with_serving(workers=2, executor="process")
        with pooled:
            pooled.evaluate(POINT)
            counters = pooled.stats().to_dict()
        assert counters["service"]["executor_kind"] == "process"
        assert timing_keys(counters) == []

    def test_export_trace_is_chrome_loadable(self, tmp_path):
        client = open_client().with_observability(trace=True)
        client.evaluate(POINT)
        path = client.export_trace(str(tmp_path / "trace.json"))
        data = json.loads(open(path).read())
        assert data["traceEvents"]
        assert all(e["ph"] == "X" for e in data["traceEvents"])

    def test_close_auto_exports_trace_file(self, tmp_path):
        target = tmp_path / "auto.json"
        with open_client().with_observability(trace_file=str(target)) as client:
            client.evaluate(POINT)
        assert json.loads(target.read_text())["traceEvents"]

    def test_export_trace_without_target_raises(self):
        client = open_client().with_observability(trace=True)
        client.evaluate(POINT)
        with pytest.raises(ScenarioError, match="no trace destination"):
            client.export_trace()

    def test_export_trace_with_tracing_off_raises(self, tmp_path):
        client = open_client()
        client.evaluate(POINT)
        with pytest.raises(ScenarioError, match="tracing is off"):
            client.export_trace(str(tmp_path / "trace.json"))


class TestClientProfiling:
    def test_profile_summary_renders(self):
        client = open_client().with_observability(profile=True)
        client.evaluate(POINT)
        summary = client.profile_summary()
        assert "cumulative" in summary

    def test_profile_summary_without_profiler_raises(self):
        client = open_client()
        client.evaluate(POINT)
        with pytest.raises(ScenarioError, match="profiling is off"):
            client.profile_summary()


class TestCliObservability:
    def test_trace_flag_writes_chrome_trace(self, scenario_file, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.json")
        code = main(
            [
                "run",
                scenario_file,
                "--worlds",
                "10",
                "--no-chart",
                "--trace",
                trace_path,
            ]
        )
        assert code == 0
        assert "trace written to" in capsys.readouterr().out
        assert json.loads(open(trace_path).read())["traceEvents"]

    def test_profile_flag_prints_cumulative_table(self, scenario_file, capsys):
        code = main(
            ["run", scenario_file, "--worlds", "10", "--no-chart", "--profile"]
        )
        assert code == 0
        assert "cumulative" in capsys.readouterr().out

    def test_stats_json_emits_parseable_counters(self, scenario_file, capsys):
        code = main(
            ["run", scenario_file, "--worlds", "10", "--no-chart", "--stats-json"]
        )
        assert code == 0
        payload = _stats_json_payload(capsys.readouterr().out)
        assert payload["execution"]["statements"] >= 1
        assert "timing" not in payload

    def test_stats_json_byte_stable_under_tracing(
        self, scenario_file, tmp_path, capsys
    ):
        base = ["run", scenario_file, "--worlds", "10", "--no-chart", "--stats-json"]
        assert main(base) == 0
        plain = _stats_json_line(capsys.readouterr().out)
        assert main(base + ["--trace", str(tmp_path / "t.json")]) == 0
        traced = _stats_json_line(capsys.readouterr().out)
        assert traced == plain

    def test_optimize_accepts_obs_flags(self, scenario_file, tmp_path, capsys):
        trace_path = str(tmp_path / "opt.json")
        code = main(
            ["optimize", scenario_file, "--worlds", "8", "--trace", trace_path]
        )
        assert code == 0
        assert json.loads(open(trace_path).read())["traceEvents"]

    def test_batch_accepts_obs_flags(self, scenario_file, tmp_path, capsys):
        trace_path = str(tmp_path / "batch.json")
        code = main(
            [
                "batch",
                scenario_file,
                "--worlds",
                "8",
                "--stats-json",
                "--trace",
                trace_path,
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert _stats_json_payload(output)["execution"]["statements"] >= 1
        assert json.loads(open(trace_path).read())["traceEvents"]


def _stats_json_line(output: str) -> str:
    lines = [line for line in output.splitlines() if line.startswith("{")]
    assert len(lines) == 1, f"expected exactly one JSON line, got {lines!r}"
    return lines[0]


def _stats_json_payload(output: str) -> dict:
    return json.loads(_stats_json_line(output))
