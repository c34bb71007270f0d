"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_assignment, build_parser, main
from repro.errors import ReproError

SMALL_DSL = """
DECLARE PARAMETER @current AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 52 STEP BY 26;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 52 STEP BY 26;
DECLARE PARAMETER @feature AS SET (12, 36);
SELECT DemandModel(@current, @feature) AS demand,
       CapacityModel(@current, @purchase1, @purchase2) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
GRAPH OVER @current EXPECT overload WITH red;
OPTIMIZE SELECT @purchase1, @purchase2 FROM results
WHERE MAX(EXPECT overload) < 0.5
FOR MAX @purchase1, MAX @purchase2
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.sql"
    path.write_text(SMALL_DSL)
    return str(path)


class TestParseAssignment:
    def test_integer(self):
        assert _parse_assignment("purchase1=8") == ("purchase1", 8)

    def test_float(self):
        assert _parse_assignment("growth=1.5") == ("growth", 1.5)

    def test_string(self):
        assert _parse_assignment("mode=fast") == ("mode", "fast")

    def test_at_prefix_stripped(self):
        assert _parse_assignment("@feature=12") == ("feature", 12)

    def test_missing_equals(self):
        with pytest.raises(ReproError, match="NAME=VALUE"):
            _parse_assignment("purchase1")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_collects_assignments(self):
        args = build_parser().parse_args(
            ["run", "-", "--set", "a=1", "--set", "b=2"]
        )
        assert args.assignments == ["a=1", "b=2"]


class TestInfo:
    def test_info_builtin_scenario(self, capsys):
        assert main(["info", "-"]) == 0
        output = capsys.readouterr().out
        assert "@current" in output and "(axis)" in output
        assert "DemandModel" in output
        assert "OPTIMIZE" in output or "optimize" in output

    def test_info_from_file(self, scenario_file, capsys):
        assert main(["info", scenario_file]) == 0
        assert "sweep grid: 18 points" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["info", "/no/such/file.sql"]) == 2
        assert "error" in capsys.readouterr().err


class TestRun:
    def test_run_evaluates_point(self, scenario_file, capsys):
        code = main(
            [
                "run", scenario_file, "--worlds", "10", "--no-chart",
                "--set", "purchase1=26", "--set", "purchase2=52",
                "--set", "feature=12",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "E[overload]" in output
        assert "E[capacity]" in output

    def test_run_with_chart(self, scenario_file, capsys):
        code = main(["run", scenario_file, "--worlds", "10"])
        assert code == 0
        assert "E[overload]" in capsys.readouterr().out

    def test_run_rejects_bad_value(self, scenario_file, capsys):
        code = main(
            ["run", scenario_file, "--worlds", "10", "--set", "purchase1=3"]
        )
        assert code == 2
        assert "not in domain" in capsys.readouterr().err

    def test_run_defaults_unset_parameters(self, scenario_file, capsys):
        assert main(["run", scenario_file, "--worlds", "10", "--no-chart"]) == 0
        assert "'purchase1': 0" in capsys.readouterr().out


class TestOptimize:
    def test_optimize_finds_best(self, scenario_file, capsys):
        code = main(["optimize", scenario_file, "--worlds", "10"])
        assert code == 0
        output = capsys.readouterr().out
        assert "best point" in output
        assert "sources" in output

    def test_optimize_with_grid(self, scenario_file, capsys):
        code = main(
            ["optimize", scenario_file, "--worlds", "10",
             "--grid", "purchase1", "purchase2"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "F=fresh" in output

    def test_optimize_no_reuse(self, scenario_file, capsys):
        code = main(["optimize", scenario_file, "--worlds", "8", "--no-reuse"])
        assert code == 0
        assert "reuse off" in capsys.readouterr().out

    def test_optimize_infeasible_exit_code(self, tmp_path, capsys):
        text = SMALL_DSL.replace("< 0.5", "< -1.0")
        path = tmp_path / "impossible.sql"
        path.write_text(text)
        assert main(["optimize", str(path), "--worlds", "8"]) == 1
        assert "no feasible" in capsys.readouterr().out


class TestStatsFlag:
    def test_run_stats(self, scenario_file, capsys):
        code = main(
            ["run", scenario_file, "--worlds", "8", "--no-chart", "--stats"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "plan cache:" in output
        assert "basis reuse:" in output
        assert "week memo:" in output

    def test_optimize_stats(self, scenario_file, capsys):
        code = main(["optimize", scenario_file, "--worlds", "8", "--stats"])
        assert code == 0
        assert "execution stats:" in capsys.readouterr().out

    def test_run_stats_reports_batched_sampling(self, scenario_file, capsys):
        code = main(
            ["run", scenario_file, "--worlds", "8", "--no-chart", "--stats"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "sampling: 16 worlds batched / 0 worlds per-world loop" in output
        assert "(batched backend, 0 parity-guard fallbacks)" in output

    def test_run_loop_backend_reports_fallback_worlds(self, scenario_file, capsys):
        code = main(
            [
                "run", scenario_file, "--worlds", "8", "--no-chart", "--stats",
                "--sampling-backend", "loop",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "sampling: 0 worlds batched / 16 worlds per-world loop" in output
        assert "(loop backend," in output

    def test_backend_knob_is_bit_identical(self, scenario_file, capsys):
        argv = ["run", scenario_file, "--worlds", "8", "--no-chart",
                "--set", "purchase1=26", "--set", "feature=12"]
        assert main(argv) == 0
        batched = capsys.readouterr().out
        assert main(argv + ["--sampling-backend", "loop"]) == 0
        loop = capsys.readouterr().out
        # Identical numbers out of both backends (timing lines differ).
        assert [l for l in batched.splitlines() if l.startswith("E[")] == [
            l for l in loop.splitlines() if l.startswith("E[")
        ]


class TestBatch:
    def test_batch_sweeps_grid_inline(self, scenario_file, capsys):
        code = main(
            ["batch", scenario_file, "--worlds", "8", "--executor", "inline"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "full grid (18 points)" in output
        assert "0 failed" in output

    def test_batch_explicit_points_dedup(self, scenario_file, capsys):
        code = main(
            [
                "batch", scenario_file, "--worlds", "8", "--executor", "inline",
                "--point", "purchase1=0,purchase2=26,feature=12",
                "--point", "purchase1=0,purchase2=26,feature=12",
            ]
        )
        assert code == 0
        assert "1 deduplicated" in capsys.readouterr().out

    def test_batch_cache_dir_serves_second_run(self, scenario_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = [
            "batch", scenario_file, "--worlds", "8", "--executor", "inline",
            "--cache-dir", cache_dir,
            "--point", "purchase1=0,purchase2=0,feature=12",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "1 cache hits (100% hit rate)" in capsys.readouterr().out

    def test_batch_stats_block(self, scenario_file, capsys):
        code = main(
            ["batch", scenario_file, "--worlds", "8", "--executor", "inline",
             "--point", "purchase1=0,purchase2=0,feature=12", "--stats"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "service stats:" in output
        assert "result cache:" in output
        assert "shard sampling: 16 worlds batched / 0 worlds per-world loop" in output


class TestConfigFlagTable:
    """Every config-bearing flag is generated from one section field."""

    def test_every_flag_maps_to_a_section_field_with_its_default(self):
        from dataclasses import fields

        from repro.api import ClientConfig
        from repro.cli import COMMON_FLAGS, SERVE_FLAGS

        defaults = ClientConfig()
        batch = build_parser().parse_args(["batch", "-"])  # takes every flag
        for flag in COMMON_FLAGS + SERVE_FLAGS:
            section = getattr(defaults, flag.section)
            assert flag.field in {f.name for f in fields(section)}, flag
            assert getattr(batch, flag.dest) == getattr(section, flag.field), flag

    def test_choices_come_from_the_section_field(self):
        from repro.api.config import EXECUTOR_KINDS
        from repro.cli import COMMON_FLAGS, SERVE_FLAGS
        from repro.core.sampling import SAMPLING_BACKENDS
        from repro.serve.transport import SHARD_TRANSPORTS

        choices = {
            flag.flag: flag.spec()[2] for flag in COMMON_FLAGS + SERVE_FLAGS
        }
        assert choices["--sampling-backend"] == SAMPLING_BACKENDS
        assert choices["--executor"] == EXECUTOR_KINDS
        assert choices["--shard-transport"] == SHARD_TRANSPORTS
        with pytest.raises(SystemExit):
            build_parser().parse_args(["batch", "-", "--executor", "gpu"])

    def test_default_worlds_is_the_section_default(self):
        # Was 100 on the CLI beside SamplingConfig's 200.
        from repro.api import ClientConfig
        from repro.cli import _client_config

        args = build_parser().parse_args(["run", "-"])
        assert args.worlds == 200
        assert _client_config(args) == ClientConfig()


class TestResilienceFlags:
    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["batch", "-", "--shard-timeout", "2.5", "--shard-retries", "3"]
        )
        assert args.shard_timeout == 2.5
        assert args.shard_retries == 3

    def test_flags_plumb_into_client_config(self):
        from repro.cli import _client_config

        args = build_parser().parse_args(
            ["optimize", "-", "--shard-timeout", "1.5", "--shard-retries", "4"]
        )
        config = _client_config(args)
        assert config.resilience.shard_timeout == 1.5
        assert config.resilience.shard_retries == 4

    def test_absent_flags_keep_the_default_section(self):
        from repro.api import ResilienceConfig
        from repro.cli import _client_config

        args = build_parser().parse_args(["batch", "-"])
        config = _client_config(args)
        assert config.resilience == ResilienceConfig()
        assert not config.wants_service()  # resilience alone stays default

    def test_batch_stats_show_resilience_counters(self, scenario_file, capsys):
        code = main(
            ["batch", scenario_file, "--worlds", "8", "--executor", "inline",
             "--shard-retries", "3",
             "--point", "purchase1=0,purchase2=0,feature=12", "--stats"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "resilience: 0 shard retries / 0 timeouts" in output
