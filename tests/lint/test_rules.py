"""Good/bad fixture pairs for every shipped rule family."""

from __future__ import annotations

from lint_testutil import lint_source, rule_ids

WORKER = "repro.serve.worker"
OBS = "repro.obs.trace"


class TestWallClock:
    def test_time_time_flagged(self, tmp_path):
        src = "import time\nx = time.time()\n"
        assert rule_ids(lint_source(tmp_path, src)) == ["DET001"]

    def test_perf_counter_flagged(self, tmp_path):
        src = "import time\nx = time.perf_counter()\n"
        assert rule_ids(lint_source(tmp_path, src)) == ["DET001"]

    def test_datetime_now_flagged(self, tmp_path):
        src = "import datetime\nx = datetime.datetime.now()\n"
        assert rule_ids(lint_source(tmp_path, src)) == ["DET001"]

    def test_time_sleep_allowed(self, tmp_path):
        # Sleeping delays work but never feeds a value into a decision.
        src = "import time\ntime.sleep(0.01)\n"
        assert lint_source(tmp_path, src) == []

    def test_obs_modules_exempt(self, tmp_path):
        src = "import time\nx = time.time()\n"
        assert lint_source(tmp_path, src, module=OBS) == []


class TestUnseededRandom:
    def test_global_random_flagged(self, tmp_path):
        src = "import random\nx = random.random()\n"
        assert rule_ids(lint_source(tmp_path, src)) == ["DET002"]

    def test_unseeded_random_instance_flagged(self, tmp_path):
        src = "import random\nrng = random.Random()\n"
        assert rule_ids(lint_source(tmp_path, src)) == ["DET002"]

    def test_seeded_random_instance_allowed(self, tmp_path):
        src = "import random\nrng = random.Random(42)\n"
        assert lint_source(tmp_path, src) == []

    def test_unseeded_default_rng_flagged(self, tmp_path):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rule_ids(lint_source(tmp_path, src)) == ["DET002"]

    def test_seeded_default_rng_allowed(self, tmp_path):
        src = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert lint_source(tmp_path, src) == []

    def test_legacy_numpy_global_flagged(self, tmp_path):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert rule_ids(lint_source(tmp_path, src)) == ["DET002"]


class TestWorkerPurity:
    def test_module_dict_flagged_in_worker_module(self, tmp_path):
        src = "CACHE = {}\n"
        assert rule_ids(lint_source(tmp_path, src, module=WORKER)) == ["PUR001"]

    def test_factory_call_flagged(self, tmp_path):
        src = "from collections import defaultdict\nCACHE = defaultdict(list)\n"
        assert rule_ids(lint_source(tmp_path, src, module=WORKER)) == ["PUR001"]

    def test_global_statement_flagged(self, tmp_path):
        src = "STATE = None\n\ndef set_state(v):\n    global STATE\n    STATE = v\n"
        assert rule_ids(lint_source(tmp_path, src, module=WORKER)) == ["PUR001"]

    def test_same_code_fine_outside_worker_modules(self, tmp_path):
        src = "CACHE = {}\n"
        assert lint_source(tmp_path, src, module="repro.serve.service") == []

    def test_dunder_all_exempt(self, tmp_path):
        src = "__all__ = ['a', 'b']\n"
        assert lint_source(tmp_path, src, module=WORKER) == []

    def test_immutable_module_constants_allowed(self, tmp_path):
        src = "NAMES = ('a', 'b')\nLIMIT = 3\n"
        assert lint_source(tmp_path, src, module=WORKER) == []

    def test_unfrozen_dataclass_flagged(self, tmp_path):
        src = (
            "from dataclasses import dataclass\n\n"
            "@dataclass\nclass Payload:\n    x: int = 0\n"
        )
        assert rule_ids(lint_source(tmp_path, src, module=WORKER)) == ["PUR002"]

    def test_frozen_dataclass_allowed(self, tmp_path):
        src = (
            "from dataclasses import dataclass\n\n"
            "@dataclass(frozen=True)\nclass Payload:\n    x: int = 0\n"
        )
        assert lint_source(tmp_path, src, module=WORKER) == []

    def test_coordinator_import_flagged(self, tmp_path):
        src = "from repro.serve.scheduler import Scheduler\n"
        assert rule_ids(lint_source(tmp_path, src, module=WORKER)) == ["PUR003"]

    def test_core_import_allowed(self, tmp_path):
        src = "from repro.core.engine import ProphetEngine\n"
        assert lint_source(tmp_path, src, module=WORKER) == []


class TestStatsSurface:
    def test_timing_attribute_in_as_dict_flagged(self, tmp_path):
        src = (
            "class Stats:\n"
            "    def as_dict(self):\n"
            "        return {'n': self.n, 'elapsed_seconds': self.elapsed_seconds}\n"
        )
        ids = rule_ids(lint_source(tmp_path, src))
        assert ids and set(ids) == {"STAT001"}

    def test_timing_dict_key_flagged(self, tmp_path):
        src = (
            "class Stats:\n"
            "    def to_dict(self):\n"
            "        return {'wall_seconds': 0.0}\n"
        )
        assert "STAT001" in rule_ids(lint_source(tmp_path, src))

    def test_counter_only_surface_allowed(self, tmp_path):
        src = (
            "class Stats:\n"
            "    def as_dict(self):\n"
            "        return {'shard_tasks': self.shard_tasks,\n"
            "                'segments_leased': self.segments_leased}\n"
        )
        assert lint_source(tmp_path, src) == []

    def test_obs_serializers_exempt(self, tmp_path):
        src = (
            "class TimingReport:\n"
            "    def to_dict(self):\n"
            "        return {'elapsed_seconds': self.elapsed_seconds}\n"
        )
        assert lint_source(tmp_path, src, module=OBS) == []


class TestServeTaxonomy:
    def test_bare_runtime_error_flagged(self, tmp_path):
        src = "def f():\n    raise RuntimeError('boom')\n"
        assert rule_ids(
            lint_source(tmp_path, src, module="repro.serve.service")
        ) == ["ERR001"]

    def test_builtin_value_error_flagged(self, tmp_path):
        src = "def f():\n    raise ValueError('bad')\n"
        assert rule_ids(
            lint_source(tmp_path, src, module="repro.serve.service")
        ) == ["ERR002"]

    def test_bare_reraise_allowed(self, tmp_path):
        src = "def f():\n    try:\n        g()\n    except Exception:\n        raise\n"
        assert lint_source(tmp_path, src, module="repro.serve.service") == []

    def test_local_exception_class_allowed(self, tmp_path):
        src = (
            "class FaultInjected(Exception):\n    pass\n\n"
            "def f():\n    raise FaultInjected('planned')\n"
        )
        assert lint_source(tmp_path, src, module="repro.serve.faults") == []

    def test_outside_serve_not_checked(self, tmp_path):
        src = "def f():\n    raise ValueError('bad')\n"
        assert lint_source(tmp_path, src, module="repro.core.engine") == []


def _write_config_tree(tmp_path, section_class: str, client_extra: str = ""):
    """A minimal repro.api.config lookalike for the CFG project rule."""
    pkg = tmp_path / "repro" / "api"
    pkg.mkdir(parents=True)
    # The surface rule wants a literal __all__ on repro and repro.api.
    (tmp_path / "repro" / "__init__.py").write_text("__all__ = []\n")
    (pkg / "__init__.py").write_text("__all__ = []\n")
    (pkg / "config.py").write_text(
        "from dataclasses import dataclass\n\n"
        f"{section_class}\n\n"
        "_SECTIONS = {'sampling': SamplingConfig}\n\n\n"
        "@dataclass(frozen=True)\n"
        "class ClientConfig:\n"
        "    sampling: SamplingConfig = None\n"
        f"{client_extra}"
        "    def __post_init__(self):\n        pass\n\n"
        "    def from_mapping(cls, data):\n        pass\n\n"
        "    def to_mapping(self):\n        pass\n",
        encoding="utf-8",
    )
    from repro.lint import LintEngine

    return LintEngine().run([tmp_path / "repro"], root=tmp_path)


GOOD_SECTION = (
    "@dataclass(frozen=True)\n"
    "class SamplingConfig:\n"
    "    n_worlds: int = 100\n\n"
    "    def __post_init__(self):\n        pass\n"
)


class TestConfigSections:
    def test_conforming_tree_clean(self, tmp_path):
        result = _write_config_tree(tmp_path, GOOD_SECTION)
        assert result.violations == []

    def test_unfrozen_section_flagged(self, tmp_path):
        bad = GOOD_SECTION.replace("@dataclass(frozen=True)", "@dataclass")
        result = _write_config_tree(tmp_path, bad)
        assert "CFG001" in rule_ids(result.violations)

    def test_missing_post_init_flagged(self, tmp_path):
        bad = (
            "@dataclass(frozen=True)\n"
            "class SamplingConfig:\n"
            "    n_worlds: int = 100\n"
        )
        result = _write_config_tree(tmp_path, bad)
        assert "CFG002" in rule_ids(result.violations)

    def test_registry_class_missing_flagged(self, tmp_path):
        bad = GOOD_SECTION.replace("class SamplingConfig", "class OtherConfig")
        result = _write_config_tree(tmp_path, bad)
        assert "CFG003" in rule_ids(result.violations)

    def test_grouping_and_unrelated_configs_clean(self, tmp_path):
        extra = (
            "\n\n@dataclass(frozen=True)\n"
            "class EngineConfig:\n"
            "    sampling: SamplingConfig = None\n\n\n"
            "@dataclass(frozen=True)\n"
            "class ChartConfig:\n"
            "    width: int = 72\n"
        )
        result = _write_config_tree(tmp_path, GOOD_SECTION + extra)
        assert result.violations == []

    def test_flat_config_redeclaring_a_knob_flagged(self, tmp_path):
        flat = (
            "\n\n@dataclass(frozen=True)\n"
            "class ProphetConfig:\n"
            "    n_worlds: int = 200\n"
            "    base_seed: int = 42\n"
        )
        result = _write_config_tree(tmp_path, GOOD_SECTION + flat)
        assert rule_ids(result.violations) == ["CFG004"]
        assert "n_worlds" in result.violations[0].message


def _write_surface_tree(tmp_path, all_literal: str, snapshot: str):
    """A minimal repo with a surface snapshot fixture and repro.api."""
    pkg = tmp_path / "src" / "repro" / "api"
    pkg.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text(
        "__all__ = ['Alpha', 'Beta']\n"
    )
    (pkg / "__init__.py").write_text(f"__all__ = {all_literal}\n")
    fixture_dir = tmp_path / "tests" / "api"
    fixture_dir.mkdir(parents=True)
    (fixture_dir / "test_surface.py").write_text(
        f"SURFACE_SNAPSHOT = {snapshot}\n"
    )
    from repro.lint import LintEngine

    return LintEngine().run([tmp_path / "src" / "repro"], root=tmp_path)


class TestPublicSurface:
    def test_matching_snapshot_clean(self, tmp_path):
        result = _write_surface_tree(
            tmp_path, "['Alpha', 'Beta']", "('Alpha', 'Beta')"
        )
        assert result.violations == []

    def test_drifted_all_flagged(self, tmp_path):
        result = _write_surface_tree(
            tmp_path, "['Alpha', 'Gamma']", "('Alpha', 'Beta')"
        )
        assert "SRF001" in rule_ids(result.violations)

    def test_unsorted_all_flagged(self, tmp_path):
        result = _write_surface_tree(
            tmp_path, "['Beta', 'Alpha']", "('Alpha', 'Beta')"
        )
        assert "SRF002" in rule_ids(result.violations)

    def test_duplicate_entries_flagged(self, tmp_path):
        result = _write_surface_tree(
            tmp_path, "['Alpha', 'Alpha', 'Beta']", "('Alpha', 'Beta')"
        )
        assert "SRF002" in rule_ids(result.violations)
