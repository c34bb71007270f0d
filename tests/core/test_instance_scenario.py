"""Unit tests for world instances and scenario validation."""

import pickle

import pytest

from repro.errors import ScenarioError
from repro.core.instance import InstanceBatch, WorldInstance
from repro.core.parameters import Parameter, ParameterSpace
from repro.core.scenario import (
    DerivedOutput,
    GraphSeries,
    GraphSpec,
    Scenario,
    VGOutput,
)
from repro.models import build_demo_library
from repro.sqldb.parser import parse_expression
from repro.vg.seeds import derive_seed, world_seed


class TestWorldInstance:
    def test_make_normalizes_and_derives_seed(self):
        instance = WorldInstance.make({"@P1": 4, "f": 2}, world=3, base_seed=99)
        assert instance.point_dict == {"@p1": 4, "f": 2}
        assert instance.seed == world_seed(99, 3)

    def test_value_lookup(self):
        instance = WorldInstance.make({"p1": 4}, 0, 1)
        assert instance.value("@P1") == 4
        with pytest.raises(KeyError):
            instance.value("missing")

    def test_same_world_same_seed_across_points(self):
        a = WorldInstance.make({"p": 1}, world=5, base_seed=7)
        b = WorldInstance.make({"p": 2}, world=5, base_seed=7)
        assert a.seed == b.seed  # the property fingerprint reuse relies on


class TestInstanceBatch:
    def test_at_point(self):
        batch = InstanceBatch.at_point({"p": 1}, worlds=range(3), base_seed=7)
        assert len(batch) == 3
        assert batch.worlds == (0, 1, 2)
        assert batch.point_dict == {"p": 1}
        assert len(set(batch.seeds)) == 3

    def test_iteration(self):
        batch = InstanceBatch.at_point({"p": 1}, worlds=[4, 9], base_seed=7)
        assert [i.world for i in batch] == [4, 9]

    def test_instances_are_built_on_first_read_only(self):
        batch = InstanceBatch.at_point({"P": 1}, worlds=[4, 9], base_seed=7)
        assert "instances" not in vars(batch)
        # What every stage but the per-world loop reads leaves them unbuilt.
        assert (len(batch), batch.worlds, batch.point_dict) == (2, (4, 9), {"p": 1})
        assert len(batch.seeds) == 2 and "instances" not in vars(batch)
        assert pickle.loads(pickle.dumps(batch)) == batch
        built = batch.instances
        assert built is batch.instances and list(batch) == list(built)
        assert built == tuple(WorldInstance.make({"p": 1}, w, 7) for w in (4, 9))
        with pytest.raises(AttributeError):
            batch.no_such_attribute

    def test_lazy_and_eager_batches_are_the_same_value(self):
        lazy = InstanceBatch.at_point({"p": 1}, worlds=[4, 9], base_seed=7)
        eager = InstanceBatch(
            point=(("p", 1),),
            instances=tuple(WorldInstance.make({"p": 1}, w, 7) for w in (4, 9)),
        )
        assert (eager.worlds, eager.seeds) == (lazy.worlds, lazy.seeds)
        assert lazy == eager and hash(lazy) == hash(eager) and repr(lazy) == repr(eager)
        assert lazy != InstanceBatch.at_point({"p": 1}, worlds=[4, 8], base_seed=7)
        assert lazy != InstanceBatch.at_point({"p": 2}, worlds=[4, 9], base_seed=7)

    @pytest.mark.parametrize(
        "worlds",
        [range(40), range(13, 27), [31, 2, 2, 17, -5], [1, True, 0, False]],
        ids=["prefix", "shard-slice", "non-contiguous", "bool-ids"],
    )
    def test_seeds_are_the_unmemoised_derivation(self, worlds):
        for base_seed in (7, 42, 7):  # interleaved: memo entries never cross
            # An equal slice of plain ints first: ``(1, True)`` == ``(1, 1)``,
            # yet True is its own world with its own seed.
            InstanceBatch.at_point({"p": 1}, [int(w) for w in worlds], base_seed)
            batch = InstanceBatch.at_point({"p": 1}, worlds, base_seed)
            assert batch.worlds == tuple(worlds)
            assert batch.seeds == tuple(
                derive_seed("world", base_seed, world) for world in worlds
            )


def simple_scenario(**overrides):
    space = ParameterSpace(
        [
            Parameter.from_range("current", 0, 52, 1),
            Parameter.from_set("feature", (12, 36, 44)),
            Parameter.from_range("purchase1", 0, 52, 4),
            Parameter.from_range("purchase2", 0, 52, 4),
        ]
    )
    outputs = overrides.pop(
        "outputs",
        [
            VGOutput(
                alias="demand",
                vg_name="DemandModel",
                index_expr=parse_expression("@current"),
                model_args=(parse_expression("@feature"),),
            ),
            DerivedOutput("overload", parse_expression("CASE WHEN demand > 9000 THEN 1 ELSE 0 END")),
        ],
    )
    kwargs = dict(name="s", space=space, axis="current", outputs=outputs)
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestScenarioValidation:
    def test_valid_scenario(self):
        scenario = simple_scenario()
        assert scenario.output_aliases == ("demand", "overload")
        assert scenario.axis == "current"

    def test_axis_must_be_declared(self):
        with pytest.raises(ScenarioError, match="axis"):
            simple_scenario(axis="week")

    def test_duplicate_alias_rejected(self):
        outputs = [
            VGOutput("x", "DemandModel", parse_expression("@current"),
                     (parse_expression("@feature"),)),
            DerivedOutput("x", parse_expression("1")),
        ]
        with pytest.raises(ScenarioError, match="duplicate"):
            simple_scenario(outputs=outputs)

    def test_needs_vg_output(self):
        with pytest.raises(ScenarioError, match="VG-model output"):
            simple_scenario(outputs=[DerivedOutput("d", parse_expression("1"))])

    def test_index_expr_must_use_axis(self):
        outputs = [
            VGOutput("d", "DemandModel", parse_expression("@feature"),
                     (parse_expression("@feature"),)),
        ]
        with pytest.raises(ScenarioError, match="axis"):
            simple_scenario(outputs=outputs)

    def test_model_args_may_not_use_axis(self):
        outputs = [
            VGOutput("d", "DemandModel", parse_expression("@current"),
                     (parse_expression("@current"),)),
        ]
        with pytest.raises(ScenarioError, match="may not use"):
            simple_scenario(outputs=outputs)

    def test_model_args_must_be_declared(self):
        outputs = [
            VGOutput("d", "DemandModel", parse_expression("@current"),
                     (parse_expression("@bogus"),)),
        ]
        with pytest.raises(ScenarioError, match="undeclared"):
            simple_scenario(outputs=outputs)

    def test_derived_params_must_be_declared(self):
        outputs = [
            VGOutput("d", "DemandModel", parse_expression("@current"),
                     (parse_expression("@feature"),)),
            DerivedOutput("x", parse_expression("d + @bogus")),
        ]
        with pytest.raises(ScenarioError, match="undeclared"):
            simple_scenario(outputs=outputs)

    def test_graph_axis_must_match(self):
        graph = GraphSpec(axis="feature", series=(GraphSeries("EXPECT", "demand"),))
        with pytest.raises(ScenarioError, match="disagrees"):
            simple_scenario(graph=graph)

    def test_graph_series_alias_must_exist(self):
        graph = GraphSpec(axis="current", series=(GraphSeries("EXPECT", "nope"),))
        with pytest.raises(ScenarioError, match="unknown alias"):
            simple_scenario(graph=graph)

    def test_sweep_space_excludes_axis(self):
        scenario = simple_scenario()
        assert "current" not in scenario.sweep_space
        assert "feature" in scenario.sweep_space


class TestLibraryCheck:
    def test_matching_library_passes(self):
        scenario = simple_scenario()
        scenario.check_against_library(build_demo_library())

    def test_unknown_vg_rejected(self):
        outputs = [
            VGOutput("d", "NoSuchModel", parse_expression("@current"), ()),
        ]
        scenario = simple_scenario(outputs=outputs)
        with pytest.raises(ScenarioError, match="unknown VG-Function"):
            scenario.check_against_library(build_demo_library())

    def test_arity_mismatch_rejected(self):
        outputs = [
            VGOutput("d", "DemandModel", parse_expression("@current"), ()),
        ]
        scenario = simple_scenario(outputs=outputs)
        with pytest.raises(ScenarioError, match="model args"):
            scenario.check_against_library(build_demo_library())

    def test_axis_exceeding_components_rejected(self):
        space = ParameterSpace(
            [
                Parameter.from_range("current", 0, 99, 1),  # 100 weeks > 53
                Parameter.from_set("feature", (12,)),
            ]
        )
        scenario = Scenario(
            name="s",
            space=space,
            axis="current",
            outputs=[
                VGOutput("d", "DemandModel", parse_expression("@current"),
                         (parse_expression("@feature"),)),
            ],
        )
        with pytest.raises(ScenarioError, match="component range"):
            scenario.check_against_library(build_demo_library())
