"""Unit tests for the Guide and the Query Generator."""

import re

import pytest

from repro.errors import ScenarioError
from repro.core.guide import GridGuide, PriorityGuide
from repro.core.rounds import RoundPlan
from repro.core.querygen import QueryGenerator, substitute
from repro.models import build_risk_vs_cost
from repro.sqldb.ast_nodes import ColumnRef, Literal
from repro.sqldb.parser import parse_expression, parse_statement


@pytest.fixture(scope="module")
def scenario():
    return build_risk_vs_cost(purchase_step=16)[0]


class TestRoundPlan:
    def test_passes_cover_all_worlds_disjointly(self):
        plan = RoundPlan(n_worlds=100, first=10, growth=2.0)
        passes = plan.passes()
        seen = [w for r in passes for w in r]
        assert seen == list(range(100))

    def test_growth_doubles(self):
        plan = RoundPlan(n_worlds=100, first=10, growth=2.0)
        sizes = [len(r) for r in plan.passes()]
        assert sizes[0] == 10 and sizes[1] == 20 and sizes[2] == 40

    def test_validation(self):
        with pytest.raises(ScenarioError):
            RoundPlan(n_worlds=0)
        with pytest.raises(ScenarioError):
            RoundPlan(n_worlds=10, first=20)
        with pytest.raises(ScenarioError):
            RoundPlan(n_worlds=10, first=5, growth=1.0)


class TestGridGuide:
    def test_covers_full_grid(self, scenario):
        plan = RoundPlan(n_worlds=3, first=3)
        guide = GridGuide(scenario.space, scenario.axis, plan, base_seed=1)
        batches = list(guide.batches())
        grid_size = scenario.space.grid_size(exclude=[scenario.axis])
        assert len(batches) == grid_size == 4 * 4 * 3
        assert all(len(batch) == 3 for batch in batches)
        points = {tuple(sorted(b.point_dict.items())) for b in batches}
        assert len(points) == len(batches)  # all distinct

    def test_axis_excluded_from_points(self, scenario):
        plan = RoundPlan(n_worlds=2, first=2)
        guide = GridGuide(scenario.space, scenario.axis, plan, base_seed=1)
        batch = next(guide.batches())
        assert "current" not in batch.point_dict


class TestPriorityGuide:
    def make(self, scenario, depth=1):
        plan = RoundPlan(n_worlds=4, first=2)
        return PriorityGuide(scenario.space, scenario.axis, plan, 1, neighbor_depth=depth)

    def test_proactive_batches_cover_the_first_round(self, scenario):
        guide = self.make(scenario)
        center = {"purchase1": 16, "purchase2": 32, "feature": 12}
        batches = list(guide.proactive_batches(center))
        assert [b.point_dict for b in batches] == guide.proactive_points(center)
        assert all(len(batch) == 2 for batch in batches)  # plan.first worlds

    def test_proactive_points_are_neighbors(self, scenario):
        guide = self.make(scenario)
        center = {"purchase1": 16, "purchase2": 32, "feature": 36}
        points = guide.proactive_points(center)
        # One-step perturbations of each of three parameters: 2+2+2.
        assert len(points) == 6
        for point in points:
            differences = sum(
                1 for key in center if point[key] != center[key]
            )
            assert differences == 1

    def test_proactive_depth_two_extends_ring(self, scenario):
        shallow = len(self.make(scenario, depth=1).proactive_points(
            {"purchase1": 16, "purchase2": 32, "feature": 36}
        ))
        deep = len(self.make(scenario, depth=2).proactive_points(
            {"purchase1": 16, "purchase2": 32, "feature": 36}
        ))
        assert deep > shallow

    def test_proactive_excludes_center(self, scenario):
        guide = self.make(scenario)
        center = {"purchase1": 0, "purchase2": 0, "feature": 12}
        for point in guide.proactive_points(center):
            assert point != center

    def test_edge_point_has_fewer_neighbors(self, scenario):
        guide = self.make(scenario)
        corner = {"purchase1": 0, "purchase2": 0, "feature": 12}
        middle = {"purchase1": 16, "purchase2": 16, "feature": 36}
        assert len(guide.proactive_points(corner)) < len(guide.proactive_points(middle))

    def test_negative_depth_rejected(self, scenario):
        with pytest.raises(ScenarioError):
            self.make(scenario, depth=-1)


class TestSubstitute:
    def test_replaces_variables(self):
        expression = parse_expression("@a + @b * 2")
        result = substitute(expression, {"a": Literal(1), "b": Literal(3)})
        assert result.render() == "(1 + (3 * 2))"

    def test_partial_binding_keeps_unbound(self):
        expression = parse_expression("@a + @b")
        result = substitute(expression, {"a": Literal(1)})
        assert "@b" in result.render()

    def test_axis_becomes_column(self):
        expression = parse_expression("CASE WHEN @current > 5 THEN 1 ELSE 0 END")
        result = substitute(expression, {"current": ColumnRef("t")})
        assert "@current" not in result.render()
        assert "t" in result.render()

    def test_substitution_inside_all_constructs(self):
        text = (
            "CASE WHEN @x IN (1, @y) AND @x BETWEEN @lo AND @hi "
            "THEN CAST(@x AS FLOAT) ELSE COALESCE(@z, 0) END"
        )
        bindings = {name: Literal(1) for name in ("x", "y", "lo", "hi", "z")}
        rendered = substitute(parse_expression(text), bindings).render()
        assert "@" not in rendered


class TestQueryGenerator:
    def test_sampling_program_is_parseable_sql(self, scenario):
        generator = QueryGenerator(scenario)
        output = scenario.vg_outputs[0]
        for statement in (
            generator.drop_samples_table_sql(output.alias),
            generator.create_samples_table_sql(output.alias),
            generator.insert_world_template(output),
            generator.insert_batch_template(output),
        ):
            parse_statement(statement)  # must be pure, valid SQL

    def test_insert_world_template_binds_world_seed_and_point(self, scenario):
        generator = QueryGenerator(scenario)
        sql = generator.insert_world_template(scenario.vg_outputs[1])
        assert "CapacityModelT" in sql
        point = {"purchase1": 16, "purchase2": 32, "feature": 12}
        variables = generator.world_variables(5, 777, point)
        assert variables == {**point, "_world": 5, "_seed": 777}
        # Every variable the statement reads is bound by world_variables.
        used = {name.lower() for name in re.findall(r"@(\w+)", sql)}
        assert "_world" in used and "_seed" in used and used <= set(variables)

    def test_combine_sql_joins_on_world_and_t(self, scenario):
        generator = QueryGenerator(scenario)
        sql = generator.combine_sql({"purchase1": 16, "purchase2": 32, "feature": 12})
        parse_statement(sql)
        assert "INTO results" in sql
        assert "s0.world = s1.world" in sql
        assert "s0.t = s1.t" in sql
        assert "CASE WHEN" in sql  # the derived overload column
        assert "@" not in sql

    def test_aggregate_sql_covers_all_outputs(self, scenario):
        generator = QueryGenerator(scenario)
        sql = generator.aggregate_sql()
        parse_statement(sql)
        for alias in scenario.output_aliases:
            assert f"e_{alias}" in sql and f"sd_{alias}" in sql
        assert "GROUP BY t" in sql and "ORDER BY t" in sql

    def test_samples_table_names(self, scenario):
        generator = QueryGenerator(scenario)
        assert generator.samples_table("Demand") == "fp_samples_demand"
