"""The Query Generator (paper Figure 1, stage 2).

Consumes instance batches and produces **pure SQL text** — no Python objects
cross this boundary; the SQL engine parses and executes exactly what a
standard relational server would. Three query families:

* *sampling* — land each Monte Carlo world of each VG model into a samples
  table ``(world, t, value)`` via the table form of the VG-Function;
* *combine* — join the per-model samples tables on ``(world, t)`` and
  evaluate the scenario's derived expressions, materializing the results
  table (``SELECT ... INTO results`` in Figure 2);
* *aggregate* — per-axis-value expectations and standard deviations over
  worlds (what the Result Aggregator and the online graph read).
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Mapping

import numpy as np

from repro.errors import ScenarioError
from repro.core.scenario import Scenario, VGOutput
from repro.sqldb.ast_nodes import (
    Between,
    BinaryOp,
    CaseWhen,
    Cast,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    UnaryOp,
    Variable,
)
from repro.sqldb.pdbext import BATCH_FORM_SUFFIX, TABLE_FORM_SUFFIX


def substitute(expression: Expression, bindings: Mapping[str, Expression]) -> Expression:
    """Replace ``@variables`` by expressions (usually literals or columns)."""
    if isinstance(expression, Variable):
        replacement = bindings.get(expression.name.lower())
        return replacement if replacement is not None else expression
    if isinstance(expression, UnaryOp):
        return UnaryOp(expression.operator, substitute(expression.operand, bindings))
    if isinstance(expression, BinaryOp):
        return BinaryOp(
            expression.operator,
            substitute(expression.left, bindings),
            substitute(expression.right, bindings),
        )
    if isinstance(expression, FunctionCall):
        return FunctionCall(
            name=expression.name,
            args=tuple(substitute(arg, bindings) for arg in expression.args),
            star=expression.star,
            distinct=expression.distinct,
        )
    if isinstance(expression, CaseWhen):
        return CaseWhen(
            branches=tuple(
                (substitute(c, bindings), substitute(v, bindings))
                for c, v in expression.branches
            ),
            otherwise=(
                None
                if expression.otherwise is None
                else substitute(expression.otherwise, bindings)
            ),
        )
    if isinstance(expression, Cast):
        return Cast(substitute(expression.operand, bindings), expression.type_name)
    if isinstance(expression, InList):
        return InList(
            operand=substitute(expression.operand, bindings),
            items=tuple(substitute(i, bindings) for i in expression.items),
            negated=expression.negated,
        )
    if isinstance(expression, Between):
        return Between(
            operand=substitute(expression.operand, bindings),
            low=substitute(expression.low, bindings),
            high=substitute(expression.high, bindings),
            negated=expression.negated,
        )
    if isinstance(expression, IsNull):
        return IsNull(substitute(expression.operand, bindings), expression.negated)
    if isinstance(expression, Like):
        return Like(
            operand=substitute(expression.operand, bindings),
            pattern=substitute(expression.pattern, bindings),
            negated=expression.negated,
        )
    return expression


class QueryGenerator:
    """Generates the pure-SQL programs for one scenario."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario

    # -- table naming -----------------------------------------------------------

    def samples_table(self, alias: str) -> str:
        return f"fp_samples_{alias.lower()}"

    # -- sampling queries -----------------------------------------------------------

    def create_samples_table_sql(self, alias: str) -> str:
        return (
            f"CREATE TABLE {self.samples_table(alias)} "
            f"(world INTEGER NOT NULL, t INTEGER NOT NULL, value FLOAT NOT NULL)"
        )

    def drop_samples_table_sql(self, alias: str) -> str:
        return f"DROP TABLE IF EXISTS {self.samples_table(alias)}"

    def insert_world_template(self, output: VGOutput) -> str:
        """One world of one VG model: INSERT ... SELECT FROM the table form.

        World identity arrives through the reserved ``@_world``/``@_seed``
        variables and model arguments stay as their ``@parameter``
        expressions, all bound at execute time — so the statement text is
        constant per scenario and the executor's plan cache parses it once
        for the entire sweep instead of once per world.
        """
        rendered_args = ", ".join(
            ["@_seed"] + [arg.render() for arg in output.model_args]
        )
        return (
            f"INSERT INTO {self.samples_table(output.alias)} (world, t, value) "
            f"SELECT @_world, t, value "
            f"FROM {output.vg_name}{TABLE_FORM_SUFFIX}({rendered_args})"
        )

    def world_variables(
        self, world: int, seed: int, point: Mapping[str, Any]
    ) -> dict[str, Any]:
        """Variable bindings for one execution of the insert template."""
        variables = {str(name).lower(): value for name, value in point.items()}
        variables["_world"] = world
        variables["_seed"] = seed
        return variables

    def insert_batch_template(self, output: VGOutput) -> str:
        """One statement that lands an entire world slice of one VG model.

        The batch table form receives the whole slice through the reserved
        ``@_worlds``/``@_seeds`` sequence variables (model arguments stay as
        their ``@parameter`` expressions), so the statement text is constant
        per scenario — one plan-cache entry serves every slice size — and
        one execution replaces the per-world loop over
        :meth:`insert_world_template`.
        """
        rendered_args = ", ".join(
            ["@_worlds", "@_seeds"] + [arg.render() for arg in output.model_args]
        )
        return (
            f"INSERT INTO {self.samples_table(output.alias)} (world, t, value) "
            f"SELECT world, t, value "
            f"FROM {output.vg_name}{BATCH_FORM_SUFFIX}({rendered_args})"
        )

    def batch_variables(
        self,
        worlds: np.ndarray,
        seeds: np.ndarray,
        point: Mapping[str, Any],
    ) -> dict[str, Any]:
        """Bindings for one execution of the batch insert template; a
        batch's world-id and seed arrays are bound as they are."""
        variables = {str(name).lower(): value for name, value in point.items()}
        variables["_worlds"] = worlds
        variables["_seeds"] = seeds
        return variables

    # -- combine query -----------------------------------------------------------

    def combine_sql(self, point: Mapping[str, Any]) -> str:
        """Join model samples, compute derived outputs, land the results table.

        Parameter references inside derived expressions become literals of
        the current point; the axis parameter becomes the ``t`` column.
        """
        return self._combine_sql(self._point_bindings(point))

    def combine_sql_template(self) -> str:
        """Parameterized form of :meth:`combine_sql`.

        Only the axis parameter is substituted (it becomes the ``t``
        column); every other ``@parameter`` stays in the text and is bound
        from the point at execute time, keeping the statement text constant
        per scenario for the executor's plan cache. The scenario alone fixes
        the text, so it is built once.
        """
        return self._combine_template

    @cached_property
    def _combine_template(self) -> str:
        bindings: dict[str, Expression] = {self.scenario.axis: ColumnRef("t")}
        return self._combine_sql(bindings)

    def _combine_sql(self, bindings: Mapping[str, Expression]) -> str:
        scenario = self.scenario
        vg_outputs = scenario.vg_outputs
        if not vg_outputs:
            raise ScenarioError("scenario has no VG outputs to combine")

        first = vg_outputs[0]
        first_label = f"s0"
        select_items = [
            f"{first_label}.world AS world",
            f"{first_label}.t AS t",
            f"{first_label}.value AS {first.alias}",
        ]
        joins: list[str] = []
        for index, output in enumerate(vg_outputs[1:], start=1):
            label = f"s{index}"
            select_items.append(f"{label}.value AS {output.alias}")
            joins.append(
                f"JOIN {self.samples_table(output.alias)} {label} "
                f"ON {first_label}.world = {label}.world AND {first_label}.t = {label}.t"
            )

        for derived in scenario.derived_outputs:
            rewritten = substitute(derived.expression, bindings)
            select_items.append(f"{rewritten.render()} AS {derived.alias}")

        clauses = [
            f"SELECT {', '.join(select_items)}",
            f"INTO {scenario.results_table}",
            f"FROM {self.samples_table(first.alias)} {first_label}",
        ]
        clauses.extend(joins)
        return " ".join(clauses)

    # -- aggregate queries ------------------------------------------------------

    def aggregate_sql(self) -> str:
        """Per-axis-value statistics of every output over worlds (the text
        is the scenario's alone, built once)."""
        return self._aggregate_sql

    @cached_property
    def _aggregate_sql(self) -> str:
        pieces = ["SELECT t"]
        selects = []
        for alias in self.scenario.output_aliases:
            selects.append(f"AVG({alias}) AS e_{alias}")
            selects.append(f"STDEV({alias}) AS sd_{alias}")
        pieces.append(", " + ", ".join(selects))
        pieces.append(
            f" FROM {self.scenario.results_table} GROUP BY t ORDER BY t"
        )
        return "".join(pieces)

    def _point_bindings(self, point: Mapping[str, Any]) -> dict[str, Expression]:
        bindings: dict[str, Expression] = {
            str(name).lower(): Literal(value) for name, value in point.items()
        }
        bindings[self.scenario.axis] = ColumnRef("t")
        return bindings
