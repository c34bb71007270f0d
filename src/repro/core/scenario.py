"""Scenario representation.

A *scenario* is the declarative business model of paper Figure 2: a
parameter space, a list of outputs (VG-model outputs and derived columns),
plus metadata for the online graph and the offline optimizer.

Output kinds
------------

* :class:`VGOutput` — ``DemandModel(@current, @feature) AS demand``.
  The **first** argument of a VG call in scenario SQL is the component
  index expression (the week being simulated, i.e. the graph axis); the
  remaining arguments are model arguments, evaluated from the parameter
  point. The Query Generator additionally injects the world seed.
* :class:`DerivedOutput` — any SQL expression over previously defined
  aliases, e.g. ``CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload``.

The axis parameter (``@current``) is special: rather than sweeping it as a
grid dimension, the engine evaluates *all* components of each VG world at
once and exposes the axis as the ``t`` column of the results table. This is
semantically identical to sweeping ``@current`` (the VG output at week w is
what ``@current = w`` would observe) but lets one world feed every week.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Mapping, Optional, Sequence

from repro.errors import ScenarioError
from repro.core.parameters import ParameterSpace
from repro.sqldb.ast_nodes import Expression
from repro.sqldb.expressions import (
    CompiledExpression,
    EvalContext,
    collect_variables,
    compile_expression,
)
from repro.vg.library import VGLibrary


@dataclass(frozen=True)
class VGOutput:
    """One VG-model output column of the scenario."""

    alias: str
    vg_name: str
    index_expr: Expression  # component index (normally Variable(axis))
    model_args: tuple[Expression, ...] = ()

    @cached_property
    def _model_arg_fns(self) -> tuple[CompiledExpression, ...]:
        return tuple(compile_expression(arg) for arg in self.model_args)

    def model_arg_values(self, point: Mapping[str, Any]) -> tuple[Any, ...]:
        """Evaluate the model arguments at a parameter point."""
        context = EvalContext(variables=point)
        return tuple(fn(context) for fn in self._model_arg_fns)


@dataclass(frozen=True)
class DerivedOutput:
    """One derived output column (SQL expression over earlier aliases)."""

    alias: str
    expression: Expression


@dataclass(frozen=True)
class GraphSeries:
    """One series of the online graph directive.

    ``kind`` is ``"EXPECT"`` or ``"EXPECT_STDDEV"``; ``style`` the rendering
    hints (``bold red`` etc.) carried through to the viz layer.
    """

    kind: str
    alias: str
    style: tuple[str, ...] = ()


@dataclass(frozen=True)
class GraphSpec:
    """``GRAPH OVER @axis EXPECT ... WITH ...`` metadata."""

    axis: str
    series: tuple[GraphSeries, ...]


@dataclass(frozen=True)
class OptimizeObjective:
    """One ``FOR MAX @p`` / ``FOR MIN @p`` objective term, in priority order."""

    direction: str  # "MAX" | "MIN"
    parameter: str


@dataclass(frozen=True)
class OptimizeSpec:
    """``OPTIMIZE SELECT ... WHERE <constraint> FOR ...`` metadata.

    ``constraint`` is an expression over axis-aggregated statistics, e.g.
    ``MAX(EXPECT overload) < 0.01`` — the outer MAX ranges over the axis
    (weeks), the inner EXPECT over Monte Carlo worlds.
    """

    select_parameters: tuple[str, ...]
    constraint: Optional[Expression]
    objectives: tuple[OptimizeObjective, ...]
    group_by: tuple[str, ...] = ()


class Scenario:
    """A fully specified business scenario."""

    def __init__(
        self,
        name: str,
        space: ParameterSpace,
        axis: str,
        outputs: Sequence[VGOutput | DerivedOutput],
        graph: Optional[GraphSpec] = None,
        optimize: Optional[OptimizeSpec] = None,
        source_sql: str = "",
        results_table: str = "results",
    ) -> None:
        self.name = name
        self.space = space
        self.axis = axis.lstrip("@").lower()
        self.outputs = tuple(outputs)
        self.graph = graph
        self.optimize = optimize
        self.source_sql = source_sql
        self.results_table = results_table
        self._validate()

    # -- validation --------------------------------------------------------

    def _validate(self) -> None:
        if self.axis not in self.space:
            raise ScenarioError(f"axis parameter @{self.axis} is not declared")
        if not self.outputs:
            raise ScenarioError("scenario has no outputs")
        aliases: set[str] = set()
        saw_vg = False
        for output in self.outputs:
            alias = output.alias.lower()
            if alias in aliases:
                raise ScenarioError(f"duplicate output alias {output.alias!r}")
            if isinstance(output, VGOutput):
                saw_vg = True
                self._validate_vg_output(output)
            else:
                self._validate_derived_output(output, aliases)
            aliases.add(alias)
        if not saw_vg:
            raise ScenarioError("scenario needs at least one VG-model output")
        if self.graph is not None:
            if self.graph.axis.lstrip("@").lower() != self.axis:
                raise ScenarioError(
                    f"GRAPH OVER @{self.graph.axis} disagrees with axis @{self.axis}"
                )
            for series in self.graph.series:
                if series.alias.lower() not in aliases:
                    raise ScenarioError(f"graph series over unknown alias {series.alias!r}")
        if self.optimize is not None:
            for objective in self.optimize.objectives:
                if objective.parameter.lstrip("@").lower() not in self.space:
                    raise ScenarioError(
                        f"objective over undeclared parameter @{objective.parameter}"
                    )

    def _validate_vg_output(self, output: VGOutput) -> None:
        index_vars = collect_variables(output.index_expr)
        if index_vars != {self.axis}:
            raise ScenarioError(
                f"output {output.alias!r}: the first VG argument must reference "
                f"exactly the axis parameter @{self.axis}, found {sorted(index_vars)}"
            )
        for arg in output.model_args:
            for var in collect_variables(arg):
                if var == self.axis:
                    raise ScenarioError(
                        f"output {output.alias!r}: model arguments may not use the "
                        f"axis parameter @{self.axis}"
                    )
                if var not in self.space:
                    raise ScenarioError(
                        f"output {output.alias!r}: undeclared parameter @{var}"
                    )

    def _validate_derived_output(self, output: DerivedOutput, known: set[str]) -> None:
        for var in collect_variables(output.expression):
            if var != self.axis and var not in self.space:
                raise ScenarioError(
                    f"derived output {output.alias!r}: undeclared parameter @{var}"
                )

    # -- views ---------------------------------------------------------------

    @property
    def vg_outputs(self) -> tuple[VGOutput, ...]:
        return tuple(o for o in self.outputs if isinstance(o, VGOutput))

    @property
    def derived_outputs(self) -> tuple[DerivedOutput, ...]:
        return tuple(o for o in self.outputs if isinstance(o, DerivedOutput))

    @property
    def output_aliases(self) -> tuple[str, ...]:
        return tuple(o.alias for o in self.outputs)

    @property
    def sweep_space(self) -> ParameterSpace:
        """The parameter space excluding the graph axis."""
        return self.space.without(self.axis)

    def vg_output(self, alias: str) -> VGOutput:
        """The VG output named ``alias`` (case-insensitive)."""
        target = alias.lower()
        for output in self.vg_outputs:
            if output.alias.lower() == target:
                return output
        raise ScenarioError(f"no VG output named {alias!r}")

    def validate_sweep_point(self, point: Mapping[str, Any]) -> dict[str, Any]:
        """Canonicalize a sweep point: strip the axis, validate the rest.

        The single definition of point normalization — every entry point
        (engine evaluation, shard workers, the serve layer) must agree on
        it or reuse keys silently diverge.
        """
        return self.sweep_space.validate_point(
            {
                k: v
                for k, v in point.items()
                if str(k).lstrip("@").lower() != self.axis
            }
        )

    def axis_values(self) -> tuple[Any, ...]:
        return self.space.parameter(self.axis).values

    def check_against_library(self, library: VGLibrary) -> None:
        """Verify every referenced VG-Function exists with matching arity
        and that the axis domain fits inside each model's component range."""
        axis_values = self.axis_values()
        for output in self.vg_outputs:
            if output.vg_name not in library:
                raise ScenarioError(
                    f"output {output.alias!r} references unknown VG-Function "
                    f"{output.vg_name!r}"
                )
            function = library.get(output.vg_name)
            if len(output.model_args) != len(function.arg_names):
                raise ScenarioError(
                    f"output {output.alias!r}: {output.vg_name} expects "
                    f"{len(function.arg_names)} model args "
                    f"({', '.join(function.arg_names)}), scenario passes "
                    f"{len(output.model_args)}"
                )
            bad = [v for v in axis_values if not (0 <= int(v) < function.n_components)]
            if bad:
                raise ScenarioError(
                    f"axis values {bad} outside component range "
                    f"[0, {function.n_components}) of {output.vg_name}"
                )

    def __repr__(self) -> str:
        return (
            f"Scenario({self.name!r}, axis=@{self.axis}, "
            f"outputs={list(self.output_aliases)}, "
            f"parameters={list(self.space.names)})"
        )
