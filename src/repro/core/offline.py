"""Offline mode: automated constrained parameter optimization (paper §3.3).

The optimizer sweeps the full parameter grid (the Guide's ``GridGuide``
order), evaluates the scenario at every point — with fingerprint reuse
turned on, most points are *mapped* from earlier ones instead of freshly
simulated — checks the ``OPTIMIZE ... WHERE`` constraint on each point's
axis statistics, and returns the feasible point that lexicographically
maximizes/minimizes the ``FOR MAX/MIN @param`` objectives.

For Figure 2's scenario this answers: *the latest purchase dates that keep
the expected chance of overload below the threshold for the whole year.*

Like the online session, the optimizer drives one :class:`ProphetEngine`
through one ``evaluate`` callable (default: the engine's own
``evaluate_point``; a serve scheduler's ``evaluate`` fans every grid point
out across the worker pool and into the cross-run result cache).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.errors import OptimizationError
from repro.core.aggregator import AxisStatistics
from repro.core.engine import PointEvaluation, ProphetEngine
from repro.core.guide import GridGuide
from repro.core.scenario import OptimizeSpec
from repro.core.storage import ReuseReport
from repro.sqldb.ast_nodes import (
    BinaryOp,
    Expression,
    FunctionCall,
    Literal,
    UnaryOp,
)

#: Axis-level reducers allowed in OPTIMIZE constraints.
_AXIS_REDUCERS: dict[str, Callable[[np.ndarray], float]] = {
    "MAX": lambda v: float(np.nanmax(v)),
    "MIN": lambda v: float(np.nanmin(v)),
    "AVG": lambda v: float(np.nanmean(v)),
    "SUM": lambda v: float(np.nansum(v)),
}


@dataclass(frozen=True)
class PointRecord:
    """One explored grid point."""

    point: dict[str, Any]
    feasible: bool
    constraint_value: Optional[float]
    statistics: AxisStatistics
    reuse: tuple[ReuseReport, ...]  #: one report per VG model
    elapsed_seconds: float

    @property
    def dominant_source(self) -> str:
        """'fresh' if any model was fresh, else 'mapped'/'exact'."""
        sources = {report.source for report in self.reuse}
        if "fresh" in sources:
            return "fresh"
        if "mapped" in sources:
            return "mapped"
        return "exact"


@dataclass
class OptimizationResult:
    """Full sweep outcome."""

    scenario_name: str
    records: list[PointRecord] = field(default_factory=list)
    best: Optional[PointRecord] = None
    elapsed_seconds: float = 0.0
    vg_invocations: int = 0
    component_samples: int = 0
    reuse_enabled: bool = True

    @property
    def feasible_records(self) -> list[PointRecord]:
        return [record for record in self.records if record.feasible]

    @property
    def points_evaluated(self) -> int:
        return len(self.records)

    def source_counts(self) -> dict[str, int]:
        counts = {"fresh": 0, "mapped": 0, "exact": 0}
        for record in self.records:
            counts[record.dominant_source] += 1
        return counts

    def best_point(self) -> dict[str, Any]:
        if self.best is None:
            raise OptimizationError("no feasible point found")
        return dict(self.best.point)


class ConstraintEvaluator:
    """Evaluates OPTIMIZE constraints over one point's axis statistics.

    Grammar (Figure 2 style): comparisons and boolean/arithmetic operators
    over axis reducers (``MAX``/``MIN``/``AVG``/``SUM``) applied to the
    Monte Carlo statistics ``EXPECT alias`` / ``EXPECT_STDDEV alias``.
    """

    def __init__(self, statistics: AxisStatistics) -> None:
        self.statistics = statistics

    def evaluate(self, expression: Expression) -> Any:
        value = self._eval(expression)
        if isinstance(value, np.ndarray):
            raise OptimizationError(
                "constraint evaluates to a per-week series; wrap it in "
                "MAX()/MIN()/AVG() to reduce over the axis"
            )
        return value

    def _eval(self, expression: Expression) -> Any:
        if isinstance(expression, Literal):
            return expression.value
        if isinstance(expression, FunctionCall):
            return self._eval_call(expression)
        if isinstance(expression, BinaryOp):
            return self._eval_binary(expression)
        if isinstance(expression, UnaryOp):
            operand = self._eval(expression.operand)
            if expression.operator.upper() == "NOT":
                return not bool(operand)
            return -operand if expression.operator == "-" else +operand
        raise OptimizationError(
            f"unsupported constraint construct: {type(expression).__name__}"
        )

    def _eval_call(self, call: FunctionCall) -> Any:
        name = call.name.upper()
        if name in ("EXPECT", "EXPECT_STDDEV"):
            alias = self._alias_of(call)
            if name == "EXPECT":
                return self.statistics.expectation(alias)
            return self.statistics.stddev(alias)
        if name in _AXIS_REDUCERS:
            if len(call.args) != 1:
                raise OptimizationError(f"{name} takes exactly one argument")
            inner = self._eval(call.args[0])
            if not isinstance(inner, np.ndarray):
                raise OptimizationError(f"{name} expects a per-week series")
            return _AXIS_REDUCERS[name](inner)
        raise OptimizationError(f"unsupported function in constraint: {call.name}")

    def _alias_of(self, call: FunctionCall) -> str:
        from repro.sqldb.ast_nodes import ColumnRef

        if len(call.args) != 1 or not isinstance(call.args[0], ColumnRef):
            raise OptimizationError(
                f"{call.name} expects a single output alias argument"
            )
        return call.args[0].name

    def _eval_binary(self, node: BinaryOp) -> Any:
        operator = node.operator.upper()
        left = self._eval(node.left)
        right = self._eval(node.right)
        if operator == "AND":
            return bool(left) and bool(right)
        if operator == "OR":
            return bool(left) or bool(right)
        comparisons: dict[str, Callable[[Any, Any], bool]] = {
            "=": lambda a, b: a == b,
            "<>": lambda a, b: a != b,
            "<": lambda a, b: a < b,
            "<=": lambda a, b: a <= b,
            ">": lambda a, b: a > b,
            ">=": lambda a, b: a >= b,
        }
        if operator in comparisons:
            if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
                raise OptimizationError(
                    "cannot compare a per-week series; reduce with MAX()/MIN()/AVG()"
                )
            return comparisons[operator](left, right)
        arithmetic: dict[str, Callable[[Any, Any], Any]] = {
            "+": lambda a, b: a + b,
            "-": lambda a, b: a - b,
            "*": lambda a, b: a * b,
            "/": lambda a, b: a / b,
        }
        if operator in arithmetic:
            return arithmetic[operator](left, right)
        raise OptimizationError(f"unsupported operator in constraint: {node.operator}")


class OfflineOptimizer:
    """Grid sweep + constraint check + lexicographic objective."""

    def __init__(
        self,
        engine: ProphetEngine,
        *,
        evaluate: Optional[Callable[..., PointEvaluation]] = None,
    ) -> None:
        self.engine = engine
        self.scenario = engine.scenario
        if self.scenario.optimize is None:
            raise OptimizationError(
                f"scenario {self.scenario.name!r} has no OPTIMIZE specification"
            )
        self.spec: OptimizeSpec = self.scenario.optimize
        self._evaluate = evaluate if evaluate is not None else engine.evaluate_point

    def run(
        self,
        *,
        reuse: bool = True,
        progress: Optional[Callable[[PointRecord], None]] = None,
    ) -> OptimizationResult:
        """Sweep the grid; returns the full result with the best point.

        ``progress`` is invoked after each point — the hook behind the
        demo's live-updated view of the sweep (Figure 4).
        """
        guide = GridGuide(
            self.scenario.space,
            self.scenario.axis,
            self.engine.config.sampling.plan(),
            self.engine.config.sampling.base_seed,
        )
        result = OptimizationResult(
            scenario_name=self.scenario.name, reuse_enabled=reuse
        )
        invocations_before = self.engine.invocation_count()
        samples_before = self.engine.component_sample_count()
        # repro-lint: disable=DET001 -- feeds OptimizationResult timing, a
        # user-facing readout; point selection reads statistics only.
        sweep_started = time.perf_counter()
        for batch in guide.batches():
            # repro-lint: disable=DET001 -- observability only (see above).
            started = time.perf_counter()
            evaluation = self._evaluate(batch.point_dict, worlds=batch.worlds, reuse=reuse)
            # repro-lint: disable=DET001 -- observability only (see above).
            record = self._record_for(evaluation, time.perf_counter() - started)
            result.records.append(record)
            if progress is not None:
                progress(record)
        # repro-lint: disable=DET001 -- observability only (see above).
        result.elapsed_seconds = time.perf_counter() - sweep_started
        result.vg_invocations = self.engine.invocation_count() - invocations_before
        result.component_samples = self.engine.component_sample_count() - samples_before
        result.best = self._select_best(result.records)
        return result

    # -- internals ---------------------------------------------------------------

    def _record_for(self, evaluation, elapsed: float) -> PointRecord:
        feasible = True
        constraint_value: Optional[float] = None
        if self.spec.constraint is not None:
            evaluator = ConstraintEvaluator(evaluation.statistics)
            outcome = evaluator.evaluate(self.spec.constraint)
            if isinstance(outcome, bool):
                feasible = outcome
            else:
                raise OptimizationError(
                    f"constraint must evaluate to a boolean, got {outcome!r}"
                )
            constraint_value = self._constraint_scalar(evaluation.statistics)
        return PointRecord(
            point=evaluation.point,
            feasible=feasible,
            constraint_value=constraint_value,
            statistics=evaluation.statistics,
            reuse=evaluation.reuse_reports,
            elapsed_seconds=elapsed,
        )

    def _constraint_scalar(self, statistics: AxisStatistics) -> Optional[float]:
        """The left-hand scalar of a simple ``reducer(...) < bound`` constraint
        (for reporting); ``None`` when the constraint is more complex."""
        constraint = self.spec.constraint
        if isinstance(constraint, BinaryOp) and constraint.operator in ("<", "<=", ">", ">="):
            try:
                value = ConstraintEvaluator(statistics)._eval(constraint.left)
            except OptimizationError:
                return None
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return float(value)
        return None

    def _select_best(self, records: list[PointRecord]) -> Optional[PointRecord]:
        feasible = [record for record in records if record.feasible]
        if not feasible:
            return None

        def objective_key(record: PointRecord) -> tuple:
            key = []
            for objective in self.spec.objectives:
                value = record.point[objective.parameter.lstrip("@").lower()]
                key.append(value if objective.direction == "MAX" else _negate(value))
            return tuple(key)

        return max(feasible, key=objective_key)


def _negate(value: Any) -> Any:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return -value
    raise OptimizationError(
        f"FOR MIN objective requires a numeric parameter, got {value!r}"
    )
