"""Aggregate functions for GROUP BY evaluation.

Each aggregate is a small accumulator class with ``add`` / ``result``.
SQL semantics: NULL inputs are skipped; aggregates over zero non-NULL
inputs return NULL (except COUNT, which returns 0).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping

import numpy as np

from repro.errors import ExecutionError, TypeMismatchError
from repro.sqldb.ast_nodes import (
    Between,
    BinaryOp,
    CaseWhen,
    Cast,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    UnaryOp,
)
from repro.sqldb.types import is_numeric

#: Fuzzy Prophet aggregate spellings mapped onto engine aggregates.
#: EXPECT is the Monte Carlo expectation (mean over worlds); EXPECT_STDDEV
#: the standard deviation over worlds.
AGGREGATE_ALIASES = {"expect": "avg", "expect_stddev": "stdev"}


class Aggregate:
    """Accumulator protocol for one aggregate over one group."""

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def result(self) -> Any:
        raise NotImplementedError


class CountAggregate(Aggregate):
    """``COUNT(expr)`` / ``COUNT(*)`` / ``COUNT(DISTINCT expr)``."""

    def __init__(self, star: bool = False, distinct: bool = False) -> None:
        self._star = star
        self._distinct = distinct
        self._count = 0
        self._seen: set[Any] = set()

    def add(self, value: Any) -> None:
        if self._star:
            self._count += 1
            return
        if value is None:
            return
        if self._distinct:
            if value in self._seen:
                return
            self._seen.add(value)
        self._count += 1

    def result(self) -> Any:
        return self._count


class SumAggregate(Aggregate):
    def __init__(self) -> None:
        self._total: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if not is_numeric(value):
            raise TypeMismatchError(f"SUM requires numbers, got {value!r}")
        self._total = value if self._total is None else self._total + value

    def result(self) -> Any:
        return self._total


class AvgAggregate(Aggregate):
    def __init__(self) -> None:
        self._total = 0.0
        self._count = 0

    def add(self, value: Any) -> None:
        if value is None:
            return
        if not is_numeric(value):
            raise TypeMismatchError(f"AVG requires numbers, got {value!r}")
        self._total += float(value)
        self._count += 1

    def result(self) -> Any:
        if self._count == 0:
            return None
        return self._total / self._count


class MinAggregate(Aggregate):
    def __init__(self) -> None:
        self._best: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self._best is None or value < self._best:
            self._best = value

    def result(self) -> Any:
        return self._best


class MaxAggregate(Aggregate):
    def __init__(self) -> None:
        self._best: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self._best is None or value > self._best:
            self._best = value

    def result(self) -> Any:
        return self._best


def ordered_sums(steps: np.ndarray) -> np.ndarray:
    """Each lane of a C-order step-major ``(rows, lanes)`` block summed row
    by row from ``-0.0``, like ``total += x``: NumPy sums pairwise only along
    the fast axis, which axis 0 is for one lane (so one lane is padded to
    two), and starts a reduce from ``+0.0``, which loses an all-``-0.0``
    sum's sign."""
    lanes = steps.shape[1]
    steps = np.ascontiguousarray(steps) if lanes > 1 else np.hstack((steps, steps))
    return np.add.reduce(steps, axis=0, initial=-0.0)[:lanes]


def ordered_moments(steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each lane's ``total`` and sum of squared deviations ``m2`` over a
    C-order step-major ``(rows, lanes)`` float64 block, in two ordered
    passes over its rows: ``total`` is :func:`ordered_sums` (SUM's and AVG's
    bits), ``mean = total / rows``, and ``m2`` the ordered sum of ``(x -
    mean) ** 2``. Both tiers' variance family is this function: the row
    tier passes one group as one lane, the vectorized tier every group of a
    column at once.

    ``m2`` is never negative. A lane of finite values whose ``total`` or
    ``m2`` leaves the float range raises :class:`ExecutionError`; a lane
    holding NaN or an infinity gives NaN or inf, as IEEE arithmetic does.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = ordered_sums(steps)
        deviations = steps - total / len(steps)
        np.multiply(deviations, deviations, out=deviations)
        m2 = ordered_sums(deviations)
        spilled = ~np.isfinite(m2)  # a non-finite total makes m2 non-finite too
        if spilled.any() and np.isfinite(steps[:, spilled]).all(axis=0).any():
            raise ExecutionError("variance overflowed: finite values left the float range")
    return total, m2


def moments_result(name: str, count: int, m2: float) -> Any:
    """The variance-family result (``var``, ``varp``, ``stdev``, ``stdevp``)
    of ``count`` values with sum of squared deviations ``m2``
    (:func:`ordered_moments`)."""
    if count < (2 if name in ("var", "stdev") else 1):
        return None
    variance = m2 / (count - 1) if name in ("var", "stdev") else m2 / count
    return math.sqrt(variance) if name in ("stdev", "stdevp") else variance


class _MomentsAggregate(Aggregate):
    """Shared accumulator for variance/stddev aggregates: it keeps the
    group's values as floats and answers through :func:`ordered_moments`;
    ``name`` picks the result (:func:`moments_result`)."""

    name = ""

    def __init__(self) -> None:
        self._values: list[float] = []

    def add(self, value: Any) -> None:
        if value is None:
            return
        if not is_numeric(value):
            raise TypeMismatchError(f"{type(self).__name__} requires numbers, got {value!r}")
        self._values.append(float(value))

    def result(self) -> Any:
        _, m2 = ordered_moments(np.array(self._values)[:, None])
        return moments_result(self.name, len(self._values), m2.item())


class VarAggregate(_MomentsAggregate):
    """Sample variance (TSQL ``VAR``)."""

    name = "var"


class VarpAggregate(_MomentsAggregate):
    """Population variance (TSQL ``VARP``)."""

    name = "varp"


class StdevAggregate(_MomentsAggregate):
    """Sample standard deviation (TSQL ``STDEV``)."""

    name = "stdev"


class StdevpAggregate(_MomentsAggregate):
    """Population standard deviation (TSQL ``STDEVP``)."""

    name = "stdevp"


#: Factory registry: lowercase name -> zero-arg constructor.
AGGREGATE_FACTORIES: dict[str, Callable[[], Aggregate]] = {
    "sum": SumAggregate,
    "avg": AvgAggregate,
    "min": MinAggregate,
    "max": MaxAggregate,
    "var": VarAggregate,
    "varp": VarpAggregate,
    "stdev": StdevAggregate,
    "stdevp": StdevpAggregate,
}


def is_aggregate_name(name: str) -> bool:
    """True when ``name`` denotes an aggregate function (COUNT included)."""
    lowered = name.lower()
    return lowered == "count" or lowered in AGGREGATE_FACTORIES


def make_aggregate(name: str, star: bool = False, distinct: bool = False) -> Aggregate:
    """Instantiate an aggregate accumulator by SQL name."""
    lowered = name.lower()
    if lowered == "count":
        return CountAggregate(star=star, distinct=distinct)
    if star:
        raise ExecutionError(f"{name}(*) is only valid for COUNT")
    factory = AGGREGATE_FACTORIES.get(lowered)
    if factory is None:
        raise ExecutionError(f"unknown aggregate function: {name!r}")
    if distinct:
        raise ExecutionError(f"DISTINCT is only supported for COUNT, not {name}")
    return factory()


# -- aggregate call discovery & rewriting -----------------------------------
#
# Both the row interpreter and the vectorized grouped path need to (a) find
# every distinct aggregate call in SELECT/HAVING/ORDER BY and (b) replace
# those calls with their per-group results for finalization. Keyed by the
# rendered SQL text of the call so ``AVG(v)`` in the projection and in
# HAVING share one accumulator.


def has_aggregate(expression: Expression) -> bool:
    found: dict[str, FunctionCall] = {}
    collect_aggregates(expression, found)
    return bool(found)


def collect_aggregates(expression: Expression, found: dict[str, FunctionCall]) -> None:
    if isinstance(expression, FunctionCall):
        name = AGGREGATE_ALIASES.get(expression.name.lower(), expression.name)
        if is_aggregate_name(name):
            found[expression.render()] = expression
            return  # nested aggregates are not supported
        for arg in expression.args:
            collect_aggregates(arg, found)
    elif isinstance(expression, UnaryOp):
        collect_aggregates(expression.operand, found)
    elif isinstance(expression, BinaryOp):
        collect_aggregates(expression.left, found)
        collect_aggregates(expression.right, found)
    elif isinstance(expression, CaseWhen):
        for condition, value in expression.branches:
            collect_aggregates(condition, found)
            collect_aggregates(value, found)
        if expression.otherwise is not None:
            collect_aggregates(expression.otherwise, found)
    elif isinstance(expression, Cast):
        collect_aggregates(expression.operand, found)
    elif isinstance(expression, InList):
        collect_aggregates(expression.operand, found)
        for item in expression.items:
            collect_aggregates(item, found)
    elif isinstance(expression, Between):
        collect_aggregates(expression.operand, found)
        collect_aggregates(expression.low, found)
        collect_aggregates(expression.high, found)
    elif isinstance(expression, (IsNull, Like)):
        collect_aggregates(expression.operand, found)
        if isinstance(expression, Like):
            collect_aggregates(expression.pattern, found)


def rewrite_aggregates(expression: Expression, results: Mapping[str, Expression]) -> Expression:
    """Replace aggregate calls (keyed by rendered text) with ``results`` nodes."""
    rendered = expression.render() if isinstance(expression, FunctionCall) else None
    if rendered is not None and rendered in results:
        return results[rendered]
    if isinstance(expression, FunctionCall):
        return FunctionCall(
            name=expression.name,
            args=tuple(rewrite_aggregates(arg, results) for arg in expression.args),
            star=expression.star,
            distinct=expression.distinct,
        )
    if isinstance(expression, UnaryOp):
        return UnaryOp(expression.operator, rewrite_aggregates(expression.operand, results))
    if isinstance(expression, BinaryOp):
        return BinaryOp(
            expression.operator,
            rewrite_aggregates(expression.left, results),
            rewrite_aggregates(expression.right, results),
        )
    if isinstance(expression, CaseWhen):
        return CaseWhen(
            branches=tuple(
                (rewrite_aggregates(c, results), rewrite_aggregates(v, results))
                for c, v in expression.branches
            ),
            otherwise=(
                None
                if expression.otherwise is None
                else rewrite_aggregates(expression.otherwise, results)
            ),
        )
    if isinstance(expression, Cast):
        return Cast(rewrite_aggregates(expression.operand, results), expression.type_name)
    if isinstance(expression, InList):
        return InList(
            operand=rewrite_aggregates(expression.operand, results),
            items=tuple(rewrite_aggregates(i, results) for i in expression.items),
            negated=expression.negated,
        )
    if isinstance(expression, Between):
        return Between(
            operand=rewrite_aggregates(expression.operand, results),
            low=rewrite_aggregates(expression.low, results),
            high=rewrite_aggregates(expression.high, results),
            negated=expression.negated,
        )
    if isinstance(expression, IsNull):
        return IsNull(rewrite_aggregates(expression.operand, results), expression.negated)
    if isinstance(expression, Like):
        return Like(
            operand=rewrite_aggregates(expression.operand, results),
            pattern=rewrite_aggregates(expression.pattern, results),
            negated=expression.negated,
        )
    return expression
