"""Vectorized (columnar) compilation for the SQL executor's hot path.

``plan_select`` analyzes a parsed ``SELECT`` and — when its shape fits the
fast path — produces a :class:`VectorSelectPlan` whose expressions have been
lowered to closures over NumPy column arrays. The executor runs the plan
against the source tables' :class:`~repro.sqldb.table.ColumnarView`; any
shape or data the plan cannot reproduce **bit-identically** raises
:class:`VectorFallback` and the executor re-runs the statement through the
row-at-a-time interpreter. Supported shapes:

* filter / project / order / limit over a single table source;
* hash equi-joins (AND-chains of ``col = col``) over table sources;
* GROUP BY + aggregates (COUNT/SUM/AVG/MIN/MAX/VAR*/STDEV*), with HAVING
  and per-group projection delegated to the interpreter's finalization so
  group-level semantics cannot drift.

Identity discipline: the interpreter is the reference. Where NumPy's
defaults would diverge (pairwise float summation, NaN ordering, eager
evaluation of CASE branches, int64 wraparound on division) the plan either
reproduces the interpreter's exact operation order (``np.cumsum`` for
running float sums, the accumulator's Welford recurrence for variance —
per value, or per row position across all groups at once) or refuses and
falls back. Division and INTEGER casts are never compiled inside lazily
evaluated positions (CASE branches, AND/OR right operands, IN list items)
so error behavior matches row-at-a-time evaluation.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from repro.errors import ExecutionError
from repro.sqldb.aggregates import (
    AGGREGATE_ALIASES,
    collect_aggregates,
    has_aggregate,
    is_aggregate_name,
)
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
    Join,
    Literal,
    Select,
    TableSource,
    UnaryOp,
    Variable,
)
from repro.sqldb.table import ColumnarView, Table, tiling_of
from repro.sqldb.types import SqlType

#: Cap on combined group/join key codes; beyond this the dense-integer key
#: encoding could overflow int64, so the executor falls back.
_MAX_CODE = 2**62

#: Largest integer magnitude float64 represents exactly. Mixed int/float
#: comparisons and join keys beyond this would round where the row
#: interpreter compares exactly, so the vectorized path refuses them.
_MAX_EXACT_FLOAT_INT = 2**53

#: Operand bounds below which int64 add/sub (resp. multiply) cannot wrap.
#: The row interpreter uses exact Python ints; rather than reproduce
#: arbitrary precision, the vectorized path falls back outside these.
_MAX_INT_ADD = 2**62
_MAX_INT_MUL = 2**31

#: An integer key column spanning fewer than this many values per row is
#: coded as ``value - min`` instead of ranked through ``np.unique``.
#: Measured on the combine join of a 2000-world point (keys ``world`` and
#: ``t`` over 2 x 106 k rows, 2-core host): 8.1 ms per key sorted, 0.14 ms
#: offset; ``_dense_codes`` 15.4 -> 2.3 ms. The bound is about density, not
#: speed: offset codes span the value range rather than the distinct count,
#: so a sparse column would push composite keys past ``_MAX_CODE`` (a
#: fallback the sorted coding does not take). At 4, a key costs at most two
#: bits more than its sorted coding.
_KEY_RANGE_PER_ROW = 4

#: Variance-family aggregates share one lockstep pass (see
#: :func:`aggregate_moments`) when ``columns * rows >= this * longest
#: group``, i.e. when a step has about this many lanes to advance. A step
#: is six ufunc calls whatever the lane count (3-4 us measured at 5 and at
#: 159 lanes); one value through the scalar ``_welford`` loop is 0.15 us
#: plus its share of ``tolist``. Swept from 6 to 159 lanes at 64, 400 and
#: 2000 rows per group, the two cross between 21 and 33 lanes (lockstep
#: 0.8x at 21, 1.1-1.3x at 33, 4x at 159). Below it — the week memo leaving
#: a handful of groups — the loop wins: without this rule the 400-world
#: walk's refresh p50 rose from 3.8 to 6.3 ms.
_LOCKSTEP_MIN_LANES = 32

#: Lockstep pads every group to the longest; past this multiple of the
#: real rows the padding costs more than the loop it replaces.
_LOCKSTEP_MAX_PADDING = 2

#: ``group_layout`` counts instead of sorting when the composite key codes
#: fit in this many values: the per-code tables stay a few hundred KB and a
#: group's rank fits the 16 bits NumPy's stable sort handles by radix.
#: Measured on the aggregate of a 2000-world point (106 k rows, 53 weeks,
#: 2-core host): 5.4 ms sorted, 0.9 ms counted.
_COUNTING_MAX_CODES = 2**16

MOMENT_AGGREGATES = ("var", "varp", "stdev", "stdevp")
SUM_AGGREGATES = ("sum", "avg")


def _int_bounded(value: Any, limit: int) -> bool:
    if isinstance(value, np.ndarray):
        return value.size == 0 or int(np.abs(value).max()) < limit
    return abs(int(value)) < limit


class VectorFallback(Exception):
    """Raised when the vectorized path cannot guarantee identical results."""


class VectorContext:
    """Bindings for one vectorized evaluation pass.

    ``columns`` maps lowercase column keys (bare and qualified) to packed
    arrays; ``all_keys`` additionally names the columns that exist but are
    not packed (TEXT/NULL-bearing), so ambiguity resolution sees the same
    universe of names as the row interpreter. Scalars (variables, literals)
    broadcast lazily.
    """

    __slots__ = ("columns", "all_keys", "variables", "n_rows")

    def __init__(
        self,
        columns: dict[str, np.ndarray],
        all_keys: frozenset[str] | set[str],
        variables: Mapping[str, Any],
        n_rows: int,
    ) -> None:
        self.columns = columns
        self.all_keys = all_keys
        self.variables = variables
        self.n_rows = n_rows


VectorFn = Callable[[VectorContext], Any]


# -- scalar/array plumbing ---------------------------------------------------


def _kind(value: Any) -> str:
    """NumPy-style kind code ('b'/'i'/'f') of a vector value."""
    if isinstance(value, np.ndarray):
        kind = value.dtype.kind
        if kind in "bif":
            return kind
        raise VectorFallback
    if isinstance(value, (bool, np.bool_)):
        return "b"
    if isinstance(value, (int, np.integer)):
        return "i"
    if isinstance(value, (float, np.floating)):
        return "f"
    raise VectorFallback


def broadcast(value: Any, n_rows: int) -> np.ndarray:
    """Broadcast a scalar vector value to a full column array."""
    if isinstance(value, np.ndarray):
        if len(value) != n_rows:
            raise VectorFallback
        return value
    try:
        if isinstance(value, (bool, np.bool_)):
            return np.full(n_rows, bool(value), dtype=np.bool_)
        if isinstance(value, (int, np.integer)):
            return np.full(n_rows, int(value), dtype=np.int64)
        if isinstance(value, (float, np.floating)):
            return np.full(n_rows, float(value), dtype=np.float64)
    except OverflowError:
        raise VectorFallback from None
    raise VectorFallback


def _is_array(*values: Any) -> bool:
    return any(isinstance(value, np.ndarray) for value in values)


# -- vector expression compilation ------------------------------------------


def compile_vector(expression: Expression, guarded: bool = False) -> Optional[VectorFn]:
    """Lower ``expression`` to a closure over column arrays.

    Returns None when the expression can never run vectorized (strings,
    NULL literals, scalar function calls, LIKE, ...). ``guarded`` marks
    positions the row interpreter evaluates lazily — there, operations
    that can raise user-visible errors (``/``, ``%``, CAST to INTEGER)
    are refused at compile time so eager evaluation cannot introduce
    errors the interpreter would not have raised.
    """
    if isinstance(expression, Literal):
        value = expression.value
        if value is None or isinstance(value, str):
            return None
        return lambda context: value
    if isinstance(expression, ColumnRef):
        return _compile_column(expression)
    if isinstance(expression, Variable):
        name = expression.name.lower()

        def variable(context: VectorContext) -> Any:
            value = context.variables.get(name)
            if value is None or isinstance(value, str) or not isinstance(
                value, (bool, int, float)
            ):
                raise VectorFallback
            return value

        return variable
    if isinstance(expression, UnaryOp):
        operand = compile_vector(expression.operand, guarded)
        if operand is None:
            return None
        return _compile_vec_unary(expression.operator, operand)
    if isinstance(expression, BinaryOp):
        return _compile_vec_binary(expression, guarded)
    if isinstance(expression, CaseWhen):
        return _compile_vec_case(expression, guarded)
    if isinstance(expression, Cast):
        return _compile_vec_cast(expression, guarded)
    if isinstance(expression, InList):
        operand = compile_vector(expression.operand, guarded)
        if operand is None:
            return None
        items = [compile_vector(item, True) for item in expression.items]
        if not items or any(item is None for item in items):
            return None
        negated = expression.negated

        def in_list(context: VectorContext) -> Any:
            value = operand(context)
            result: Any = None
            for item in items:
                hit = _vec_compare("=", value, item(context))  # type: ignore[misc]
                result = hit if result is None else np.logical_or(result, hit)
            if negated:
                return _vec_not(result)
            return result

        return in_list
    if isinstance(expression, Between):
        operand = compile_vector(expression.operand, guarded)
        low = compile_vector(expression.low, guarded)
        high = compile_vector(expression.high, guarded)
        if operand is None or low is None or high is None:
            return None
        negated = expression.negated

        def between(context: VectorContext) -> Any:
            value = operand(context)
            above = _vec_compare(">=", value, low(context))
            below = _vec_compare("<=", value, high(context))
            result = np.logical_and(above, below) if _is_array(above, below) else (
                bool(above) and bool(below)
            )
            return _vec_not(result) if negated else result

        return between
    if isinstance(expression, IsNull):
        operand = compile_vector(expression.operand, guarded)
        if operand is None:
            return None
        result = expression.negated  # vector columns are NULL-free

        def is_null(context: VectorContext) -> Any:
            operand(context)  # preserve evaluation (and fallback) behavior
            return result

        return is_null
    # FunctionCall, Like, and anything new: row path only.
    return None


def _compile_column(node: ColumnRef) -> VectorFn:
    name, qualifier = node.name, node.qualifier
    key = f"{qualifier}.{name}".lower() if qualifier else name.lower()
    bare = name.lower()
    suffix = f".{bare}"

    def column(context: VectorContext) -> Any:
        array = context.columns.get(key)
        if array is not None:
            return array
        # Mirror EvalContext.lookup_column against the FULL key universe so
        # a column that is only row-representable (or an ambiguity the
        # interpreter would report) forces a fallback instead of silently
        # resolving differently.
        if key in context.all_keys:
            raise VectorFallback
        if qualifier is not None:
            if bare in context.columns and bare in context.all_keys:
                return context.columns[bare]
            raise VectorFallback
        matches = [k for k in context.all_keys if k.endswith(suffix)]
        if len(matches) == 1 and matches[0] in context.columns:
            return context.columns[matches[0]]
        raise VectorFallback

    return column


def _compile_vec_unary(operator: str, operand: VectorFn) -> VectorFn:
    if operator.upper() == "NOT":

        def negate(context: VectorContext) -> Any:
            value = operand(context)
            if _kind(value) != "b":
                raise VectorFallback
            return _vec_not(value)

        return negate
    negative = operator == "-"

    def sign(context: VectorContext) -> Any:
        value = operand(context)
        if _kind(value) not in "if":
            raise VectorFallback
        return -value if negative else +value

    return sign


def _compile_vec_binary(node: BinaryOp, guarded: bool) -> Optional[VectorFn]:
    operator = node.operator.upper()
    if operator in ("AND", "OR"):
        left = compile_vector(node.left, guarded)
        right = compile_vector(node.right, True)  # lazily evaluated by rows
        if left is None or right is None:
            return None
        conjunction = operator == "AND"

        def connective(context: VectorContext) -> Any:
            left_value = left(context)
            right_value = right(context)
            if _kind(left_value) != "b" or _kind(right_value) != "b":
                raise VectorFallback
            if not _is_array(left_value, right_value):
                return (
                    bool(left_value) and bool(right_value)
                    if conjunction
                    else bool(left_value) or bool(right_value)
                )
            if conjunction:
                return np.logical_and(left_value, right_value)
            return np.logical_or(left_value, right_value)

        return connective
    if operator == "||":
        return None  # text concatenation: row path only
    if guarded and operator in ("/", "%"):
        return None  # may raise where the row path would not evaluate
    left = compile_vector(node.left, guarded)
    right = compile_vector(node.right, guarded)
    if left is None or right is None:
        return None
    if operator in ("=", "<>", "<", "<=", ">", ">="):
        return lambda context: _vec_compare(operator, left(context), right(context))
    return lambda context: _vec_arithmetic(operator, left(context), right(context))


def _vec_compare(operator: str, left: Any, right: Any) -> Any:
    left_kind, right_kind = _kind(left), _kind(right)
    numeric = left_kind in "if" and right_kind in "if"
    if not numeric and not (left_kind == "b" and right_kind == "b"):
        raise VectorFallback  # the row path decides (and raises) per row
    if left_kind != right_kind and numeric:
        # Mixed int/float comparison: NumPy promotes int64 to float64,
        # which rounds beyond 2**53; the row interpreter compares exactly.
        for value, kind in ((left, left_kind), (right, right_kind)):
            if kind == "i" and not _int_bounded(value, _MAX_EXACT_FLOAT_INT):
                raise VectorFallback
    if operator == "=":
        return left == right
    if operator == "<>":
        return left != right
    if operator == "<":
        return left < right
    if operator == "<=":
        return left <= right
    if operator == ">":
        return left > right
    return left >= right


def _vec_arithmetic(operator: str, left: Any, right: Any) -> Any:
    left_kind, right_kind = _kind(left), _kind(right)
    if left_kind not in "if" or right_kind not in "if":
        raise VectorFallback
    if left_kind == "i" and right_kind == "i" and operator in ("+", "-", "*"):
        # int64 wraps silently where the row interpreter's Python ints are
        # exact; refuse operand ranges whose result could overflow.
        limit = _MAX_INT_MUL if operator == "*" else _MAX_INT_ADD
        if not (_int_bounded(left, limit) and _int_bounded(right, limit)):
            raise VectorFallback
    if operator == "+":
        return left + right
    if operator == "-":
        return left - right
    if operator == "*":
        return left * right
    if operator == "/":
        _check_nonzero(right, "division by zero")
        if left_kind == "i" and right_kind == "i":
            if _is_array(left, right):
                left_array, right_array = np.asarray(left), np.asarray(right)
                # SQL-style integer division truncates toward zero.
                quotient = np.abs(left_array) // np.abs(right_array)
                return np.where(
                    (left_array >= 0) == (right_array >= 0), quotient, -quotient
                )
            quotient = abs(left) // abs(right)
            return quotient if (left >= 0) == (right >= 0) else -quotient
        return left / right
    if operator == "%":
        _check_nonzero(right, "modulo by zero")
        # Remainder of the truncating division: sign follows the dividend.
        if _is_array(left, right):
            return np.fmod(left, right)
        if left_kind == "i" and right_kind == "i":
            remainder = abs(left) % abs(right)
            return remainder if left >= 0 else -remainder
        return math.fmod(left, right)
    raise VectorFallback


def _check_nonzero(value: Any, message: str) -> None:
    if isinstance(value, np.ndarray):
        if value.size and bool(np.any(value == 0)):
            raise ExecutionError(message)
    elif value == 0:
        raise ExecutionError(message)


def _vec_not(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return np.logical_not(value)
    return not bool(value)


def _compile_vec_case(node: CaseWhen, guarded: bool) -> Optional[VectorFn]:
    if node.otherwise is None:
        return None  # an unmatched row would produce NULL
    compiled: list[tuple[VectorFn, VectorFn]] = []
    first = True
    for condition, value in node.branches:
        condition_fn = compile_vector(condition, guarded if first else True)
        value_fn = compile_vector(value, True)
        if condition_fn is None or value_fn is None:
            return None
        compiled.append((condition_fn, value_fn))
        first = False
    otherwise_fn = compile_vector(node.otherwise, True)
    if otherwise_fn is None:
        return None

    def case_when(context: VectorContext) -> Any:
        conditions = []
        values = []
        for condition_fn, value_fn in compiled:
            condition = condition_fn(context)
            if _kind(condition) != "b":
                raise VectorFallback
            conditions.append(condition)
            values.append(value_fn(context))
        otherwise = otherwise_fn(context)
        result_kind = _kind(otherwise)
        if any(_kind(value) != result_kind for value in values):
            raise VectorFallback  # mixed branch types are per-row in the interpreter
        if not _is_array(otherwise, *conditions, *values):
            for condition, value in zip(conditions, values):
                if bool(condition):
                    return value
            return otherwise
        n_rows = context.n_rows
        result = broadcast(otherwise, n_rows)
        for condition, value in reversed(list(zip(conditions, values))):
            result = np.where(broadcast(condition, n_rows), value, result)
        return result

    return case_when


def _compile_vec_cast(node: Cast, guarded: bool) -> Optional[VectorFn]:
    operand = compile_vector(node.operand, guarded)
    if operand is None:
        return None
    try:
        target = SqlType.from_declaration(node.type_name)
    except Exception:
        return None
    if target == SqlType.FLOAT:

        def cast_float(context: VectorContext) -> Any:
            value = operand(context)
            kind = _kind(value)
            if kind == "f":
                return value
            if isinstance(value, np.ndarray):
                return value.astype(np.float64)
            return float(value)

        return cast_float
    if target == SqlType.INTEGER:
        if guarded:
            return None  # may raise for non-integral floats

        def cast_integer(context: VectorContext) -> Any:
            value = operand(context)
            kind = _kind(value)
            if kind == "i":
                return value
            if kind == "b":
                if isinstance(value, np.ndarray):
                    return value.astype(np.int64)
                return int(value)
            if isinstance(value, np.ndarray):
                if value.size and not (
                    bool(np.all(np.isfinite(value)))
                    and bool(np.all(value == np.trunc(value)))
                    and bool(np.all(np.abs(value) < _MAX_CODE))
                ):
                    raise VectorFallback  # the row path raises per offending row
                return value.astype(np.int64)
            if not (value == int(value)):
                raise VectorFallback
            return int(value)

        return cast_integer
    return None  # TEXT/BOOLEAN casts: row path only


# -- select plans ------------------------------------------------------------


@dataclass(frozen=True)
class AggregateSpec:
    """One distinct aggregate call of a grouped SELECT."""

    rendered: str
    name: str  # canonical engine aggregate (EXPECT aliases resolved)
    star: bool
    distinct: bool
    arg: Optional[VectorFn]


@dataclass(frozen=True)
class JoinSpec:
    """One INNER equi-join step: right table + key pairs (still unsided)."""

    table: str
    label: str
    conjuncts: tuple[tuple[str, str], ...]  # (key_a, key_b) per ``a = b``


@dataclass(frozen=True)
class VectorSelectPlan:
    grouped: bool
    source_table: str
    source_label: str
    joins: tuple[JoinSpec, ...]
    where: Optional[VectorFn]
    items: tuple[tuple[VectorFn, Optional[str]], ...]
    order: tuple[tuple[VectorFn, bool], ...]
    group_by: tuple[VectorFn, ...]
    aggregates: tuple[AggregateSpec, ...]


_PLAN_CACHE: "weakref.WeakKeyDictionary[Select, Optional[VectorSelectPlan]]"
_PLAN_CACHE = weakref.WeakKeyDictionary()
_INELIGIBLE = None


def plan_select(select: Select) -> Optional[VectorSelectPlan]:
    """Return the cached vector plan for ``select`` (None when ineligible)."""
    try:
        if select in _PLAN_CACHE:
            return _PLAN_CACHE[select]
    except TypeError:
        return _build_plan(select)
    plan = _build_plan(select)
    _PLAN_CACHE[select] = plan
    return plan


def _build_plan(select: Select) -> Optional[VectorSelectPlan]:
    if not isinstance(select.source, TableSource):
        return _INELIGIBLE
    joins: list[JoinSpec] = []
    for join in select.joins:
        spec = _plan_join(join)
        if spec is None:
            return _INELIGIBLE
        joins.append(spec)
    if any(item.star for item in select.items):
        return _INELIGIBLE
    where = None
    if select.where is not None:
        where = compile_vector(select.where)
        if where is None:
            return _INELIGIBLE

    grouped = bool(select.group_by) or any(
        item.expression is not None and has_aggregate(item.expression)
        for item in select.items
    ) or (select.having is not None and has_aggregate(select.having))

    source_label = (select.source.alias or select.source.name).lower()
    if grouped:
        aggregate_nodes: dict[str, FunctionCall] = {}
        for item in select.items:
            assert item.expression is not None
            collect_aggregates(item.expression, aggregate_nodes)
        if select.having is not None:
            collect_aggregates(select.having, aggregate_nodes)
        for order in select.order_by:
            collect_aggregates(order.expression, aggregate_nodes)
        specs: list[AggregateSpec] = []
        for rendered, node in aggregate_nodes.items():
            name = AGGREGATE_ALIASES.get(node.name.lower(), node.name).lower()
            if not is_aggregate_name(name):
                return _INELIGIBLE
            if node.star:
                if name != "count":
                    return _INELIGIBLE  # the row path raises the proper error
                specs.append(AggregateSpec(rendered, name, True, node.distinct, None))
                continue
            if len(node.args) != 1 or (node.distinct and name != "count"):
                return _INELIGIBLE
            arg = compile_vector(node.args[0])
            if arg is None:
                return _INELIGIBLE
            specs.append(AggregateSpec(rendered, name, False, node.distinct, arg))
        group_by = [compile_vector(expression) for expression in select.group_by]  # type: ignore[misc]
        if any(fn is None for fn in group_by):
            return _INELIGIBLE
        return VectorSelectPlan(
            grouped=True,
            source_table=select.source.name,
            source_label=source_label,
            joins=tuple(joins),
            where=where,
            items=(),
            order=(),
            group_by=tuple(group_by),  # type: ignore[arg-type]
            aggregates=tuple(specs),
        )

    if select.distinct:
        return _INELIGIBLE
    items: list[tuple[VectorFn, Optional[str]]] = []
    for item in select.items:
        assert item.expression is not None
        fn = compile_vector(item.expression)
        if fn is None:
            return _INELIGIBLE
        items.append((fn, item.alias.lower() if item.alias else None))
    order: list[tuple[VectorFn, bool]] = []
    for order_item in select.order_by:
        fn = compile_vector(order_item.expression)
        if fn is None:
            return _INELIGIBLE
        order.append((fn, order_item.descending))
    return VectorSelectPlan(
        grouped=False,
        source_table=select.source.name,
        source_label=source_label,
        joins=tuple(joins),
        where=where,
        items=tuple(items),
        order=tuple(order),
        group_by=(),
        aggregates=(),
    )


def _plan_join(join: Join) -> Optional[JoinSpec]:
    if join.kind != "INNER" or not isinstance(join.source, TableSource):
        return None
    if join.condition is None:
        return None
    conjuncts: list[Expression] = []
    flatten_and(join.condition, conjuncts)
    pairs: list[tuple[str, str]] = []
    for conjunct in conjuncts:
        if not (isinstance(conjunct, BinaryOp) and conjunct.operator == "="):
            return None
        sides = []
        for operand in (conjunct.left, conjunct.right):
            if not isinstance(operand, ColumnRef):
                return None
            key = (
                f"{operand.qualifier}.{operand.name}".lower()
                if operand.qualifier
                else operand.name.lower()
            )
            sides.append(key)
        pairs.append((sides[0], sides[1]))
    label = (join.source.alias or join.source.name).lower()
    return JoinSpec(table=join.source.name, label=label, conjuncts=tuple(pairs))


def flatten_and(expression: Expression, out: list[Expression]) -> None:
    """Append the conjuncts of an AND-chain to ``out``, left to right."""
    if isinstance(expression, BinaryOp) and expression.operator.upper() == "AND":
        flatten_and(expression.left, out)
        flatten_and(expression.right, out)
    else:
        out.append(expression)


# -- columnar relations: bind, join, filter ---------------------------------


class ColumnarRelation:
    """A bound, mutable-during-execution columnar working set."""

    __slots__ = ("columns", "objects", "all_keys", "n_rows")

    def __init__(
        self,
        columns: dict[str, np.ndarray],
        objects: dict[str, np.ndarray],
        all_keys: set[str],
        n_rows: int,
    ) -> None:
        self.columns = columns
        self.objects = objects
        self.all_keys = all_keys
        self.n_rows = n_rows

    def context(self, variables: Mapping[str, Any]) -> VectorContext:
        return VectorContext(self.columns, self.all_keys, variables, self.n_rows)

    def take(self, indices: np.ndarray) -> "ColumnarRelation":
        return ColumnarRelation(
            {key: array[indices] for key, array in self.columns.items()},
            {key: array[indices] for key, array in self.objects.items()},
            self.all_keys,
            len(indices),
        )

    def mask(self, mask: np.ndarray) -> "ColumnarRelation":
        return ColumnarRelation(
            {key: array[mask] for key, array in self.columns.items()},
            {key: array[mask] for key, array in self.objects.items()},
            self.all_keys,
            int(np.count_nonzero(mask)),
        )

    def bound_rows(self, indices: np.ndarray) -> list[dict[str, Any]]:
        """The given rows as the interpreter's bound-row dicts (bare +
        qualified keys), gathered one column at a time."""
        keys = [*self.columns, *self.objects]
        values = [array[indices].tolist() for array in self.columns.values()]
        values += [array[indices].tolist() for array in self.objects.values()]
        if not keys:
            return [{} for _ in range(len(indices))]
        return [dict(zip(keys, row)) for row in zip(*values)]


def bind_table(table: Table, label: str) -> ColumnarRelation:
    """Bind one table source the way ``_bind_row`` does, but columnar."""
    view: ColumnarView = table.columnar_view()
    columns: dict[str, np.ndarray] = {}
    objects: dict[str, np.ndarray] = {}
    all_keys: set[str] = set()
    for key, array in view.arrays.items():
        columns[key] = array
        columns[f"{label}.{key}"] = array
        all_keys.add(key)
        all_keys.add(f"{label}.{key}")
    for key, array in view.objects.items():
        objects[key] = array
        objects[f"{label}.{key}"] = array
        all_keys.add(key)
        all_keys.add(f"{label}.{key}")
    return ColumnarRelation(columns, objects, all_keys, view.n_rows)


def merge_relations(left: ColumnarRelation, right: ColumnarRelation) -> ColumnarRelation:
    """Row-merge semantics of ``_merge_rows``: right bindings win."""
    columns = dict(left.columns)
    columns.update(right.columns)
    objects = dict(left.objects)
    # A bare key rebound by the right side must not survive as a stale
    # object column (and vice versa).
    for key in right.columns:
        objects.pop(key, None)
    for key, array in right.objects.items():
        columns.pop(key, None)
        objects[key] = array
    return ColumnarRelation(
        columns, objects, left.all_keys | right.all_keys, left.n_rows
    )


def equi_join(
    left: ColumnarRelation,
    right: ColumnarRelation,
    conjuncts: Sequence[tuple[str, str]],
) -> ColumnarRelation:
    """INNER hash equi-join, reproducing the interpreter's output order
    (left rows in order; for each, matching right rows in table order)."""
    left_cols: list[np.ndarray] = []
    right_cols: list[np.ndarray] = []
    for key_a, key_b in conjuncts:
        if key_a in left.all_keys and key_b in right.all_keys:
            left_key, right_key = key_a, key_b
        elif key_b in left.all_keys and key_a in right.all_keys:
            left_key, right_key = key_b, key_a
        else:
            raise VectorFallback  # the interpreter would nested-loop this
        left_array = left.columns.get(left_key)
        right_array = right.columns.get(right_key)
        if left_array is None or right_array is None:
            raise VectorFallback
        if left_array.dtype.kind == "f" and left_array.size and np.any(np.isnan(left_array)):
            raise VectorFallback  # NaN keys: interpreter semantics are identity-based
        if right_array.dtype.kind == "f" and right_array.size and np.any(np.isnan(right_array)):
            raise VectorFallback
        left_cols.append(left_array)
        right_cols.append(right_array)

    if _tiled_alike(left_cols, right_cols):
        # Row i of either side holds the same key, and no key repeats:
        # row i matches row i and nothing else.
        return merge_relations(left, right)
    left_codes, right_codes = _dense_codes(left_cols, right_cols, left.n_rows)
    # Codes stay below _MAX_CODE: the differences cannot wrap around.
    right_sorted = bool(np.all(np.diff(right_codes) >= 0))
    left_take, right_take = _match_codes(left_codes, right_codes, right_sorted)
    return merge_relations(left.take(left_take), right.take(right_take))


def _tiled_alike(
    left_cols: Sequence[np.ndarray], right_cols: Sequence[np.ndarray]
) -> bool:
    """Do both sides lay their join keys out as one cross product of unique
    bases, each key column tiled exactly like its partner?

    Each column's :func:`~repro.sqldb.table.tiling_of` is read; no key value
    is. The columns, innermost (fewest repeats, most tiles) first, must
    nest: a column repeats each value once per row of the columns inside it
    and is tiled once per value of the columns outside it. Then every row
    holds a distinct key tuple exactly when every base is unique — the
    check the key-violating inputs (a world id listed twice) fail.
    """
    tilings = []
    for left_array, right_array in zip(left_cols, right_cols):
        left_tiling, right_tiling = tiling_of(left_array), tiling_of(right_array)
        if (
            left_tiling is None
            or right_tiling is None
            or left_tiling.repeat != right_tiling.repeat
            or left_tiling.tile != right_tiling.tile
            or not np.array_equal(left_tiling.base, right_tiling.base)
        ):
            return False
        tilings.append(left_tiling)
    nest = sorted(tilings, key=lambda tiling: (tiling.repeat, -tiling.tile))
    inner = 1
    for tiling in nest:
        if tiling.repeat != inner:
            return False
        inner *= len(tiling.base)
    outer = 1
    for tiling in reversed(nest):
        if tiling.tile != outer:
            return False
        outer *= len(tiling.base)
    return bool(nest) and all(tiling.unique_base() for tiling in nest)


def _dense_codes(
    left_cols: Sequence[np.ndarray],
    right_cols: Sequence[np.ndarray],
    left_n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Encode composite keys as dense int64 codes comparable across sides.

    Per key column the code is order-preserving and equal exactly where
    the values are: the offset from the column minimum for dense integer
    keys (:func:`_offset_codes`), the rank among sorted distinct values
    otherwise. The join output depends on nothing else.
    """
    right_n = len(right_cols[0]) if right_cols else 0
    left_codes = np.zeros(left_n, dtype=np.int64)
    right_codes = np.zeros(right_n, dtype=np.int64)
    max_code = 0
    for left_array, right_array in zip(left_cols, right_cols):
        offset = (
            _offset_codes((left_array, right_array))
            if left_array.dtype == right_array.dtype
            else None
        )
        if offset is not None:
            (left_key, right_key), size = offset
        else:
            left_key, right_key, size = _sorted_codes(left_array, right_array)
        max_code = max_code * size + (size - 1)
        if max_code >= _MAX_CODE:
            raise VectorFallback
        left_codes = left_codes * size + left_key
        right_codes = right_codes * size + right_key
    return left_codes, right_codes


def _sorted_codes(
    left_array: np.ndarray, right_array: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Ranks of one key column among its sorted distinct values, per side."""
    if left_array.dtype == right_array.dtype:
        both = np.concatenate([left_array, right_array])
    else:
        # Mixed-dtype keys unify through float64, which is exact only
        # below 2**53 for integers; the row join compares exactly.
        for array in (left_array, right_array):
            if array.dtype.kind == "i" and not _int_bounded(
                array, _MAX_EXACT_FLOAT_INT
            ):
                raise VectorFallback
        both = np.concatenate(
            [left_array.astype(np.float64), right_array.astype(np.float64)]
        )
    _, inverse = np.unique(both, return_inverse=True)
    size = int(inverse.max()) + 1 if len(both) else 1
    return inverse[: len(left_array)], inverse[len(left_array) :], size


def _offset_codes(
    arrays: Sequence[np.ndarray],
) -> Optional[tuple[list[np.ndarray], int]]:
    """``value - min`` codes of one integer key column, and their span.

    ``arrays`` are the column's parts (both sides of a join, or the one
    array of a GROUP BY key), coded against their common minimum. None
    when the column is not integer or spans ``_KEY_RANGE_PER_ROW`` values
    per row or more; the caller then sorts.
    """
    if any(array.dtype.kind != "i" for array in arrays):
        return None
    filled = [array for array in arrays if len(array)]
    if not filled:
        return None
    low = min(int(array.min()) for array in filled)
    high = max(int(array.max()) for array in filled)
    if high - low >= _KEY_RANGE_PER_ROW * sum(len(array) for array in filled):
        return None
    return [(array - low).astype(np.int64, copy=False) for array in arrays], high - low + 1


def _match_codes(
    left_codes: np.ndarray, right_codes: np.ndarray, right_sorted: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of every matching pair, left-major, right in table order.

    ``right_sorted`` says the right codes are already non-decreasing — the
    stable sort would return the identity, so it is skipped.
    """
    order = None if right_sorted else np.argsort(right_codes, kind="stable")
    ranked = right_codes if order is None else right_codes[order]
    lo = np.searchsorted(ranked, left_codes, side="left")
    hi = np.searchsorted(ranked, left_codes, side="right")
    counts = hi - lo
    total = int(counts.sum())
    left_take = np.repeat(np.arange(len(left_codes)), counts)
    if total:
        run_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        offsets = np.arange(total) - np.repeat(run_starts, counts)
        right_take = np.repeat(lo, counts) + offsets
        if order is not None:
            right_take = order[right_take]
    else:
        right_take = np.empty(0, dtype=np.int64)
    return left_take, right_take


# -- grouping & aggregation --------------------------------------------------


@dataclass
class GroupLayout:
    """Partition of filtered rows into groups, in first-appearance order.

    ``stride`` is set when group ``g`` is rows ``g, g + stride, g + 2 *
    stride, ...`` and every group has the same size (:func:`group_layout`
    on a tiled key); the arrays say the same thing either way.
    """

    sorted_rows: np.ndarray  # row indices, grouped contiguously
    starts: np.ndarray
    ends: np.ndarray
    rep_rows: np.ndarray  # first row index of each group
    stride: Optional[int] = None
    _lanes: Optional["_Lanes"] = field(default=None, repr=False, compare=False)

    def lanes(
        self, columns: Sequence[np.ndarray], build: bool = True
    ) -> Optional["_Lanes"]:
        """The step-major layout of ``columns`` under this partition.

        Kept for the next caller with the same column arrays — a statement's
        STDEVs and AVGs usually read the same columns. With ``build`` off,
        only a layout that is already there is returned.
        """
        held = self._lanes
        if (
            held is not None
            and len(held.columns) == len(columns)
            and all(a is b for a, b in zip(held.columns, columns))
        ):
            return held
        if build:
            self._lanes = _Lanes(columns, self)
            return self._lanes
        return None


def group_layout(key_arrays: Sequence[np.ndarray], n_rows: int) -> GroupLayout:
    """Group rows by composite key, preserving first-appearance order."""
    if not key_arrays:  # one group holding every row
        rows = np.arange(n_rows)
        return GroupLayout(
            sorted_rows=rows,
            starts=np.array([0]),
            ends=np.array([n_rows]),
            rep_rows=np.array([0] if n_rows else [], dtype=np.int64),
        )
    if len(key_arrays) == 1:
        tiling = tiling_of(key_arrays[0])
        if (
            tiling is not None
            and tiling.repeat == 1
            and tiling.tile > 0
            and tiling.unique_base()
        ):
            return _strided_layout(len(tiling.base), tiling.tile)
    combined = np.zeros(n_rows, dtype=np.int64)
    max_code = 0
    for array in key_arrays:
        if array.dtype.kind == "f" and array.size and np.any(np.isnan(array)):
            raise VectorFallback  # NaN keys group by object identity in rows
        offset = _offset_codes((array,))
        if offset is not None:
            (inverse,), size = offset
        else:
            _, inverse = np.unique(array, return_inverse=True)
            size = int(inverse.max()) + 1 if len(array) else 1
        max_code = max_code * size + (size - 1)
        if max_code >= _MAX_CODE:
            raise VectorFallback
        combined = combined * size + inverse
    if max_code < _COUNTING_MAX_CODES:
        return _counted_layout(combined, max_code + 1)
    return _sorted_layout(combined)


def _strided_layout(n_groups: int, size: int) -> GroupLayout:
    """:func:`group_layout` of a key that runs through ``n_groups`` distinct
    values ``size`` times over: group ``g`` is rows ``g + k * n_groups``."""
    starts = np.arange(n_groups, dtype=np.int64) * size
    return GroupLayout(
        sorted_rows=np.arange(n_groups * size, dtype=np.int64)
        .reshape(size, n_groups)
        .T.ravel(),
        starts=starts,
        ends=starts + size,
        rep_rows=np.arange(n_groups, dtype=np.int64),
        stride=n_groups,
    )


def _sorted_layout(combined: np.ndarray) -> GroupLayout:
    """:func:`group_layout` of composite codes by sorting them (any span)."""
    uniques, first_index, inverse, counts = np.unique(
        combined, return_index=True, return_inverse=True, return_counts=True
    )
    appearance = np.argsort(first_index, kind="stable")
    rank_of_unique = np.empty(len(uniques), dtype=np.int64)
    rank_of_unique[appearance] = np.arange(len(uniques))
    sorted_rows = np.argsort(rank_of_unique[inverse], kind="stable")
    ordered_counts = counts[appearance]
    ends = np.cumsum(ordered_counts)
    starts = ends - ordered_counts
    return GroupLayout(
        sorted_rows=sorted_rows,
        starts=starts,
        ends=ends,
        rep_rows=first_index[appearance],
    )


def _counted_layout(combined: np.ndarray, n_codes: int) -> GroupLayout:
    """:func:`group_layout` of composite codes below ``n_codes`` by counting.

    No comparison sort of the rows: group sizes are a ``bincount``, a code's
    first row is what a back-to-front scatter leaves behind (the earliest
    row is written last), and the rows are ordered by their group's
    first-appearance rank — at most 16 bits wide, so the stable sort is a
    radix pass. Same arrays as :func:`_sorted_layout`.
    """
    n_rows = len(combined)
    sizes = np.bincount(combined, minlength=n_codes)
    first_row = np.empty(n_codes, dtype=np.int64)
    first_row[combined[::-1]] = np.arange(n_rows - 1, -1, -1)
    present = np.flatnonzero(sizes)
    codes = present[np.argsort(first_row[present], kind="stable")]
    rank_of_code = np.empty(n_codes, dtype=np.uint16)
    rank_of_code[codes] = np.arange(len(codes), dtype=np.uint16)
    ends = np.cumsum(sizes[codes])
    return GroupLayout(
        sorted_rows=np.argsort(rank_of_code[combined], kind="stable"),
        starts=ends - sizes[codes],
        ends=ends,
        rep_rows=first_row[codes],
    )


def aggregate_segments(
    spec: AggregateSpec, values: Optional[np.ndarray], layout: GroupLayout
) -> list[Any]:
    """Per-group results of one aggregate, bit-identical to the accumulators.

    ``values`` is the full (filtered) argument column; None for COUNT(*).
    Running float sums use ``np.cumsum`` (the same left-to-right addition
    order as the accumulator), variance family uses the accumulator's own
    Welford recurrence in a tight loop — here one group at a time; the
    executor asks :func:`aggregate_moments` instead, which answers all of a
    statement's variance aggregates together and comes back here when the
    input is too small for that to pay.
    """
    name = spec.name
    results: list[Any] = []
    counts = layout.ends - layout.starts
    if name == "count":
        if spec.star or not spec.distinct:
            # NULL-free columns: COUNT(expr) counts every row, like COUNT(*).
            return [int(count) for count in counts]
        assert values is not None
        if values.dtype.kind == "f" and values.size and np.any(np.isnan(values)):
            raise VectorFallback  # NaN set-identity differs from fresh floats
        for start, end in zip(layout.starts, layout.ends):
            segment = values[layout.sorted_rows[start:end]]
            results.append(len(set(segment.tolist())))
        return results
    assert values is not None
    is_float = values.dtype.kind == "f"
    if name in ("min", "max"):
        if is_float and values.size and np.any(np.isnan(values)):
            raise VectorFallback  # NumPy NaN-poisons; the accumulator does not
        for start, end in zip(layout.starts, layout.ends):
            if end == start:
                results.append(None)
                continue
            segment = values[layout.sorted_rows[start:end]]
            extremum = segment.min() if name == "min" else segment.max()
            results.append(extremum.item())
        return results
    if values.dtype.kind == "b":
        raise VectorFallback  # the accumulators reject booleans per row
    if name == "sum":
        for start, end in zip(layout.starts, layout.ends):
            if end == start:
                results.append(None)
                continue
            segment = values[layout.sorted_rows[start:end]]
            if is_float:
                results.append(float(np.cumsum(segment)[-1]))
            else:
                results.append(sum(segment.tolist()))  # exact Python int math
        return results
    if name == "avg":
        as_float = values if is_float else values.astype(np.float64)
        for start, end, count in zip(layout.starts, layout.ends, counts):
            if end == start:
                results.append(None)
                continue
            segment = as_float[layout.sorted_rows[start:end]]
            # The accumulator starts from 0.0: a total of -0.0 becomes 0.0.
            results.append((float(np.cumsum(segment)[-1]) + 0.0) / int(count))
        return results
    if name in MOMENT_AGGREGATES:
        for start, end in zip(layout.starts, layout.ends):
            segment = values[layout.sorted_rows[start:end]].tolist()
            results.append(_welford(segment, name))
        return results
    raise VectorFallback


def _welford(values: list[Any], name: str) -> Any:
    """The _MomentsAggregate recurrence, verbatim, over one segment."""
    count = 0
    mean = 0.0
    m2 = 0.0
    for value in values:
        count += 1
        delta = float(value) - mean
        mean += delta / count
        m2 += delta * (float(value) - mean)
    return _moments_result(name, count, m2)


def _moments_result(name: str, count: int, m2: float) -> Any:
    """The variance-family result an accumulator reports for ``(count, m2)``."""
    if name in ("var", "stdev"):
        if count < 2:
            return None
        variance = m2 / (count - 1)
    else:
        if count < 1:
            return None
        variance = m2 / count
    return math.sqrt(variance) if name in ("stdev", "stdevp") else variance


def aggregate_moments(
    specs: Sequence[AggregateSpec], columns: Sequence[np.ndarray], layout: GroupLayout
) -> list[list[Any]]:
    """Per-group results of all variance-family aggregates of one statement.

    ``columns[i]`` is the full (filtered) argument column of ``specs[i]``;
    the answer is ``[aggregate_segments(spec, column, layout) ...]`` bit for
    bit. When the statement offers enough lanes (``_LOCKSTEP_MIN_LANES``)
    and its groups are even enough (``_LOCKSTEP_MAX_PADDING``) the columns
    are advanced together by :func:`_lockstep_moments`; otherwise each
    takes the scalar loop.
    """
    if any(values.dtype.kind == "b" for values in columns):
        raise VectorFallback  # the accumulators reject booleans per row
    counts = layout.ends - layout.starts
    longest = int(counts.max()) if len(counts) else 0
    n_rows = int(counts.sum())
    if (
        len(columns) * n_rows < _LOCKSTEP_MIN_LANES * longest
        or longest * len(counts) > _LOCKSTEP_MAX_PADDING * n_rows
    ):
        return [
            aggregate_segments(spec, values, layout)
            for spec, values in zip(specs, columns)
        ]
    m2 = _lockstep_moments(columns, layout).tolist()
    sizes = counts.tolist()
    return [
        [_moments_result(spec.name, count, value) for count, value in zip(sizes, lane)]
        for spec, lane in zip(specs, m2)
    ]


class _Lanes:
    """A statement's (column, group) lanes laid out one row position per step.

    ``steps`` is the zero-padded ``(longest group, n_groups * n_columns)``
    array of the columns' values in grouped order: row ``k`` holds every
    lane's ``k``-th value, group-major, the groups by descending length so
    the lanes still running at a step are a contiguous prefix of its row.
    ``counts`` are the group sizes in that slot order.

    On a strided layout (groups of one size, group ``g`` at rows ``g +
    k * stride``) the table's own row order already is that order, so each
    column is copied into its place as it stands: no gather, no padding.
    """

    __slots__ = ("columns", "steps", "counts", "slot_of_group")

    def __init__(self, columns: Sequence[np.ndarray], layout: GroupLayout) -> None:
        counts = layout.ends - layout.starts
        n_groups, n_rows = len(counts), len(layout.sorted_rows)
        longest = int(counts.max()) if n_groups else 0
        by_length = np.argsort(-counts, kind="stable")
        slot_of_group = np.empty(n_groups, dtype=np.int64)
        slot_of_group[by_length] = np.arange(n_groups)
        source = None
        if layout.stride is None:
            # Row i of the grouped order sits at step (i - start of its group);
            # ``source`` is, per (step, slot), the table row to read — or one
            # past the end, where a zero is appended, for padding.
            group_of_row = np.repeat(np.arange(n_groups), counts)
            step_of_row = np.arange(n_rows) - layout.starts[group_of_row]
            source = np.full(longest * n_groups, n_rows, dtype=np.int64)
            source[step_of_row * n_groups + slot_of_group[group_of_row]] = layout.sorted_rows
        steps = np.empty((longest * n_groups, len(columns)), dtype=np.float64)
        for index, values in enumerate(columns):
            steps[:, index] = values if source is None else np.append(values, 0)[source]
        self.columns = tuple(columns)
        self.steps = steps.reshape(longest, n_groups * len(columns))
        self.counts = counts[by_length]
        self.slot_of_group = slot_of_group

    def at_last_step(self, running: np.ndarray) -> np.ndarray:
        """Each lane's value of a per-step running array at the lane's own
        last step, as ``(n_columns, n_groups)`` in the layout's group order."""
        n_columns = len(self.columns)
        last = np.repeat(self.counts - 1, n_columns)
        final = running[last, np.arange(len(last))]
        return final.reshape(-1, n_columns)[self.slot_of_group].T


def _lockstep_moments(columns: Sequence[np.ndarray], layout: GroupLayout) -> np.ndarray:
    """``m2`` of every (column, group) lane, all lanes advanced per row position.

    Each lane runs the _MomentsAggregate recurrence — ``delta = x - mean;
    mean += delta / k; m2 += delta * (x - mean)``, the same six IEEE
    operations in the same order — over its group's values in row order;
    only the loop nest is turned inside out, so one step is six array
    operations over all lanes (:class:`_Lanes`) instead of one interpreter
    iteration per value. Returns ``(len(columns), n_groups)`` in the
    layout's group order.
    """
    n_groups, n_columns = len(layout.starts), len(columns)
    lanes = layout.lanes(columns)
    longest = len(lanes.steps)
    if not longest:
        return np.zeros((n_columns, n_groups), dtype=np.float64)
    mean = np.zeros(n_groups * n_columns, dtype=np.float64)
    m2 = np.zeros_like(mean)
    delta = np.empty_like(mean)
    scratch = np.empty_like(mean)
    # Groups still running at each step, and the steps where that changes.
    running = np.searchsorted(-lanes.counts, -np.arange(longest), side="left")
    edges = [0, *(np.flatnonzero(np.diff(running)) + 1).tolist(), longest]
    for first, last in zip(edges, edges[1:]):
        width = int(running[first]) * n_columns
        lane_mean, lane_m2 = mean[:width], m2[:width]
        lane_delta, lane_scratch = delta[:width], scratch[:width]
        for step in range(first, last):
            x = lanes.steps[step, :width]
            np.subtract(x, lane_mean, out=lane_delta)
            np.divide(lane_delta, step + 1, out=lane_scratch)
            np.add(lane_mean, lane_scratch, out=lane_mean)
            np.subtract(x, lane_mean, out=lane_scratch)
            np.multiply(lane_delta, lane_scratch, out=lane_scratch)
            np.add(lane_m2, lane_scratch, out=lane_m2)
    return m2.reshape(n_groups, n_columns)[lanes.slot_of_group].T


def aggregate_sums(
    specs: Sequence[AggregateSpec], columns: Sequence[np.ndarray], layout: GroupLayout
) -> list[list[Any]]:
    """Per-group results of all SUM and AVG aggregates of one statement.

    ``[aggregate_segments(spec, column, layout) ...]`` bit for bit. When
    the statement's variance aggregates have already laid the same columns
    out step-major (:meth:`GroupLayout.lanes` — ``AVG(x), STDEV(x)`` pairs
    over non-empty groups), every running float sum is read off one
    ``cumsum`` down the steps, each lane added left to right like the
    accumulator and read at its own last step. Building that layout for
    the sums alone costs more than the per-segment ``cumsum`` it saves
    (3.4 against 2.0-2.8 ms on three columns of 106 k rows in 53 groups),
    so anything else — other columns, an integer SUM (exact Python
    arithmetic), an empty group — takes :func:`aggregate_segments`.
    """
    counts = layout.ends - layout.starts
    lanes = None
    if all(
        spec.name == "avg" or values.dtype.kind == "f"
        for spec, values in zip(specs, columns)
    ) and (len(counts) and int(counts.min()) > 0):
        lanes = layout.lanes(columns, build=False)
    if lanes is None:
        return [
            aggregate_segments(spec, values, layout)
            for spec, values in zip(specs, columns)
        ]
    totals = lanes.at_last_step(np.cumsum(lanes.steps, axis=0)).tolist()
    sizes = counts.tolist()
    return [
        [(total + 0.0) / size for total, size in zip(lane, sizes)]
        if spec.name == "avg"
        else lane
        for spec, lane in zip(specs, totals)
    ]


# -- output schema -----------------------------------------------------------

_KIND_TYPES = {"i": SqlType.INTEGER, "f": SqlType.FLOAT, "b": SqlType.BOOLEAN}


def sql_type_for(array: np.ndarray) -> SqlType:
    """Output column type matching ``_infer_schema`` on the row path."""
    if len(array) == 0:
        return SqlType.FLOAT  # row path defaults to FLOAT with no rows
    return _KIND_TYPES[array.dtype.kind]
