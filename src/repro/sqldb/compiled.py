"""Vectorized (columnar) compilation for the SQL executor's hot path.

``plan_select`` analyzes a parsed ``SELECT`` and — when its shape fits the
fast path — produces a :class:`VectorSelectPlan` whose expressions have been
lowered to closures over NumPy column arrays. The executor runs the plan
against the source tables' :class:`~repro.sqldb.table.ColumnarView`; any
shape or data the plan cannot reproduce **bit-identically** raises
:class:`VectorFallback` and the executor re-runs the statement through the
row-at-a-time interpreter. Supported shapes:

* filter / project / order / limit over a single table source;
* row-aligned equi-joins of tiled keys (AND-chains of ``col = col`` whose
  key columns both sides laid out as the same cross product of unique
  bases, :func:`equi_join`);
* aggregates over one group or GROUP BY one strided tiled key
  (COUNT/SUM/AVG/MIN/MAX/VAR*/STDEV*, :func:`group_layout`), with HAVING
  and per-group projection delegated to the interpreter's finalization so
  group-level semantics cannot drift — except the plain shape whose
  finalization would only lay the answers out, which the executor answers
  in columns.

Every other join and grouping raises :class:`VectorFallback`: the row tier
answers it.

Identity discipline: the interpreter is the reference. Where NumPy's
defaults would diverge (pairwise float summation, NaN ordering, eager
evaluation of CASE branches, int64 wraparound on division) the plan either
reproduces the interpreter's exact operation order (row-order float sums,
and the variance family's two ordered passes through the function the
accumulators call, :func:`~repro.sqldb.aggregates.ordered_moments`) or
refuses and falls back. Division and INTEGER casts are never compiled
inside lazily evaluated positions (CASE branches, AND/OR right operands, IN
list items) so error behavior matches row-at-a-time evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from repro.errors import ExecutionError
from repro.sqldb.aggregates import (
    AGGREGATE_ALIASES,
    collect_aggregates,
    has_aggregate,
    is_aggregate_name,
    moments_result,
    ordered_moments,
    ordered_sums,
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

#: ``CAST(x AS INTEGER)`` of a float column stays vectorized below this
#: magnitude, where ``astype(np.int64)`` of an integral float is exact.
_MAX_CAST_INT = 2**62

#: Largest integer magnitude float64 represents exactly. Mixed int/float
#: comparisons and join keys beyond this would round where the row
#: interpreter compares exactly, so the vectorized path refuses them.
_MAX_EXACT_FLOAT_INT = 2**53

#: Operand bounds below which int64 add/sub (resp. multiply) cannot wrap.
#: The row interpreter uses exact Python ints; rather than reproduce
#: arbitrary precision, the vectorized path falls back outside these.
_MAX_INT_ADD = 2**62
_MAX_INT_MUL = 2**31

MOMENT_AGGREGATES = ("var", "varp", "stdev", "stdevp")


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
                    and bool(np.all(np.abs(value) < _MAX_CAST_INT))
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


def plan_select(select: Select) -> Optional[VectorSelectPlan]:
    """The vector plan for ``select`` (None when ineligible). The executor
    asks once per cached statement and keeps the answer with it."""
    if not isinstance(select.source, TableSource):
        return None
    joins: list[JoinSpec] = []
    for join in select.joins:
        spec = _plan_join(join)
        if spec is None:
            return None
        joins.append(spec)
    if any(item.star for item in select.items):
        return None
    where = None
    if select.where is not None:
        where = compile_vector(select.where)
        if where is None:
            return None

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
                return None
            if node.star:
                if name != "count":
                    return None  # the row path raises the proper error
                specs.append(AggregateSpec(rendered, name, True, node.distinct, None))
                continue
            if len(node.args) != 1 or (node.distinct and name != "count"):
                return None
            arg = compile_vector(node.args[0])
            if arg is None:
                return None
            specs.append(AggregateSpec(rendered, name, False, node.distinct, arg))
        group_by = [compile_vector(expression) for expression in select.group_by]  # type: ignore[misc]
        if any(fn is None for fn in group_by):
            return None
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
        return None
    items: list[tuple[VectorFn, Optional[str]]] = []
    for item in select.items:
        assert item.expression is not None
        fn = compile_vector(item.expression)
        if fn is None:
            return None
        items.append((fn, item.alias.lower() if item.alias else None))
    order: list[tuple[VectorFn, bool]] = []
    for order_item in select.order_by:
        fn = compile_vector(order_item.expression)
        if fn is None:
            return None
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
    """INNER equi-join of row-aligned tiled keys: when both sides lay their
    key columns out alike (:func:`_tiled_alike`), row i of either side holds
    the same key and no key repeats, so row i matches row i and nothing
    else — the interpreter's output order (left rows in order; for each,
    matching right rows in table order) with no key read. Any other join
    raises :class:`VectorFallback`; the row tier answers it."""
    left_cols: list[Optional[np.ndarray]] = []
    right_cols: list[Optional[np.ndarray]] = []
    for key_a, key_b in conjuncts:
        if key_a in left.all_keys and key_b in right.all_keys:
            left_key, right_key = key_a, key_b
        elif key_b in left.all_keys and key_a in right.all_keys:
            left_key, right_key = key_b, key_a
        else:
            raise VectorFallback  # the interpreter would nested-loop this
        left_cols.append(left.columns.get(left_key))
        right_cols.append(right.columns.get(right_key))
    if not _tiled_alike(left_cols, right_cols):
        raise VectorFallback
    return merge_relations(left, right)


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


# -- grouping & aggregation --------------------------------------------------


@dataclass(frozen=True)
class GroupLayout:
    """Rows partitioned into ``n_groups`` groups of ``size`` rows each, in
    first-appearance order: group ``g`` is rows ``g, g + n_groups, g + 2 *
    n_groups, ...`` — column ``g`` of the rows reshaped ``(size, n_groups)``,
    and row ``g`` is its first. With no GROUP BY key the one group is every
    row."""

    n_groups: int
    size: int

    def segments(self, values: np.ndarray) -> np.ndarray:
        """``values`` as one contiguous row per group: ``(n_groups, size)``."""
        return np.ascontiguousarray(values.reshape(self.size, self.n_groups).T)


def group_layout(key_arrays: Sequence[np.ndarray], n_rows: int) -> GroupLayout:
    """Group ``n_rows`` (at least one) rows by their key, in first-appearance
    order, without reading a key value: every row in one group when there is
    no key, else by one tiled key that runs through unique values
    (``repeat == 1``), ``tile`` rows to a value. Any other key raises
    :class:`VectorFallback`; the row tier groups it."""
    if not key_arrays:
        return GroupLayout(1, n_rows)
    tiling = tiling_of(key_arrays[0]) if len(key_arrays) == 1 else None
    if tiling is None or tiling.repeat != 1 or not tiling.unique_base():
        raise VectorFallback
    return GroupLayout(len(tiling.base), tiling.tile)


def aggregate_columns(
    specs: Sequence[AggregateSpec], columns: Sequence[Optional[np.ndarray]], layout: GroupLayout
) -> list[list[Any]]:
    """Per-group results of every aggregate of one statement, bit-identical
    to the accumulators; ``columns[i]`` is the full (filtered) argument of
    ``specs[i]``, None for COUNT(*).

    AVG, float SUM and the variance family take one pass per argument
    array: its step-major ``(size, n_groups)`` reshape (group ``g`` is
    column ``g``, no copy) gives every group's total through
    :func:`ordered_sums`, or total and ``m2`` through
    :func:`ordered_moments` when a variance reads the array, so ``AVG(x),
    STDEV(x)`` share ``x``'s total. The rest go segment by segment
    (:func:`_segment_results`).
    """
    if any(
        values is not None and values.dtype.kind == "b" and spec.name not in ("count", "min", "max")
        for spec, values in zip(specs, columns)
    ):
        raise VectorFallback  # the accumulators reject booleans per row
    variances = {id(values) for spec, values in zip(specs, columns) if spec.name in MOMENT_AGGREGATES}
    passes: dict[int, tuple[list[float], list[float]]] = {}
    answers = []
    for spec, values in zip(specs, columns):
        name = spec.name
        if values is None or name in ("count", "min", "max") or (
            name == "sum" and values.dtype.kind != "f"
        ):
            answers.append(_segment_results(spec, values, layout))
            continue
        if id(values) not in passes:
            steps = values.astype(np.float64, copy=False).reshape(layout.size, layout.n_groups)
            if id(values) in variances:
                total, m2 = ordered_moments(steps)
                passes[id(values)] = total.tolist(), m2.tolist()
            else:
                passes[id(values)] = ordered_sums(steps).tolist(), []
        totals, m2 = passes[id(values)]
        if name == "sum":
            answers.append(totals)
        elif name == "avg":  # starts from 0.0: a total of -0.0 becomes 0.0
            answers.append([(t + 0.0) / layout.size for t in totals])
        else:
            answers.append([moments_result(name, layout.size, v) for v in m2])
    return answers


def _segment_results(
    spec: AggregateSpec, values: Optional[np.ndarray], layout: GroupLayout
) -> list[Any]:
    """Per-group COUNT, MIN, MAX or integer SUM, one group at a time."""
    name = spec.name
    if name == "count":
        if spec.star or not spec.distinct:
            # NULL-free columns: COUNT(expr) counts every row, like COUNT(*).
            return [layout.size] * layout.n_groups
        assert values is not None
        if values.dtype.kind == "f" and np.any(np.isnan(values)):
            raise VectorFallback  # NaN set-identity differs from fresh floats
        return [len(set(segment.tolist())) for segment in layout.segments(values)]
    assert values is not None
    if name == "sum":
        return [sum(segment.tolist()) for segment in layout.segments(values)]  # exact Python int math
    is_float = values.dtype.kind == "f"
    if is_float and np.any(np.isnan(values)):
        raise VectorFallback  # NumPy NaN-poisons; the accumulator does not
    if is_float and np.any(np.signbit(values[values == 0.0])):
        # The accumulator keeps the first of equal values, 0.0 or -0.0;
        # NumPy may return either.
        raise VectorFallback
    extremum = np.min if name == "min" else np.max
    return [extremum(segment).item() for segment in layout.segments(values)]


# -- output schema -----------------------------------------------------------

_KIND_TYPES = {"i": SqlType.INTEGER, "f": SqlType.FLOAT, "b": SqlType.BOOLEAN}


def sql_type_for(array: np.ndarray) -> SqlType:
    """Output column type matching ``_infer_schema`` on the row path."""
    if len(array) == 0:
        return SqlType.FLOAT  # row path defaults to FLOAT with no rows
    return _KIND_TYPES[array.dtype.kind]
