"""Expression evaluation with SQL three-valued logic.

An :class:`EvalContext` supplies column bindings, ``@variable`` bindings,
and the scalar-function registry. NULL propagates through arithmetic and
comparisons; AND/OR/NOT follow Kleene logic (``NULL AND FALSE = FALSE``,
``NULL OR TRUE = TRUE``).
"""

from __future__ import annotations

import math
import re
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from repro.errors import ExecutionError, TypeMismatchError
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
from repro.sqldb.types import SqlType, coerce, is_numeric


@dataclass
class EvalContext:
    """Everything an expression needs to evaluate against one row.

    ``columns`` maps lowercase column names (both bare and qualified, e.g.
    ``"demand"`` and ``"r.demand"``) to values. ``variables`` maps TSQL
    ``@name`` (lowercase, no ``@``) to values. ``functions`` maps lowercase
    function names to Python callables.
    """

    columns: Mapping[str, Any] = field(default_factory=dict)
    variables: Mapping[str, Any] = field(default_factory=dict)
    functions: Mapping[str, Callable[..., Any]] = field(default_factory=dict)

    def lookup_column(self, name: str, qualifier: Optional[str]) -> Any:
        key = f"{qualifier}.{name}".lower() if qualifier else name.lower()
        try:
            return self.columns[key]
        except KeyError:
            pass
        if qualifier is not None and name.lower() in self.columns:
            # Post-projection contexts (ORDER BY over output columns) have
            # lost source qualifiers; fall back to the bare output name.
            return self.columns[name.lower()]
        # A bare name may be stored only in qualified form: accept it when
        # exactly one qualified binding matches.
        if qualifier is None:
            suffix = f".{name.lower()}"
            matches = [k for k in self.columns if k.endswith(suffix)]
            if len(matches) == 1:
                return self.columns[matches[0]]
            if len(matches) > 1:
                raise ExecutionError(f"ambiguous column reference: {name!r}")
        raise ExecutionError(f"unknown column: {key!r}")

    def lookup_variable(self, name: str) -> Any:
        key = name.lower()
        if key not in self.variables:
            raise ExecutionError(f"unbound variable: @{name}")
        return self.variables[key]

    def lookup_function(self, name: str) -> Callable[..., Any]:
        key = name.lower()
        if key not in self.functions:
            raise ExecutionError(f"unknown function: {name!r}")
        return self.functions[key]


def evaluate(expression: Expression, context: EvalContext) -> Any:
    """Evaluate ``expression`` in ``context`` once and return a SQL value.

    The one-shot spelling of ``compile_expression(expression)(context)``.
    """
    return compile_expression(expression)(context)


def is_true(value: Any) -> bool:
    """SQL condition check: NULL and FALSE both reject a row."""
    return value is True


def _require_bool(operator: str, value: Any) -> None:
    if not isinstance(value, bool):
        raise TypeMismatchError(f"{operator} requires boolean operands, got {value!r}")


def _compare(operator: str, left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    if is_numeric(left) and is_numeric(right):
        pass  # numbers compare across int/float freely
    elif isinstance(left, bool) and isinstance(right, bool):
        pass
    elif isinstance(left, str) and isinstance(right, str):
        pass
    else:
        raise TypeMismatchError(f"cannot compare {left!r} with {right!r}")
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
    if operator == ">=":
        return left >= right
    raise ExecutionError(f"unknown comparison operator {operator!r}")


def _arithmetic(operator: str, left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    if not is_numeric(left) or not is_numeric(right):
        raise TypeMismatchError(
            f"arithmetic {operator} requires numbers, got {left!r} and {right!r}"
        )
    if operator == "+":
        return left + right
    if operator == "-":
        return left - right
    if operator == "*":
        return left * right
    if operator == "/":
        if right == 0:
            raise ExecutionError("division by zero")
        if isinstance(left, int) and isinstance(right, int):
            # SQL-style integer division truncates toward zero.
            quotient = abs(left) // abs(right)
            return quotient if (left >= 0) == (right >= 0) else -quotient
        return left / right
    if operator == "%":
        if right == 0:
            raise ExecutionError("modulo by zero")
        if isinstance(left, int) and isinstance(right, int):
            # Remainder of the truncating division: sign follows the dividend.
            remainder = abs(left) % abs(right)
            return remainder if left >= 0 else -remainder
        return math.fmod(left, right)
    raise ExecutionError(f"unknown arithmetic operator {operator!r}")


def _like_to_regex(pattern: str) -> re.Pattern[str]:
    pieces: list[str] = []
    for ch in pattern:
        if ch == "%":
            pieces.append(".*")
        elif ch == "_":
            pieces.append(".")
        else:
            pieces.append(re.escape(ch))
    return re.compile("".join(pieces), re.DOTALL)


# -- compiled expressions ---------------------------------------------------
#
# ``compile_expression`` lowers an Expression tree into a chain of Python
# closures, so the per-node isinstance dispatch and attribute traffic are
# paid once per expression instead of once per row. The closures are the
# only scalar-expression semantics: NULL propagation, Kleene connectives,
# type errors and error messages are defined here and in the ``_compare`` /
# ``_arithmetic`` helpers, and checked against stdlib ``sqlite3`` by
# ``tests/sqldb/test_sqlite_oracle.py``. The executor calls this once per
# (cached) statement and then runs the closure in its filter/projection/
# aggregation loops.

#: Compiled closures, keyed weakly by the (frozen, hashable) AST node. Plan
#: caching keeps hot statements alive, so their closures persist across
#: executions; equal-by-value expressions share one compilation.
_COMPILED_CACHE: "weakref.WeakKeyDictionary[Expression, Callable[[EvalContext], Any]]"
_COMPILED_CACHE = weakref.WeakKeyDictionary()

CompiledExpression = Callable[[EvalContext], Any]


def compile_expression(expression: Expression) -> CompiledExpression:
    """Compile ``expression`` to a closure ``fn(context) -> value``."""
    try:
        cached = _COMPILED_CACHE.get(expression)
    except TypeError:  # unhashable literal payload: compile uncached
        return _compile(expression)
    if cached is None:
        cached = _compile(expression)
        _COMPILED_CACHE[expression] = cached
    return cached


def _compile(node: Expression) -> CompiledExpression:
    if isinstance(node, Literal):
        value = node.value
        return lambda context: value
    if isinstance(node, ColumnRef):
        name, qualifier = node.name, node.qualifier
        key = f"{qualifier}.{name}".lower() if qualifier else name.lower()

        def column_ref(context: EvalContext) -> Any:
            columns = context.columns
            if key in columns:
                return columns[key]
            return context.lookup_column(name, qualifier)

        return column_ref
    if isinstance(node, Variable):
        name = node.name
        return lambda context: context.lookup_variable(name)
    if isinstance(node, UnaryOp):
        return _compile_unary(node)
    if isinstance(node, BinaryOp):
        return _compile_binary(node)
    if isinstance(node, FunctionCall):
        return _compile_call(node)
    if isinstance(node, CaseWhen):
        branches = tuple(
            (_compile(condition), _compile(value)) for condition, value in node.branches
        )
        otherwise = None if node.otherwise is None else _compile(node.otherwise)

        def case_when(context: EvalContext) -> Any:
            for condition, value in branches:
                if condition(context) is True:
                    return value(context)
            if otherwise is not None:
                return otherwise(context)
            return None

        return case_when
    if isinstance(node, Cast):
        operand = _compile(node.operand)
        type_name = node.type_name
        try:
            resolved: Optional[SqlType] = SqlType.from_declaration(type_name)
        except TypeMismatchError:
            resolved = None  # defer the error to evaluation

        def cast(context: EvalContext) -> Any:
            # Operand first, then the type lookup, so a bad column is
            # reported before a bad type name.
            value = operand(context)
            target = resolved if resolved is not None else SqlType.from_declaration(type_name)
            return coerce(value, target)

        return cast
    if isinstance(node, InList):
        operand = _compile(node.operand)
        items = tuple(_compile(item) for item in node.items)
        negated = node.negated

        def in_list(context: EvalContext) -> Any:
            value = operand(context)
            if value is None:
                return None
            saw_null = False
            for item in items:
                candidate = item(context)
                if candidate is None:
                    saw_null = True
                    continue
                if _compare("=", value, candidate) is True:
                    return False if negated else True
            if saw_null:
                return None
            return True if negated else False

        return in_list
    if isinstance(node, Between):
        operand = _compile(node.operand)
        low = _compile(node.low)
        high = _compile(node.high)
        negated = node.negated

        def between(context: EvalContext) -> Any:
            # ``value >= low AND value <= high`` under Kleene logic: a FALSE
            # side decides, whatever the other side's NULL bound.
            value = operand(context)
            low_value = low(context)
            high_value = high(context)
            result = _compare(">=", value, low_value)
            if result is not False:
                below = _compare("<=", value, high_value)
                if below is not True:
                    result = below
            if result is None:
                return None
            return (not result) if negated else result

        return between
    if isinstance(node, IsNull):
        operand = _compile(node.operand)
        negated = node.negated

        def is_null(context: EvalContext) -> Any:
            result = operand(context) is None
            return (not result) if negated else result

        return is_null
    if isinstance(node, Like):
        operand = _compile(node.operand)
        pattern = _compile(node.pattern)
        negated = node.negated
        static_regex = (
            _like_to_regex(node.pattern.value)
            if isinstance(node.pattern, Literal) and isinstance(node.pattern.value, str)
            else None
        )

        def like(context: EvalContext) -> Any:
            value = operand(context)
            pattern_value = pattern(context)
            if value is None or pattern_value is None:
                return None
            if not isinstance(value, str) or not isinstance(pattern_value, str):
                raise TypeMismatchError("LIKE requires text operands")
            regex = static_regex if static_regex is not None else _like_to_regex(pattern_value)
            matched = regex.fullmatch(value) is not None
            return (not matched) if negated else matched

        return like
    raise ExecutionError(f"cannot evaluate expression node {type(node).__name__}")


def _compile_unary(node: UnaryOp) -> CompiledExpression:
    operand = _compile(node.operand)
    operator = node.operator
    if operator.upper() == "NOT":

        def negate(context: EvalContext) -> Any:
            value = operand(context)
            if value is None:
                return None
            if isinstance(value, bool):
                return not value
            raise TypeMismatchError(f"NOT requires a boolean, got {value!r}")

        return negate
    negative = operator == "-"

    def sign(context: EvalContext) -> Any:
        value = operand(context)
        if value is None:
            return None
        if not is_numeric(value):
            raise TypeMismatchError(f"unary {operator} requires a number, got {value!r}")
        return -value if negative else +value

    return sign


def _compile_binary(node: BinaryOp) -> CompiledExpression:
    operator = node.operator.upper()
    left = _compile(node.left)
    right = _compile(node.right)
    if operator == "AND":

        def kleene_and(context: EvalContext) -> Any:
            left_value = left(context)
            if left_value is False:
                return False
            right_value = right(context)
            if right_value is False:
                return False
            if left_value is None or right_value is None:
                return None
            _require_bool("AND", left_value)
            _require_bool("AND", right_value)
            return True

        return kleene_and
    if operator == "OR":

        def kleene_or(context: EvalContext) -> Any:
            left_value = left(context)
            if left_value is True:
                return True
            right_value = right(context)
            if right_value is True:
                return True
            if left_value is None or right_value is None:
                return None
            _require_bool("OR", left_value)
            _require_bool("OR", right_value)
            return False

        return kleene_or
    if operator in ("=", "<>", "<", "<=", ">", ">="):
        return lambda context: _compare(operator, left(context), right(context))
    if operator == "||":

        def concat(context: EvalContext) -> Any:
            left_value = left(context)
            right_value = right(context)
            if left_value is None or right_value is None:
                return None
            if not isinstance(left_value, str) or not isinstance(right_value, str):
                raise TypeMismatchError("|| requires text operands")
            return left_value + right_value

        return concat
    source_operator = node.operator
    return lambda context: _arithmetic(source_operator, left(context), right(context))


def _compile_call(node: FunctionCall) -> CompiledExpression:
    name = node.name
    if node.star:

        def star_call(context: EvalContext) -> Any:
            raise ExecutionError(f"{name}(*) is only valid as an aggregate")

        return star_call
    args = tuple(_compile(arg) for arg in node.args)

    def call(context: EvalContext) -> Any:
        function = context.lookup_function(name)
        return function(*(arg(context) for arg in args))

    return call


def collect_columns(expression: Expression) -> set[str]:
    """Names of all columns referenced by ``expression`` (lowercased,
    qualified form when a qualifier is present)."""
    found: set[str] = set()
    _walk_columns(expression, found)
    return found


def _walk_columns(expression: Expression, found: set[str]) -> None:
    if isinstance(expression, ColumnRef):
        if expression.qualifier:
            found.add(f"{expression.qualifier}.{expression.name}".lower())
        else:
            found.add(expression.name.lower())
    elif isinstance(expression, UnaryOp):
        _walk_columns(expression.operand, found)
    elif isinstance(expression, BinaryOp):
        _walk_columns(expression.left, found)
        _walk_columns(expression.right, found)
    elif isinstance(expression, FunctionCall):
        for arg in expression.args:
            _walk_columns(arg, found)
    elif isinstance(expression, CaseWhen):
        for condition, value in expression.branches:
            _walk_columns(condition, found)
            _walk_columns(value, found)
        if expression.otherwise is not None:
            _walk_columns(expression.otherwise, found)
    elif isinstance(expression, Cast):
        _walk_columns(expression.operand, found)
    elif isinstance(expression, InList):
        _walk_columns(expression.operand, found)
        for item in expression.items:
            _walk_columns(item, found)
    elif isinstance(expression, Between):
        _walk_columns(expression.operand, found)
        _walk_columns(expression.low, found)
        _walk_columns(expression.high, found)
    elif isinstance(expression, (IsNull, Like)):
        _walk_columns(expression.operand, found)
        if isinstance(expression, Like):
            _walk_columns(expression.pattern, found)


def collect_variables(expression: Expression) -> set[str]:
    """Names of all ``@variables`` referenced by ``expression`` (lowercase)."""
    found: set[str] = set()
    _walk_variables(expression, found)
    return found


def _walk_variables(expression: Expression, found: set[str]) -> None:
    if isinstance(expression, Variable):
        found.add(expression.name.lower())
    elif isinstance(expression, UnaryOp):
        _walk_variables(expression.operand, found)
    elif isinstance(expression, BinaryOp):
        _walk_variables(expression.left, found)
        _walk_variables(expression.right, found)
    elif isinstance(expression, FunctionCall):
        for arg in expression.args:
            _walk_variables(arg, found)
    elif isinstance(expression, CaseWhen):
        for condition, value in expression.branches:
            _walk_variables(condition, found)
            _walk_variables(value, found)
        if expression.otherwise is not None:
            _walk_variables(expression.otherwise, found)
    elif isinstance(expression, Cast):
        _walk_variables(expression.operand, found)
    elif isinstance(expression, InList):
        _walk_variables(expression.operand, found)
        for item in expression.items:
            _walk_variables(item, found)
    elif isinstance(expression, Between):
        _walk_variables(expression.operand, found)
        _walk_variables(expression.low, found)
        _walk_variables(expression.high, found)
    elif isinstance(expression, (IsNull, Like)):
        _walk_variables(expression.operand, found)
        if isinstance(expression, Like):
            _walk_variables(expression.pattern, found)
