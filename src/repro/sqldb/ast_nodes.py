"""AST node definitions for SQL expressions and statements.

All nodes are frozen dataclasses. ``Expression.render()`` produces SQL text,
which the Query Generator uses to emit pure SQL — the engine then re-parses
that text, keeping the pipeline honest (no Python objects smuggled past the
SQL boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional


class Expression:
    """Base class for expression AST nodes."""

    def render(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Literal(Expression):
    """A constant: number, string, boolean, or NULL.

    Two literals are equal only when their values have one type and one
    sign: Python's ``7 == 7.0``, ``True == 1`` and ``0.0 == -0.0`` would let
    an equal-by-value AST (a cache key) stand for a statement with another
    answer (``7 / 2`` is ``3``, ``7.0 / 2`` is ``3.5``).
    """

    value: Any

    def _identity(self) -> tuple:
        value = self.value
        if isinstance(value, float):
            return (float, value, math.copysign(1.0, value))
        return (type(value), value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._identity() == other._identity()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._identity())

    def render(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if isinstance(self.value, float):
            return repr(self.value)
        return str(self.value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A column reference, optionally qualified (``t.col``)."""

    name: str
    qualifier: Optional[str] = None

    def render(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name


@dataclass(frozen=True)
class Variable(Expression):
    """A TSQL ``@variable`` — bound from parameters at execution time."""

    name: str

    def render(self) -> str:
        return f"@{self.name}"


@dataclass(frozen=True)
class UnaryOp(Expression):
    """``-x``, ``+x`` or ``NOT x``."""

    operator: str
    operand: Expression

    def render(self) -> str:
        if self.operator.upper() == "NOT":
            return f"(NOT {self.operand.render()})"
        return f"({self.operator}{self.operand.render()})"


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Arithmetic, comparison, or logical binary operation."""

    operator: str
    left: Expression
    right: Expression

    def render(self) -> str:
        return f"({self.left.render()} {self.operator} {self.right.render()})"


@dataclass(frozen=True)
class FunctionCall(Expression):
    """Scalar or aggregate function call.

    ``star`` marks ``COUNT(*)``; ``distinct`` marks ``COUNT(DISTINCT x)``.
    """

    name: str
    args: tuple[Expression, ...] = ()
    star: bool = False
    distinct: bool = False

    def render(self) -> str:
        if self.star:
            return f"{self.name}(*)"
        inner = ", ".join(arg.render() for arg in self.args)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class CaseWhen(Expression):
    """Searched CASE: ``CASE WHEN cond THEN value ... ELSE value END``."""

    branches: tuple[tuple[Expression, Expression], ...]
    otherwise: Optional[Expression] = None

    def render(self) -> str:
        parts = ["CASE"]
        for condition, value in self.branches:
            parts.append(f"WHEN {condition.render()} THEN {value.render()}")
        if self.otherwise is not None:
            parts.append(f"ELSE {self.otherwise.render()}")
        parts.append("END")
        return " ".join(parts)


@dataclass(frozen=True)
class Cast(Expression):
    """``CAST(expr AS TYPE)``."""

    operand: Expression
    type_name: str

    def render(self) -> str:
        return f"CAST({self.operand.render()} AS {self.type_name})"


@dataclass(frozen=True)
class InList(Expression):
    """``expr [NOT] IN (v1, v2, ...)``."""

    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False

    def render(self) -> str:
        inner = ", ".join(item.render() for item in self.items)
        word = "NOT IN" if self.negated else "IN"
        return f"({self.operand.render()} {word} ({inner}))"


@dataclass(frozen=True)
class Between(Expression):
    """``expr [NOT] BETWEEN low AND high`` (inclusive)."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def render(self) -> str:
        word = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"({self.operand.render()} {word} {self.low.render()} AND {self.high.render()})"


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def render(self) -> str:
        word = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.render()} {word})"


@dataclass(frozen=True)
class Like(Expression):
    """``expr [NOT] LIKE pattern`` with ``%``/``_`` wildcards."""

    operand: Expression
    pattern: Expression
    negated: bool = False

    def render(self) -> str:
        word = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.operand.render()} {word} {self.pattern.render()})"


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


class Statement:
    """Base class for statement AST nodes."""


@dataclass(frozen=True)
class SelectItem:
    """One item of a SELECT list: expression plus optional alias.

    ``star`` marks a bare ``*`` (expression is None in that case).
    """

    expression: Optional[Expression]
    alias: Optional[str] = None
    star: bool = False


@dataclass(frozen=True)
class TableFunctionSource:
    """``FROM FnName(arg, ...)`` — a table-generating function source.

    This is the hook through which VG-Functions appear in scenario queries.
    """

    name: str
    args: tuple[Expression, ...]
    alias: Optional[str] = None


@dataclass(frozen=True)
class TableSource:
    """``FROM table_name [AS alias]``."""

    name: str
    alias: Optional[str] = None


@dataclass(frozen=True)
class SubquerySource:
    """``FROM (SELECT ...) AS alias``."""

    query: "Select"
    alias: str


@dataclass(frozen=True)
class Join:
    """One JOIN clause attached to the preceding source."""

    kind: str  # "INNER" | "LEFT" | "CROSS"
    source: "FromSource"
    condition: Optional[Expression] = None  # None only for CROSS


FromSource = TableSource | TableFunctionSource | SubquerySource


@dataclass(frozen=True)
class OrderItem:
    expression: Expression
    descending: bool = False


@dataclass(frozen=True)
class Select(Statement):
    """A full SELECT statement (optionally ``SELECT ... INTO target``)."""

    items: tuple[SelectItem, ...]
    source: Optional[FromSource] = None
    joins: tuple[Join, ...] = ()
    where: Optional[Expression] = None
    group_by: tuple[Expression, ...] = ()
    having: Optional[Expression] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False
    into: Optional[str] = None


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str
    nullable: bool = True


@dataclass(frozen=True)
class CreateTable(Statement):
    name: str
    columns: tuple[ColumnDef, ...]


@dataclass(frozen=True)
class InsertValues(Statement):
    table: str
    columns: tuple[str, ...]  # empty means "all columns in schema order"
    rows: tuple[tuple[Expression, ...], ...]


@dataclass(frozen=True)
class InsertSelect(Statement):
    table: str
    columns: tuple[str, ...]
    query: Select


@dataclass(frozen=True)
class DropTable(Statement):
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class Delete(Statement):
    table: str
    where: Optional[Expression] = None


@dataclass(frozen=True)
class Update(Statement):
    table: str
    assignments: tuple[tuple[str, Expression], ...]
    where: Optional[Expression] = None


@dataclass(frozen=True)
class Script(Statement):
    """A ``;``-separated sequence of statements."""

    statements: tuple[Statement, ...] = field(default_factory=tuple)
