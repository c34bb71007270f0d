"""Differential oracle: both ``sqldb`` execution tiers against stdlib ``sqlite3``.

``test_compiled_parity.py`` pins the vectorized tier to the row path; this
file pins what the two agree *on* to an implementation that shares no code
with either. Each property builds its inputs (a two-table database and one
statement inside ``sqldb``'s dialect), runs the statement through all three
engines, and summarises: the default executor and the
``enable_vectorized=False`` executor must agree bit for bit (values, Python
types, schema), and both must agree with sqlite under the rules below.
Everything is ``derandomize=True``: the same examples run on every host.

Inputs. Every table has a unique ``id`` and a would-be key ``k`` drawn from
four values (nullable in half the tables), so keys repeat, violate
uniqueness and go NULL (the primary-key-violating tables of Koutris &
Wijsen, arXiv 1810.03386); the other columns are INT or FLOAT, nullable or
not, over domains small enough that whole rows repeat apart from ``id``.
Half the databases are NULL-free, which is what lets the vectorized tier
take the statement. The tiled-tables family differs: its ``id`` and ``k``
are the tiled loader's key columns, every ``(id, k)`` of two small bases
(``TILED_DATABASES``), so there ``id`` repeats and no top-k is drawn.
Statement shapes follow the LDBC contest analysis
(arXiv 2010.12243): filter, projection, join-then-aggregate with a HAVING
threshold, and top-k with a tie-breaking key.

Comparison rules
    * ``True``/``False`` from sqldb equal ``1``/``0`` from sqlite; after
      that mapping a value must have the same type (int, float or NULL) and
      compare ``==`` (so ``0.0`` and ``-0.0`` are one value).
    * Results are multisets, unless the ORDER BY ends in a unique key
      (``id``, or every GROUP BY column); then they are sequences, and
      LIMIT/OFFSET only appear in that case.
    * NULLs sort first ascending and last descending on both sides.
    * No NaN or infinity is ever produced (sqlite stores NaN as NULL):
      divisors are non-zero literals. Zero-divisor *error* parity stays with
      ``test_compiled_parity.py::test_division_by_zero_error_parity``.
    * Integer literals and values are bounded (``|v| <= 9``, at most four
      leaves per expression) so no int64 operation overflows, which sqlite
      answers by switching to REAL and sqldb by exact Python integers.
    * Floats are small dyadic rationals (quarters), and inside an aggregate
      argument float divisors are powers of two, so every SUM and AVG is
      exact whatever the summation order and is compared with ``==``.
    * VAR/VARP/STDEV/STDEVP do not exist in sqlite; it gets them through
      ``create_aggregate`` computed exactly over ``fractions.Fraction``, and
      those columns are compared at rel 1e-9. They never appear in HAVING
      or ORDER BY, where a rounding difference would change the row set.
    * Only well-typed statements are generated: sqldb raises
      ``TypeMismatchError`` where sqlite applies type affinity.

Named dialect differences (kept out of the generator on purpose)
    * ``%`` with a FLOAT operand: sqlite casts both operands to INTEGER
      first (``5.5 % 2`` is ``1.0``), sqldb takes ``fmod`` (``1.5``). The
      generator applies ``%`` to INT operands only.
    * A SELECT-list alias is visible to later items of the same list in
      sqldb (Figure 2 relies on it), not in sqlite.
    * A bare column of a grouped SELECT that is not a GROUP BY key: both
      engines pick some row of the group, not necessarily the same one.
    * An integer literal as an ORDER BY key is an output-column position in
      sqlite and a constant in sqldb.

Divergences this oracle found (fixed in ``expressions.py``/``compiled.py``,
pinned by ``test_found_divergences_stay_fixed`` and ``test_expressions.py``)
    * ``-7 % 3`` was ``2`` while ``-7 / 3`` is ``-2``: ``%`` is now the
      remainder of the truncating division, as in sqlite.
    * ``5 NOT BETWEEN NULL AND 3`` was NULL (dropping the row from a WHERE);
      BETWEEN is ``>= low AND <= high`` under Kleene logic, so it is TRUE.
"""

from __future__ import annotations

import math
import re
import sqlite3
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.sqldb import Catalog, Executor
from repro.sqldb.table import tiled_column, tiling_of

# -- build inputs: databases ---------------------------------------------------
#
# Every strategy below is built once at import: composing strategies per
# example costs more than running the three engines.

INT_VALUES = st.integers(min_value=-9, max_value=9)
FLOAT_VALUES = st.integers(min_value=-20, max_value=20).map(lambda k: k / 4)
NONZERO_INTS = INT_VALUES.filter(bool)


@dataclass(frozen=True)
class Column:
    name: str
    kind: str  # "INT" | "FLOAT"
    nullable: bool


@dataclass(frozen=True)
class Tiling:
    """How the tiled loader lays out a table's ``id`` / ``k`` keys: every
    pair of ``ids`` x ``ks``, id-major when ``id_outer``, else k-major."""

    ids: tuple[int, ...]
    ks: tuple[int, ...]
    id_outer: bool

    def keys(self) -> list[tuple[int, int]]:
        if self.id_outer:
            return [(i, k) for i in self.ids for k in self.ks]
        return [(i, k) for k in self.ks for i in self.ids]

    def columns(self) -> list:
        ids, ks = len(self.ids), len(self.ks)
        if self.id_outer:
            return [tiled_column(self.ids, ks, 1), tiled_column(self.ks, 1, ids)]
        return [tiled_column(self.ids, 1, ks), tiled_column(self.ks, ids, 1)]


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple[Column, ...]
    rows: tuple[tuple, ...]
    #: Set for a NULL-free table whose ``id`` / ``k`` load as tiled columns.
    tiling: Optional[Tiling] = None

    def refs(self, kind: str, qualified: bool = False) -> list[str]:
        prefix = f"{self.name}." if qualified else ""
        return [f"{prefix}{c.name}" for c in self.columns if c.kind == kind]


#: One drawn integer per cell (drawing dominates the run time), decoded for
#: whichever column it lands in: NULL one time in four where the column is
#: nullable, else a quarter in [-5, 5], an integer in [-9, 9], or a key in 0..3.
_CELLS = st.integers(min_value=0, max_value=4 * 41 - 1)
_ROW_CELLS = st.tuples(_CELLS, _CELLS, _CELLS, _CELLS)
_BODIES = st.lists(_ROW_CELLS, max_size=10)
_SHAPES = st.tuples(
    st.booleans(),  # k nullable
    st.lists(st.tuples(st.sampled_from(["INT", "FLOAT"]), st.booleans()), min_size=1, max_size=3),
)
#: Whole-row duplicates on top of the ones the small domains give.
_REPEATS = st.lists(st.integers(min_value=0, max_value=9), max_size=3)


def _value(column: Column, cell: int):
    null, quarters = cell % 4 == 0, cell // 4 - 20
    if column.nullable and null:
        return None
    if column.kind == "FLOAT":
        return quarters / 4
    return quarters % 4 if column.name == "k" else quarters % 19 - 9


def _table(draw, name: str, dense: bool) -> Table:
    key_nullable, extra = draw(_SHAPES)
    columns = [Column("id", "INT", False), Column("k", "INT", key_nullable and not dense)]
    for index, (kind, nullable) in enumerate(extra):
        columns.append(Column(f"c{index}", kind, nullable and not dense))

    body = [
        tuple(_value(column, cell) for column, cell in zip(columns[1:], cells))
        for cells in draw(_BODIES)
    ]
    body += [body[index % len(body)] for index in draw(_REPEATS) if body]
    return Table(name, tuple(columns), tuple((i, *row) for i, row in enumerate(body)))


@st.composite
def _databases(draw) -> tuple[Table, Table]:
    dense = draw(st.booleans())
    return _table(draw, "l", dense), _table(draw, "r", dense)


DATABASES = _databases()

#: What is done to an *aligned* pair of tables — same unique ``id`` keys in
#: the same load order — to make its near misses: a key duplicated on
#: either side (the primary-key violations of Koutris & Wijsen), one
#: swapped pair, one missing row, and equal keys in an order that is not
#: increasing. Loaded row by row, none of them says how its keys are laid
#: out, so all go through the general join; the tiled tables below are
#: where the join that reads no key is drawn.
ALIGNMENTS = (
    "aligned",
    "duplicate-left",
    "duplicate-right",
    "swapped-pair",
    "missing-row",
    "equal-unsorted",
)


def _rekeyed(table: Table, ids: list[int]) -> Table:
    return Table(
        table.name,
        table.columns,
        tuple((key, *row[1:]) for key, row in zip(ids, table.rows)),
    )


def misalign(left: Table, right: Table, how: str, at: int) -> tuple[Table, Table]:
    """``how`` applied at row ``at`` of two tables that hold ids ``0..n-1``."""
    n = len(left.rows)
    ids = list(range(n))
    if how == "aligned" or n < 2:
        return left, right
    at = at % (n - 1) + 1  # a row with a predecessor
    if how.startswith("duplicate"):
        ids[at] = ids[at - 1]
        if how == "duplicate-left":
            return _rekeyed(left, ids), right
        return left, _rekeyed(right, ids)
    if how == "swapped-pair":
        ids[at], ids[at - 1] = ids[at - 1], ids[at]
        return left, _rekeyed(right, ids)
    if how == "missing-row":
        return left, Table(right.name, right.columns, right.rows[:at] + right.rows[at + 1 :])
    assert how == "equal-unsorted"
    return _rekeyed(left, ids[::-1]), _rekeyed(right, ids[::-1])


@st.composite
def _aligned_databases(draw) -> tuple[Table, Table]:
    left, right = draw(DATABASES)
    n = min(len(left.rows), len(right.rows))
    left = Table(left.name, left.columns, left.rows[:n])
    right = Table(right.name, right.columns, right.rows[:n])
    return misalign(left, right, draw(st.sampled_from(ALIGNMENTS)), draw(_SLOTS))


ALIGNED_DATABASES = _aligned_databases()

#: Tiled tables, the shape of a point's samples tables: ``id`` and ``k`` are
#: the tiled loader's key columns (``sqldb.table.tiled_column``, every
#: ``(id, k)`` of two small bases, either one outermost), and a base may
#: list a value twice — the key-violating input the tiled join must refuse.
#: The right table's keys are the left's laid out alike, the same bases
#: laid out the other way round, or bases of its own. NULL-free throughout.
_TILED_IDS = st.one_of(
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=4, unique=True),
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=4),
)
_TILED_KS = st.one_of(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3, unique=True),
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
)
_TILED_RIGHT = st.sampled_from(["alike", "alike", "alike", "transposed", "own"])


def _tiling(draw) -> Tiling:
    return Tiling(tuple(draw(_TILED_IDS)), tuple(draw(_TILED_KS)), draw(st.booleans()))


def _tiled_table(draw, name: str, tiling: Tiling) -> Table:
    _, extra = draw(_SHAPES)
    columns = (
        Column("id", "INT", False),
        Column("k", "INT", False),
        *(Column(f"c{index}", kind, False) for index, (kind, _) in enumerate(extra)),
    )
    keys = tiling.keys()
    cells = draw(st.lists(_ROW_CELLS, min_size=len(keys), max_size=len(keys)))
    rows = tuple(
        (*key, *(_value(column, cell) for column, cell in zip(columns[2:], row)))
        for key, row in zip(keys, cells)
    )
    return Table(name, columns, rows, tiling)


@st.composite
def _tiled_databases(draw) -> tuple[Table, Table]:
    left = _tiling(draw)
    how = draw(_TILED_RIGHT)
    if how == "alike":
        right = left
    elif how == "transposed":
        right = Tiling(left.ids, left.ks, not left.id_outer)
    else:
        right = _tiling(draw)
    return _tiled_table(draw, "l", left), _tiled_table(draw, "r", right)


TILED_DATABASES = _tiled_databases()

# -- build inputs: expressions ----------------------------------------------------
#
# Expressions are SQL text, fully parenthesised, over the placeholders ``@i``
# (some INT column) and ``@f`` (some FLOAT column); ``_bind`` picks the
# columns once the table is known.


def _literal(value) -> str:
    if value is None:
        return "NULL"
    return f"({value!r})" if value < 0 else repr(value)


def _binary(left, operators, right):
    return st.builds("({} {} {})".format, left, st.sampled_from(operators), right)


def _negated(operand):
    return st.builds("(-{})".format, operand)


INT_EXPRS = st.recursive(
    st.one_of(INT_VALUES.map(_literal), st.just("@i")),
    lambda children: st.one_of(
        _binary(children, "+-*", children),
        _binary(children, "/%", NONZERO_INTS.map(_literal)),
        _negated(children),
    ),
    max_leaves=4,
)


def _float_exprs(exact: bool):
    leaves = st.one_of(
        FLOAT_VALUES.map(_literal), st.just("@f"), st.builds("CAST({} AS FLOAT)".format, INT_EXPRS)
    )
    other = st.one_of(leaves, INT_EXPRS)
    divisors = (
        st.sampled_from([2, -2, 4, 0.5, -0.25])
        if exact
        else st.one_of(NONZERO_INTS, FLOAT_VALUES.filter(bool))
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            _binary(children, "+-*", other),
            _binary(other, "+-*", children),
            _binary(children, "/", divisors.map(_literal)),
            _negated(children),
        ),
        max_leaves=3,
    )


FLOAT_EXPRS = _float_exprs(exact=False)
NUMERIC_EXPRS = st.one_of(INT_EXPRS, FLOAT_EXPRS)
#: Aggregate arguments: every value is a dyadic rational.
EXACT_EXPRS = st.one_of(INT_EXPRS, _float_exprs(exact=True))

_NEGATION = st.sampled_from(["", "NOT "])
_BOUNDS = st.one_of(NUMERIC_EXPRS, NUMERIC_EXPRS, st.just("NULL"))
_IN_ITEMS = st.lists(
    st.one_of(INT_VALUES, FLOAT_VALUES, st.none()).map(_literal), min_size=1, max_size=4
).map(", ".join)
_COMPARISONS = ["=", "<>", "<", "<=", ">", ">="]
BOOL_EXPRS = st.recursive(
    st.one_of(
        _binary(NUMERIC_EXPRS, _COMPARISONS, NUMERIC_EXPRS),
        st.builds("({} {}BETWEEN {} AND {})".format, NUMERIC_EXPRS, _NEGATION, _BOUNDS, _BOUNDS),
        st.builds("({} {}IN ({}))".format, NUMERIC_EXPRS, _NEGATION, _IN_ITEMS),
        st.builds("({} IS {}NULL)".format, NUMERIC_EXPRS, _NEGATION),
    ),
    lambda children: st.one_of(
        _binary(children, ["AND", "OR"], children),
        st.builds("(NOT {})".format, children),
    ),
    max_leaves=3,
)


def _case_exprs(values):
    branches = st.lists(
        st.builds("WHEN {} THEN {}".format, BOOL_EXPRS, values), min_size=1, max_size=2
    )
    otherwise = st.one_of(st.just(""), st.builds(" ELSE {}".format, values))
    return st.builds("CASE {}{} END".format, branches.map(" ".join), otherwise)


ANY_EXPRS = st.one_of(
    NUMERIC_EXPRS, BOOL_EXPRS, _case_exprs(INT_EXPRS), _case_exprs(FLOAT_EXPRS)
)
WHERE_CLAUSES = st.one_of(st.just(""), st.builds(" WHERE {}".format, BOOL_EXPRS))

_SLOTS = st.integers(min_value=0, max_value=11)


def _bind(draw, template: str, ints: list[str], floats: list[str]) -> str:
    """Replace each ``@i``/``@f`` by a column (a literal if the kind is absent)."""

    def column(match) -> str:
        pool, missing = (ints, "1") if match.group() == "@i" else (floats, "0.75")
        return pool[draw(_SLOTS) % len(pool)] if pool else missing

    return re.sub("@[if]", column, template)


# -- build inputs: statements ---------------------------------------------------


@dataclass(frozen=True)
class Statement:
    sql: str
    ordered: bool = False  # ORDER BY ends in a unique key: compare as sequences
    approximate: frozenset = frozenset()  # output positions compared at rel 1e-9
    setup: tuple[str, ...] = ()  # INSERT/UPDATE/DELETE run first, on every engine


_DIRECTIONS = st.sampled_from(["", " ASC", " DESC"])
_LIMITS = st.one_of(
    st.just(""),
    st.builds(" LIMIT {}".format, st.integers(min_value=0, max_value=6)),
    st.builds(
        " LIMIT {} OFFSET {}".format,
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=4),
    ),
)


def _aliased(expressions: list[str]) -> str:
    return ", ".join(f"{e} AS e{index}" for index, e in enumerate(expressions))


def _order_by(draw, keys: list[str]) -> str:
    """`` ORDER BY keys... [LIMIT [OFFSET]]``; the last key must be unique."""
    return " ORDER BY " + ", ".join(key + draw(_DIRECTIONS) for key in keys) + draw(_LIMITS)


def filters(draw, database) -> Statement:
    table = database[0]
    columns = ", ".join(c.name for c in table.columns[1:])
    template = f"SELECT {columns} FROM l WHERE {draw(BOOL_EXPRS)}"
    return Statement(_bind(draw, template, table.refs("INT"), table.refs("FLOAT")))


_ITEMS = st.lists(ANY_EXPRS, min_size=1, max_size=3)


def projections(draw, database) -> Statement:
    table = database[0]
    template = f"SELECT {_aliased(draw(_ITEMS))} FROM l{draw(WHERE_CLAUSES)}"
    return Statement(_bind(draw, template, table.refs("INT"), table.refs("FLOAT")))


#: ORDER BY keys: expressions, columns, the first output alias. Not a bare
#: integer literal, which sqlite reads as an output-column position.
_ORDER_KEYS = st.lists(
    st.one_of(ANY_EXPRS, st.sampled_from(["e0", "@i", "@f"])).filter(
        lambda key: not re.fullmatch(r"[-()\d]+", key)
    ),
    max_size=2,
)


def orderings(draw, database) -> Statement:
    """Top-k: ORDER BY expressions, columns and aliases; ``id`` breaks ties."""
    table = database[0]
    template = (
        f"SELECT {_aliased(draw(_ITEMS))} FROM l{draw(WHERE_CLAUSES)}"
        + _order_by(draw, [*draw(_ORDER_KEYS), "id"])
    )
    return Statement(_bind(draw, template, table.refs("INT"), table.refs("FLOAT")), ordered=True)


_MOMENTS = ("VAR", "VARP", "STDEV", "STDEVP")
_AGGREGATES = st.lists(
    st.one_of(
        st.just("COUNT(*)"),
        st.builds(
            "{}({})".format,
            st.sampled_from(["COUNT", "SUM", "AVG", "MIN", "MAX", *_MOMENTS]),
            EXACT_EXPRS,
        ),
        st.builds("COUNT(DISTINCT {})".format, EXACT_EXPRS),
    ),
    min_size=1,
    max_size=4,
)
_HAVINGS = st.one_of(
    st.just(""),
    st.builds(" HAVING COUNT(*) >= {}".format, st.integers(min_value=0, max_value=4)),
    st.builds(
        " HAVING {}({}) {} {}".format,
        st.sampled_from(["SUM", "AVG", "MIN", "MAX", "COUNT"]),
        EXACT_EXPRS,
        st.sampled_from(_COMPARISONS),
        st.one_of(INT_VALUES, FLOAT_VALUES).map(_literal),
    ),
    st.builds(" HAVING COUNT(DISTINCT {}) {}BETWEEN 1 AND 2".format, EXACT_EXPRS, _NEGATION),
)
_KEY_PICKS = st.lists(_SLOTS, max_size=2)
_ALIAS_PICKS = st.lists(_SLOTS, max_size=2)


def _grouped(draw, source: str, columns: list[str], ints, floats) -> Statement:
    """``SELECT keys, aggregates FROM source [WHERE] [GROUP BY keys [HAVING]]``."""
    keys = list(dict.fromkeys(columns[pick % len(columns)] for pick in draw(_KEY_PICKS)))
    calls = draw(_AGGREGATES)
    moments = [index for index, call in enumerate(calls) if call.startswith(_MOMENTS)]
    items = [f"{key} AS g{index}" for index, key in enumerate(keys)]
    items += [f"{call} AS a{index}" for index, call in enumerate(calls)]
    template = f"SELECT {', '.join(items)} FROM {source}{draw(WHERE_CLAUSES)}"
    if keys:  # sqlite before 3.39 rejects HAVING without GROUP BY
        template += f" GROUP BY {', '.join(keys)}{draw(_HAVINGS)}"
    # Every GROUP BY column closes the ORDER BY, so the key is unique per
    # output row; a global aggregate has one row and needs no order at all.
    ordered = bool(keys) and draw(st.booleans())
    if ordered:
        exact = [f"a{index}" for index in range(len(calls)) if index not in moments]
        leading = [exact[pick % len(exact)] for pick in draw(_ALIAS_PICKS) if exact]
        template += _order_by(draw, [*leading, *(f"g{index}" for index in range(len(keys)))])
    approximate = frozenset(len(keys) + index for index in moments)
    return Statement(_bind(draw, template, ints, floats), ordered, approximate)


def groupings(draw, database) -> Statement:
    table = database[0]
    columns = [c.name for c in table.columns[1:]]
    return _grouped(draw, "l", columns, table.refs("INT"), table.refs("FLOAT"))


_JOIN_KINDS = st.sampled_from(["JOIN", "INNER JOIN", "LEFT JOIN", "LEFT OUTER JOIN"])
#: Second equi-join column per side, if any — INT against FLOAT included.
_SECOND_KEYS = st.one_of(st.none(), st.tuples(_SLOTS, _SLOTS))
_JOIN_ITEMS = st.lists(st.one_of(st.sampled_from(["@i", "@f"]), ANY_EXPRS), min_size=1, max_size=3)


def joins(draw, database, top_k: bool = True) -> Statement:
    """Inner and LEFT equi-joins on the repeating, NULL-bearing ``k``; plain,
    top-k by ``(l.id, r.id)`` (where ``id`` is unique: ``top_k``), or
    grouped (join-then-aggregate)."""
    left, right = database
    ints = left.refs("INT", True) + right.refs("INT", True)
    floats = left.refs("FLOAT", True) + right.refs("FLOAT", True)
    condition = "l.k = r.k"
    second = draw(_SECOND_KEYS)
    if second is not None:
        ours, theirs = left.columns[2:], right.columns[2:]
        ours, theirs = ours[second[0] % len(ours)], theirs[second[1] % len(theirs)]
        condition += f" AND l.{ours.name} = r.{theirs.name}"
    source = f"l l {draw(_JOIN_KINDS)} r r ON {condition}"
    if draw(st.booleans()):
        return _grouped(draw, source, ints + floats, ints, floats)
    template = f"SELECT {_aliased(draw(_JOIN_ITEMS))} FROM {source}{draw(WHERE_CLAUSES)}"
    ordered = top_k and draw(st.booleans())
    if ordered:
        # (l.id, r.id) is unique: an unmatched left row appears once, with NULL.
        template += _order_by(draw, ["l.id", "r.id"])
    return Statement(_bind(draw, template, ints, floats), ordered)


def aligned_joins(draw, database) -> Statement:
    """Equi-joins on the load-ordered ``id`` (and sometimes ``k`` as well):
    plain, or join-then-aggregate. ``id`` may repeat here, so every result
    is compared as a multiset."""
    condition = "l.id = r.id" + draw(st.sampled_from(["", " AND l.k = r.k"]))
    return _join_on(draw, database, f"l l {draw(_JOIN_KINDS)} r r ON {condition}")


def _join_on(draw, database, source: str, items=_JOIN_ITEMS) -> Statement:
    """Plain or join-then-aggregate over ``source``, compared as a multiset."""
    left, right = database
    ints = left.refs("INT", True) + right.refs("INT", True)
    floats = left.refs("FLOAT", True) + right.refs("FLOAT", True)
    if draw(st.booleans()):
        return _grouped(draw, source, ints + floats, ints, floats)
    template = f"SELECT {_aliased(draw(items))} FROM {source}{draw(WHERE_CLAUSES)}"
    return Statement(_bind(draw, template, ints, floats))


_KEY_PAIRS = st.sampled_from(
    ["l.id = r.id AND l.k = r.k", "r.k = l.k AND l.id = r.id", "l.k = r.k AND r.id = l.id"]
)


#: Select items the vectorized tier takes: columns and arithmetic.
_NUMERIC_ITEMS = st.lists(
    st.one_of(st.sampled_from(["@i", "@f"]), NUMERIC_EXPRS), min_size=1, max_size=3
)


def keyed_joins(draw, database) -> Statement:
    """The combine's join: INNER, on both ``id`` and ``k``, in any order."""
    return _join_on(draw, database, f"l l JOIN r r ON {draw(_KEY_PAIRS)}", _NUMERIC_ITEMS)


def keyed_aggregates(draw, database) -> Statement:
    """The aggregate query's shape: aggregates per ``k`` (or ``id``) over a
    whole table, ordered by the key."""
    table = database[0]
    key = draw(st.sampled_from(["k", "k", "id"]))
    calls = draw(_AGGREGATES)
    items = ", ".join([f"{key} AS g0", *(f"{call} AS a{index}" for index, call in enumerate(calls))])
    approximate = frozenset(1 + index for index, call in enumerate(calls) if call.startswith(_MOMENTS))
    template = f"SELECT {items} FROM l GROUP BY {key} ORDER BY g0"
    return Statement(_bind(draw, template, table.refs("INT"), table.refs("FLOAT")), True, approximate)


def modification(draw, database) -> str:
    """One INSERT, UPDATE or DELETE on either table, keys included."""
    table = database[draw(st.integers(min_value=0, max_value=1))]
    key = draw(st.sampled_from(["id", "k"]))
    kind = draw(st.sampled_from(["INSERT", "UPDATE", "DELETE"]))
    if kind == "UPDATE":
        shift, week = draw(st.integers(min_value=1, max_value=2)), draw(_TILED_KS)[0]
        return f"UPDATE {table.name} SET {key} = {key} + {shift} WHERE k = {week}"
    if kind == "DELETE":
        return f"DELETE FROM {table.name} WHERE {key} = {draw(_TILED_IDS)[0]}"
    values = [draw(_TILED_IDS)[0], draw(_TILED_KS)[0]]
    values += [_value(column, draw(_CELLS)) for column in table.columns[2:]]
    return f"INSERT INTO {table.name} VALUES ({', '.join(map(_literal, values))})"


#: Weighted toward the statements a tiled table changes: joins on both
#: keys and GROUP BY a key; ``id`` repeats in a tiled table, so no top-k.
_TILED_FAMILIES = st.sampled_from(
    [
        filters,
        groupings,
        keyed_aggregates,
        aligned_joins,
        keyed_joins,
        keyed_joins,
        lambda draw, database: joins(draw, database, top_k=False),
    ]
)
_MODIFICATIONS = st.sampled_from([0, 0, 0, 1, 2])


def tiled(draw, database) -> Statement:
    """The filter, group and join families over tiled tables, after zero to
    two modifications."""
    statement = draw(_TILED_FAMILIES)(draw, database)
    setup = tuple(modification(draw, database) for _ in range(draw(_MODIFICATIONS)))
    return Statement(statement.sql, statement.ordered, statement.approximate, setup)


# -- run all methods -------------------------------------------------------------


class _Moments:
    """VAR/VARP/STDEV/STDEVP for sqlite, exact over ``Fraction``."""

    sample: bool
    root: bool

    def __init__(self) -> None:
        self.values: list[Fraction] = []

    def step(self, value) -> None:
        if value is not None:
            self.values.append(Fraction(value))

    def finalize(self):
        count = len(self.values)
        if count < (2 if self.sample else 1):
            return None
        mean = sum(self.values) / count
        squares = sum((value - mean) ** 2 for value in self.values)
        variance = squares / (count - 1 if self.sample else count)
        return math.sqrt(variance) if self.root else float(variance)


_MOMENT_CLASSES = {
    name: type(
        name, (_Moments,), {"sample": not name.endswith("P"), "root": name.startswith("STDEV")}
    )
    for name in _MOMENTS
}


def _sqlite(database) -> sqlite3.Connection:
    connection = sqlite3.connect(":memory:")
    for name, aggregate in _MOMENT_CLASSES.items():
        connection.create_aggregate(name, 1, aggregate)
    for table in database:
        declared = ", ".join(f"{c.name} {c.kind}" for c in table.columns)
        connection.execute(f"CREATE TABLE {table.name} ({declared})")
        marks = ", ".join("?" * len(table.columns))
        connection.executemany(f"INSERT INTO {table.name} VALUES ({marks})", table.rows)
    return connection


def _sqldb(database, **options) -> Executor:
    executor = Executor(Catalog(), **options)
    for table in database:
        declared = ", ".join(
            f"{c.name} {c.kind}{'' if c.nullable else ' NOT NULL'}" for c in table.columns
        )
        executor.execute(f"CREATE TABLE {table.name} ({declared})")
        if table.tiling is None:
            executor.catalog.table(table.name).insert_many(table.rows)
            continue
        extras = [
            np.array([row[index] for row in table.rows], dtype=np.int64 if c.kind == "INT" else np.float64)
            for index, c in enumerate(table.columns[2:], start=2)
        ]
        executor.catalog.table(table.name).load_columnar(table.tiling.columns() + extras)
    return executor


def _outcome(executor: Executor, sql: str, setup: tuple[str, ...] = ()):
    """Everything observable about one execution, for bit-for-bit comparison."""
    try:
        for statement in setup:
            executor.execute(statement)
        result = executor.execute(sql)
    except Exception as error:  # noqa: BLE001 - reported through the comparison
        return ("error", type(error).__name__, str(error))
    return (
        "ok",
        result.rows,
        [tuple(type(v) for v in row) for row in result.rows],
        result.schema.names,
        tuple(column.sql_type for column in result.schema.columns),
    )


def run_all(database, sql: str, setup: tuple[str, ...] = ()):
    """``(default tier, row tier, sqlite rows)`` for one statement, each
    engine running ``setup`` first."""
    fast = _outcome(_sqldb(database), sql, setup)
    rows = _outcome(_sqldb(database, plan_cache_size=0, enable_vectorized=False), sql, setup)
    connection = _sqlite(database)
    try:
        for statement in setup:
            connection.execute(statement)
        expected = connection.execute(sql).fetchall()
    finally:
        connection.close()
    return fast, rows, expected


# -- summarise ---------------------------------------------------------------------


def _same(actual, expected, approximate: bool) -> bool:
    if isinstance(actual, bool):
        actual = int(actual)
    if actual is None or expected is None:
        return actual is expected
    if type(actual) is not type(expected):
        return False
    if approximate:
        return actual == pytest.approx(expected, rel=1e-9, abs=1e-12)
    return actual == expected


def _multiset_order(rows, approximate):
    """Canonical order of a multiset: by the exact columns, NULLs first."""
    exact = [i for i in range(len(rows[0])) if i not in approximate] if rows else []
    return sorted(rows, key=lambda row: [(row[i] is not None, row[i] or 0) for i in exact])


def check(database, statement: Statement) -> None:
    fast, rows, expected = run_all(database, statement.sql, statement.setup)
    context = "\n".join((*statement.setup, statement.sql)) + "\n" + "\n".join(
        f"{t.name}{t.columns}: {t.rows}" for t in database
    )
    assert fast == rows, f"tiers disagree\n{context}\nfast {fast}\nrows {rows}"
    assert fast[0] == "ok", f"sqldb raised, sqlite answered {expected}\n{context}\n{fast}"
    actual = fast[1]
    if not statement.ordered:
        actual = _multiset_order(actual, statement.approximate)
        expected = _multiset_order(expected, statement.approximate)
    assert len(actual) == len(expected) and all(
        _same(ours, theirs, position in statement.approximate)
        for our_row, their_row in zip(actual, expected)
        for position, (ours, theirs) in enumerate(zip(our_row, their_row))
    ), f"sqldb differs from sqlite\n{context}\nsqldb  {actual}\nsqlite {expected}"


def _oracle(build, databases=DATABASES, examples=100):
    """Property over the ``(database, statement)`` cases of one statement family."""

    @st.composite
    def cases(draw):
        database = draw(databases)
        return database, build(draw, database)

    # No shrink phase: inputs are small by construction and the failure
    # message carries the statement, the tables and both answers, while
    # shrinking these recursive strategies runs to hypothesis's five-minute
    # cap per test.
    return lambda test: settings(
        max_examples=examples, deadline=None, derandomize=True, phases=(Phase.generate,)
    )(given(case=cases())(test))


@_oracle(filters)
def test_filter_matches_sqlite(case):
    check(*case)


@_oracle(projections)
def test_projection_matches_sqlite(case):
    check(*case)


@_oracle(groupings)
def test_group_by_having_matches_sqlite(case):
    check(*case)


@_oracle(joins)
def test_joins_match_sqlite(case):
    check(*case)


@_oracle(orderings)
def test_order_limit_offset_matches_sqlite(case):
    check(*case)


@_oracle(aligned_joins, ALIGNED_DATABASES)
def test_aligned_joins_and_their_near_misses_match_sqlite(case):
    check(*case)


@_oracle(tiled, TILED_DATABASES, examples=200)
def test_tiled_tables_match_sqlite(case):
    check(*case)


_IDS, _REPEATED_IDS, _KS = (3, 0, 5), (3, 0, 3), (0, 1)
_ID_MAJOR, _K_MAJOR = Tiling(_IDS, _KS, True), Tiling(_IDS, _KS, False)

#: ``(left keys, right keys, modifications, whether the tiled join answers)``.
TILED_CASES = {
    "alike": (_ID_MAJOR, _ID_MAJOR, (), True),
    "alike-k-major": (_K_MAJOR, _K_MAJOR, (), True),
    "duplicate-left": (Tiling(_REPEATED_IDS, _KS, True), _ID_MAJOR, (), False),
    "duplicate-right": (_ID_MAJOR, Tiling(_REPEATED_IDS, _KS, True), (), False),
    "duplicate-both": (Tiling(_REPEATED_IDS, _KS, True), Tiling(_REPEATED_IDS, _KS, True), (), False),
    "tiled-differently": (_ID_MAJOR, _K_MAJOR, (), False),
    "inserted": (_ID_MAJOR, _ID_MAJOR, ("INSERT INTO l VALUES (9, 1, 2, 0.5)",), False),
    "updated": (_ID_MAJOR, _ID_MAJOR, ("UPDATE l SET c0 = c0 + 1 WHERE k = 1",), False),
    "deleted": (_ID_MAJOR, _ID_MAJOR, ("DELETE FROM r WHERE id = 5",), False),
}


def _pinned_tiled(name: str, tiling: Tiling) -> Table:
    columns = (
        Column("id", "INT", False),
        Column("k", "INT", False),
        Column("c0", "INT", False),
        Column("c1", "FLOAT", False),
    )
    rows = tuple((i, k, i * k - 3, (i - k) / 4) for i, k in tiling.keys())
    return Table(name, columns, rows, tiling)


@pytest.mark.parametrize("how", sorted(TILED_CASES))
def test_the_aligned_shortcut_is_taken_and_refused(how):
    """Tables loaded like a point's samples tables join row by row without
    matching a code. A world id listed twice on either side or both, the
    same bases tiled the other way round, and any INSERT/UPDATE/DELETE
    (which makes the table's keys plain columns again) go through the
    general join — and either way the answer is sqlite's."""
    from unittest import mock

    from repro.sqldb import compiled

    left, right, setup, taken = TILED_CASES[how]
    database = (_pinned_tiled("l", left), _pinned_tiled("r", right))
    statement = Statement(
        "SELECT l.id AS e0, l.k AS e1, l.c0 + r.c1 AS e2 FROM l l JOIN r r ON l.id = r.id AND l.k = r.k",
        setup=setup,
    )
    check(database, statement)
    fast = _sqldb(database)
    for modification_sql in setup:
        fast.execute(modification_sql)
    with mock.patch.object(compiled, "_match_codes", wraps=compiled._match_codes) as matched:
        fast.execute(statement.sql)
    assert fast.stats.vectorized_selects == 1
    assert matched.call_count == (0 if taken else 1)
    modified = {re.match(r"(INSERT INTO|UPDATE|DELETE FROM) (\w+)", sql)[2] for sql in setup}
    for table in database:
        keys = fast.catalog.table(table.name).columnar_view().arrays
        described = [tiling_of(keys[name]) is not None for name in ("id", "k")]
        assert described == [table.name not in modified] * 2


# -- pinned cases ---------------------------------------------------------------------

_PINNED = (
    Table(
        "l",
        (
            Column("id", "INT", False),
            Column("k", "INT", True),
            Column("c0", "INT", False),
            Column("c1", "FLOAT", True),
        ),
        ((0, 1, -7, 0.5), (1, None, 7, None), (2, 1, -7, 0.5), (3, 3, 5, -2.25), (4, 0, 0, 1.0)),
    ),
    Table(
        "r",
        (Column("id", "INT", False), Column("k", "INT", True), Column("c0", "FLOAT", False)),
        ((0, 1, 1.5), (1, 1, -7.0), (2, None, 2.0), (3, 2, 0.25)),
    ),
)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT id, c0 % 3 AS a, c0 % (-3) AS b, (c0 / 3) * 3 + c0 % 3 AS c FROM l",
        "SELECT id FROM l WHERE 5 NOT BETWEEN k AND 3",
        "SELECT id, c0 BETWEEN k AND 6 AS a, c0 NOT BETWEEN (-8) AND k AS b FROM l",
        "SELECT id, c1 BETWEEN NULL AND 0.75 AS a, c1 NOT BETWEEN 1.0 AND NULL AS b FROM l",
    ],
)
def test_found_divergences_stay_fixed(sql):
    check(_PINNED, Statement(sql + " ORDER BY id", ordered=True))


def test_each_family_reaches_the_vectorized_tier():
    """The oracle is only worth its name if the tier under test runs: on
    NULL-free tables one statement of every family takes the columnar path."""
    dense = tuple(
        Table(t.name, t.columns, tuple(row for row in t.rows if None not in row)) for t in _PINNED
    )
    statements = [
        Statement("SELECT k, c0 FROM l WHERE (c0 % 3) <> 0 AND c1 NOT BETWEEN 0.75 AND 2"),
        Statement("SELECT c1 / 3 AS e0, CASE WHEN c0 IN (5, 0) THEN c1 ELSE -c1 END AS e1 FROM l"),
        Statement(
            "SELECT k AS g0, COUNT(DISTINCT c0) AS a0, SUM(c1) AS a1, STDEVP(c1) AS a2 FROM l"
            " GROUP BY k HAVING COUNT(*) >= 1 ORDER BY a1 DESC, g0",
            ordered=True,
            approximate=frozenset({3}),
        ),
        Statement("SELECT l.id AS e0, r.c0 AS e1 FROM l l JOIN r r ON l.k = r.k AND l.c0 = r.c0"),
        Statement("SELECT c0 AS e0 FROM l ORDER BY c1 DESC, id LIMIT 2 OFFSET 1", ordered=True),
    ]
    fast = _sqldb(dense)
    for statement in statements:
        check(dense, statement)
        fast.execute(statement.sql)
    assert fast.stats.vectorized_selects == len(statements)
    assert fast.stats.fallback_selects == 0
