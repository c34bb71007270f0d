"""Property tests: vectorized execution == row-at-a-time execution.

The vectorized columnar path is a pure optimization — every observable (row
values, Python value *types*, schema, raised error type and message) must
match the row path bit for bit. These tests generate random expressions and
random tables and cross-check a fast executor (plan cache + vectorized)
against a reference executor with both turned off, which runs every
statement through the ``compile_expression`` closures row by row. What the
two agree *on* is checked against sqlite in ``test_sqlite_oracle.py``.
"""

from __future__ import annotations

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqldb import Catalog, Executor, compile_expression, expressions, parse_expression
from repro.sqldb.ast_nodes import (
    Between,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    InList,
    IsNull,
    Literal,
    UnaryOp,
)
from repro.sqldb.expressions import EvalContext, evaluate
from repro.sqldb.table import tiled_column

# -- random expression grammars ---------------------------------------------

_INT_COLUMNS = ("g", "v")
_FLOAT_COLUMNS = ("x",)

_numeric_leaf = st.one_of(
    st.integers(min_value=-50, max_value=50).map(Literal),
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False).map(Literal),
    st.sampled_from(_INT_COLUMNS + _FLOAT_COLUMNS).map(ColumnRef),
)


def _numeric_nodes(children):
    safe_ops = st.sampled_from(["+", "-", "*"])
    return st.one_of(
        st.tuples(safe_ops, children, children).map(
            lambda t: BinaryOp(t[0], t[1], t[2])
        ),
        # Division included deliberately: divisor may hit zero, and then the
        # fast path must raise the interpreter's exact error.
        st.tuples(children, children).map(
            lambda t: BinaryOp("/", t[0], t[1])
        ),
        children.map(lambda e: UnaryOp("-", e)),
    )


numeric_exprs = st.recursive(_numeric_leaf, _numeric_nodes, max_leaves=8)

# Division-free numerics for lazily evaluated positions (CASE branches):
# the row path only evaluates the taken branch, so an eager error would be
# a real semantic divergence, not just a different message.
_safe_numeric = st.recursive(
    _numeric_leaf,
    lambda children: st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*"]), children, children).map(
            lambda t: BinaryOp(t[0], t[1], t[2])
        ),
        children.map(lambda e: UnaryOp("-", e)),
    ),
    max_leaves=6,
)


def _bool_nodes(children):
    comparisons = st.tuples(
        st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
        _safe_numeric,
        _safe_numeric,
    ).map(lambda t: BinaryOp(t[0], t[1], t[2]))
    return st.one_of(
        comparisons,
        st.tuples(st.sampled_from(["AND", "OR"]), children, children).map(
            lambda t: BinaryOp(t[0], t[1], t[2])
        ),
        children.map(lambda e: UnaryOp("NOT", e)),
        st.tuples(_safe_numeric, _safe_numeric, _safe_numeric, st.booleans()).map(
            lambda t: Between(t[0], t[1], t[2], negated=t[3])
        ),
        st.tuples(
            _safe_numeric,
            st.lists(
                st.integers(min_value=-20, max_value=20).map(Literal),
                min_size=1,
                max_size=4,
            ),
            st.booleans(),
        ).map(lambda t: InList(t[0], tuple(t[1]), negated=t[2])),
        _safe_numeric.map(lambda e: IsNull(e)),
    )


bool_exprs = st.recursive(
    st.tuples(
        st.sampled_from(["=", "<", ">="]), _numeric_leaf, _numeric_leaf
    ).map(lambda t: BinaryOp(t[0], t[1], t[2])),
    _bool_nodes,
    max_leaves=8,
)

case_exprs = st.tuples(bool_exprs, _safe_numeric, _safe_numeric).map(
    lambda t: CaseWhen(branches=((t[0], t[1]),), otherwise=t[2])
)

# -- random tables -----------------------------------------------------------

dense_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=-100, max_value=100),
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    ),
    min_size=0,
    max_size=40,
)

sparse_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.one_of(st.none(), st.integers(min_value=-100, max_value=100)),
        st.one_of(
            st.none(), st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
        ),
    ),
    min_size=0,
    max_size=30,
)


def _pair(rows):
    """A (fast, reference) executor pair over identical tables."""
    fast = Executor(Catalog())
    reference = Executor(Catalog(), plan_cache_size=0, enable_vectorized=False)
    for executor in (fast, reference):
        executor.execute("CREATE TABLE t (g INT, v INT, x FLOAT)")
        executor.catalog.table("t").insert_many(rows)
    return fast, reference


#: Stands in for a NaN result value: NaN == NaN is False, but two tiers that
#: both answer NaN agree.
_NAN = ("NaN",)


def _nan_equal(row):
    """``row`` with each float NaN replaced by one sentinel that equals itself."""
    return tuple(_NAN if isinstance(v, float) and math.isnan(v) else v for v in row)


def _outcome(executor, sql):
    try:
        result = executor.execute(sql)
    except Exception as error:  # noqa: BLE001 - error parity is the point
        return ("error", type(error).__name__, str(error))
    return (
        "ok",
        [_nan_equal(row) for row in result.rows],
        [tuple(type(v) for v in row) for row in result.rows],
        result.schema.names,
        tuple(column.sql_type for column in result.schema.columns),
    )


def _assert_parity(rows, sql):
    fast, reference = _pair(rows)
    assert _outcome(fast, sql) == _outcome(reference, sql), sql


# -- compiled expression closures -------------------------------------------


def test_compile_expression_round_trips_parsed_sql():
    context = EvalContext(columns={"capacity": 10.0, "demand": 12.5})
    expression = parse_expression("CASE WHEN capacity < demand THEN 1 ELSE 0 END")
    assert compile_expression(expression)(context) == evaluate(expression, context) == 1


# -- vectorized SELECT parity ------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(rows=dense_rows, where=bool_exprs)
def test_vectorized_filter_matches_interpreted(rows, where):
    _assert_parity(rows, f"SELECT g, v, x FROM t WHERE {where.render()}")


@settings(max_examples=80, deadline=None)
@given(rows=dense_rows, expression=st.one_of(numeric_exprs, case_exprs))
def test_vectorized_projection_matches_interpreted(rows, expression):
    _assert_parity(rows, f"SELECT g, {expression.render()} AS e FROM t ORDER BY g, e")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_projection_parity_holds_where_both_tiers_answer_nan():
    # 1/x overflows to inf for a subnormal x, and inf/inf is NaN in both tiers.
    _assert_parity(
        [(1, 2, 5e-324), (2, 3, 1.0)],
        "SELECT g, (1 / x) / (1 / x) AS e FROM t ORDER BY g, e",
    )


@settings(max_examples=60, deadline=None)
@given(rows=dense_rows)
def test_vectorized_aggregates_match_interpreted(rows):
    _assert_parity(
        rows,
        "SELECT g, COUNT(*) AS n, COUNT(DISTINCT v) AS nv, SUM(v) AS sv, "
        "AVG(x) AS ax, MIN(v) AS lo, MAX(x) AS hi, STDEV(x) AS sd, VAR(x) AS vr "
        "FROM t GROUP BY g ORDER BY g",
    )


@settings(max_examples=40, deadline=None)
@given(rows=dense_rows, threshold=st.integers(min_value=0, max_value=10))
def test_vectorized_having_matches_interpreted(rows, threshold):
    _assert_parity(
        rows,
        f"SELECT g, AVG(x) AS a FROM t GROUP BY g "
        f"HAVING COUNT(*) >= {threshold} ORDER BY a DESC, g",
    )


@settings(max_examples=40, deadline=None)
@given(rows=dense_rows)
def test_vectorized_global_aggregate_matches_interpreted(rows):
    # No GROUP BY: one output group even over an empty table.
    _assert_parity(rows, "SELECT COUNT(*) AS n, SUM(x) AS s, STDEV(v) AS sd FROM t")


@settings(max_examples=50, deadline=None)
@given(
    rows=dense_rows,
    limit=st.integers(min_value=0, max_value=8),
    offset=st.integers(min_value=0, max_value=8),
)
def test_vectorized_order_limit_offset_matches_interpreted(rows, limit, offset):
    _assert_parity(
        rows,
        f"SELECT v, x FROM t ORDER BY x DESC, v LIMIT {limit} OFFSET {offset}",
    )


@settings(max_examples=40, deadline=None)
@given(rows=sparse_rows, where=bool_exprs)
def test_nullable_tables_fall_back_but_agree(rows, where):
    # NULL-bearing columns are not packable; the fast executor must detect
    # this and produce interpreter-identical output via fallback.
    _assert_parity(rows, f"SELECT g, v, x FROM t WHERE {where.render()}")


@settings(max_examples=30, deadline=None)
@given(
    left=st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=15),
    right=st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=15),
)
def test_vectorized_equi_join_matches_interpreted(left, right):
    fast = Executor(Catalog())
    reference = Executor(Catalog(), plan_cache_size=0, enable_vectorized=False)
    for executor in (fast, reference):
        executor.execute("CREATE TABLE l (k INT, a INT)")
        executor.execute("CREATE TABLE r (k INT, b INT)")
        executor.catalog.table("l").insert_many(
            [(v, i) for i, v in enumerate(left)]
        )
        executor.catalog.table("r").insert_many(
            [(v, i * 10) for i, v in enumerate(right)]
        )
    sql = "SELECT l.k, l.a, r.b FROM l l JOIN r r ON l.k = r.k"
    assert _outcome(fast, sql) == _outcome(reference, sql)
    # Join output *order* must match the interpreter exactly (no ORDER BY).


# -- two tiers, one scalar semantics: the deleted dimension stays deleted ------


def test_executor_options_and_expression_semantics_snapshot():
    parameters = inspect.signature(Executor.__init__).parameters.values()
    keyword_only = {p.name for p in parameters if p.kind is p.KEYWORD_ONLY}
    assert keyword_only == {"plan_cache_size", "enable_vectorized"}
    # No second, tree-walking definition of the operators beside the closures.
    assert not [
        name for name in vars(expressions) if name.startswith(("_evaluate_", "_kleene_"))
    ]


# -- the fast path actually fires -------------------------------------------


def test_canonical_shapes_run_vectorized():
    """A filter, a GROUP BY and a join each take the columnar path on the
    keys the engine lands: ``g`` and ``v`` are tiled key columns, laid out
    like a samples table's ``t`` and ``world``."""
    fast, reference = _pair([])
    for executor in (fast, reference):
        executor.catalog.table("t").load_columnar(
            [tiled_column(range(3), 1, 10), tiled_column(range(10), 3, 1), np.arange(30.0)]
        )
    for sql in (
        "SELECT v, x FROM t WHERE x > 4.0 ORDER BY v DESC",
        "SELECT g, AVG(x) AS a, STDEV(x) AS s FROM t GROUP BY g ORDER BY g",
        "SELECT a.v AS v, b.x AS x FROM t a JOIN t b ON a.g = b.g AND a.v = b.v",
    ):
        assert _outcome(fast, sql) == _outcome(reference, sql), sql
    assert fast.stats.vectorized_selects == 3
    assert fast.stats.fallback_selects == 0
    assert fast.stats.rows_vectorized > 0


def test_unpackable_shapes_fall_back():
    fast = Executor(Catalog())
    fast.execute("CREATE TABLE s (name TEXT, v INT)")
    fast.catalog.table("s").insert_many([("a", 1), ("b", 2)])
    result = fast.execute("SELECT name, v FROM s ORDER BY name")
    assert result.rows == [("a", 1), ("b", 2)]
    assert fast.stats.fallback_selects == 1
    assert fast.stats.vectorized_selects == 0


@pytest.mark.parametrize("sql", [
    "SELECT v / 0 AS boom FROM t",
    "SELECT v FROM t WHERE x / (g - g) > 1.0",
])
def test_division_by_zero_error_parity(sql):
    _assert_parity([(1, 2, 3.0), (0, 5, 1.0)], sql)


#: ``CAST(... AS INTEGER)`` over ints, bools and integral floats stays
#: columnar; a non-integral float falls back, and the row path raises.
INTEGER_CASTS = {
    "ints": ("SELECT CAST(v AS INTEGER) AS i FROM t", [(1, -2, 3.0), (0, 5, 1.0)], True),
    "bools": ("SELECT CAST(v > 0 AS INTEGER) AS i FROM t", [(1, -2, 3.0), (0, 5, 1.0)], True),
    "integral-floats": ("SELECT CAST(x AS INTEGER) AS i FROM t", [(1, 2, -3.0), (0, 5, 2.0**40)], True),
    "non-integral-float": ("SELECT CAST(x AS INTEGER) AS i FROM t", [(1, 2, 3.0), (0, 5, 2.5)], False),
}


@pytest.mark.parametrize("case", sorted(INTEGER_CASTS))
def test_integer_cast_parity(case):
    sql, rows, vectorized = INTEGER_CASTS[case]
    fast, reference = _pair(rows)
    outcome = _outcome(fast, sql)
    assert outcome == _outcome(reference, sql)
    assert (outcome[0] == "ok") == vectorized
    assert (fast.stats.vectorized_selects, fast.stats.fallback_selects) == (
        (1, 0) if vectorized else (0, 1)
    )


class TestLargeIntegerPrecisionParity:
    """int64/float64 edges where NumPy semantics would silently diverge —
    the vectorized path must fall back to the interpreter's exact math."""

    def _int_table(self, value):
        fast = Executor(Catalog())
        reference = Executor(Catalog(), plan_cache_size=0, enable_vectorized=False)
        for executor in (fast, reference):
            executor.execute("CREATE TABLE big (a INT)")
            executor.catalog.table("big").insert((value,))
        return fast, reference

    def test_int64_multiply_overflow_is_exact(self):
        fast, reference = self._int_table(3037000500)  # a*a wraps int64
        sql = "SELECT a * a AS sq FROM big"
        assert fast.execute(sql).rows == reference.execute(sql).rows
        assert fast.execute(sql).scalar() == 3037000500**2

    def test_int64_addition_overflow_is_exact(self):
        fast, reference = self._int_table(2**62)
        sql = "SELECT a + a AS d FROM big"
        assert fast.execute(sql).rows == reference.execute(sql).rows == [(2**63,)]

    def test_mixed_comparison_beyond_float_precision(self):
        fast, reference = self._int_table(2**53 + 1)  # rounds to 2**53 as float
        sql = "SELECT a FROM big WHERE a = 9007199254740992.0"
        assert fast.execute(sql).rows == reference.execute(sql).rows == []

    def test_join_keys_beyond_float_precision(self):
        fast = Executor(Catalog())
        reference = Executor(Catalog(), plan_cache_size=0, enable_vectorized=False)
        for executor in (fast, reference):
            executor.execute("CREATE TABLE l (k INT)")
            executor.execute("CREATE TABLE r (k FLOAT)")
            executor.catalog.table("l").insert((2**53 + 1,))
            executor.catalog.table("r").insert((9007199254740992.0,))
        sql = "SELECT l.k FROM l l JOIN r r ON l.k = r.k"
        assert fast.execute(sql).rows == reference.execute(sql).rows == []
