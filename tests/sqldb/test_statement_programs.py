"""What a cached statement derives once, and the columnar GROUP BY answer.

* Cache keys: a derived closure or plan is never served to a statement
  that is only equal-by-value to the one it came from. ``Literal(7) ==
  Literal(7.0)`` would otherwise make ``7.0 / 2`` answer ``3``.
* Plan once: a statement the plan cache keeps builds its vector plan and
  its grouped-finalize program on its first execution only.
* Columnar GROUP BY: a plain grouped SELECT (the grouping column and bare
  aggregates, ordered by that column) answers in columns, and those
  columns equal the row tier's rows value for value, type for type, with
  the same schema; anything the columns cannot hold (a NULL answer, an
  integer past int64, a key whose groups do not ascend) takes the row
  finalize.
"""

from __future__ import annotations

import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.sqldb import Catalog, Executor, compiled
from repro.sqldb import executor as executor_module
from repro.sqldb.aggregates import ordered_moments
from repro.sqldb.ast_nodes import BinaryOp, Literal
from repro.sqldb.table import tiled_column


def _executors() -> list[Executor]:
    catalog = Catalog()
    vectorized = Executor(catalog)
    vectorized.execute("CREATE TABLE l (v INT)")
    vectorized.execute("INSERT INTO l (v) VALUES (1)")
    return [vectorized, Executor(catalog, enable_vectorized=False)]


# -- cache keys ----------------------------------------------------------------


@pytest.mark.parametrize("tier", [0, 1], ids=["vectorized", "rows"])
def test_an_int_literal_never_serves_a_float_one(tier):
    executor = _executors()[tier]
    assert executor.execute("SELECT 7 / 2 AS e0 FROM l").rows == [(3,)]
    half = executor.execute("SELECT 7.0 / 2 AS e0 FROM l").scalar()
    assert half == 3.5 and type(half) is float


@pytest.mark.parametrize("tier", [0, 1], ids=["vectorized", "rows"])
def test_a_bool_literal_never_serves_an_int_one(tier):
    executor = _executors()[tier]
    assert executor.execute("SELECT TRUE").scalar() is True
    one = executor.execute("SELECT 1").scalar()
    assert one == 1 and type(one) is int


def test_literal_equality_is_type_and_sign_aware():
    assert Literal(7) != Literal(7.0) and Literal(True) != Literal(1)
    assert Literal(0.0) != Literal(-0.0)
    assert BinaryOp("/", Literal(7), Literal(2)) != BinaryOp("/", Literal(7.0), Literal(2))
    assert Literal(7) == Literal(7) and hash(Literal(2.5)) == hash(Literal(2.5))
    assert Literal("a") == Literal("a") and Literal(None) == Literal(None)


# -- plan once -----------------------------------------------------------------


def _weekly(n_worlds: int, weeks, columns: dict[str, np.ndarray]) -> Catalog:
    """A results table laid out like the engine's: world-major rows, the
    tiled ``world`` and ``t`` keys, one value column per entry."""
    catalog = Catalog()
    Executor(catalog).execute(
        "CREATE TABLE r (world INT, t INT, "
        + ", ".join(
            f"{name} {'INT' if values.dtype.kind == 'i' else 'FLOAT'}"
            for name, values in columns.items()
        )
        + ")"
    )
    catalog.table("r").load_columnar(
        [
            tiled_column(range(n_worlds), len(weeks), 1),
            tiled_column(weeks, 1, n_worlds),
            *columns.values(),
        ]
    )
    return catalog


AGGREGATE = "SELECT t, AVG(v) AS e_v, STDEV(v) AS sd_v FROM r GROUP BY t ORDER BY t"


def test_a_cached_statement_plans_and_compiles_once():
    rng = np.random.default_rng(3)
    catalog = _weekly(40, range(5), {"v": rng.normal(size=200)})
    executor = Executor(catalog)
    plan = mock.patch.object(
        executor_module, "plan_select", wraps=executor_module.plan_select
    )
    program = mock.patch.object(
        executor_module._GroupProgram, "of", wraps=executor_module._GroupProgram.of
    )
    with plan as planned, program as programmed:
        answers = [executor.execute(AGGREGATE).rows for _ in range(100)]
        assert planned.call_count == 1 and programmed.call_count == 1
        # A statement executed as an AST keeps nothing: it plans every time.
        statement = executor_module.parse_statement(AGGREGATE)
        assert executor.execute_statement(statement).rows == answers[0]
        assert executor.execute_statement(statement).rows == answers[0]
        assert planned.call_count == 3
    assert all(rows == answers[0] for rows in answers)
    assert executor.stats.vectorized_selects == 102 and executor.stats.fallback_selects == 0


def test_the_row_tier_finalizes_groups_with_the_cached_program():
    catalog = _weekly(3, range(4), {"v": np.arange(12.0)})
    executor = Executor(catalog, enable_vectorized=False)
    sql = "SELECT t, COUNT(*) AS n FROM r GROUP BY t HAVING SUM(v) > 15 ORDER BY n, t DESC"
    with mock.patch.object(
        executor_module._GroupProgram, "of", wraps=executor_module._GroupProgram.of
    ) as programmed:
        first, second = executor.execute(sql).rows, executor.execute(sql).rows
    assert first == second == [(3, 3), (2, 3)]
    assert programmed.call_count == 1


# -- the columnar GROUP BY answer ------------------------------------------------


def _typed(value):
    """A value as comparable data: its type and, for floats, its bits. A NaN
    is any NaN: which operand's payload an arithmetic instruction keeps is
    the CPU's choice, and NumPy's SIMD loops order operands differently."""
    if isinstance(value, float):
        return float, "nan" if math.isnan(value) else struct.pack("<d", value)
    return type(value), value


def _answer(result):
    return (
        [tuple(_typed(v) for v in row) for row in result.rows],
        [(c.name, c.sql_type, c.nullable) for c in result.schema.columns],
    )


def _outcome(executor: Executor, sql: str):
    try:
        return executor.execute(sql)
    except Exception as error:  # noqa: BLE001 - the tiers must fail alike
        return type(error)


def _both_tiers(catalog: Catalog, sql: str):
    """The vectorized tier's result (or error type), checked against the
    row tier's."""
    result = _outcome(Executor(catalog), sql)
    rows = _outcome(Executor(catalog, enable_vectorized=False), sql)
    if isinstance(rows, type):
        assert result is rows
    else:
        assert _answer(result) == _answer(rows)
    return result


#: Awkward floats: signed zeros, NaN, the infinities, huge and tiny values.
SPECIALS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 5e-324]

floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from(SPECIALS),
)
ints = st.one_of(
    st.integers(-(2**62), 2**62),  # past 2**53 and, summed, past int64
    st.integers(-(2**53) - 5, -(2**53) + 5),
    st.integers(-3, 3),
)


@given(
    n_worlds=st.integers(1, 6),
    weeks=st.lists(st.integers(0, 60), min_size=1, max_size=7, unique=True),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
@example(n_worlds=1, weeks=[0, 1, 2], data=None)  # single-row groups: STDEV is NULL
def test_columnar_groups_equal_the_row_tier(n_worlds, weeks, data):
    n_rows = n_worlds * len(weeks)
    if data is None:
        v = np.arange(float(n_rows))
        n = np.arange(n_rows, dtype=np.int64)
    else:
        v = np.array(data.draw(st.lists(floats, min_size=n_rows, max_size=n_rows)))
        n = np.array(data.draw(st.lists(ints, min_size=n_rows, max_size=n_rows)), dtype=np.int64)
    catalog = _weekly(n_worlds, weeks, {"v": v, "n": n})
    sql = (
        "SELECT t, AVG(v) AS e_v, STDEV(v) AS sd_v, VARP(v) AS vp, SUM(v) AS s_v, "
        "MIN(v) AS lo, MAX(n) AS hi, COUNT(*) AS c, SUM(n) AS s_n, AVG(n) AS e_n, "
        "STDEVP(n) AS sdp_n FROM r GROUP BY t ORDER BY t"
    )
    result = _both_tiers(catalog, sql)
    if isinstance(result, type):
        assert result is ExecutionError  # a variance whose running mean overflowed
        return
    sums = [sum(n[week :: len(weeks)].tolist()) for week in range(len(weeks))]
    fits = all(-(2**63) <= total < 2**63 for total in sums)
    # MIN of a NaN or a -0.0 is answered by the row tier for the statement.
    vectorized = not np.isnan(v).any() and not np.signbit(v[v == 0.0]).any()
    columnar = vectorized and weeks == sorted(weeks) and n_worlds > 1 and fits
    assert (result.column_data is not None) == columnar
    if fits:  # exact Python ints, past 2**53 included
        by_week = dict(zip(weeks, sums))
        assert [row[8] for row in result.rows] == [by_week[w] for w in sorted(weeks)]


#: Group 2's two values: finite, yet ``m2`` (the squared deviations) or
#: the total leaves the float range.
OVERFLOWING = {"m2-1e308": (-1e308, 1e308), "m2-1e200": (-1e200, 1e200), "total": (1e308, 1e308)}


@pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "rows"])
@pytest.mark.parametrize("aggregate", ["VAR", "VARP", "STDEV", "STDEVP"])
@pytest.mark.parametrize("group", sorted(OVERFLOWING))
def test_a_variance_whose_running_mean_overflows_raises(group, aggregate, vectorized):
    low, high = OVERFLOWING[group]
    v = np.array([0.0, 0.0, low, 0.0, 0.0, 0.0, high, 0.0])
    executor = Executor(_weekly(2, range(4), {"v": v}), enable_vectorized=vectorized)
    sql = f"SELECT t, {aggregate}(v) AS x FROM r GROUP BY t ORDER BY t"
    with mock.patch.object(compiled, "ordered_moments", wraps=ordered_moments) as kernel:
        with pytest.raises(ExecutionError, match="^variance overflowed"):
            executor.execute(sql)
    assert kernel.called == vectorized  # the vectorized tier raised it itself

    # A non-finite input is no overflow: its group's variance is NaN.
    v[6] = np.inf
    answered = Executor(_weekly(2, range(4), {"v": v}), enable_vectorized=vectorized).execute(sql).rows
    assert math.isnan(answered[2][1]) and answered[0][1] == 0.0


def test_an_integer_sum_past_int64_stays_an_exact_int():
    # Group sums 2**63 and -2: NumPy would hold them as float64.
    n = np.array([2**62, -1, 2**62, -1], dtype=np.int64)
    catalog = _weekly(2, [0, 1], {"v": np.arange(4.0), "n": n})
    result = _both_tiers(catalog, "SELECT t, SUM(n) AS s FROM r GROUP BY t ORDER BY t")
    assert result.column_data is None and result.rows == [(0, 2**63), (1, -2)]
    small = _both_tiers(catalog, "SELECT t, MAX(n) AS m FROM r GROUP BY t ORDER BY t")
    assert small.column_data is not None and small.rows == [(0, 2**62), (1, -1)]


@pytest.mark.parametrize(
    ("sql", "columnar"),
    [
        ("SELECT t, AVG(v) AS e_v FROM r GROUP BY t ORDER BY t", True),
        ("SELECT AVG(v), t AS week, COUNT(v) FROM r GROUP BY t ORDER BY t", True),
        ("SELECT t, AVG(v) AS e_v FROM r GROUP BY t ORDER BY t LIMIT 2 OFFSET 1", True),
        # An output named like the key is what ORDER BY would read.
        ("SELECT AVG(v) AS t, t FROM r GROUP BY t ORDER BY t", False),
        ("SELECT t, AVG(v) AS e_v FROM r GROUP BY t ORDER BY t DESC", False),
        ("SELECT t, AVG(v) + 1 AS e_v FROM r GROUP BY t ORDER BY t", False),
        ("SELECT t, AVG(v) AS e_v FROM r GROUP BY t HAVING AVG(v) > 0 ORDER BY t", False),
        ("SELECT t, AVG(v) AS e_v FROM r GROUP BY t", False),
        ("SELECT r.t, AVG(v) AS e_v FROM r GROUP BY t ORDER BY t", False),
    ],
)
def test_only_the_plain_shape_answers_in_columns(sql, columnar):
    rng = np.random.default_rng(11)
    catalog = _weekly(5, range(4), {"v": rng.normal(size=20)})
    assert (_both_tiers(catalog, sql).column_data is not None) == columnar
