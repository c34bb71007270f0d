"""Bitwise parity of the vectorized tier's join, grouping and ordered pass.

* The grouped aggregates (``compiled.aggregate_columns``): every AVG, float
  SUM and variance of a statement reads one pass per argument array, its
  step-major ``(size, n_groups)`` reshape — ``aggregates.ordered_sums``
  (an axis-0 ``np.add.reduce`` from ``-0.0``) for the totals, and
  ``aggregates.ordered_moments`` (a second ordered sum, of squared
  deviations from the mean) for ``m2`` when a variance reads the array.
  The row tier's accumulators call the same function on one group at a
  time, so the two tiers agree bit for bit by construction; the properties
  below check that they do, over every rectangular layout — ``n_groups``
  groups of ``size`` rows, group ``g`` being every ``n_groups``-th row from
  row ``g`` — with one group, one row, ``-0.0``, NaN, infinities and
  integers. The oracle is the row interpreter (``make_aggregate``, or an
  executor with ``enable_vectorized=False``) fed row by row.
* Tiled key columns (``table.tiled_column``): the tiled join and the
  strided group layout answer from the tiling alone; every other key is
  refused (``VectorFallback``) and the row tier answers the statement.
"""

from __future__ import annotations

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import TypeMismatchError
from repro.sqldb import Catalog, Executor
from repro.sqldb import compiled
from repro.sqldb.aggregates import make_aggregate
from repro.sqldb.compiled import (
    AggregateSpec,
    ColumnarRelation,
    GroupLayout,
    VectorFallback,
    aggregate_columns,
    equi_join,
    group_layout,
)
from repro.sqldb.table import tiled_column, tiling_of

MOMENTS = ("var", "varp", "stdev", "stdevp")
SUMMED = ("avg", "sum") + MOMENTS


def _bits(value):
    """A result as comparable bytes: None, or the float's exact bit pattern."""
    return None if value is None else struct.pack("<d", value)


def _value_bits(value):
    return _bits(value) if isinstance(value, float) else value


def _column(kind, n_rows, rng) -> np.ndarray:
    """One argument column: floats, NaN-bearing floats, ``-0.0``, floats
    with infinities, integers past 2**53, or booleans."""
    if kind == "int":
        return rng.integers(-(2**62), 2**62, size=n_rows, dtype=np.int64)
    if kind == "bool":
        return rng.integers(0, 2, size=n_rows).astype(np.bool_)
    if kind == "negative-zero":
        return np.full(n_rows, -0.0)
    if kind == "inf":
        values = rng.normal(0.0, 1e150, size=n_rows)
        values[1::7], values[3::11] = np.inf, -np.inf
        return values
    values = rng.normal(1e3, 250.0, size=n_rows)
    if kind == "nan" and n_rows:
        values[rng.integers(0, n_rows, size=max(1, n_rows // 7))] = np.nan
    return values


KINDS = ("float", "nan", "negative-zero", "inf", "int")


def _accumulated(name, values, layout) -> list:
    """The oracle: one fresh accumulator per group, fed its rows in order."""
    results = []
    for group in range(layout.n_groups):
        accumulator = make_aggregate(name)
        for value in values[group :: layout.n_groups].tolist():
            accumulator.add(value)
        results.append(accumulator.result())
    return results


#: ``(n_groups, size)``: groups of equal size, single-row groups, and the
#: one group of a statement without a GROUP BY key.
group_shapes = st.one_of(
    st.tuples(st.integers(1, 60), st.integers(1, 30)),
    st.tuples(st.integers(1, 60), st.just(1)),
    st.tuples(st.just(1), st.integers(1, 200)),
)


@given(
    shape=group_shapes,
    columns=st.lists(
        st.tuples(st.sampled_from(SUMMED), st.sampled_from(KINDS)), min_size=1, max_size=4
    ),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_moments_match_the_accumulators_bit_for_bit(shape, columns, seed):
    rng = np.random.default_rng(seed)
    layout = GroupLayout(*shape)
    n_rows = layout.n_groups * layout.size
    specs = [AggregateSpec(f"a{i}", name, False, False, None) for i, (name, _) in enumerate(columns)]
    arrays = [_column(kind, n_rows, rng) for _, kind in columns]
    with np.errstate(invalid="ignore"):  # inf + -inf, as the accumulators do it
        answered = aggregate_columns(specs, arrays, layout)
    for spec, values, lane in zip(specs, arrays, answered):
        expected = _accumulated(spec.name, values, layout)
        assert [_value_bits(v) for v in lane] == [_value_bits(v) for v in expected], spec.rendered


def _executors(n_weeks, n_worlds, tiled=True, columns=None):
    """A (vectorized, row-tier) executor pair over one table ``x`` laid out
    like the aggregate query's input: ``t`` runs through ``n_weeks`` weeks
    once per world — a tiled key column, or (``tiled=False``) the same
    values as a plain one — beside ``columns`` (default: two float columns
    ``a``, ``b`` and an integer ``c``)."""
    rng = np.random.default_rng(n_weeks * n_worlds)
    n_rows = n_weeks * n_worlds
    if columns is None:
        columns = {
            "a": rng.normal(size=n_rows),
            "b": rng.normal(50.0, 9.0, size=n_rows),
            "c": rng.integers(-99, 99, size=n_rows),
        }
    declared = ", ".join(
        f"{name} {'INT' if values.dtype.kind == 'i' else 'FLOAT'}" for name, values in columns.items()
    )
    pair = []
    for fast in (True, False):
        t = tiled_column(range(n_weeks), 1, n_worlds)
        executor = Executor(Catalog(), enable_vectorized=fast)
        executor.execute(f"CREATE TABLE x (t INT, {declared})")
        executor.catalog.table("x").load_columnar([t if tiled else np.array(t), *columns.values()])
        pair.append(executor)
    return pair


@given(
    shape=group_shapes,
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
)
@example(shape=(1, 1), kinds=["negative-zero"], seed=0)  # one group of one row
@example(shape=(53, 2000), kinds=["float", "float", "int"], seed=0)  # a fresh point's shape
@settings(max_examples=60, deadline=None)
def test_the_two_tiers_agree_bit_for_bit(shape, kinds, seed):
    """Every summed aggregate of every column, grouped by a tiled week key,
    through both executors: the same rows, bit for bit, and the vectorized
    executor answers the statement itself."""
    n_weeks, n_worlds = shape
    rng = np.random.default_rng(seed)
    columns = {f"v{i}": _column(kind, n_weeks * n_worlds, rng) for i, kind in enumerate(kinds)}
    fast, reference = _executors(n_weeks, n_worlds, columns=columns)
    sql = "SELECT t, " + ", ".join(
        f"{name.upper()}({column}) AS {name}_{column}" for column in columns for name in SUMMED
    ) + " FROM x GROUP BY t ORDER BY t"
    with np.errstate(invalid="ignore"):
        answered = fast.execute(sql).rows
    expected = reference.execute(sql).rows
    assert [[_value_bits(v) for v in row] for row in answered] == [
        [_value_bits(v) for v in row] for row in expected
    ]
    assert fast.stats.vectorized_selects == 1 and fast.stats.fallback_selects == 0


SUM_SHAPES = {
    "single-row-groups": GroupLayout(48, 1),
    "even": GroupLayout(16, 25),
    "one-group": GroupLayout(1, 40),
}


@pytest.mark.parametrize("shape", sorted(SUM_SHAPES))
@pytest.mark.parametrize("values", ["float", "int", "nan", "negative-zero"])
def test_sums_and_moments_off_one_layout_match_the_accumulators(shape, values):
    """AVG/SUM/VAR/STDEV of the same two columns, bit for bit: one
    ``ordered_moments`` pass per column, whose totals the AVG and SUM read;
    without a variance to share with, one ``ordered_sums`` pass per column.
    A SUM of -0.0 keeps its sign."""
    rng = np.random.default_rng(len(shape))
    layout = SUM_SHAPES[shape]
    n_rows = layout.n_groups * layout.size
    second = "negative-zero" if values == "negative-zero" else "float"
    arrays = [_column(values, n_rows, rng), _column(second, n_rows, rng)]
    # Integer SUM is exact Python arithmetic and never reads the layout.
    sum_names = ("avg", "avg") if values == "int" else ("avg", "sum")
    sums = [AggregateSpec(f"s{i}", name, False, False, None) for i, name in enumerate(sum_names)]
    moments = [AggregateSpec(f"m{i}", name, False, False, None) for i, name in enumerate(("var", "stdev"))]

    def expected(specs):
        return [
            [_bits(v) for v in _accumulated(spec.name, column, layout)]
            for spec, column in zip(specs, arrays)
        ]

    with mock.patch.object(
        compiled, "ordered_moments", wraps=compiled.ordered_moments
    ) as kernel, mock.patch.object(compiled, "ordered_sums", wraps=compiled.ordered_sums) as totals:
        answered = aggregate_columns(moments + sums, arrays + arrays, layout)
    assert (kernel.call_count, totals.call_count) == (2, 0)
    assert [[_bits(v) for v in lane] for lane in answered[:2]] == expected(moments)
    assert [[_bits(v) for v in lane] for lane in answered[2:]] == expected(sums)
    if values == "negative-zero":
        assert [_bits(v) for v in answered[3]] == [_bits(-0.0)] * layout.n_groups

    with mock.patch.object(compiled, "ordered_sums", wraps=compiled.ordered_sums) as totals:
        alone = aggregate_columns(sums, arrays, layout)
    assert totals.call_count == len(sums)  # no variance pass to share
    assert [[_bits(v) for v in lane] for lane in alone] == expected(sums)


def test_sums_over_other_columns_than_the_variances_take_their_own_pass():
    rng = np.random.default_rng(11)
    layout = GroupLayout(30, 20)
    a, b = _column("float", 600, rng), _column("float", 600, rng)
    stdev = AggregateSpec("m", "stdev", False, False, None)
    avg = AggregateSpec("s", "avg", False, False, None)
    with mock.patch.object(
        compiled, "ordered_moments", wraps=compiled.ordered_moments
    ) as kernel, mock.patch.object(compiled, "ordered_sums", wraps=compiled.ordered_sums) as totals:
        answered = aggregate_columns([stdev, stdev, avg, avg], [a, a, a, b], layout)
    # One pass over ``a`` (once, for both STDEVs), AVG(a) read off it, AVG(b) alone.
    assert kernel.call_count == 1 and totals.call_count == 1
    assert np.shares_memory(kernel.call_args.args[0], a)  # a view, not a copy
    assert np.shares_memory(totals.call_args.args[0], b)
    for spec, values, lane in zip([stdev, stdev, avg, avg], [a, a, a, b], answered):
        expected = _accumulated(spec.name, values, layout)
        assert [_bits(v) for v in lane] == [_bits(v) for v in expected]


@given(
    width=st.sampled_from([1, 2, 3, 159, 3001]),
    rows=st.integers(1, 300),
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**16),
)
@example(width=1, rows=129, kind="float", seed=0)  # one lane: NumPy would sum pairwise
@example(width=2, rows=300, kind="negative-zero", seed=0)  # a +0.0 start loses the sign
@settings(max_examples=60, deadline=None)
def test_ordered_sums_add_each_lane_in_row_order(width, rows, kind, seed):
    """``ordered_sums`` over a ``(rows, width)`` block, the float SUM read
    through it by ``aggregate_columns``, and ``ordered_moments`` over the
    same block: every total bit-equal to a plain left-to-right loop, and
    every ``m2`` to the same loop over the squared deviations from
    ``total / rows``."""
    values = _column(kind, rows * width, np.random.default_rng(seed))
    layout = GroupLayout(width, rows)
    lanes = [[float(v) for v in values[g::width].tolist()] for g in range(width)]

    def loop(terms):
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        return total

    expected = [loop(lane) for lane in lanes]
    sum_spec = AggregateSpec("s", "sum", False, False, None)
    steps = values.astype(np.float64).reshape(rows, width)
    with np.errstate(invalid="ignore"):  # inf + -inf, as the loop does it
        block = compiled.ordered_sums(steps)
        summed = aggregate_columns([sum_spec], [values], layout)[0]
        totals, m2 = compiled.ordered_moments(steps)
    assert [_bits(v) for v in block.tolist()] == [_bits(v) for v in expected]
    assert [_bits(v) for v in totals.tolist()] == [_bits(v) for v in expected]
    if kind != "int":  # an integer SUM is exact Python arithmetic, not a float sum
        assert [_bits(v) for v in summed] == [_bits(v) for v in expected]
    checked = range(width) if width < 1000 else range(0, width, 97)  # keep the oracle quick
    for group in checked:
        mean = expected[group] / rows
        squares = [(value - mean) * (value - mean) for value in lanes[group]]
        assert _bits(m2[group]) == _bits(loop(squares)), group


@pytest.mark.parametrize("shape", [(2, 3), (40, 30)])
@pytest.mark.parametrize("name", ["stdev", "avg", "sum"])
def test_boolean_columns_are_rejected_before_any_pass(shape, name):
    rng = np.random.default_rng(0)
    layout = GroupLayout(*shape)
    flags = _column("bool", shape[0] * shape[1], rng)
    floats = _column("float", shape[0] * shape[1], rng)
    spec = AggregateSpec("a", name, False, False, None)
    first = AggregateSpec("f", "var", False, False, None)
    with mock.patch.object(compiled, "ordered_moments") as kernel, pytest.raises(VectorFallback):
        aggregate_columns([first, spec], [floats, flags], layout)
    assert not kernel.called
    with pytest.raises(TypeMismatchError):  # what the fallback then reports
        _accumulated(name, flags, layout)


def _float_bits(rows):
    return [[_bits(float(v)) for v in row] for row in rows]


def test_three_moment_columns_take_one_pass_each():
    """Three variance columns and an AVG over one of them, grouped by a
    tiled week key: one ``ordered_moments`` pass per column, and the AVG
    reads its column's total. The same keys as a plain column go to the row
    tier, with the same answer."""
    sql = (
        "SELECT t, AVG(a) AS e, STDEV(a) AS s, VAR(b) AS v, STDEVP(c) AS p, COUNT(*) AS n "
        "FROM x GROUP BY t ORDER BY t"
    )
    fast, reference = _executors(40, 30)
    with mock.patch.object(
        compiled, "ordered_moments", wraps=compiled.ordered_moments
    ) as kernel, mock.patch.object(compiled, "ordered_sums", wraps=compiled.ordered_sums) as totals:
        result = fast.execute(sql)
    assert [call.args[0].shape for call in kernel.call_args_list] == [(30, 40)] * 3
    assert totals.call_count == 0  # AVG(a) shares STDEV(a)'s pass
    assert fast.stats.vectorized_selects == 1 and fast.stats.fallback_selects == 0
    expected = _float_bits(reference.execute(sql).rows)
    assert _float_bits(result.rows) == expected

    plain, _ = _executors(40, 30, tiled=False)
    assert _float_bits(plain.execute(sql).rows) == expected
    assert plain.stats.vectorized_selects == 0 and plain.stats.fallback_selects == 1


#: Group sizes no rectangular layout holds, keys in first-appearance order.
RAGGED_SIZES = [7, 1, 12, 3, 9, 12, 2, 5, 11, 8, 4, 10]


@pytest.mark.parametrize("values", ["float", "int", "nan", "negative-zero"])
def test_ragged_groups_go_to_the_row_tier(values):
    """GROUP BY a plain key whose groups differ in size — interleaved, one
    of a single row — is refused by the vectorized grouping; the row tier's
    answer is each group's accumulators fed its rows in order, bit for bit."""
    rng = np.random.default_rng(len(values))
    keys = rng.permutation(np.repeat(np.arange(len(RAGGED_SIZES)), RAGGED_SIZES))
    if values == "negative-zero":
        column = np.full(len(keys), -0.0)
    else:
        column = _column(values, len(keys), rng)
    kind = "INT" if values == "int" else "FLOAT"
    executor = Executor(Catalog(), enable_vectorized=True)
    executor.execute(f"CREATE TABLE x (g INT, v {kind})")
    executor.catalog.table("x").load_columnar([keys.astype(np.int64), column])
    names = ("avg", "sum", "var", "varp", "stdev", "stdevp")
    sql = "SELECT g, " + ", ".join(f"{name.upper()}(v) AS {name}" for name in names) + " FROM x GROUP BY g"
    answered = executor.execute(sql).rows
    assert executor.stats.fallback_selects == 1 and executor.stats.vectorized_selects == 0

    first_rows = {}
    for row, key in enumerate(keys.tolist()):
        first_rows.setdefault(key, row)
    expected = []
    for key in sorted(first_rows, key=first_rows.get):
        results = []
        for name in names:
            accumulator = make_aggregate(name)
            for value in column[keys == key].tolist():
                accumulator.add(value)
            results.append(accumulator.result())
        expected.append((key, *results))
    assert sorted(first_rows.values()) == [first_rows[row[0]] for row in answered]
    assert [[_value_bits(v) for v in row] for row in answered] == [
        [_value_bits(v) for v in row] for row in expected
    ]


def test_composite_group_keys_go_to_the_row_tier():
    """GROUP BY two tiled keys is more than one strided key: refused by the
    vectorized grouping, answered by the row tier as the row interpreter's."""
    fast, reference = _executors(6, 5)
    sql = "SELECT t, c, STDEV(a) AS s, AVG(b) AS e FROM x GROUP BY t, c ORDER BY t, c"
    assert fast.execute(sql).rows == reference.execute(sql).rows
    assert fast.stats.fallback_selects == 1 and fast.stats.vectorized_selects == 0


# -- the tiled join -------------------------------------------------------------


def _relation(label, **columns) -> ColumnarRelation:
    bound = {}
    for name, array in columns.items():
        bound[name] = bound[f"{label}.{name}"] = np.asarray(array)
    n_rows = len(next(iter(columns.values())))
    return ColumnarRelation(bound, {}, set(bound), n_rows)


def _as_bytes(relation) -> dict:
    return {key: array.tobytes() for key, array in sorted(relation.columns.items())}


def _nested_loop(left, right, keys) -> dict:
    """The reference join: every pair of rows whose keys are equal, left
    rows in order and, for each, right rows in table order."""
    pairs = [
        (i, j)
        for i in range(left.n_rows)
        for j in range(right.n_rows)
        if all(left.columns[f"l.{k}"][i] == right.columns[f"r.{k}"][j] for k in keys)
    ]
    left_take = np.array([i for i, _ in pairs], dtype=np.int64)
    right_take = np.array([j for _, j in pairs], dtype=np.int64)
    return _as_bytes(compiled.merge_relations(left.take(left_take), right.take(right_take)))


JOIN_ORDERS = {
    # (left keys, right keys) as plain arrays
    "aligned": ([0, 1, 2, 3, 4], [0, 1, 2, 3, 4]),
    "duplicate-left": ([0, 1, 1, 3, 4], [0, 1, 2, 3, 4]),
    "duplicate-right": ([0, 1, 2, 3, 4], [0, 1, 1, 3, 4]),
    "swapped-pair": ([0, 1, 2, 3, 4], [0, 2, 1, 3, 4]),
    "missing-row": ([0, 1, 2, 3, 4], [0, 1, 3, 4]),
    "equal-unsorted": ([4, 3, 2, 1, 0], [4, 3, 2, 1, 0]),
    "equal-duplicates": ([0, 1, 1, 2, 2], [0, 1, 1, 2, 2]),
    "sorted-right-only": ([3, 0, 4, 4, 9], [0, 0, 3, 4, 7]),
}


@pytest.mark.parametrize("case", sorted(JOIN_ORDERS))
def test_plain_key_joins_go_to_the_row_tier(case):
    """Plain key columns say nothing about their layout, so every pair — the
    aligned one included — is refused by the vectorized join, and the
    statement's answer is the row tier's: one more ``fallback_selects``."""
    left_key, right_key = (np.asarray(k, dtype=np.int64) for k in JOIN_ORDERS[case])
    left = _relation("l", k=left_key, a=np.arange(len(left_key)) * 1.5)
    right = _relation("r", k=right_key, b=np.arange(len(right_key)) * -2.5)
    with pytest.raises(VectorFallback):
        equi_join(left, right, [("l.k", "r.k")])

    pair = []
    for fast in (True, False):
        executor = Executor(Catalog(), enable_vectorized=fast)
        executor.execute("CREATE TABLE l (k INT, a FLOAT)")
        executor.execute("CREATE TABLE r (k INT, b FLOAT)")
        executor.catalog.table("l").load_columnar([left_key, left.columns["a"]])
        executor.catalog.table("r").load_columnar([right_key, right.columns["b"]])
        pair.append(executor)
    fast, reference = pair
    sql = "SELECT l.k AS k, l.a AS a, r.b AS b FROM l l JOIN r r ON l.k = r.k"
    assert fast.execute(sql).rows == reference.execute(sql).rows
    assert fast.stats.fallback_selects == 1 and fast.stats.vectorized_selects == 0


#: Plain ``(left, right)`` join keys of every range the row tier must carry.
KEY_RANGES = {
    "negative": ([-7, -3, -3, 0, 4, -7], [4, -3, -7, -7, 9]),
    "duplicate-heavy": (np.repeat([5, 6], 40).tolist(), np.tile([6, 5, 5, 7], 15).tolist()),
    "disjoint": (list(range(10)), list(range(20, 30))),
    "empty-right": (list(range(4)), []),
    "wide-range": ([0, 10**12, 5, 10**12], [10**12, 5, 1, 0, 0]),
    "int64-extremes": (
        [int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max), 0],
        [0, int(np.iinfo(np.int64).max)],
    ),
}


@pytest.mark.parametrize("case", sorted(KEY_RANGES))
def test_plain_keys_of_any_range_join_on_the_row_tier(case):
    """Negative, duplicate-heavy, disjoint, empty, wide and int64-extreme
    keys: the vectorized executor refuses the join, and the answer it then
    gives holds every pair of rows whose keys are equal — no more, no fewer."""
    left_key, right_key = KEY_RANGES[case]
    executor = Executor(Catalog(), enable_vectorized=True)
    executor.execute("CREATE TABLE l (k INT, a FLOAT)")
    executor.execute("CREATE TABLE r (k INT, b FLOAT)")
    executor.catalog.table("l").load_columnar(
        [np.array(left_key, dtype=np.int64), np.arange(len(left_key)) * 1.5]
    )
    executor.catalog.table("r").load_columnar(
        [np.array(right_key, dtype=np.int64), np.arange(len(right_key)) * -2.5]
    )
    sql = "SELECT l.k AS k, l.a AS a, r.b AS b FROM l l JOIN r r ON l.k = r.k"
    expected = [
        (lk, i * 1.5, j * -2.5)
        for i, lk in enumerate(left_key)
        for j, rk in enumerate(right_key)
        if lk == rk
    ]
    assert sorted(executor.execute(sql).rows) == sorted(expected)
    assert executor.stats.fallback_selects == 1 and executor.stats.vectorized_selects == 0


def test_a_two_key_join_of_plain_columns_goes_to_the_row_tier():
    """The combine's ``(world, t)`` join over rows inserted one by one —
    negative worlds, one side repeating and missing rows — is the row
    interpreter's, through one fallback."""
    rows = [(w, t, float(w * 53 + t)) for w in range(-6, 6) for t in range(5)]
    pair = []
    for fast in (True, False):
        executor = Executor(Catalog(), enable_vectorized=fast)
        for name in ("s0", "s1"):
            executor.execute(f"CREATE TABLE {name} (world INT, t INT, value FLOAT)")
        executor.catalog.table("s0").insert_many(rows)
        executor.catalog.table("s1").insert_many(rows[::-2] + rows[:7])
        pair.append(executor)
    sql = (
        "SELECT s0.world AS world, s0.t AS t, s0.value + s1.value AS total "
        "FROM s0 JOIN s1 ON s0.world = s1.world AND s0.t = s1.t"
    )
    fast, reference = pair
    answered = fast.execute(sql).rows
    assert answered == reference.execute(sql).rows
    right = rows[::-2] + rows[:7]
    expected = [(w, t, v + v) for w, t, v in rows for rw, rt, _ in right if (w, t) == (rw, rt)]
    assert sorted(answered) == sorted(expected)
    assert fast.stats.vectorized_selects == 0 and fast.stats.fallback_selects == 1


WORLDS, WEEKS = [7, 3, 11, 0], [0, 2, 5]


def _keys(worlds, weeks, world_outer=True):
    """``(w, t)`` keys laid out like a samples table: world-major when
    ``world_outer``, week-major otherwise."""
    if world_outer:
        return tiled_column(worlds, len(weeks), 1), tiled_column(weeks, 1, len(worlds))
    return tiled_column(worlds, 1, len(weeks)), tiled_column(weeks, len(worlds), 1)


#: What each side's ``(w, t)`` keys are, and whether the tiled join answers.
TILED_JOINS = {
    "alike": (_keys(WORLDS, WEEKS), _keys(WORLDS, WEEKS), True),
    "one-week": (_keys(WORLDS, [4]), _keys(WORLDS, [4]), True),
    "one-world": (_keys([9], WEEKS), _keys([9], WEEKS), True),
    # A world id listed twice (Koutris & Wijsen): keys repeat on a side.
    "duplicate-both": (_keys([7, 3, 7], WEEKS), _keys([7, 3, 7], WEEKS), False),
    "duplicate-left": (_keys([7, 3, 7], WEEKS), _keys([7, 3, 5], WEEKS), False),
    "duplicate-week": (_keys(WORLDS, [2, 2]), _keys(WORLDS, [2, 2]), False),
    "tiled-differently": (_keys(WORLDS, WEEKS), _keys(WORLDS, WEEKS, False), False),
    "both-week-major": (_keys(WORLDS, WEEKS, False), _keys(WORLDS, WEEKS, False), True),
    "other-order": (_keys(WORLDS, WEEKS), _keys(WORLDS[::-1], WEEKS), False),
    "plain-right": (_keys(WORLDS, WEEKS), tuple(np.array(k) for k in _keys(WORLDS, WEEKS)), False),
}


@pytest.mark.parametrize("case", sorted(TILED_JOINS))
@pytest.mark.parametrize("on", ["w-then-t", "t-then-w", "w-only"])
def test_the_tiled_join_is_taken_and_refused(case, on):
    """Two sides whose ``(w, t)`` keys are one cross product of unique
    bases, tiled alike, join row by row without reading a key, and the
    answer is the nested loop's; every other pair — and a join on ``w``
    alone, which repeats — is refused, for the row tier to answer."""
    (left_w, left_t), (right_w, right_t), taken = TILED_JOINS[case]
    left = _relation("l", w=left_w, t=left_t, a=np.arange(len(left_w)) * 1.5)
    right = _relation("r", w=right_w, t=right_t, b=np.arange(len(right_w)) * -2.5)
    conjuncts = {
        "w-then-t": [("l.w", "r.w"), ("r.t", "l.t")],
        "t-then-w": [("l.t", "r.t"), ("l.w", "r.w")],
        "w-only": [("l.w", "r.w")],
    }[on]
    if on == "w-only":
        taken = case == "one-week"  # with one week, ``w`` alone is unique
    if not taken:
        with pytest.raises(VectorFallback):
            equi_join(left, right, conjuncts)
        return
    keys = ("w", "t") if on != "w-only" else ("w",)
    assert _as_bytes(equi_join(left, right, conjuncts)) == _nested_loop(left, right, keys)


def test_the_aligned_join_shares_nothing_mutable_with_its_inputs():
    """The aligned join is the tiled one: it merges, and copies nothing."""
    w, t = _keys(WORLDS, WEEKS)
    left = _relation("l", w=w, t=t, a=np.arange(12) * 1.0)
    right = _relation("r", w=w, t=t, b=np.arange(12) * 2.0)
    joined = equi_join(left, right, [("l.w", "r.w"), ("l.t", "r.t")])
    joined.columns["extra"] = w
    joined.all_keys.add("extra")
    assert "extra" not in left.columns and "extra" not in right.columns
    assert "extra" not in left.all_keys and "extra" not in right.all_keys
    assert joined.n_rows == 12 and joined.columns["r.b"] is right.columns["r.b"]


def test_a_tiling_belongs_to_its_array_object():
    """Read-only, described, and described only as itself: every array
    derived from a tiled column is a plain one."""
    key = tiled_column([4, 1, 9], 2, 3)
    assert key.tolist() == np.tile(np.repeat([4, 1, 9], 2), 3).tolist()
    assert not key.flags.writeable
    tiling = tiling_of(key)
    assert tiling is not None and (tiling.repeat, tiling.tile) == (2, 3)
    assert tiling.base.tolist() == [4, 1, 9] and tiling.unique_base()
    assert not tiling_of(tiled_column([4, 1, 4], 1, 1)).unique_base()
    for derived in (key[:], key[1:], key[[0, 1]], key[key > 0], key + 0, key.copy(), np.array(key)):
        assert tiling_of(derived) is None
    relation = _relation("l", k=key)
    assert tiling_of(relation.take(np.arange(3)).columns["k"]) is None
    assert tiling_of(relation.mask(key > 1).columns["k"]) is None


# -- the strided grouping -------------------------------------------------------


@given(
    base=st.one_of(
        st.lists(st.integers(-60, 60), min_size=1, max_size=60, unique=True),
        st.lists(st.integers(-3, 3), min_size=1, max_size=12),  # repeats, mostly
    ),
    repeat=st.sampled_from([1, 1, 1, 2, 3]),
    tile=st.integers(1, 40),
    kinds=st.lists(st.sampled_from(["float", "int"]), min_size=1, max_size=4),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=120, deadline=None, derandomize=True)
def test_the_strided_layout_and_its_lanes_match_the_accumulators(base, repeat, tile, kinds, seed):
    """GROUP BY a tiled key that runs through unique values (``repeat ==
    1``) is arithmetic: group ``g`` is the rows holding ``base[g]``, in row
    order, and the one pass per column over it — the column reshaped to
    ``(tile, n_groups)`` — gives each group what the accumulators give the
    rows holding its key. A repeated base, a key that repeats each value,
    and the same key as a plain array are refused."""
    key = tiled_column(base, repeat, tile)
    n_rows = len(key)
    with pytest.raises(VectorFallback):
        group_layout([np.array(key)], n_rows)
    if repeat != 1 or len(set(base)) != len(base):
        with pytest.raises(VectorFallback):
            group_layout([key], n_rows)
        return
    layout = group_layout([key], n_rows)
    assert (layout.n_groups, layout.size) == (len(base), tile)
    members = [np.flatnonzero(key == value) for value in base]
    assert [s.tolist() for s in layout.segments(np.arange(n_rows))] == [m.tolist() for m in members]

    rng = np.random.default_rng(seed)
    columns = [
        rng.normal(size=n_rows) if kind == "float" else rng.integers(-99, 99, size=n_rows)
        for kind in kinds
    ]
    specs, arrays = [], []
    for index, values in enumerate(columns):
        specs += [AggregateSpec(f"{name}{index}", name, False, False, None) for name in ("stdev", "avg", "sum")]
        arrays += [values] * 3
    answered = aggregate_columns(specs, arrays, layout)
    for spec, values, lane in zip(specs, arrays, answered):
        expected = []
        for rows in members:
            accumulator = make_aggregate(spec.name)
            for value in values[rows].tolist():
                accumulator.add(value)
            expected.append(accumulator.result())
        assert [_bits(v) for v in lane] == [_bits(v) for v in expected], spec.rendered


# -- the selections on the workload they were made for --------------------------


def test_the_figure2_combine_takes_the_tiled_join_and_the_strided_pass():
    """One fresh 2000-world point of the Figure-2 scenario — the shape of a
    ``fresh_fanout`` point — joins its two samples tables by their tiling,
    groups 53 weeks by stride, and answers each of its three AVG/STDEV
    pairs with one ``ordered_moments`` pass over the results column's
    ``(2000, 53)`` reshape, a view of a float column, not a copy. Nothing
    goes to the row tier."""
    from repro.core.config import EngineConfig, SamplingConfig
    from repro.core.engine import ProphetEngine
    from repro.dsl import parse_scenario
    from repro.models import build_demo_library
    from repro.models.scenario_library import FIGURE2_DSL

    engine = ProphetEngine(
        parse_scenario(FIGURE2_DSL, name="figure2"),
        build_demo_library(),
        EngineConfig(sampling=SamplingConfig(n_worlds=2000)),
    )
    point = dict(next(iter(engine.scenario.sweep_space.grid())))
    spied = ("_tiled_alike", "ordered_moments", "ordered_sums", "_segment_results")
    calls: dict[str, list] = {name: [] for name in spied}

    def spy(name):
        original = getattr(compiled, name)

        def recorded(*args, **kwargs):
            answer = original(*args, **kwargs)
            calls[name].append((args, answer))
            return answer

        return recorded

    with mock.patch.multiple(compiled, **{name: spy(name) for name in spied}):
        engine.evaluate_point(point, reuse=False)
    assert engine.executor.stats.fallback_selects == 0
    assert {name: len(made) for name, made in calls.items()} == {
        "_tiled_alike": 1,
        "ordered_moments": 3,
        "ordered_sums": 0,  # the AVGs read the STDEVs' totals
        "_segment_results": 0,
    }
    assert calls["_tiled_alike"][0][1] is True
    results = engine.catalog.table(engine.scenario.results_table).columnar_view().arrays
    assert [steps.shape for (steps,), _ in calls["ordered_moments"]] == [(2000, 53)] * 3
    # demand and capacity are read in place; the INT overload flag is converted once.
    assert [
        any(np.shares_memory(steps, column) for column in results.values())
        for (steps,), _ in calls["ordered_moments"]
    ] == [True, True, False]
