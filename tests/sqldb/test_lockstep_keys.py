"""Bitwise parity of the two sort/loop-free kernels of the vectorized tier.

* Lockstep moments (``compiled.aggregate_moments``): every variance-family
  aggregate of a statement advanced together, one array step per row
  position. The oracle is the row interpreter's own accumulator
  (``make_aggregate``) fed row by row.
* Offset-coded integer keys (``compiled._offset_codes``): ``value - min``
  instead of an ``np.unique`` sort. The oracle is the sorted coding (the
  threshold patched so that no column qualifies) and the row interpreter.
"""

from __future__ import annotations

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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
    aggregate_moments,
    equi_join,
    group_layout,
)

MOMENTS = ("var", "varp", "stdev", "stdevp")


def _bits(value):
    """A result as comparable bytes: None, or the float's exact bit pattern."""
    return None if value is None else struct.pack("<d", value)


def _layout(sizes, rng) -> GroupLayout:
    """Groups of the given sizes (empties allowed) over shuffled rows."""
    sizes = np.asarray(sizes, dtype=np.int64)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    sorted_rows = rng.permutation(int(sizes.sum()))
    rep_rows = sorted_rows[starts[sizes > 0]]
    return GroupLayout(sorted_rows=sorted_rows, starts=starts, ends=ends, rep_rows=rep_rows)


def _column(kind, n_rows, rng) -> np.ndarray:
    if kind == "int":
        return rng.integers(-(2**62), 2**62, size=n_rows, dtype=np.int64)  # past 2**53
    if kind == "bool":
        return rng.integers(0, 2, size=n_rows).astype(np.bool_)
    values = rng.normal(1e3, 250.0, size=n_rows)
    if kind == "nan" and n_rows:
        values[rng.integers(0, n_rows, size=max(1, n_rows // 7))] = np.nan
    return values


def _accumulated(name, values, layout) -> list:
    """The oracle: one fresh accumulator per group, fed row by row."""
    results = []
    for start, end in zip(layout.starts, layout.ends):
        accumulator = make_aggregate(name)
        for row in layout.sorted_rows[start:end]:
            accumulator.add(values[row].item())
        results.append(accumulator.result())
    return results


def _lockstep_expected(n_columns, sizes) -> bool:
    """The lane rule and the padding guard, restated from the issue."""
    rows, longest = sum(sizes), max(sizes, default=0)
    return n_columns * rows >= 32 * longest and longest * len(sizes) <= 2 * rows


group_sizes = st.one_of(
    st.lists(st.integers(0, 12), min_size=1, max_size=60),  # ragged, with empties
    st.tuples(st.integers(1, 60), st.integers(1, 30)).map(lambda t: [t[1]] * t[0]),
    # One long group among singletons: enough lanes, too much padding.
    st.tuples(st.integers(1, 300), st.integers(5, 40)).map(
        lambda t: [1] * (t[0] // 2) + [t[1]] + [1] * (t[0] - t[0] // 2)
    ),
    st.just([1]),
    st.just([0, 0]),
)


@given(
    sizes=group_sizes,
    columns=st.lists(
        st.tuples(st.sampled_from(MOMENTS), st.sampled_from(["float", "int", "nan"])),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_moments_match_the_accumulators_bit_for_bit(sizes, columns, seed):
    rng = np.random.default_rng(seed)
    layout = _layout(sizes, rng)
    n_rows = int(sum(sizes))
    specs = [AggregateSpec(f"a{i}", name, False, False, None) for i, (name, _) in enumerate(columns)]
    arrays = [_column(kind, n_rows, rng) for _, kind in columns]
    expected = [
        [_bits(v) for v in _accumulated(spec.name, values, layout)]
        for spec, values in zip(specs, arrays)
    ]

    with mock.patch.object(
        compiled, "_lockstep_moments", wraps=compiled._lockstep_moments
    ) as lockstep:
        answered = aggregate_moments(specs, arrays, layout)
    assert [[_bits(v) for v in lane] for lane in answered] == expected
    assert lockstep.call_count == int(_lockstep_expected(len(columns), sizes))

    # The kernel itself, whatever the rule would have decided for this shape.
    m2 = compiled._lockstep_moments(arrays, layout)
    assert m2.shape == (len(arrays), len(sizes))
    kernel = [
        [_bits(compiled._moments_result(spec.name, count, value)) for count, value in zip(sizes, lane)]
        for spec, lane in zip(specs, m2.tolist())
    ]
    assert kernel == expected


@pytest.mark.parametrize("sizes", [[3, 2], [30] * 40], ids=["scalar-loop", "lockstep"])
def test_boolean_columns_are_rejected_on_both_sides_of_the_lane_rule(sizes):
    rng = np.random.default_rng(0)
    layout = _layout(sizes, rng)
    flags = _column("bool", sum(sizes), rng)
    spec = AggregateSpec("a", "stdev", False, False, None)
    assert _lockstep_expected(1, sizes) == (len(sizes) == 40)
    with pytest.raises(VectorFallback):
        aggregate_moments([spec], [flags], layout)
    with pytest.raises(TypeMismatchError):  # what the fallback then reports
        _accumulated("stdev", flags, layout)


def _executors(rows):
    pair = []
    for fast in (True, False):
        executor = Executor(Catalog())
        executor.enable_vectorized = fast
        executor.execute("CREATE TABLE x (t INT, a FLOAT, b FLOAT, c INT)")
        executor.catalog.table("x").insert_many(rows)
        pair.append(executor)
    return pair


def test_three_moment_aggregates_take_one_lockstep_pass():
    rng = np.random.default_rng(5)
    rows = [
        (int(t), float(rng.normal()), float(rng.normal(50.0, 9.0)), int(rng.integers(-99, 99)))
        for t in np.tile(np.arange(40), 30)
    ]
    fast, reference = _executors(rows)
    sql = (
        "SELECT t, AVG(a) AS e, STDEV(a) AS s, VAR(b) AS v, STDEVP(c) AS p, COUNT(*) AS n "
        "FROM x GROUP BY t ORDER BY t"
    )
    with mock.patch.object(
        compiled, "_lockstep_moments", wraps=compiled._lockstep_moments
    ) as lockstep:
        result = fast.execute(sql)
    assert lockstep.call_count == 1
    assert [len(call.args[0]) for call in lockstep.call_args_list] == [3]
    assert fast.stats.vectorized_selects == 1 and fast.stats.fallback_selects == 0
    expected = reference.execute(sql)
    assert [[_bits(float(v)) for v in row] for row in result.rows] == [
        [_bits(float(v)) for v in row] for row in expected.rows
    ]


def test_a_handful_of_groups_keeps_the_scalar_loop():
    rows = [(t, float(t * w), 1.0, w) for t in range(3) for w in range(200)]
    fast, reference = _executors(rows)
    sql = "SELECT t, STDEV(a) AS s, VAR(c) AS v FROM x GROUP BY t ORDER BY t"
    with mock.patch.object(
        compiled, "_lockstep_moments", wraps=compiled._lockstep_moments
    ) as lockstep:
        result = fast.execute(sql)
    assert lockstep.call_count == 0  # 2 columns x 600 rows < 32 x 200
    assert result.rows == reference.execute(sql).rows


# -- offset-coded integer keys --------------------------------------------------


def _relation(label, **columns) -> ColumnarRelation:
    bound = {}
    for name, array in columns.items():
        bound[name] = bound[f"{label}.{name}"] = np.asarray(array)
    n_rows = len(next(iter(columns.values())))
    return ColumnarRelation(bound, {}, set(bound), n_rows)


def _joined(left, right, conjuncts):
    joined = equi_join(left, right, conjuncts)
    return {key: array.tobytes() for key, array in sorted(joined.columns.items())}


def _sorted_coding():
    """The pre-offset behaviour: no column ever qualifies."""
    return mock.patch.object(compiled, "_KEY_RANGE_PER_ROW", 0)


KEY_CASES = {
    "negative": (np.array([-7, -3, -3, 0, 4, -7]), np.array([4, -3, -7, -7, 9])),
    "duplicate-heavy": (np.repeat([5, 6], 40), np.tile([6, 5, 5, 7], 15)),
    "disjoint": (np.arange(10), np.arange(20, 30)),
    "empty-right": (np.arange(4), np.array([], dtype=np.int64)),
    "wide-range": (np.array([0, 10**12, 5, 10**12]), np.array([10**12, 5, 1, 0, 0])),
    "int64-extremes": (
        np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0]),
        np.array([0, np.iinfo(np.int64).max]),
    ),
}


@pytest.mark.parametrize("case", sorted(KEY_CASES))
def test_offset_and_sorted_codes_join_identically(case):
    left_key, right_key = (array.astype(np.int64) for array in KEY_CASES[case])
    left = _relation("l", k=left_key, a=np.arange(len(left_key)) * 1.5)
    right = _relation("r", k=right_key, b=np.arange(len(right_key)) * -2.5)
    conjuncts = [("l.k", "r.k")]
    offset = compiled._offset_codes((left_key, right_key))
    assert (offset is None) == (case in ("wide-range", "int64-extremes"))
    with _sorted_coding():
        assert compiled._offset_codes((left_key, right_key)) is None
        expected = _joined(left, right, conjuncts)
    assert _joined(left, right, conjuncts) == expected


def test_wide_range_declines_exactly_at_the_bound():
    rows = 8
    keys = np.zeros(rows, dtype=np.int64)
    keys[-1] = compiled._KEY_RANGE_PER_ROW * rows - 1  # max - min < 4 x rows
    assert compiled._offset_codes((keys,)) is not None
    keys[-1] += 1
    assert compiled._offset_codes((keys,)) is None


def test_mixed_int_float_keys_keep_the_sorted_coding():
    left = _relation("l", k=np.array([1, 2, 3, 2], dtype=np.int64))
    right = _relation("r", k=np.array([2.0, 3.0, 2.5, 1.0]))
    with mock.patch.object(compiled, "_offset_codes", wraps=compiled._offset_codes) as offset:
        joined = equi_join(left, right, [("l.k", "r.k")])
    assert offset.call_count == 0
    assert joined.columns["l.k"].tolist() == [1, 2, 3, 2]
    assert joined.columns["r.k"].tolist() == [1.0, 2.0, 3.0, 2.0]


def test_composite_keys_past_max_code_fall_back():
    rows = 1000
    rng = np.random.default_rng(3)
    # Six dense-enough keys of ~4000 values each: 4000**6 > 2**62.
    keys = {f"k{i}": rng.permutation(4 * rows - 1)[:rows].astype(np.int64) for i in range(6)}
    left, right = _relation("l", **keys), _relation("r", **keys)
    assert all(compiled._offset_codes((k, k)) is not None for k in keys.values())
    conjuncts = [(f"l.k{i}", f"r.k{i}") for i in range(6)]
    with pytest.raises(VectorFallback):
        equi_join(left, right, conjuncts)
    with pytest.raises(VectorFallback):
        group_layout(list(keys.values()), rows)


@given(
    keys=st.lists(
        st.lists(st.integers(-40, 40), min_size=1, max_size=60), min_size=1, max_size=3
    ),
    spread=st.sampled_from([1, 3, 10**9]),
)
@settings(max_examples=80, deadline=None)
def test_group_layout_is_the_same_under_either_coding(keys, spread):
    n_rows = min(len(column) for column in keys)
    arrays = [np.asarray(column[:n_rows], dtype=np.int64) * spread for column in keys]
    layout = group_layout(arrays, n_rows)
    with _sorted_coding():
        expected = group_layout(arrays, n_rows)
    for field in ("sorted_rows", "starts", "ends", "rep_rows"):
        assert getattr(layout, field).tolist() == getattr(expected, field).tolist()


def test_sql_join_on_offset_keys_matches_the_row_interpreter():
    rows = [(w, t, float(w * 53 + t)) for w in range(-6, 6) for t in range(5)]
    pair = []
    for fast in (True, False):
        executor = Executor(Catalog())
        executor.enable_vectorized = fast
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
    assert fast.execute(sql).rows == reference.execute(sql).rows
    assert fast.stats.vectorized_selects == 1 and reference.stats.vectorized_selects == 0
