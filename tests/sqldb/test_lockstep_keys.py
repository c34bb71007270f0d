"""Bitwise parity of the sort/loop-free kernels of the vectorized tier.

* The blocked lane kernel (``compiled.aggregate_lanes``): every
  variance-family aggregate of a statement folded together, the means one
  array step per row position and ``m2`` one ``cumsum`` per block of steps,
  with the AVG and float SUM of the same columns read off the same pass.
  The oracle is the row interpreter's own accumulator (``make_aggregate``)
  fed row by row, at block sizes that do and do not divide the steps.
* Offset-coded integer keys (``compiled._offset_codes``): ``value - min``
  instead of an ``np.unique`` sort. The oracle is the sorted coding (the
  threshold patched so that no column qualifies) and the row interpreter.
* Counted grouping (``compiled._counted_layout``) against the sorting one,
  and the order-aware join (sort-free match) against the general match.
* Tiled key columns (``table.tiled_column``): the tiled join, the strided
  group layout and the kernel over it against what the same keys give as
  plain arrays — the counted layout and the gathered blocks.
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
    aggregate_lanes,
    equi_join,
    group_layout,
)
from repro.sqldb.table import tiled_column, tiling_of

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
    """The lane rule and the padding guard, restated: the kernel runs on a
    non-empty input with about 24 lanes a step and at most 2x padding."""
    rows, longest = sum(sizes), max(sizes, default=0)
    return rows > 0 and n_columns * rows >= 24 * longest and longest * len(sizes) <= 2 * rows


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

    with mock.patch.object(compiled, "_fold_lanes", wraps=compiled._fold_lanes) as kernel:
        answered = aggregate_lanes(specs, arrays, layout)
    assert [[_bits(v) for v in lane] for lane in answered] == expected
    assert kernel.call_count == int(_lockstep_expected(len(columns), sizes))

    # The kernel itself, whatever the rule would have decided for this shape.
    if n_rows:
        m2, _ = compiled._fold_lanes(arrays, layout, with_sums=False)
        assert len(m2) == len(arrays) and all(len(lane) == len(sizes) for lane in m2)
        folded = [
            [_bits(compiled._moments_result(spec.name, count, value)) for count, value in zip(sizes, lane)]
            for spec, lane in zip(specs, m2)
        ]
        assert folded == expected


SUM_SHAPES = {
    "ragged": [7, 1, 12, 3, 9, 12, 2, 5, 11, 8, 4, 10],
    "single-row-groups": [1] * 48,
    "even": [25] * 16,
    "with-an-empty-group": [6, 0, 6, 6, 6, 6, 6, 6],
}


@pytest.mark.parametrize("shape", sorted(SUM_SHAPES))
@pytest.mark.parametrize("values", ["float", "int", "nan", "negative-zero"])
def test_sums_and_moments_off_one_layout_match_the_accumulators(shape, values):
    """AVG/SUM/VAR/STDEV of the same columns, bit for bit, on both sides of
    the selection: read off the variances' pass when the lane rule takes
    it, and segment by segment when it does not or when no variance
    aggregate is there to share it with."""
    rng = np.random.default_rng(len(shape))
    sizes = SUM_SHAPES[shape]
    n_rows = sum(sizes)
    if values == "negative-zero":
        arrays = [np.full(n_rows, -0.0), np.full(n_rows, -0.0)]
    else:
        arrays = [_column(values, n_rows, rng), _column("float", n_rows, rng)]
    # Integer SUM is exact Python arithmetic and never reads the layout.
    sum_names = ("avg", "avg") if values == "int" else ("avg", "sum")
    sums = [AggregateSpec(f"s{i}", name, False, False, None) for i, name in enumerate(sum_names)]
    moments = [AggregateSpec(f"m{i}", name, False, False, None) for i, name in enumerate(("var", "stdev"))]

    def expected(specs, layout):
        return [
            [_bits(v) for v in _accumulated(spec.name, column, layout)]
            for spec, column in zip(specs, arrays)
        ]

    shared = _layout(sizes, rng)
    with mock.patch.object(
        compiled, "aggregate_segments", wraps=compiled.aggregate_segments
    ) as segments, mock.patch.object(
        compiled, "_fold_lanes", wraps=compiled._fold_lanes
    ) as kernel:
        answered = aggregate_lanes(moments + sums, arrays + arrays, shared)
    folded = _lockstep_expected(2, sizes)
    assert kernel.call_count == int(folded)
    # All four ride one pass, empty groups included, or none of them does.
    assert segments.call_count == (0 if folded else len(moments) + len(sums))
    assert [[_bits(v) for v in lane] for lane in answered[:2]] == expected(moments, shared)
    assert [[_bits(v) for v in lane] for lane in answered[2:]] == expected(sums, shared)

    fresh = _layout(sizes, rng)
    with mock.patch.object(
        compiled, "aggregate_segments", wraps=compiled.aggregate_segments
    ) as segments:
        alone = aggregate_lanes(sums, arrays, fresh)
    assert segments.call_count == len(sums)  # no variance pass to share
    assert [[_bits(v) for v in lane] for lane in alone] == expected(sums, fresh)


def test_sums_over_other_columns_than_the_variances_go_by_segment():
    rng = np.random.default_rng(11)
    sizes = [20] * 30
    layout = _layout(sizes, rng)
    a, b = _column("float", 600, rng), _column("float", 600, rng)
    stdev = AggregateSpec("m", "stdev", False, False, None)
    avg = AggregateSpec("s", "avg", False, False, None)
    with mock.patch.object(
        compiled, "aggregate_segments", wraps=compiled.aggregate_segments
    ) as segments, mock.patch.object(
        compiled, "_fold_lanes", wraps=compiled._fold_lanes
    ) as kernel:
        answered = aggregate_lanes([stdev, stdev, avg, avg], [a, a, a, b], layout)
    # One pass over ``a`` (folded once), AVG(a) read off it, AVG(b) alone.
    assert [len(call.args[0]) for call in kernel.call_args_list] == [1]
    assert [call.args[1] is b for call in segments.call_args_list] == [True]
    for spec, values, lane in zip([stdev, stdev, avg, avg], [a, a, a, b], answered):
        expected = _accumulated(spec.name, values, layout)
        assert [_bits(v) for v in lane] == [_bits(v) for v in expected]


def _edge_columns(n_rows, rng) -> dict:
    """One column of each kind the block folds must carry through exactly."""
    with_nan, with_inf = rng.normal(1e3, 250.0, n_rows), rng.normal(0.0, 1e150, n_rows)
    with_nan[:: 5] = np.nan
    with_inf[1 :: 7], with_inf[3 :: 11] = np.inf, -np.inf
    return {
        "float": rng.normal(1e3, 250.0, n_rows),
        "negative-zero": np.full(n_rows, -0.0),
        "nan": with_nan,
        "inf": with_inf,
        "int": rng.integers(-(2**62), 2**62, size=n_rows, dtype=np.int64),  # past 2**53
    }


BLOCK_LAYOUTS = {
    "strided": lambda rng: compiled._strided_layout(40, 9),
    "ragged-with-empties": lambda rng: _layout([7, 0, 12, 3, 0, 9, 12, 2, 5, 11, 8, 4, 10, 1], rng),
    "one-long-among-singletons": lambda rng: _layout([1] * 20 + [17] + [1] * 20, rng),
    "8000-rows-per-group": lambda rng: compiled._strided_layout(3, 8000),
}


@pytest.mark.parametrize("block", [1, 3, 5])
@pytest.mark.parametrize("shape", sorted(BLOCK_LAYOUTS))
def test_block_boundaries_keep_the_accumulators_bits(shape, block):
    """MOMENTS, AVG and float SUM through the kernel at block sizes of one
    step, of three, and of five (which divides none of these layouts' step
    counts, so the last block is short), against the accumulators. The lane
    rule is opened so that every layout takes the kernel; a SUM of -0.0
    keeps its sign on the ragged layout."""
    rng = np.random.default_rng(block)
    layout = BLOCK_LAYOUTS[shape](rng)
    columns = _edge_columns(len(layout.sorted_rows), rng)
    if shape == "8000-rows-per-group":
        columns = {kind: columns[kind] for kind in ("float", "negative-zero")}
    specs, arrays = [], []
    for kind, values in columns.items():
        names = MOMENTS + (("avg",) if kind == "int" else ("avg", "sum"))
        specs += [AggregateSpec(f"{name}_{kind}", name, False, False, None) for name in names]
        arrays += [values] * len(names)
    with mock.patch.multiple(
        compiled, _LANE_BLOCK=block, _LOCKSTEP_MIN_LANES=0, _LOCKSTEP_MAX_PADDING=10**9
    ), mock.patch.object(
        compiled, "_fold_lanes", wraps=compiled._fold_lanes
    ) as kernel, mock.patch.object(
        compiled, "aggregate_segments", wraps=compiled.aggregate_segments
    ) as segments:
        answered = aggregate_lanes(specs, arrays, layout)
    assert [len(call.args[0]) for call in kernel.call_args_list] == [len(columns)]
    assert segments.call_count == 0
    for spec, values, lane in zip(specs, arrays, answered):
        expected = [_bits(v) for v in _accumulated(spec.name, values, layout)]
        assert [_bits(v) for v in lane] == expected, spec.rendered
    totals = answered[specs.index(next(s for s in specs if s.rendered == "sum_negative-zero"))]
    sizes = (layout.ends - layout.starts).tolist()
    assert [_bits(v) for v in totals] == [_bits(-0.0) if n else None for n in sizes]


@pytest.mark.parametrize("sizes", [[3, 2], [30] * 40], ids=["scalar-loop", "lockstep"])
def test_boolean_columns_are_rejected_on_both_sides_of_the_lane_rule(sizes):
    rng = np.random.default_rng(0)
    layout = _layout(sizes, rng)
    flags = _column("bool", sum(sizes), rng)
    spec = AggregateSpec("a", "stdev", False, False, None)
    assert _lockstep_expected(1, sizes) == (len(sizes) == 40)
    with pytest.raises(VectorFallback):
        aggregate_lanes([spec], [flags], layout)
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
    """Three variance columns and an AVG over one of them: one kernel pass
    folds the three, and the AVG rides it."""
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
        compiled, "_fold_lanes", wraps=compiled._fold_lanes
    ) as kernel, mock.patch.object(
        compiled, "aggregate_segments", wraps=compiled.aggregate_segments
    ) as segments:
        result = fast.execute(sql)
    assert [len(call.args[0]) for call in kernel.call_args_list] == [3]
    assert segments.call_count == 0  # AVG(a) rides the pass (COUNT(*) is the executor's)
    assert fast.stats.vectorized_selects == 1 and fast.stats.fallback_selects == 0
    expected = reference.execute(sql)
    assert [[_bits(float(v)) for v in row] for row in result.rows] == [
        [_bits(float(v)) for v in row] for row in expected.rows
    ]


def test_a_handful_of_groups_keeps_the_scalar_loop():
    rows = [(t, float(t * w), 1.0, w) for t in range(3) for w in range(200)]
    fast, reference = _executors(rows)
    sql = "SELECT t, STDEV(a) AS s, VAR(c) AS v FROM x GROUP BY t ORDER BY t"
    with mock.patch.object(compiled, "_fold_lanes", wraps=compiled._fold_lanes) as kernel:
        result = fast.execute(sql)
    assert kernel.call_count == 0  # 2 columns x 600 rows < 24 x 200
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


# -- counted grouping, order-aware join -----------------------------------------


@given(
    keys=st.lists(
        st.lists(st.integers(-6, 6), min_size=0, max_size=80), min_size=1, max_size=3
    ),
    spread=st.sampled_from([1, 2, 5]),
)
@settings(max_examples=120, deadline=None)
def test_counted_and_sorted_layouts_are_identical(keys, spread):
    """On composite codes both accept, counting and ``np.unique`` return the
    same arrays — values and dtypes."""
    n_rows = min(len(column) for column in keys)
    arrays = [np.asarray(column[:n_rows], dtype=np.int64) * spread for column in keys]
    # Offset codes span up to 61 values per key at spread 5 (61**3 > 2**16),
    # so the bound is lifted to make sure counting answers.
    with mock.patch.object(compiled, "_COUNTING_MAX_CODES", 2**20), mock.patch.object(
        compiled, "_counted_layout", wraps=compiled._counted_layout
    ) as counted:
        layout = group_layout(arrays, n_rows)
    assert counted.call_count == 1
    with mock.patch.object(compiled, "_COUNTING_MAX_CODES", 0), mock.patch.object(
        compiled, "_counted_layout", wraps=compiled._counted_layout
    ) as counted:
        expected = group_layout(arrays, n_rows)
    assert counted.call_count == 0
    for name in ("sorted_rows", "starts", "ends", "rep_rows"):
        ours, theirs = getattr(layout, name), getattr(expected, name)
        assert ours.tolist() == theirs.tolist() and ours.dtype == theirs.dtype, name


def test_a_wide_code_space_keeps_the_sorting_layout():
    sparse = np.array([0, 70_000, 5, 70_000, 0], dtype=np.int64) * 10**6  # ranked: 3 codes
    wide = np.arange(30_000, dtype=np.int64)[::-1] * 3  # offset-coded: 89 998 codes
    pair = [np.arange(300).repeat(2), np.tile(np.arange(299, -1, -1), 2)]  # 300 x 300 codes
    for arrays, counts in (([sparse], 1), ([wide], 0), (pair, 0)):
        with mock.patch.object(
            compiled, "_counted_layout", wraps=compiled._counted_layout
        ) as counted:
            layout = group_layout(arrays, len(arrays[0]))
        assert counted.call_count == counts
        with mock.patch.object(compiled, "_COUNTING_MAX_CODES", 2**40):
            forced = group_layout(arrays, len(arrays[0]))
        for name in ("sorted_rows", "starts", "ends", "rep_rows"):
            assert getattr(layout, name).tolist() == getattr(forced, name).tolist()


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


def _general_join(left, right, left_keys, right_keys):
    """The reference: dense codes, the stable sort, the match, two takes."""
    codes = compiled._dense_codes(left_keys, right_keys, left.n_rows)
    left_take, right_take = compiled._match_codes(*codes)
    general = compiled.merge_relations(left.take(left_take), right.take(right_take))
    return {key: array.tobytes() for key, array in sorted(general.columns.items())}


@pytest.mark.parametrize("case", sorted(JOIN_ORDERS))
def test_join_kernel_selection_and_its_answer(case):
    """Plain key columns say nothing about their layout, so every pair —
    the aligned one included — is matched; a sorted right side skips the
    sort; the answer is what the general sort-and-match gives."""
    left_key, right_key = (np.asarray(k, dtype=np.int64) for k in JOIN_ORDERS[case])
    left = _relation("l", k=left_key, a=np.arange(len(left_key)) * 1.5)
    right = _relation("r", k=right_key, b=np.arange(len(right_key)) * -2.5)
    conjuncts = [("l.k", "r.k")]
    with mock.patch.object(compiled, "_match_codes", wraps=compiled._match_codes) as matched:
        answered = _joined(left, right, conjuncts)
    assert matched.call_count == 1
    right_sorted = bool(np.all(np.diff(right_key) >= 0))
    assert matched.call_args.args[2] is right_sorted
    assert answered == _general_join(left, right, [left_key], [right_key])


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
    bases, tiled alike, join row by row without reading a key; every other
    pair — and a join on ``w`` alone, which repeats — is matched. Either way
    the answer is the general match's."""
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
    with mock.patch.object(compiled, "_match_codes", wraps=compiled._match_codes) as matched:
        answered = _joined(left, right, conjuncts)
    assert matched.call_count == (0 if taken else 1)
    keys = ("w", "t") if on != "w-only" else ("w",)
    expected = _general_join(
        left, right, [left.columns[f"l.{k}"] for k in keys], [right.columns[f"r.{k}"] for k in keys]
    )
    assert answered == expected


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
def test_the_strided_layout_and_its_lanes_match_the_counted_build(base, repeat, tile, kinds, seed):
    """GROUP BY a tiled key that runs through unique values (``repeat ==
    1``) is arithmetic: the same arrays, values and dtypes, as the counted
    layout of the same keys as a plain array, and the kernel's ``m2`` and
    totals over it — blocks reshaped from row ranges — are byte-equal to
    those over the plain layout, whose blocks are gathered. A repeated
    base, or a key that repeats each value, is counted."""
    key = tiled_column(base, repeat, tile)
    n_rows = len(key)
    strides = repeat == 1 and len(set(base)) == len(base)
    with mock.patch.object(compiled, "_counted_layout", wraps=compiled._counted_layout) as counted:
        strided = group_layout([key], n_rows)
    assert counted.call_count == (0 if strides else 1)
    assert strided.stride == (len(base) if strides else None)
    plain = group_layout([np.array(key)], n_rows)
    assert plain.stride is None
    for name in ("sorted_rows", "starts", "ends", "rep_rows"):
        ours, theirs = getattr(strided, name), getattr(plain, name)
        assert ours.tolist() == theirs.tolist() and ours.dtype == theirs.dtype, name

    rng = np.random.default_rng(seed)
    columns = [
        rng.normal(size=n_rows) if kind == "float" else rng.integers(-99, 99, size=n_rows)
        for kind in kinds
    ]
    with mock.patch.object(compiled, "_LANE_BLOCK", 7):  # blocks that do not divide
        ours, theirs = (compiled._fold_lanes(columns, layout, True) for layout in (strided, plain))
        for mine, other in zip(ours, theirs):
            assert np.array(mine).tobytes() == np.array(other).tobytes()
    specs = [AggregateSpec(f"m{i}", "stdev", False, False, None) for i in range(len(columns))]
    assert [[_bits(v) for v in lane] for lane in aggregate_lanes(specs, columns, strided)] == [
        [_bits(v) for v in lane] for lane in aggregate_lanes(specs, columns, plain)
    ]


# -- the selections on the workload they were made for --------------------------


def test_the_figure2_combine_takes_every_order_aware_path():
    """One fresh 2000-world point of the Figure-2 scenario — the shape of a
    ``fresh_fanout`` point — joins its two samples tables by their tiling,
    groups 53 weeks by stride, folds its three STDEV columns in one kernel
    pass whose blocks are row ranges reshaped in place, and reads its three
    AVGs off that pass. No key is coded, counted or matched."""
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
    spied = (
        "_tiled_alike", "_strided_layout", "_fold_lanes", "_fill_block", "_dense_codes",
        "_counted_layout", "_sorted_layout", "_match_codes", "aggregate_segments",
    )
    returned: dict[str, list] = {name: [] for name in spied}

    def spy(name):
        original = getattr(compiled, name)

        def recorded(*args, **kwargs):
            returned[name].append((args, original(*args, **kwargs)))
            if name == "_fill_block":  # the buffer is refilled: keep what it held
                returned[name][-1] = (args, np.array(args[0][: args[4] - args[3]]))
            return returned[name][-1][1]

        return recorded

    with mock.patch.multiple(compiled, **{name: spy(name) for name in spied}):
        engine.evaluate_point(point, reuse=False)
    assert engine.executor.stats.fallback_selects == 0
    assert {name: len(calls) for name, calls in returned.items()} == {
        "_tiled_alike": 1,
        "_strided_layout": 1,
        "_fold_lanes": 1,
        "_fill_block": -(-2000 // compiled._LANE_BLOCK),
        "_dense_codes": 0,
        "_counted_layout": 0,
        "_sorted_layout": 0,
        "_match_codes": 0,
        "aggregate_segments": 0,  # AVG x 3 ride the kernel's pass
    }
    assert returned["_tiled_alike"][0][1] is True
    (_, layout), = returned["_strided_layout"]
    assert layout.stride == 53
    (kernel_args, _), = returned["_fold_lanes"]
    columns = kernel_args[0]
    assert len(columns) == 3 and kernel_args[2] is True  # the AVGs' totals too
    # The reshape, on the last block (it starts past 0 and is not full):
    # lane (group g, column c) at step k is row k * 53 + g.
    (out, _, source, first, last, slots), block = returned["_fill_block"][-1]
    assert source is None and slots == 53 and last == 2000 and 0 < first < last
    for index, values in enumerate(columns):
        rows = values.astype(np.float64)[first * 53 : last * 53].reshape(last - first, 53)
        assert block[:, :, index].tobytes() == rows.tobytes()
