"""The combine answers the same from tiled keys as from plain ones, bit for bit.

``ProphetEngine._land_samples`` loads every samples table's ``world`` and
``t`` as tiled key columns (``repro.sqldb.table.tiled_column``): the
combine's join, the aggregate's GROUP BY t and its per-column passes then
read the tiling instead of the keys. The reference is the same engine landing
plain ``np.array`` copies of those columns — patch ``tiled_column`` in the
engine module, nothing else changes — which the vectorized tier refuses,
so the row tier answers the combine and the aggregate from the values. Drawn: 1 to 300 worlds (a prefix, a permutation,
or ids listed twice), every week or a scattered subset of them (what a
week-memo miss lands), and scenarios with 1 to 3 VG outputs. Compared: the
``results`` table the combine writes, the float64 rows the aggregate query
leaves in the week memo (keyed by week content), and the statistics, as
bytes.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_module
from repro.core.config import EngineConfig, SamplingConfig
from repro.core.engine import ProphetEngine, StageTimings
from repro.core.instance import InstanceBatch
from repro.dsl import parse_scenario
from repro.models import build_demo_library
from repro.sqldb.table import tiling_of

_PARAMETERS = """
DECLARE PARAMETER @current AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @feature AS SET (12,36,44);
"""

#: One scenario per number of VG outputs; each has a derived output that
#: reads a parameter, as Figure 2's does.
SELECTS = {
    1: "SELECT DemandModel(@current, @feature) AS demand, "
    "CASE WHEN demand > @purchase1 THEN 1 ELSE 0 END AS high INTO results;",
    2: "SELECT DemandModel(@current, @feature) AS demand, "
    "CapacityModel(@current, @purchase1, @purchase2) AS capacity, "
    "CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload INTO results;",
    3: "SELECT DemandModel(@current, @feature) AS demand, "
    "CapacityModel(@current, @purchase1, @purchase2) AS capacity, "
    "CapacityModel(@current, @purchase2, @purchase1) AS spare, "
    "capacity + spare - demand * 0.5 AS slack INTO results;",
}
SCENARIOS = {n: parse_scenario(_PARAMETERS + select, name=f"vg{n}") for n, select in SELECTS.items()}
POINT = {"purchase1": 8, "purchase2": 24, "feature": 12}
N_WEEKS = 53


def _plain_column(base, repeat, tile):
    """What ``tiled_column`` returns, as an array that says nothing of it."""
    return np.tile(np.repeat(np.asarray(base, dtype=np.int64), repeat), tile)


def _combined(n_outputs: int, worlds, matrices, held_weeks, tiled: bool):
    """Combine one point; everything it produced, as bytes."""
    engine = ProphetEngine(
        SCENARIOS[n_outputs], build_demo_library(), EngineConfig(sampling=SamplingConfig(n_worlds=8))
    )
    batch = InstanceBatch.at_point(POINT, worlds, engine.config.sampling.base_seed)
    use_memo = held_weeks is not None
    if use_memo:
        # The memo already answers these weeks: only the others land.
        keys = engine._week_keys(POINT, batch, matrices)
        width = 2 * len(engine.scenario.output_aliases)
        for week in held_weeks:
            engine._week_stats_cache[keys[week]] = np.full(width, 0.25)
    plain = mock.patch.object(engine_module, "tiled_column", _plain_column)
    with contextlib.nullcontext() if tiled else plain:
        statistics = engine._combine_and_aggregate(
            POINT, batch, matrices, StageTimings(), use_week_memo=use_memo
        )
    results = engine.catalog.table(engine.scenario.results_table).columnar_view()
    # The join passes the tiling through unless a world id repeats.
    joined_by_tiling = n_outputs == 1 or len(set(worlds)) == len(worlds)
    assert (tiling_of(results.arrays["t"]) is not None) == (tiled and joined_by_tiling)
    table = {name: (array.dtype.str, array.tobytes()) for name, array in results.arrays.items()}
    memo = sorted(
        (key, row.dtype.str, row.tobytes()) for key, row in engine._week_stats_cache.items()
    )
    stats = {
        alias: (
            statistics.expectation(alias).tobytes(),
            statistics.stddev(alias).tobytes(),
        )
        for alias in statistics.aliases()
    }
    return table, memo, stats, statistics.axis_values


@given(
    n_worlds=st.integers(1, 300),
    world_order=st.sampled_from(["prefix", "permuted", "repeated"]),
    weeks=st.sampled_from(["all", "scattered"]),
    n_outputs=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None, derandomize=True, phases=(Phase.generate,))
def test_tiled_and_plain_keys_combine_to_the_same_bytes(n_worlds, world_order, weeks, n_outputs, seed):
    rng = np.random.default_rng(seed)
    worlds = list(range(n_worlds))
    if world_order == "permuted":
        worlds = rng.permutation(n_worlds).tolist()
    elif world_order == "repeated":
        # A world id listed twice (any world, possibly the first)
        worlds[int(rng.integers(0, n_worlds))] = worlds[int(rng.integers(0, n_worlds))]
    held = None
    if weeks == "scattered":
        # A non-contiguous set of weeks stays in the memo; the rest land.
        held = sorted(rng.choice(N_WEEKS, size=int(rng.integers(1, N_WEEKS - 1)), replace=False).tolist())
    matrices = {
        output.alias.lower(): np.round(rng.normal(40.0, 12.0, size=(n_worlds, N_WEEKS)), 1)
        for output in SCENARIOS[n_outputs].vg_outputs
    }
    tiled = _combined(n_outputs, worlds, matrices, held, tiled=True)
    plain = _combined(n_outputs, worlds, matrices, held, tiled=False)
    assert tiled == plain
