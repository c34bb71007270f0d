"""End-to-end differential oracle: the engine's own SQL, replayed by sqlite3.

``tests/sqldb/test_sqlite_oracle.py`` checks generated statements over
small two-table databases; every pipeline parity test compares ``sqldb``
with ``sqldb``. Here the statements are the ones the engine runs for real
points of every ``scenario_library`` scenario (Figure 2 as parsed DSL, the
risk-vs-cost, growth and maintenance scenarios), three fresh points each at
64 worlds. For each point the test captures the combine statement with the
point's bindings, the samples tables as they were landed when it ran, and
the aggregate statement; it replays the three in an in-memory ``sqlite3``
and compares sqlite's answer with the statistics the engine returned:

* every AVG (an ``EXPECT``) with ``==``: both engines add a group's values
  in world order, so the float sums are the same sums;
* every STDEV (an ``EXPECT_STDDEV``) at rel 1e-9 against sqlite's, which
  is computed exactly over ``fractions.Fraction`` (sqlite has no STDEV);
* the combine's results table row for row with ``==``, ordered by
  ``(world, t)``.

The one dialect difference the statements need rewritten is the one
``test_sqlite_oracle.py`` names: a SELECT-list alias is visible to later
items of the same list in sqldb (the derived outputs read the VG outputs
that way), not in sqlite, so each alias a later item reads is inlined as
its parenthesised expression; ``SELECT ... INTO t FROM`` becomes ``CREATE
TABLE t AS SELECT ... FROM``. ``@parameters`` stay in the text: sqlite
binds ``@name`` from the same mapping the engine bound.
"""

from __future__ import annotations

import math
import re
import sqlite3
from fractions import Fraction

import pytest

from repro.core.config import EngineConfig, SamplingConfig
from repro.core.engine import ProphetEngine
from repro.dsl import parse_scenario
from repro.models import build_demo_library
from repro.models.scenario_library import (
    FIGURE2_DSL,
    build_growth_scenario,
    build_maintenance_scenario,
    build_risk_vs_cost,
)
from repro.sqldb.parser import parse_statement

N_WORLDS = 64

SCENARIOS = {
    "figure2-dsl": lambda: (parse_scenario(FIGURE2_DSL, name="figure2"), build_demo_library()),
    "risk-vs-cost": build_risk_vs_cost,
    "growth": build_growth_scenario,
    "maintenance": build_maintenance_scenario,
}


class _ExactStdev:
    """STDEV for sqlite: the sample standard deviation, exact over
    ``Fraction`` up to the final square root."""

    def __init__(self) -> None:
        self.values: list[Fraction] = []

    def step(self, value) -> None:
        if value is not None:
            self.values.append(Fraction(value))

    def finalize(self):
        count = len(self.values)
        if count < 2:
            return None
        mean = sum(self.values) / count
        return math.sqrt(sum((value - mean) ** 2 for value in self.values) / (count - 1))


def _capture(engine: ProphetEngine, point: dict) -> dict:
    """Evaluate ``point`` fresh; return its statistics and what its combine
    and aggregate statements ran over."""
    querygen = engine.querygen
    combine, aggregate = querygen.combine_sql_template(), querygen.aggregate_sql()
    captured: dict = {}
    execute = engine.executor.execute

    def recording(sql, variables=None):
        if sql == combine:
            captured["combine"] = (sql, dict(variables))
            captured["samples"] = {}
            for output in engine.scenario.vg_outputs:
                name = querygen.samples_table(output.alias)
                arrays = engine.catalog.table(name).columnar_view().arrays
                captured["samples"][name] = list(
                    zip(*(arrays[column].tolist() for column in ("world", "t", "value")))
                )
        result = execute(sql, variables)
        if sql == combine:
            table = engine.catalog.table(engine.scenario.results_table)
            arrays = table.columnar_view().arrays  # read in place: rows would drop the tiling
            names = tuple(name.lower() for name in table.schema.names)
            captured["results"] = (names, sorted(zip(*(arrays[name].tolist() for name in names))))
        elif sql == aggregate:
            captured["aggregate"] = sql
        return result

    engine.executor.execute = recording
    try:
        captured["statistics"] = engine.evaluate_point(point, reuse=False).statistics
    finally:
        del engine.executor.execute
    return captured


def _sqlite_combine(sql: str) -> str:
    """The combine statement in sqlite's dialect: aliases inlined, ``INTO``
    turned into ``CREATE TABLE ... AS``."""
    select = parse_statement(sql)
    inlined: dict[str, str] = {}
    items = []
    for item in select.items:
        rendered = item.expression.render()
        for alias, expression in inlined.items():
            rendered = re.sub(rf"\b{alias}\b", f"({expression})", rendered, flags=re.IGNORECASE)
        inlined[item.alias.lower()] = rendered
        items.append(f"{rendered} AS {item.alias}")
    tail = sql.split(f" INTO {select.into} ", 1)[1]
    return f"CREATE TABLE {select.into} AS SELECT {', '.join(items)} {tail}"


def _replay(engine: ProphetEngine, captured: dict):
    """sqlite's results table and aggregate rows for one captured point."""
    connection = sqlite3.connect(":memory:")
    connection.create_aggregate("STDEV", 1, _ExactStdev)
    try:
        for output in engine.scenario.vg_outputs:
            connection.execute(engine.querygen.create_samples_table_sql(output.alias))
        for name, rows in captured["samples"].items():
            connection.executemany(f"INSERT INTO {name} VALUES (?, ?, ?)", rows)
        sql, variables = captured["combine"]
        connection.execute(_sqlite_combine(sql), variables)
        results = connection.execute(
            f"SELECT * FROM {engine.scenario.results_table} ORDER BY world, t"
        )
        names = tuple(column[0].lower() for column in results.description)
        results = (names, results.fetchall())
        return results, connection.execute(captured["aggregate"]).fetchall()
    finally:
        connection.close()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fresh_points_match_sqlite(name):
    scenario, library = SCENARIOS[name]()
    engine = ProphetEngine(scenario, library, EngineConfig(sampling=SamplingConfig(n_worlds=N_WORLDS)))
    grid = [dict(point) for point in scenario.sweep_space.grid()]
    aliases = scenario.output_aliases
    for point in (grid[0], grid[len(grid) // 2], grid[-1]):
        captured = _capture(engine, point)
        # Both statements ran on the vectorized tier: the tiled join, the strided GROUP BY.
        assert engine.executor.stats.fallback_selects == 0
        assert set(captured) == {"combine", "samples", "results", "aggregate", "statistics"}
        assert all(len(rows) == N_WORLDS * 53 for rows in captured["samples"].values())
        results, rows = _replay(engine, captured)
        assert results == captured["results"], point

        statistics = captured["statistics"]
        assert [row[0] for row in rows] == list(range(53))
        for index, alias in enumerate(aliases):
            expectations = [row[1 + 2 * index] for row in rows]
            stddevs = [row[2 + 2 * index] for row in rows]
            assert statistics.expectation(alias).tolist() == expectations, (point, alias)
            assert statistics.stddev(alias).tolist() == pytest.approx(stddevs, rel=1e-9, abs=0.0), (
                point,
                alias,
            )
