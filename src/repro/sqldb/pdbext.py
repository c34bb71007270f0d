"""PDB extension: exposing VG-Functions to the SQL engine.

Following MCDB, a VG-Function surfaces in SQL three ways:

* **Scalar form** — ``DemandModel(@_seed, @current, @feature)``: the first
  argument is the Monte Carlo world seed, the second the component index
  (the week being simulated), the rest the model arguments. Returns one
  float. This is the form the paper's Figure 2 scenario uses (with the seed
  injected by the Query Generator).
* **Table form** — ``FROM DemandModelT(@_seed, @feature)``: generates the
  whole vector as rows ``(t, value)``, one per component. One invocation
  lands every week of one world.
* **Batch table form** — ``FROM DemandModelTB(@_worlds, @_seeds,
  @feature)``: generates an entire world slice as rows ``(world, t,
  value)`` in world-major order, one statement for the whole slice. The
  result carries columnar NumPy data, so the executor's bulk-insert path
  lands it without materializing Python row tuples — this is what the
  batched sampling plane executes.

All forms are *pure SQL* on the engine side — no Python objects cross the
query text. Determinism in ``(seed, args)`` is inherited from the VG layer.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.errors import VGFunctionError
from repro.sqldb.catalog import Catalog
from repro.sqldb.schema import Column, TableSchema
from repro.sqldb.table import ResultSet
from repro.sqldb.types import SqlType
from repro.vg.base import VGFunction
from repro.vg.library import VGLibrary

#: Bound of the scalar form's ``(seed, args)`` memo; cleared when reached.
SCALAR_FORM_MEMO_SIZE = 4096

#: Suffix distinguishing the table form from the scalar form in the catalog.
TABLE_FORM_SUFFIX = "T"

#: Suffix of the batch table form (whole world slice per call).
BATCH_FORM_SUFFIX = "TB"

#: Schema of the table form: component index + generated value.
TABLE_FORM_SCHEMA = TableSchema(
    (Column("t", SqlType.INTEGER, nullable=False), Column("value", SqlType.FLOAT, nullable=False))
)

#: Schema of the batch table form: world identity + component + value.
BATCH_FORM_SCHEMA = TableSchema(
    (
        Column("world", SqlType.INTEGER, nullable=False),
        Column("t", SqlType.INTEGER, nullable=False),
        Column("value", SqlType.FLOAT, nullable=False),
    )
)


def _coerce_seed(value: Any, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise VGFunctionError(f"{name}: first argument must be an integer world seed, got {value!r}")
    return value


def _coerce_component(value: Any, name: str, n_components: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise VGFunctionError(f"{name}: component index must be an integer, got {value!r}")
    if not 0 <= value < n_components:
        raise VGFunctionError(
            f"{name}: component index {value} out of range [0, {n_components})"
        )
    return value


def make_scalar_form(function: VGFunction):
    """Build the scalar SQL adapter ``name(seed, t, *model_args) -> float``.

    A statement reads each world's vector once per component, in whatever
    order its joins produce, so the form memoizes vectors by ``(seed, args)``
    (``function._scalar_memo``, cleared at :data:`SCALAR_FORM_MEMO_SIZE`
    entries and by ``reset_counters``): ``SELECT f(7, 0), f(7, 5)``
    generates once, and a worlds x weeks scan generates once per world in
    either join order.
    """

    def scalar_form(*sql_args: Any) -> float:
        expected = 2 + len(function.arg_names)
        if len(sql_args) != expected:
            raise VGFunctionError(
                f"{function.name} scalar form expects {expected} args "
                f"(seed, t, {', '.join(function.arg_names)}), got {len(sql_args)}"
            )
        seed = _coerce_seed(sql_args[0], function.name)
        component = _coerce_component(sql_args[1], function.name, function.n_components)
        key = (seed, tuple(sql_args[2:]))
        memo = function._scalar_memo
        vector = memo.get(key)
        if vector is None:
            if len(memo) >= SCALAR_FORM_MEMO_SIZE:
                memo.clear()
            vector = memo[key] = function.invoke(*key)
        return float(vector[component])

    scalar_form.__name__ = function.name
    return scalar_form


def make_table_form(function: VGFunction):
    """Build the table SQL adapter ``nameT(seed, *model_args) -> (t, value)``."""

    def table_form(args: tuple[Any, ...], variables: Mapping[str, Any]) -> ResultSet:
        expected = 1 + len(function.arg_names)
        if len(args) != expected:
            raise VGFunctionError(
                f"{function.name}{TABLE_FORM_SUFFIX} expects {expected} args "
                f"(seed, {', '.join(function.arg_names)}), got {len(args)}"
            )
        seed = _coerce_seed(args[0], function.name)
        model_args = tuple(args[1:])
        vector = function.invoke(seed, model_args)
        rows = [(t, float(value)) for t, value in enumerate(vector)]
        return ResultSet(schema=TABLE_FORM_SCHEMA, rows=rows)

    table_form.__name__ = function.name + TABLE_FORM_SUFFIX
    return table_form


def _coerce_world_slice(value: Any, name: str, label: str) -> np.ndarray:
    """A world slice as a 1-d integer array, checked by dtype, not per item."""
    array = np.asarray(value) if isinstance(value, (tuple, list, np.ndarray)) else None
    if array is None or array.ndim != 1 or (array.size and array.dtype.kind not in "iu"):
        raise VGFunctionError(
            f"{name}: {label} must be a sequence of integers, got {value!r}"
        )
    return array


def make_batch_table_form(function: VGFunction):
    """Build the batch SQL adapter ``nameTB(worlds, seeds, *model_args)``.

    ``worlds`` and ``seeds`` are equal-length integer arrays (bound from
    the ``@_worlds``/``@_seeds`` statement variables); the produced rows are
    ``(world, t, value)`` in the slice's own world order, world-major and
    component-minor — exactly the row order the per-world table form would
    land over a loop. The result ships columnar arrays, never Python row
    tuples.
    """

    def batch_table_form(args: tuple[Any, ...], variables: Mapping[str, Any]) -> ResultSet:
        expected = 2 + len(function.arg_names)
        if len(args) != expected:
            raise VGFunctionError(
                f"{function.name}{BATCH_FORM_SUFFIX} expects {expected} args "
                f"(worlds, seeds, {', '.join(function.arg_names)}), got {len(args)}"
            )
        worlds = _coerce_world_slice(args[0], function.name, "worlds")
        seeds = _coerce_world_slice(args[1], function.name, "seeds")
        if len(worlds) != len(seeds):
            raise VGFunctionError(
                f"{function.name}: worlds ({len(worlds)}) and seeds "
                f"({len(seeds)}) must have equal length"
            )
        model_args = tuple(args[2:])
        matrix = function.invoke_batch(seeds.tolist(), model_args)
        n_components = function.n_components
        world_column = np.repeat(worlds.astype(np.int64, copy=False), n_components)
        t_column = np.tile(np.arange(n_components, dtype=np.int64), len(worlds))
        value_column = np.ascontiguousarray(matrix, dtype=np.float64).reshape(-1)
        return ResultSet(
            schema=BATCH_FORM_SCHEMA,
            column_data=[world_column, t_column, value_column],
        )

    batch_table_form.__name__ = function.name + BATCH_FORM_SUFFIX
    return batch_table_form


def register_vg_function(catalog: Catalog, function: VGFunction, *, replace: bool = False) -> None:
    """Register every SQL form of ``function`` in ``catalog``."""
    catalog.register_scalar_function(function.name, make_scalar_form(function), replace=replace)
    catalog.register_table_function(
        function.name + TABLE_FORM_SUFFIX, make_table_form(function), replace=replace
    )
    catalog.register_table_function(
        function.name + BATCH_FORM_SUFFIX, make_batch_table_form(function), replace=replace
    )


def register_library(catalog: Catalog, library: VGLibrary, *, replace: bool = False) -> None:
    """Register every VG-Function in ``library`` with ``catalog``."""
    for function in library:
        register_vg_function(catalog, function, replace=replace)
