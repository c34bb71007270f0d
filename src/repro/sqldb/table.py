"""In-memory table storage for the mini SQL engine.

Tables hold one relation in either (or both) of two physical layouts:

* **row-major** — a list of tuples in insertion order (the original layout;
  canonical for the row-at-a-time interpreter and for DML);
* **column-major** — one NumPy array per column (the vectorized executor's
  layout; the Storage Manager bulk-loads Monte Carlo samples this way).

Either layout is materialized from the other on demand and cached until the
next mutation. A small ``ResultSet`` wrapper carries query output with its
schema and supports the same dual representation, so ``SELECT ... INTO``
can move columnar data between tables without ever building row tuples.

A loader that knows how it laid out an integer key column can say so:
:func:`tiled_column` returns a read-only array together with its
:class:`Tiling` (``np.tile(np.repeat(base, repeat), tile)``), and
:func:`tiling_of` reads the description back. The description belongs to
that one array object: anything derived from it (a slice, a gather, a
ufunc result, a copy, the rows an INSERT/UPDATE/DELETE re-packs) is a new
array and has none, while passing the array itself along — a bare column
projection, ``SELECT ... INTO`` — keeps it.
"""

from __future__ import annotations

import weakref
from typing import Any, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from repro.errors import CatalogError
from repro.sqldb.schema import TableSchema, columnar_dtype
from repro.sqldb.types import format_value


class Tiling(NamedTuple):
    """``np.tile(np.repeat(base, repeat), tile)``: how a key column was laid out."""

    base: np.ndarray  # int64, read-only
    repeat: int
    tile: int

    def unique_base(self) -> bool:
        """No value of ``base`` repeats (so no key in a block does).

        An increasing base — a world prefix, the weeks — answers in one
        comparison pass; ``np.unique`` (~50x slower at 2000 values) is left
        for the rest.
        """
        base = self.base
        if len(base) < 2 or bool(np.all(base[1:] > base[:-1])):
            return True
        return len(np.unique(base)) == len(base)


#: ``id(array) -> (weak reference to the array, its tiling)``; an entry
#: leaves when its array is collected, before the id can be reused.
_TILINGS: dict[int, tuple[weakref.ref, Tiling]] = {}


def tiled_column(base: Sequence[int], repeat: int, tile: int) -> np.ndarray:
    """``np.tile(np.repeat(base, repeat), tile)`` as a read-only int64 array
    that :func:`tiling_of` describes."""
    base = np.array(base, dtype=np.int64)
    base.flags.writeable = False
    array = np.tile(np.repeat(base, repeat), tile)
    array.flags.writeable = False
    key = id(array)
    _TILINGS[key] = (
        weakref.ref(array, lambda _, key=key: _TILINGS.pop(key, None)),
        Tiling(base, int(repeat), int(tile)),
    )
    return array


def tiling_of(array: Any) -> Optional[Tiling]:
    """The tiling :func:`tiled_column` built ``array`` with, else None."""
    entry = _TILINGS.get(id(array))
    if entry is None or entry[0]() is not array:
        return None
    return entry[1]


class ColumnarView:
    """Read-only column-major view of a relation.

    ``arrays`` maps lowercase column names to packed NumPy arrays
    (int64/float64/bool). ``objects`` maps the remaining columns (TEXT,
    NULL-bearing, or mixed-type) to object arrays of the original Python
    values — usable for gather/representative-row purposes but not for
    vectorized arithmetic. ``n_rows`` is the relation's cardinality.
    """

    __slots__ = ("arrays", "objects", "n_rows")

    def __init__(
        self,
        arrays: dict[str, np.ndarray],
        objects: dict[str, np.ndarray],
        n_rows: int,
    ) -> None:
        self.arrays = arrays
        self.objects = objects
        self.n_rows = n_rows


def _pack_column(values: list[Any], declared) -> tuple[bool, np.ndarray]:
    """Pack one column's values; returns ``(packed, array)``.

    ``packed`` is True when every value is a homogeneous int/float/bool
    (no NULLs), in which case ``array`` is a typed NumPy array whose
    round-trip (``.tolist()`` / ``.item()``) reproduces the original Python
    values exactly. Otherwise ``array`` is an object array of the values.
    """
    if not values:
        dtype = columnar_dtype(declared) if declared is not None else None
        if dtype is not None:
            return True, np.empty(0, dtype=dtype)
        return False, np.empty(0, dtype=object)
    kinds = {type(v) for v in values}
    try:
        if kinds == {int}:
            return True, np.asarray(values, dtype=np.int64)
        if kinds == {float}:
            return True, np.asarray(values, dtype=np.float64)
        if kinds == {bool}:
            return True, np.asarray(values, dtype=np.bool_)
    except OverflowError:
        pass  # e.g. a Python int outside int64 range: keep it object-backed
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return False, array


class Table:
    """A named, schema-checked, in-memory relation."""

    def __init__(self, name: str, schema: TableSchema) -> None:
        if not name or not name.strip():
            raise CatalogError("table name must be non-empty")
        self.name = name
        self.schema = schema
        self._rows: Optional[list[tuple[Any, ...]]] = []
        self._columns: Optional[list[np.ndarray]] = None
        self._version = 0
        self._view: Optional[ColumnarView] = None
        self._view_version = -1

    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        assert self._columns is not None
        return len(self._columns[0]) if self._columns else 0

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self._materialized_rows())

    def __repr__(self) -> str:
        return f"Table({self.name!r}, columns={self.schema.names}, rows={len(self)})"

    # -- row-major access ----------------------------------------------------

    def _materialized_rows(self) -> list[tuple[Any, ...]]:
        if self._rows is None:
            assert self._columns is not None
            self._rows = list(zip(*(column.tolist() for column in self._columns)))
        return self._rows

    @property
    def rows(self) -> list[tuple[Any, ...]]:
        """A copy of the stored rows (mutating it does not affect the table)."""
        return list(self._materialized_rows())

    def insert(self, row: Iterable[Any]) -> None:
        """Validate and append one row."""
        checked = self.schema.check_row(row)
        self._materialized_rows().append(checked)
        self._columns = None  # row storage is canonical again
        self._invalidate()

    def insert_many(self, rows: Iterable[Iterable[Any]]) -> int:
        """Validate and append many rows; returns the number inserted."""
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def load_unchecked(self, rows: Iterable[tuple[Any, ...]]) -> int:
        """Bulk-append pre-validated rows, skipping per-value checks.

        For trusted internal producers only (the executor's ``SELECT INTO``
        materialization and the Storage Manager's bulk sample loads) — the
        values there were already produced by the type-checked pipeline.
        """
        stored = self._materialized_rows()
        before = len(stored)
        stored.extend(tuple(row) for row in rows)
        self._columns = None  # row storage is canonical again
        self._invalidate()
        return len(stored) - before

    def truncate(self) -> None:
        """Remove all rows, keeping the schema."""
        self._rows = []
        self._columns = None
        self._invalidate()

    def replace_rows(self, rows: Iterable[Iterable[Any]]) -> None:
        """Atomically replace the table contents (used by UPDATE/DELETE)."""
        checked = [self.schema.check_row(row) for row in rows]
        self._rows = checked
        self._columns = None
        self._invalidate()

    def column_values(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        position = self.schema.position_of(name)
        if self._rows is None and self._columns is not None:
            return self._columns[position].tolist()
        return [row[position] for row in self._materialized_rows()]

    # -- column-major access -------------------------------------------------

    def load_columnar(self, columns: Sequence[np.ndarray]) -> int:
        """Replace the table contents with column arrays (trusted producers).

        The analogue of :meth:`load_unchecked` for the columnar layout: the
        Storage Manager and ``SELECT INTO`` land whole relations this way
        without ever materializing Python row tuples. Arrays must match the
        schema's arity, share one length, and carry packed dtypes.
        """
        if len(columns) != len(self.schema):
            raise CatalogError(
                f"columnar load has {len(columns)} columns, "
                f"schema has {len(self.schema)}"
            )
        lengths = {len(column) for column in columns}
        if len(lengths) > 1:
            raise CatalogError(f"columnar load with ragged lengths {sorted(lengths)}")
        self._columns = [np.asarray(column) for column in columns]
        self._rows = None
        self._invalidate()
        return len(self._columns[0]) if self._columns else 0

    def append_columnar(self, columns: Sequence[np.ndarray]) -> int:
        """Append column arrays to the current contents (trusted producers).

        The INSERT-flavored sibling of :meth:`load_columnar`: an empty table
        adopts the arrays outright; a columnar table concatenates per
        column; a row-backed table appends materialized rows. Used by the
        executor's bulk INSERT ... SELECT path.
        """
        arrays = [np.asarray(column) for column in columns]
        if len(arrays) != len(self.schema):
            raise CatalogError(
                f"columnar append has {len(arrays)} columns, "
                f"schema has {len(self.schema)}"
            )
        lengths = {len(array) for array in arrays}
        if len(lengths) > 1:
            raise CatalogError(f"columnar append with ragged lengths {sorted(lengths)}")
        appended = len(arrays[0]) if arrays else 0
        if len(self) == 0:
            self.load_columnar(arrays)
            return appended
        if self._columns is not None and self._rows is None:
            self._columns = [
                np.concatenate([existing, new])
                for existing, new in zip(self._columns, arrays)
            ]
            self._invalidate()
            return appended
        return self.load_unchecked(zip(*(array.tolist() for array in arrays)))

    def columnar_view(self) -> ColumnarView:
        """The cached column-major view of this table (built on demand)."""
        if self._view is not None and self._view_version == self._version:
            return self._view
        arrays: dict[str, np.ndarray] = {}
        objects: dict[str, np.ndarray] = {}
        n_rows = len(self)
        if self._columns is not None and self._rows is None:
            for column_def, array in zip(self.schema.columns, self._columns):
                key = column_def.name.lower()
                if array.dtype.kind in "ifb":
                    arrays[key] = array
                else:
                    objects[key] = array
        else:
            rows = self._materialized_rows()
            for position, column_def in enumerate(self.schema.columns):
                values = [row[position] for row in rows]
                packed, array = _pack_column(values, column_def.sql_type)
                if packed:
                    arrays[column_def.name.lower()] = array
                else:
                    objects[column_def.name.lower()] = array
        self._view = ColumnarView(arrays, objects, n_rows)
        self._view_version = self._version
        return self._view

    def _invalidate(self) -> None:
        self._version += 1


class ResultSet:
    """Schema-tagged query output.

    Row-major output is a plain list of tuples (valid after subsequent
    statements mutate the source tables). The vectorized executor instead
    attaches ``column_data`` — one NumPy array per output column — and row
    tuples are materialized lazily only if someone asks for them.
    """

    def __init__(
        self,
        schema: TableSchema,
        rows: Optional[list[tuple[Any, ...]]] = None,
        column_data: Optional[list[np.ndarray]] = None,
    ) -> None:
        if rows is None and column_data is None:
            raise CatalogError("ResultSet needs rows or column_data")
        self.schema = schema
        self._rows = rows
        self.column_data = column_data

    @property
    def rows(self) -> list[tuple[Any, ...]]:
        if self._rows is None:
            assert self.column_data is not None
            self._rows = list(
                zip(*(column.tolist() for column in self.column_data))
            )
        return self._rows

    @rows.setter
    def rows(self, rows: list[tuple[Any, ...]]) -> None:
        self._rows = rows
        self.column_data = None

    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        assert self.column_data is not None
        return len(self.column_data[0]) if self.column_data else 0

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self.rows)

    @property
    def column_names(self) -> tuple[str, ...]:
        return self.schema.names

    def column(self, name: str) -> list[Any]:
        """All values of one output column, in row order."""
        position = self.schema.position_of(name)
        if self._rows is None and self.column_data is not None:
            return self.column_data[position].tolist()
        return [row[position] for row in self.rows]

    def scalar(self) -> Any:
        """Return the single value of a 1x1 result (e.g. ``SELECT COUNT(*)``)."""
        if len(self) != 1 or len(self.schema) != 1:
            raise CatalogError(
                f"scalar() requires a 1x1 result, got {len(self)}x{len(self.schema)}"
            )
        return self.rows[0][0]

    def to_dicts(self) -> list[dict[str, Any]]:
        """Rows as dictionaries keyed by column name."""
        names = self.column_names
        return [dict(zip(names, row)) for row in self.rows]

    def pretty(self, max_rows: int = 25) -> str:
        """A fixed-width textual rendering, for examples and debugging."""
        names = list(self.column_names)
        shown = self.rows[:max_rows]
        cells = [[format_value(value) for value in row] for row in shown]
        widths = [len(name) for name in names]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        header = " | ".join(name.ljust(widths[i]) for i, name in enumerate(names))
        ruler = "-+-".join("-" * width for width in widths)
        lines = [header, ruler]
        for row in cells:
            lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)
