"""Database catalog: tables, scalar functions, and table-generating functions.

The catalog is the engine's root object. Fuzzy Prophet registers its
VG-Functions here as *table-generating functions* (the MCDB idiom), so that
scenario SQL can write ``FROM DemandModel(@current, @feature)``.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Iterator, Mapping, Protocol

from repro.errors import CatalogError
from repro.sqldb.functions import builtin_scalar_functions
from repro.sqldb.schema import TableSchema
from repro.sqldb.table import ResultSet, Table


class TableFunction(Protocol):
    """A table-generating function: evaluated args + variable env -> rows.

    ``variables`` carries the TSQL ``@variable`` bindings of the executing
    statement — the PDB layer uses reserved variables (``@_seed``,
    ``@_world``) to thread Monte Carlo world identifiers into VG-Functions.
    """

    def __call__(self, args: tuple[Any, ...], variables: Mapping[str, Any]) -> ResultSet:
        ...


class Catalog:
    """A named collection of tables and functions (one logical database)."""

    def __init__(self, name: str = "prophet") -> None:
        self.name = name
        self._tables: dict[str, Table] = {}
        self._scalar_functions: dict[str, Callable[..., Any]] = builtin_scalar_functions()
        # Live read-only view handed to every EvalContext — the executor
        # builds contexts in per-statement hot loops, so no copying here.
        self._scalar_view: Mapping[str, Callable[..., Any]] = MappingProxyType(
            self._scalar_functions
        )
        self._table_functions: dict[str, TableFunction] = {}

    # -- tables --------------------------------------------------------------

    def create_table(self, name: str, schema: TableSchema, *, replace: bool = False) -> Table:
        key = name.lower()
        if key in self._tables and not replace:
            raise CatalogError(f"table already exists: {name!r}")
        table = Table(name, schema)
        self._tables[key] = table
        return table

    def drop_table(self, name: str, *, if_exists: bool = False) -> bool:
        key = name.lower()
        if key not in self._tables:
            if if_exists:
                return False
            raise CatalogError(f"no such table: {name!r}")
        del self._tables[key]
        return True

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no such table: {name!r}") from None

    def tables(self) -> Iterator[Table]:
        return iter(self._tables.values())

    # -- scalar functions ------------------------------------------------------

    def register_scalar_function(
        self, name: str, fn: Callable[..., Any], *, replace: bool = False
    ) -> None:
        key = name.lower()
        if key in self._scalar_functions and not replace:
            raise CatalogError(f"scalar function already exists: {name!r}")
        self._scalar_functions[key] = fn

    def scalar_functions(self) -> Mapping[str, Callable[..., Any]]:
        return self._scalar_view

    # -- table functions -------------------------------------------------------

    def register_table_function(
        self, name: str, fn: TableFunction, *, replace: bool = False
    ) -> None:
        """Register a table-generating function (e.g. a wrapped VG-Function).

        Re-registering with ``replace=True`` is the paper's "analyst updates
        the model, every scenario picks it up" workflow.
        """
        key = name.lower()
        if key in self._table_functions and not replace:
            raise CatalogError(f"table function already exists: {name!r}")
        self._table_functions[key] = fn

    def unregister_table_function(self, name: str) -> None:
        """Remove a table function (e.g. to disable one SQL form of a VG)."""
        key = name.lower()
        if key not in self._table_functions:
            raise CatalogError(f"no such table function: {name!r}")
        del self._table_functions[key]

    def has_table_function(self, name: str) -> bool:
        return name.lower() in self._table_functions

    def table_function(self, name: str) -> TableFunction:
        try:
            return self._table_functions[name.lower()]
        except KeyError:
            raise CatalogError(f"no such table function: {name!r}") from None
