"""Statement execution against a :class:`~repro.sqldb.catalog.Catalog`.

The executor layers two fast paths over a row-at-a-time path:

1. **Plan cache** — ``execute`` keys parsed statements by SQL text (LRU),
   so parameterized statements re-executed with fresh ``@variable``
   bindings parse exactly once. An entry (:class:`Prepared`) also keeps
   what each of its SELECTs derives from the AST alone — the vector plan
   and the grouped-finalize program — so those are built once per
   statement, not once per execution. Derived data is keyed by the
   statement object it came from, never by AST equality.
2. **Vectorized columnar execution** — SELECTs whose plans are
   filter/project/group-by (plus hash equi-joins) over table sources run
   over NumPy column arrays (:mod:`repro.sqldb.compiled`); anything the
   columnar path cannot reproduce bit-identically falls back to the row
   path below (``enable_vectorized=False`` forces it, which is how the
   parity tests build their reference). A plain ``GROUP BY`` over a tiled
   key answers in columns (:meth:`Executor._columnar_groups`).

The row path resolves FROM sources to bound row dictionaries, applies
joins, filters, groups/aggregates, projects, sorts, and materializes a
:class:`ResultSet`; every expression in its loops is a closure from
:func:`repro.sqldb.expressions.compile_expression`, the one definition of
scalar semantics. ``SELECT ... INTO`` creates (or replaces
the contents of) a destination table, which is how the Fuzzy Prophet Query
Generator lands Monte Carlo samples in the database.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Mapping, Optional

import numpy as np

from repro.errors import ExecutionError
from repro.sqldb.aggregates import (
    AGGREGATE_ALIASES,
    Aggregate,
    collect_aggregates,
    has_aggregate,
    make_aggregate,
    rewrite_aggregates,
)
from repro.sqldb.ast_nodes import (
    BinaryOp,
    ColumnRef,
    CreateTable,
    Delete,
    DropTable,
    Expression,
    FromSource,
    FunctionCall,
    InsertSelect,
    InsertValues,
    Join,
    Script,
    Select,
    Statement,
    SubquerySource,
    TableFunctionSource,
    TableSource,
    Update,
)
from repro.sqldb.catalog import Catalog
from repro.sqldb.compiled import (
    VectorFallback,
    VectorSelectPlan,
    aggregate_columns,
    bind_table,
    broadcast,
    equi_join,
    flatten_and,
    group_layout,
    plan_select,
    sql_type_for,
)
from repro.sqldb.expressions import (
    CompiledExpression,
    EvalContext,
    compile_expression,
    evaluate,
    is_true,
)
from repro.sqldb.parser import parse_script, parse_statement
from repro.sqldb.plancache import PlanCache
from repro.sqldb.schema import Column, TableSchema
from repro.sqldb.table import ResultSet
from repro.sqldb.types import SqlType, infer_type


@dataclass
class ExecutionStats:
    """Counters the benchmarks read to attribute work to engine stages."""

    statements: int = 0
    rows_scanned: int = 0
    #: Plan-cache behavior of ``execute``/``execute_script`` (text -> AST).
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: SELECT dispatch: how many ran columnar vs through the row interpreter,
    #: and how many *input* rows each path consumed.
    vectorized_selects: int = 0
    fallback_selects: int = 0
    rows_vectorized: int = 0
    rows_fallback: int = 0
    #: Fresh-sampling plane dispatch: world-rows of sample matrices produced
    #: by the batched backend vs by the per-world loop (explicit ``loop``
    #: backend or a silent fallback), so the slow path is observable.
    sampled_batched: int = 0
    sampled_fallback: int = 0


class Prepared:
    """A parsed statement as the plan cache keeps it, with what its
    executions derive from it once: a :class:`_SelectProgram` per SELECT in
    it, keyed by the SELECT's identity (the statement keeps each alive)."""

    __slots__ = ("statement", "programs")

    def __init__(self, statement: Statement) -> None:
        self.statement = statement
        self.programs: dict[int, _SelectProgram] = {}


#: The per-SELECT programs an execution reads and fills: a cached
#: statement's :attr:`Prepared.programs`, or one execution's own.
Programs = dict[int, "_SelectProgram"]


class Executor:
    """Executes parsed statements (or SQL text) against one catalog."""

    def __init__(
        self,
        catalog: Catalog,
        *,
        plan_cache_size: int = 256,
        enable_vectorized: bool = True,
    ) -> None:
        self.catalog = catalog
        self.stats = ExecutionStats()
        self.plan_cache = PlanCache(plan_cache_size)
        self.enable_vectorized = enable_vectorized

    # -- public API ---------------------------------------------------------

    def execute(self, sql: str, variables: Optional[Mapping[str, Any]] = None) -> ResultSet:
        """Parse (or reuse a cached plan) and execute one statement.

        Non-query statements return an empty result with a ``rowcount``
        column so callers can observe effects uniformly.
        """
        prepared = self._cached_plan("statement", sql, parse_statement)
        return self._execute(
            prepared.statement, _normalize_variables(variables), prepared.programs
        )

    def execute_script(
        self, sql: str, variables: Optional[Mapping[str, Any]] = None
    ) -> list[ResultSet]:
        """Execute a ``;``-separated script; returns one result per statement."""
        prepared = self._cached_plan("script", sql, parse_script)
        bound = _normalize_variables(variables)
        return [
            self._execute(stmt, bound, prepared.programs)
            for stmt in prepared.statement.statements
        ]

    def execute_statement(
        self, statement: Statement, variables: Optional[Mapping[str, Any]] = None
    ) -> ResultSet:
        """Execute one parsed statement; what it derives is not kept."""
        return self._execute(statement, _normalize_variables(variables), {})

    def _execute(
        self, statement: Statement, bound: dict[str, Any], programs: Programs
    ) -> ResultSet:
        self.stats.statements += 1
        if isinstance(statement, Select):
            return self._execute_select(statement, bound, programs)
        if isinstance(statement, CreateTable):
            return self._execute_create(statement)
        if isinstance(statement, InsertValues):
            return self._execute_insert_values(statement, bound)
        if isinstance(statement, InsertSelect):
            return self._execute_insert_select(statement, bound, programs)
        if isinstance(statement, DropTable):
            return self._execute_drop(statement)
        if isinstance(statement, Delete):
            return self._execute_delete(statement, bound)
        if isinstance(statement, Update):
            return self._execute_update(statement, bound)
        if isinstance(statement, Script):
            results = [self._execute(s, bound, programs) for s in statement.statements]
            return results[-1] if results else _rowcount_result(0)
        raise ExecutionError(f"cannot execute statement {type(statement).__name__}")

    # -- plan caching --------------------------------------------------------

    def _cached_plan(
        self, kind: str, sql: str, parse: Callable[[str], Statement]
    ) -> Prepared:
        plan = self.plan_cache.get((kind, sql))
        if plan is not None:
            self.stats.plan_cache_hits += 1
            return plan  # type: ignore[return-value]
        self.stats.plan_cache_misses += 1
        prepared = Prepared(parse(sql))
        self.plan_cache.put((kind, sql), prepared)
        return prepared

    # -- SELECT ---------------------------------------------------------------

    def _execute_select(
        self, select: Select, variables: Mapping[str, Any], programs: Programs
    ) -> ResultSet:
        program = programs.get(id(select))
        if program is None or program.select is not select:
            program = programs[id(select)] = _SelectProgram(select)
        if self.enable_vectorized:
            plan = program.vector_plan
            if plan is not None:
                try:
                    return self._execute_select_vectorized(program, plan, variables)
                except VectorFallback:
                    pass
        return self._execute_select_interpreted(program, variables, programs)

    # -- SELECT: vectorized columnar path -------------------------------------

    def _execute_select_vectorized(
        self, program: "_SelectProgram", plan: VectorSelectPlan, variables: Mapping[str, Any]
    ) -> ResultSet:
        select = program.select
        relation, scanned = self._bind_vector_sources(plan)
        input_rows = relation.n_rows

        if plan.where is not None and relation.n_rows:
            mask = plan.where(relation.context(variables))
            if isinstance(mask, np.ndarray):
                if mask.dtype.kind != "b":
                    raise VectorFallback
                relation = relation.mask(mask)
            elif isinstance(mask, (bool, np.bool_)):
                if not bool(mask):
                    relation = relation.take(np.empty(0, dtype=np.int64))
            else:
                raise VectorFallback  # non-boolean WHERE: row semantics decide

        if plan.grouped:
            answer = self._vectorized_groups(program, plan, relation, variables)
            self.stats.rows_scanned += scanned
            self.stats.vectorized_selects += 1
            self.stats.rows_vectorized += input_rows
            if isinstance(answer, ResultSet):
                return answer  # answered in columns: nothing left to finish
            return self._finish_select(select, *answer)

        result = self._vectorized_projection(select, plan, relation, variables)
        self.stats.rows_scanned += scanned
        self.stats.vectorized_selects += 1
        self.stats.rows_vectorized += input_rows
        if select.into is not None:
            self._materialize_into(select.into, result)
        return result

    def _bind_vector_sources(self, plan: VectorSelectPlan):
        table = self.catalog.table(plan.source_table)
        relation = bind_table(table, plan.source_label)
        scanned = relation.n_rows
        for join_spec in plan.joins:
            right = bind_table(self.catalog.table(join_spec.table), join_spec.label)
            scanned += right.n_rows
            relation = equi_join(relation, right, join_spec.conjuncts)
        return relation, scanned

    def _vectorized_projection(
        self, select, plan: VectorSelectPlan, relation, variables: Mapping[str, Any]
    ) -> ResultSet:
        names = _output_names(select, TableSchema(()))
        n_rows = relation.n_rows
        if n_rows == 0:
            arrays = [np.empty(0, dtype=np.float64) for _ in names]
            schema = TableSchema(
                tuple(Column(name, SqlType.FLOAT, nullable=True) for name in names)
            )
            return ResultSet(schema=schema, column_data=arrays)

        context = relation.context(variables)
        arrays: list[np.ndarray] = []
        for fn, alias in plan.items:
            array = broadcast(fn(context), n_rows)
            arrays.append(array)
            if alias:
                # Aliases defined earlier in the SELECT list are visible to
                # later items and to ORDER BY, as on the row path.
                context.columns[alias] = array
                relation.all_keys.add(alias)

        if plan.order:
            keys: list[np.ndarray] = []
            for fn, descending in plan.order:
                key = broadcast(fn(context), n_rows)
                if key.dtype.kind == "f" and np.any(np.isnan(key)):
                    raise VectorFallback  # NaN ordering differs from the row sort
                if descending:
                    if key.dtype.kind == "b":
                        key = np.logical_not(key)
                    else:
                        if key.dtype.kind == "i" and key.size and (
                            int(key.min()) == np.iinfo(np.int64).min
                        ):
                            raise VectorFallback
                        key = -key
                keys.append(key)
            permutation = np.lexsort(tuple(reversed(keys)))
            arrays = [array[permutation] for array in arrays]

        # Schema is inferred from the full projection, before LIMIT/OFFSET
        # trim it — exactly like the row path.
        schema = TableSchema(
            tuple(
                Column(name, sql_type_for(array), nullable=True)
                for name, array in zip(names, arrays)
            )
        )
        if select.offset is not None:
            arrays = [array[select.offset :] for array in arrays]
        if select.limit is not None:
            arrays = [array[: select.limit] for array in arrays]
        return ResultSet(schema=schema, column_data=arrays)

    def _vectorized_groups(
        self,
        program: "_SelectProgram",
        plan: VectorSelectPlan,
        relation,
        variables: Mapping[str, Any],
    ):
        """The grouped answer: a :class:`ResultSet` where
        :meth:`_columnar_groups` can give one, else the row finalize's
        ``(rows, schema, order_keys)``."""
        select, groups = program.select, program.groups
        n_rows = relation.n_rows
        if n_rows == 0:
            if select.group_by:
                return self._finalize_groups(groups, [], [], variables)
            # One synthetic group over zero input rows, like the row path.
            results = {
                spec.rendered: make_aggregate(
                    spec.name, star=spec.star, distinct=spec.distinct
                ).result()
                for spec in plan.aggregates
            }
            return self._finalize_groups(groups, [results], [{}], variables)

        context = relation.context(variables)
        key_arrays = [broadcast(fn(context), n_rows) for fn in plan.group_by]
        layout = group_layout(key_arrays, n_rows)

        columns = [
            broadcast(spec.arg(context), n_rows) if spec.arg is not None else None
            for spec in plan.aggregates
        ]
        answers = aggregate_columns(plan.aggregates, columns, layout)
        by_aggregate = {spec.rendered: values for spec, values in zip(plan.aggregates, answers)}
        if groups.columnar is not None:
            result = self._columnar_groups(select, groups, key_arrays[0], layout, by_aggregate)
            if result is not None:
                return result
        group_results: list[dict[str, Any]] = [{} for _ in range(layout.n_groups)]
        for rendered, values in by_aggregate.items():
            for group, value in enumerate(values):
                group_results[group][rendered] = value
        # Group g's first row is row g.
        representatives = relation.bound_rows(np.arange(layout.n_groups))
        return self._finalize_groups(groups, group_results, representatives, variables)

    def _columnar_groups(
        self,
        select: Select,
        groups: "_GroupProgram",
        key: np.ndarray,
        layout,
        answers: Mapping[str, list[Any]],
    ) -> Optional[ResultSet]:
        """A plain grouped SELECT's result as columns, or None.

        ``groups.columnar`` says the SELECT lists only its grouping column
        and bare aggregates and orders by that column alone. Group ``g`` is
        key row ``g`` (:class:`~repro.sqldb.compiled.GroupLayout`), so when
        the key's groups ascend, the row finalize would output the groups
        in layout order, each row the key followed by its aggregates'
        answers: those lists are the columns (:func:`_answer_column`).
        """
        n_groups = layout.n_groups
        groups_key = key[:n_groups]
        if n_groups > 1 and not bool(np.all(groups_key[1:] > groups_key[:-1])):
            return None  # ORDER BY would move a group
        arrays: list[np.ndarray] = []
        for source in groups.columnar:  # type: ignore[union-attr]
            array = groups_key if source is None else _answer_column(answers[source])
            if array is None:
                return None
            arrays.append(array)
        schema = TableSchema(
            tuple(
                Column(name, sql_type_for(array), nullable=True)
                for name, array in zip(groups.names, arrays)
            )
        )
        if select.offset is not None:
            arrays = [array[select.offset :] for array in arrays]
        if select.limit is not None:
            arrays = [array[: select.limit] for array in arrays]
        return ResultSet(schema=schema, column_data=arrays)

    # -- SELECT: interpreted row path ------------------------------------------

    def _execute_select_interpreted(
        self, program: "_SelectProgram", variables: Mapping[str, Any], programs: Programs
    ) -> ResultSet:
        select = program.select
        rows, source_schema = self._resolve_from(select, variables, programs)
        self.stats.fallback_selects += 1
        self.stats.rows_fallback += len(rows)

        if select.where is not None:
            context = self._context(variables)
            where = compile_expression(select.where)
            env: dict[str, Any] = {}
            row_context = EvalContext(
                columns=env, variables=context.variables, functions=context.functions
            )
            kept = []
            for row in rows:
                env.clear()
                env.update(row)
                if is_true(where(row_context)):
                    kept.append(row)
            rows = kept

        needs_grouping = bool(select.group_by) or self._any_aggregates(select)
        if needs_grouping:
            result_rows, schema, order_keys = self._grouped_projection(
                program, rows, variables
            )
        else:
            result_rows, schema, order_keys = self._plain_projection(
                select, rows, source_schema, variables
            )
        return self._finish_select(select, result_rows, schema, order_keys)

    def _finish_select(
        self,
        select: Select,
        result_rows: list[tuple[Any, ...]],
        schema: TableSchema,
        order_keys: Optional[list[tuple]],
    ) -> ResultSet:
        """Shared DISTINCT / ORDER BY / LIMIT / INTO tail of SELECT."""
        if select.distinct:
            seen: set[tuple[Any, ...]] = set()
            unique: list[tuple[Any, ...]] = []
            unique_keys: list[tuple] = []
            for index, row in enumerate(result_rows):
                if row not in seen:
                    seen.add(row)
                    unique.append(row)
                    if order_keys is not None:
                        unique_keys.append(order_keys[index])
            result_rows = unique
            if order_keys is not None:
                order_keys = unique_keys

        if select.order_by and order_keys is not None:
            result_rows = _sort_by_keys(result_rows, order_keys, select.order_by)

        if select.offset is not None:
            result_rows = result_rows[select.offset :]
        if select.limit is not None:
            result_rows = result_rows[: select.limit]

        result = ResultSet(schema=schema, rows=result_rows)

        if select.into is not None:
            self._materialize_into(select.into, result)
        return result

    def _resolve_from(
        self, select: Select, variables: Mapping[str, Any], programs: Programs
    ) -> tuple[list[dict[str, Any]], TableSchema]:
        """Produce bound rows (name -> value dicts) for the FROM clause."""
        if select.source is None:
            # SELECT without FROM: one empty row.
            return [dict()], TableSchema(())
        rows, schema = self._bind_source(select.source, variables, programs)
        for join in select.joins:
            rows, schema = self._apply_join(rows, schema, join, variables, programs)
        return rows, schema

    def _bind_source(
        self, source: FromSource, variables: Mapping[str, Any], programs: Programs
    ) -> tuple[list[dict[str, Any]], TableSchema]:
        if isinstance(source, TableSource):
            table = self.catalog.table(source.name)
            label = (source.alias or source.name).lower()
            bound = [
                _bind_row(table.schema.names, row, label) for row in table
            ]
            self.stats.rows_scanned += len(bound)
            return bound, table.schema
        if isinstance(source, TableFunctionSource):
            fn = self.catalog.table_function(source.name)
            context = self._context(variables)
            args = tuple(evaluate(arg, context) for arg in source.args)
            result = fn(args, variables)
            label = (source.alias or source.name).lower()
            bound = [_bind_row(result.schema.names, row, label) for row in result.rows]
            self.stats.rows_scanned += len(bound)
            return bound, result.schema
        if isinstance(source, SubquerySource):
            result = self._execute_select(source.query, variables, programs)
            label = source.alias.lower()
            bound = [_bind_row(result.schema.names, row, label) for row in result.rows]
            return bound, result.schema
        raise ExecutionError(f"unsupported FROM source {type(source).__name__}")

    def _apply_join(
        self,
        left_rows: list[dict[str, Any]],
        left_schema: TableSchema,
        join: Join,
        variables: Mapping[str, Any],
        programs: Programs,
    ) -> tuple[list[dict[str, Any]], TableSchema]:
        right_rows, right_schema = self._bind_source(join.source, variables, programs)
        merged_schema = _merge_schemas(left_schema, right_schema)
        context = self._context(variables)
        output: list[dict[str, Any]] = []
        if join.kind == "CROSS":
            for left in left_rows:
                for right in right_rows:
                    output.append(_merge_rows(left, right))
            return output, merged_schema
        if join.condition is None:
            raise ExecutionError(f"{join.kind} JOIN requires an ON condition")
        null_right = _null_row_like(right_rows, right_schema)
        equi = _equi_join_plan(join.condition, left_rows, right_rows)
        if equi is not None:
            left_exprs, right_exprs = equi
            left_fns = [compile_expression(expr) for expr in left_exprs]
            right_fns = [compile_expression(expr) for expr in right_exprs]
            index: dict[tuple[Any, ...], list[dict[str, Any]]] = {}
            for right in right_rows:
                right_context = self._row_context(context, right)
                key = tuple(fn(right_context) for fn in right_fns)
                if any(part is None for part in key):
                    continue  # NULL never equi-joins
                index.setdefault(key, []).append(right)
            for left in left_rows:
                left_context = self._row_context(context, left)
                key = tuple(fn(left_context) for fn in left_fns)
                matches = [] if any(part is None for part in key) else index.get(key, [])
                if matches:
                    for right in matches:
                        output.append(_merge_rows(left, right))
                elif join.kind == "LEFT":
                    output.append(_merge_rows(left, null_right))
            return output, merged_schema
        condition = compile_expression(join.condition)
        for left in left_rows:
            matched = False
            for right in right_rows:
                candidate = _merge_rows(left, right)
                if is_true(condition(self._row_context(context, candidate))):
                    output.append(candidate)
                    matched = True
            if join.kind == "LEFT" and not matched:
                output.append(_merge_rows(left, null_right))
        return output, merged_schema

    def _plain_projection(
        self,
        select: Select,
        rows: list[dict[str, Any]],
        source_schema: TableSchema,
        variables: Mapping[str, Any],
    ) -> tuple[list[tuple[Any, ...]], TableSchema]:
        names = _output_names(select, source_schema)
        output: list[tuple[Any, ...]] = []
        order_keys: list[tuple] = []
        item_fns = [
            None if item.star else compile_expression(item.expression)
            for item in select.items
        ]
        order_fns = [compile_expression(order.expression) for order in select.order_by]
        # One mutable binding environment reused across rows (hot path).
        env: dict[str, Any] = {}
        row_context = EvalContext(
            columns=env,
            variables=variables,
            functions=self.catalog.scalar_functions(),
        )
        for row in rows:
            env.clear()
            env.update(row)
            values: list[Any] = []
            # Aliases defined earlier in the SELECT list are visible to later
            # items (the paper's Figure 2 relies on this: ``capacity <
            # demand`` references the two preceding aliases).
            for item, item_fn in zip(select.items, item_fns):
                if item.star:
                    for column in source_schema.names:
                        values.append(row.get(column.lower()))
                    continue
                assert item_fn is not None
                value = item_fn(row_context)
                values.append(value)
                if item.alias:
                    env[item.alias.lower()] = value
            output.append(tuple(values))
            if select.order_by:
                # Order keys see source columns AND select-list aliases,
                # so ORDER BY works on columns dropped by the projection.
                order_keys.append(tuple(fn(row_context) for fn in order_fns))
        schema = _infer_schema(names, output)
        return output, schema, (order_keys if select.order_by else None)

    def _grouped_projection(
        self,
        program: "_SelectProgram",
        rows: list[dict[str, Any]],
        variables: Mapping[str, Any],
    ) -> tuple[list[tuple[Any, ...]], TableSchema, Optional[list[tuple]]]:
        select = program.select
        if any(item.star for item in select.items):
            raise ExecutionError("SELECT * cannot be combined with aggregation")

        groups = program.groups
        aggregate_nodes = groups.aggregates
        group_fns = [compile_expression(expr) for expr in select.group_by]
        aggregate_fns: dict[str, Optional[CompiledExpression]] = {}
        for rendered, node in aggregate_nodes.items():
            if node.star or len(node.args) != 1:
                aggregate_fns[rendered] = None
            else:
                aggregate_fns[rendered] = compile_expression(node.args[0])

        def fresh_accumulators() -> dict[str, Aggregate]:
            return {
                rendered: make_aggregate(
                    AGGREGATE_ALIASES.get(node.name.lower(), node.name),
                    star=node.star,
                    distinct=node.distinct,
                )
                for rendered, node in aggregate_nodes.items()
            }

        group_keys: dict[tuple[Any, ...], dict[str, Aggregate]] = {}
        group_order: list[tuple[Any, ...]] = []
        group_sample_row: dict[tuple[Any, ...], dict[str, Any]] = {}
        env: dict[str, Any] = {}
        row_context = EvalContext(
            columns=env, variables=variables, functions=self.catalog.scalar_functions()
        )
        for row in rows:
            env.clear()
            env.update(row)
            key = tuple(fn(row_context) for fn in group_fns)
            accumulators = group_keys.get(key)
            if accumulators is None:
                accumulators = group_keys[key] = fresh_accumulators()
                group_order.append(key)
                group_sample_row[key] = row
            for rendered, node in aggregate_nodes.items():
                if node.star:
                    accumulators[rendered].add(None)
                else:
                    arg_fn = aggregate_fns[rendered]
                    if arg_fn is None:
                        raise ExecutionError(
                            f"aggregate {node.name} takes exactly one argument"
                        )
                    accumulators[rendered].add(arg_fn(row_context))

        # With no GROUP BY and no input rows there is still one output group.
        if not select.group_by and not group_order:  # pragma: no branch
            empty_key: tuple[Any, ...] = ()
            group_keys[empty_key] = fresh_accumulators()
            group_order.append(empty_key)
            group_sample_row[empty_key] = {}

        group_results = [
            {rendered: agg.result() for rendered, agg in group_keys[key].items()}
            for key in group_order
        ]
        representatives = [group_sample_row[key] for key in group_order]
        return self._finalize_groups(groups, group_results, representatives, variables)

    def _finalize_groups(
        self,
        groups: "_GroupProgram",
        group_results: list[dict[str, Any]],
        representatives: list[dict[str, Any]],
        variables: Mapping[str, Any],
    ) -> tuple[list[tuple[Any, ...]], TableSchema, Optional[list[tuple]]]:
        """Per-group HAVING / projection / order keys (shared by both paths),
        by the statement's :class:`_GroupProgram`."""
        context = self._context(variables)
        names, slots, having = groups.names, groups.slots, groups.having
        item_fns, order_fns = groups.items, groups.order
        output: list[tuple[Any, ...]] = []
        order_keys: list[tuple] = []
        for results, representative in zip(group_results, representatives):
            env = dict(representative)
            for rendered, slot in slots.items():
                env[slot] = results[rendered]
            group_context = self._row_context(context, env)
            if having is not None and not is_true(having(group_context)):
                continue
            values = tuple(fn(group_context) for fn in item_fns)
            output.append(values)
            if order_fns:
                # ORDER BY may reference output aliases, aggregates, or
                # grouping columns; expose all three.
                env.update((name.lower(), value) for name, value in zip(names, values))
                order_keys.append(tuple(fn(group_context) for fn in order_fns))
        schema = _infer_schema(list(names), output)
        return output, schema, (order_keys if order_fns else None)

    def _any_aggregates(self, select: Select) -> bool:
        for item in select.items:
            if item.expression is not None and has_aggregate(item.expression):
                return True
        if select.having is not None and has_aggregate(select.having):
            return True
        return False

    def _materialize_into(self, name: str, result: ResultSet) -> None:
        """``SELECT ... INTO t``: create table ``t`` (replacing any prior)."""
        if self.catalog.has_table(name):
            self.catalog.drop_table(name)
        table = self.catalog.create_table(name, result.schema)
        if result.column_data is not None:
            table.load_columnar(result.column_data)
        else:
            table.load_unchecked(result.rows)

    # -- DML / DDL -------------------------------------------------------------

    def _execute_create(self, statement: CreateTable) -> ResultSet:
        columns = tuple(
            Column(col.name, SqlType.from_declaration(col.type_name), col.nullable)
            for col in statement.columns
        )
        self.catalog.create_table(statement.name, TableSchema(columns))
        return _rowcount_result(0)

    def _execute_insert_values(
        self, statement: InsertValues, variables: Mapping[str, Any]
    ) -> ResultSet:
        table = self.catalog.table(statement.table)
        context = self._context(variables)
        positions = self._insert_positions(table.schema, statement.columns)
        inserted = 0
        for value_row in statement.rows:
            if len(value_row) != len(positions):
                raise ExecutionError(
                    f"INSERT expects {len(positions)} values, got {len(value_row)}"
                )
            full_row: list[Any] = [None] * len(table.schema)
            for position, expression in zip(positions, value_row):
                full_row[position] = evaluate(expression, context)
            table.insert(full_row)
            inserted += 1
        return _rowcount_result(inserted)

    def _execute_insert_select(
        self, statement: InsertSelect, variables: Mapping[str, Any], programs: Programs
    ) -> ResultSet:
        table = self.catalog.table(statement.table)
        positions = self._insert_positions(table.schema, statement.columns)
        if self.enable_vectorized:
            bulk = self._insert_select_columnar(statement, table, positions, variables)
            if bulk is not None:
                return bulk
        result = self._execute_select(statement.query, variables, programs)
        if len(result.schema) != len(positions):
            raise ExecutionError(
                f"INSERT SELECT arity mismatch: {len(positions)} columns vs "
                f"{len(result.schema)} selected"
            )
        for row in result.rows:
            full_row: list[Any] = [None] * len(table.schema)
            for position, value in zip(positions, row):
                full_row[position] = value
            table.insert(full_row)
        return _rowcount_result(len(result.rows))

    def _insert_select_columnar(
        self,
        statement: InsertSelect,
        table,
        positions: list[int],
        variables: Mapping[str, Any],
    ) -> Optional[ResultSet]:
        """Bulk path for ``INSERT ... SELECT cols FROM table_function(...)``.

        When the query is a plain column pass-through of one table-function
        source — no joins, filters, grouping, ordering, or rewriting — and
        the function produced columnar data, the arrays append to the target
        table directly; no Python row tuples are ever built. This is what
        makes one batched sampling statement land a whole world slice at
        columnar speed. Returns ``None`` (caller falls back to row-at-a-time
        semantics) whenever any precondition fails.
        """
        query = statement.query
        if not isinstance(query.source, TableFunctionSource):
            return None
        if (
            query.joins
            or query.where is not None
            or query.group_by
            or query.having is not None
            or query.distinct
            or query.order_by
            or query.limit is not None
            or query.offset is not None
            or query.into is not None
        ):
            return None
        source_label = (query.source.alias or query.source.name).lower()
        names: list[str] = []
        for item in query.items:
            if item.star or not isinstance(item.expression, ColumnRef):
                return None
            ref = item.expression
            if ref.qualifier is not None and ref.qualifier.lower() != source_label:
                return None
            names.append(ref.name)
        if len(names) != len(positions):
            return None
        if sorted(positions) != list(range(len(table.schema))):
            # Partial column lists need NULL fill — row semantics. Decided
            # *before* invoking the (possibly side-effecting) function, so
            # no statement ever invokes it twice.
            return None

        fn = self.catalog.table_function(query.source.name)
        context = self._context(variables)
        args = tuple(evaluate(arg, context) for arg in query.source.args)
        result = fn(args, variables)
        if result.column_data is None:
            # No columnar payload: bind and insert through row semantics.
            return self._insert_rows_from(table, positions, result, names)
        # An unknown column raises here (same error the row path would hit)
        # rather than re-running the select and invoking the function again.
        source_positions = [result.schema.position_of(name) for name in names]
        # positions cover every schema slot (checked above), so this fills.
        arrays: list[Optional[np.ndarray]] = [None] * len(table.schema)
        n_rows = len(result)
        for target, source in zip(positions, source_positions):
            array = result.column_data[source]
            declared = table.schema.columns[target].sql_type
            if not _columnar_insert_compatible(array, declared):
                return self._insert_rows_from(table, positions, result, names)
            arrays[target] = array
        self.stats.rows_scanned += n_rows
        self.stats.vectorized_selects += 1
        self.stats.rows_vectorized += n_rows
        table.append_columnar(arrays)
        return _rowcount_result(n_rows)

    def _insert_rows_from(
        self,
        table,
        positions: list[int],
        result: ResultSet,
        names: list[str],
    ) -> ResultSet:
        """Row-path tail of the pass-through insert (non-columnar payloads)."""
        source_positions = [result.schema.position_of(name) for name in names]
        self.stats.rows_scanned += len(result)
        self.stats.fallback_selects += 1
        self.stats.rows_fallback += len(result)
        inserted = 0
        for row in result.rows:
            full_row: list[Any] = [None] * len(table.schema)
            for target, source in zip(positions, source_positions):
                full_row[target] = row[source]
            table.insert(full_row)
            inserted += 1
        return _rowcount_result(inserted)

    def _insert_positions(self, schema: TableSchema, columns: tuple[str, ...]) -> list[int]:
        if not columns:
            return list(range(len(schema)))
        return [schema.position_of(name) for name in columns]

    def _execute_drop(self, statement: DropTable) -> ResultSet:
        self.catalog.drop_table(statement.name, if_exists=statement.if_exists)
        return _rowcount_result(0)

    def _execute_delete(self, statement: Delete, variables: Mapping[str, Any]) -> ResultSet:
        table = self.catalog.table(statement.table)
        if statement.where is None:
            removed = len(table)
            table.truncate()
            return _rowcount_result(removed)
        context = self._context(variables)
        where = compile_expression(statement.where)
        names = table.schema.names
        kept: list[tuple[Any, ...]] = []
        removed = 0
        for row in table:
            bound = dict(zip((n.lower() for n in names), row))
            if is_true(where(self._row_context(context, bound))):
                removed += 1
            else:
                kept.append(row)
        table.replace_rows(kept)
        return _rowcount_result(removed)

    def _execute_update(self, statement: Update, variables: Mapping[str, Any]) -> ResultSet:
        table = self.catalog.table(statement.table)
        context = self._context(variables)
        where = None if statement.where is None else compile_expression(statement.where)
        assignments = [
            (table.schema.position_of(column_name), compile_expression(expression))
            for column_name, expression in statement.assignments
        ]
        names = [n.lower() for n in table.schema.names]
        updated_rows: list[tuple[Any, ...]] = []
        changed = 0
        for row in table:
            bound = dict(zip(names, row))
            row_context = self._row_context(context, bound)
            hit = where is None or is_true(where(row_context))
            if not hit:
                updated_rows.append(row)
                continue
            new_row = list(row)
            for position, assignment in assignments:
                new_row[position] = assignment(row_context)
            updated_rows.append(tuple(new_row))
            changed += 1
        table.replace_rows(updated_rows)
        return _rowcount_result(changed)

    # -- contexts ---------------------------------------------------------------

    def _context(self, variables: Mapping[str, Any]) -> EvalContext:
        return EvalContext(
            columns={},
            variables=variables,
            functions=self.catalog.scalar_functions(),
        )

    def _row_context(self, base: EvalContext, row: Mapping[str, Any]) -> EvalContext:
        return EvalContext(columns=row, variables=base.variables, functions=base.functions)


# -- per-statement programs ----------------------------------------------------


class _SelectProgram:
    """What every execution of one SELECT derives from its AST alone, each
    part built on first use."""

    def __init__(self, select: Select) -> None:
        self.select = select

    @cached_property
    def vector_plan(self) -> Optional[VectorSelectPlan]:
        """:func:`~repro.sqldb.compiled.plan_select` of the SELECT."""
        return plan_select(self.select)

    @cached_property
    def groups(self) -> "_GroupProgram":
        """A grouped SELECT's :class:`_GroupProgram`."""
        return _GroupProgram.of(self.select)


@dataclass(frozen=True)
class _GroupProgram:
    """A grouped SELECT's finalize: its output names, its distinct aggregate
    calls across SELECT, HAVING and ORDER BY (by rendered text), a reserved
    binding per call (no identifier can spell it; every group binds its own
    answer there) and the HAVING / item / ORDER BY closures over them.

    ``columnar`` is set when the result can be columns
    (:meth:`Executor._columnar_groups`): one GROUP BY key, an unqualified
    column, that is also the one ascending ORDER BY key; no HAVING,
    DISTINCT or INTO; every item that column (``None``) or a bare
    aggregate (its rendered call), and no other item named like the key,
    which ORDER BY would read instead.
    """

    names: tuple[str, ...]
    aggregates: Mapping[str, FunctionCall]
    slots: Mapping[str, str]
    having: Optional[CompiledExpression]
    items: tuple[CompiledExpression, ...]
    order: tuple[CompiledExpression, ...]
    columnar: Optional[tuple[Optional[str], ...]]

    @classmethod
    def of(cls, select: Select) -> "_GroupProgram":
        aggregate_nodes: dict[str, FunctionCall] = {}
        for item in select.items:
            assert item.expression is not None  # ``*`` never reaches a grouped SELECT
            collect_aggregates(item.expression, aggregate_nodes)
        if select.having is not None:
            collect_aggregates(select.having, aggregate_nodes)
        for order in select.order_by:
            collect_aggregates(order.expression, aggregate_nodes)
        refs = {
            rendered: ColumnRef(f"<aggregate {index}>")
            for index, rendered in enumerate(aggregate_nodes)
        }

        def group_fn(expression: Expression) -> CompiledExpression:
            return compile_expression(rewrite_aggregates(expression, refs))

        names = tuple(_output_names(select, TableSchema(())))
        return cls(
            names=names,
            aggregates=aggregate_nodes,
            slots={rendered: ref.name for rendered, ref in refs.items()},
            having=None if select.having is None else group_fn(select.having),
            items=tuple(group_fn(item.expression) for item in select.items),  # type: ignore[arg-type]
            order=tuple(group_fn(order.expression) for order in select.order_by),
            columnar=_columnar_sources(select, names, aggregate_nodes),
        )


def _columnar_sources(
    select: Select, names: tuple[str, ...], aggregates: Mapping[str, FunctionCall]
) -> Optional[tuple[Optional[str], ...]]:
    """:attr:`_GroupProgram.columnar` of ``select``."""
    if select.having is not None or select.distinct or select.into is not None:
        return None
    if len(select.group_by) != 1 or len(select.order_by) != 1:
        return None
    key, order = select.group_by[0], select.order_by[0]
    if not isinstance(key, ColumnRef) or key.qualifier is not None:
        return None
    if order.descending or order.expression != key:
        return None
    sources: list[Optional[str]] = []
    for item, name in zip(select.items, names):
        expression = item.expression
        if expression == key:
            sources.append(None)
        elif (
            isinstance(expression, FunctionCall)
            and expression.render() in aggregates
            and name.lower() != key.name.lower()
        ):
            sources.append(expression.render())
        else:
            return None
    return tuple(sources)


#: The array type that holds each Python answer type exactly.
_ANSWER_DTYPES = {float: np.float64, int: np.int64, bool: np.bool_}


def _answer_column(values: list[Any]) -> Optional[np.ndarray]:
    """One aggregate's per-group answers as the array that holds exactly
    those values, or None: a NULL answer (the STDEV of one row) or an
    integer past int64 leaves the statement to the row finalize, which
    types a column by its first non-NULL value. An aggregate answers one
    Python type in every group (its argument column's kind decides it), so
    the first answer sets the dtype; NumPy left to infer it would hold ints
    straddling int64 as float64."""
    dtype = _ANSWER_DTYPES.get(type(values[0]))
    if dtype is None or None in values:
        return None
    try:
        return np.array(values, dtype=dtype)
    except OverflowError:
        return None


# -- helpers ---------------------------------------------------------------


def _output_names(select: Select, source_schema: TableSchema) -> list[str]:
    names: list[str] = []
    used: set[str] = set()
    for index, item in enumerate(select.items):
        if item.star:
            for column in source_schema.names:
                names.append(_dedupe_name(column, used))
            continue
        assert item.expression is not None
        if item.alias:
            name = item.alias
        elif isinstance(item.expression, ColumnRef):
            name = item.expression.name
        else:
            name = f"column{index + 1}"
        names.append(_dedupe_name(name, used))
    return names


def _columnar_insert_compatible(array: np.ndarray, declared: SqlType) -> bool:
    """Can ``array`` land in a ``declared`` column without value coercion?

    The bulk insert path must be bit-identical to row-at-a-time inserts, so
    only dtype/type pairs whose row round-trip is the identity qualify;
    anything else falls back to ``schema.check_row`` semantics.
    """
    kind = array.dtype.kind
    if declared is SqlType.INTEGER:
        return kind == "i"
    if declared is SqlType.FLOAT:
        return kind == "f"
    if declared is SqlType.BOOLEAN:
        return kind == "b"
    return False


def _equi_join_plan(
    condition: Expression,
    left_rows: list[dict[str, Any]],
    right_rows: list[dict[str, Any]],
) -> Optional[tuple[list[Expression], list[Expression]]]:
    """Recognize an AND-chain of column equalities so joins can hash.

    Returns ``(left_key_exprs, right_key_exprs)`` when every conjunct is
    ``col = col`` with one side bound by the left rows and the other by the
    right rows; otherwise ``None`` (the executor falls back to nested loop).
    """
    conjuncts: list[Expression] = []
    flatten_and(condition, conjuncts)
    if not left_rows or not right_rows:
        return None
    left_keys = set(left_rows[0])
    right_keys = set(right_rows[0])
    left_exprs: list[Expression] = []
    right_exprs: list[Expression] = []
    for conjunct in conjuncts:
        if not (isinstance(conjunct, BinaryOp) and conjunct.operator == "="):
            return None
        sides = []
        for operand in (conjunct.left, conjunct.right):
            if not isinstance(operand, ColumnRef):
                return None
            key = (
                f"{operand.qualifier}.{operand.name}".lower()
                if operand.qualifier
                else operand.name.lower()
            )
            sides.append((operand, key))
        (first, first_key), (second, second_key) = sides
        if first_key in left_keys and second_key in right_keys:
            left_exprs.append(first)
            right_exprs.append(second)
        elif second_key in left_keys and first_key in right_keys:
            left_exprs.append(second)
            right_exprs.append(first)
        else:
            return None
    return left_exprs, right_exprs


def _normalize_variables(variables: Optional[Mapping[str, Any]]) -> dict[str, Any]:
    if not variables:
        return {}
    return {str(name).lstrip("@").lower(): value for name, value in variables.items()}


def _bind_row(names: tuple[str, ...], row: tuple[Any, ...], label: str) -> dict[str, Any]:
    bound: dict[str, Any] = {}
    for name, value in zip(names, row):
        key = name.lower()
        bound[key] = value
        bound[f"{label}.{key}"] = value
    return bound


def _merge_rows(left: dict[str, Any], right: dict[str, Any]) -> dict[str, Any]:
    merged = dict(left)
    merged.update(right)
    return merged


def _merge_schemas(left: TableSchema, right: TableSchema) -> TableSchema:
    columns: list[Column] = list(left.columns)
    used = {c.name.lower() for c in columns}
    for column in right.columns:
        name = column.name
        if name.lower() in used:
            name = _dedupe_name(name, used)
            column = Column(name, column.sql_type, column.nullable)
        used.add(name.lower())
        columns.append(column)
    return TableSchema(tuple(columns))


def _null_row_like(rows: list[dict[str, Any]], schema: TableSchema) -> dict[str, Any]:
    if rows:
        return {key: None for key in rows[0]}
    return {name.lower(): None for name in schema.names}


def _dedupe_name(name: str, used: set[str]) -> str:
    candidate = name
    suffix = 1
    while candidate.lower() in used:
        suffix += 1
        candidate = f"{name}_{suffix}"
    used.add(candidate.lower())
    return candidate


def _infer_schema(names: list[str], rows: list[tuple[Any, ...]]) -> TableSchema:
    """Infer output column types from the first non-NULL value per column."""
    columns: list[Column] = []
    for index, name in enumerate(names):
        sql_type = SqlType.FLOAT
        for row in rows:
            if index < len(row) and row[index] is not None:
                inferred = infer_type(row[index])
                assert inferred is not None
                sql_type = inferred
                break
        columns.append(Column(name, sql_type, nullable=True))
    return TableSchema(tuple(columns))


def _sort_by_keys(
    rows: list[tuple[Any, ...]],
    keys: list[tuple],
    order_by: tuple,
) -> list[tuple[Any, ...]]:
    """Stable multi-key sort of ``rows`` by precomputed ``keys``."""
    decorated = list(zip(keys, range(len(rows)), rows))
    for position in range(len(order_by) - 1, -1, -1):
        reverse = order_by[position].descending
        decorated.sort(
            key=lambda item: _null_safe_key((item[0][position] is None, item[0][position])),
            reverse=reverse,
        )
    return [row for (_, _, row) in decorated]


def _null_safe_key(ranked: tuple[bool, Any]) -> tuple[int, Any]:
    """Sort key placing NULLs first ascending (last descending), like TSQL."""
    null_rank, value = ranked
    if null_rank:
        return (0, 0)
    return (1, value)


def _rowcount_result(count: int) -> ResultSet:
    schema = TableSchema((Column("rowcount", SqlType.INTEGER),))
    return ResultSet(schema=schema, rows=[(count,)])
