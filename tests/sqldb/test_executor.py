"""Integration tests for the SQL executor (SELECT, DML, DDL, joins)."""

import numpy as np
import pytest

from repro.errors import CatalogError, ExecutionError
from repro.sqldb import Catalog, Column, Executor, ResultSet, SqlType, TableSchema


class TestSelectBasics:
    def test_select_without_from(self, executor):
        assert executor.execute("SELECT 1 + 1 AS two").rows == [(2,)]

    def test_projection_and_where(self, people):
        result = people.execute("SELECT name FROM people WHERE age > 30 ORDER BY name")
        assert result.column("name") == ["ada", "bob", "dee"]

    def test_null_where_rejects_row(self, people):
        # eli has NULL age: NULL > 30 is NULL, row rejected.
        result = people.execute("SELECT COUNT(*) FROM people WHERE age > 0")
        assert result.scalar() == 4

    def test_star(self, people):
        result = people.execute("SELECT * FROM people")
        assert result.column_names == ("id", "name", "age", "score")
        assert len(result) == 5

    def test_alias_chaining_like_figure2(self, executor):
        result = executor.execute(
            "SELECT 10.0 AS demand, 8.0 AS capacity, "
            "CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload"
        )
        assert result.rows == [(10.0, 8.0, 1)]

    def test_variables(self, executor):
        result = executor.execute("SELECT @a * @b AS p", {"a": 6, "b": 7})
        assert result.scalar() == 42

    def test_variable_names_normalized(self, executor):
        result = executor.execute("SELECT @Foo AS x", {"@FOO": 1})
        assert result.scalar() == 1

    def test_distinct(self, people):
        result = people.execute("SELECT DISTINCT age FROM people ORDER BY age")
        assert result.column("age") == [None, 29, 36, 41]

    def test_order_by_desc_with_nulls(self, people):
        result = people.execute("SELECT age FROM people ORDER BY age DESC")
        ages = result.column("age")
        assert ages[0] == 41 and ages[-1] is None

    def test_limit_offset(self, people):
        result = people.execute("SELECT id FROM people ORDER BY id LIMIT 2 OFFSET 1")
        assert result.column("id") == [2, 3]

    def test_subquery(self, people):
        result = people.execute(
            "SELECT n FROM (SELECT name AS n, age FROM people) AS s "
            "WHERE age = 36 ORDER BY n"
        )
        assert result.column("n") == ["ada", "dee"]

    def test_select_into_materializes(self, people):
        people.execute("SELECT id, name INTO pairs FROM people WHERE id <= 2")
        assert people.execute("SELECT COUNT(*) FROM pairs").scalar() == 2

    def test_select_into_replaces(self, people):
        people.execute("SELECT id INTO tmp FROM people")
        people.execute("SELECT id INTO tmp FROM people WHERE id = 1")
        assert people.execute("SELECT COUNT(*) FROM tmp").scalar() == 1

    def test_unknown_table(self, executor):
        with pytest.raises(CatalogError, match="no such table"):
            executor.execute("SELECT * FROM missing")

    def test_output_name_deduplication(self, people):
        result = people.execute("SELECT id, id FROM people LIMIT 1")
        assert result.column_names == ("id", "id_2")


class TestAggregation:
    def test_group_by(self, people):
        result = people.execute(
            "SELECT age, COUNT(*) AS n FROM people GROUP BY age ORDER BY n DESC, age"
        )
        assert (36, 2) in result.rows

    def test_implicit_single_group(self, people):
        result = people.execute("SELECT COUNT(*) AS n, AVG(score) AS a FROM people")
        assert result.column("n") == [5]
        assert result.column("a")[0] == pytest.approx((9.5 + 7.25 + 8.0 + 6.5) / 4)

    def test_aggregate_over_empty_table(self, executor):
        executor.execute("CREATE TABLE empty (x INT)")
        result = executor.execute("SELECT COUNT(*) AS n, SUM(x) AS s FROM empty")
        assert result.rows == [(0, None)]

    def test_group_by_empty_table_yields_no_groups(self, executor):
        executor.execute("CREATE TABLE empty (x INT)")
        result = executor.execute("SELECT x, COUNT(*) FROM empty GROUP BY x")
        assert result.rows == []

    def test_having(self, people):
        result = people.execute(
            "SELECT age, COUNT(*) AS n FROM people GROUP BY age HAVING COUNT(*) > 1"
        )
        assert result.rows == [(36, 2)]

    def test_expression_over_aggregates(self, people):
        result = people.execute("SELECT MAX(age) - MIN(age) AS span FROM people")
        assert result.scalar() == 12

    def test_expect_alias_maps_to_avg(self, people):
        expect = people.execute("SELECT EXPECT(score) AS e FROM people").scalar()
        avg = people.execute("SELECT AVG(score) AS a FROM people").scalar()
        assert expect == avg

    def test_expect_stddev_maps_to_stdev(self, people):
        left = people.execute("SELECT EXPECT_STDDEV(score) AS s FROM people").scalar()
        right = people.execute("SELECT STDEV(score) AS s FROM people").scalar()
        assert left == right

    def test_stdev_in_group_by(self, people):
        result = people.execute(
            "SELECT age, STDEV(score) AS sd FROM people GROUP BY age ORDER BY age"
        )
        by_age = dict(zip(result.column("age"), result.column("sd")))
        assert by_age[36] == pytest.approx(1.0606601717798212)
        assert by_age[41] is None  # single row: sample stdev undefined

    def test_star_with_aggregation_rejected(self, people):
        with pytest.raises(ExecutionError):
            people.execute("SELECT *, COUNT(*) FROM people")

    def test_order_by_aggregate(self, people):
        result = people.execute(
            "SELECT age, COUNT(*) AS n FROM people GROUP BY age ORDER BY COUNT(*) DESC"
        )
        assert result.rows[0][1] == 2


class TestJoins:
    @pytest.fixture
    def orders(self, people):
        people.execute("CREATE TABLE orders (person_id INT, item VARCHAR)")
        people.execute(
            "INSERT INTO orders VALUES (1, 'pen'), (1, 'ink'), (3, 'mug'), (9, 'ghost')"
        )
        return people

    def test_inner_join(self, orders):
        result = orders.execute(
            "SELECT p.name, o.item FROM people p JOIN orders o "
            "ON p.id = o.person_id ORDER BY o.item"
        )
        assert result.rows == [("ada", "ink"), ("cyd", "mug"), ("ada", "pen")]

    def test_left_join_fills_nulls(self, orders):
        result = orders.execute(
            "SELECT p.name, o.item FROM people p LEFT JOIN orders o "
            "ON p.id = o.person_id WHERE o.item IS NULL ORDER BY p.name"
        )
        assert result.column("name") == ["bob", "dee", "eli"]

    def test_cross_join_cardinality(self, orders):
        result = orders.execute("SELECT COUNT(*) FROM people CROSS JOIN orders")
        assert result.scalar() == 20

    def test_non_equi_join_falls_back(self, orders):
        result = orders.execute(
            "SELECT COUNT(*) FROM people p JOIN orders o ON p.id < o.person_id"
        )
        # person_id values: 1,1,3,9 -> ids less than each: 0+0+2+5 = 7
        assert result.scalar() == 7

    def test_join_on_null_never_matches(self, people):
        people.execute("CREATE TABLE x (k INT)")
        people.execute("INSERT INTO x VALUES (NULL), (36)")
        result = people.execute(
            "SELECT COUNT(*) FROM x JOIN people p ON x.k = p.age"
        )
        assert result.scalar() == 2  # ada and dee, NULL key joins nothing

    def test_three_way_join(self, orders):
        orders.execute("CREATE TABLE prices (item VARCHAR, cents INT)")
        orders.execute("INSERT INTO prices VALUES ('pen', 150), ('mug', 900)")
        result = orders.execute(
            "SELECT p.name, pr.cents FROM people p "
            "JOIN orders o ON p.id = o.person_id "
            "JOIN prices pr ON o.item = pr.item ORDER BY pr.cents"
        )
        assert result.rows == [("ada", 150), ("cyd", 900)]


class TestDml:
    def test_insert_partial_columns(self, executor):
        executor.execute("CREATE TABLE t (a INT, b VARCHAR)")
        executor.execute("INSERT INTO t (b) VALUES ('only-b')")
        assert executor.execute("SELECT a, b FROM t").rows == [(None, "only-b")]

    def test_insert_arity_mismatch(self, executor):
        executor.execute("CREATE TABLE t (a INT, b VARCHAR)")
        with pytest.raises(ExecutionError, match="expects 2 values"):
            executor.execute("INSERT INTO t VALUES (1)")

    def test_insert_select(self, people):
        people.execute("CREATE TABLE names (n VARCHAR)")
        result = people.execute("INSERT INTO names SELECT name FROM people WHERE id < 3")
        assert result.scalar() == 2

    def test_insert_select_arity_mismatch(self, people):
        people.execute("CREATE TABLE names (n VARCHAR)")
        with pytest.raises(ExecutionError, match="arity mismatch"):
            people.execute("INSERT INTO names SELECT name, id FROM people")

    def test_update_with_where(self, people):
        result = people.execute("UPDATE people SET score = 0.0 WHERE age = 36")
        assert result.scalar() == 2
        zeros = people.execute("SELECT COUNT(*) FROM people WHERE score = 0.0")
        assert zeros.scalar() == 2

    def test_update_references_old_values(self, people):
        people.execute("UPDATE people SET age = age + 1 WHERE id = 1")
        assert people.execute("SELECT age FROM people WHERE id = 1").scalar() == 37

    def test_delete_with_where(self, people):
        assert people.execute("DELETE FROM people WHERE age IS NULL").scalar() == 1
        assert people.execute("SELECT COUNT(*) FROM people").scalar() == 4

    def test_delete_all(self, people):
        assert people.execute("DELETE FROM people").scalar() == 5
        assert people.execute("SELECT COUNT(*) FROM people").scalar() == 0

    def test_drop_table(self, people):
        people.execute("DROP TABLE people")
        with pytest.raises(CatalogError):
            people.execute("SELECT * FROM people")

    def test_drop_if_exists_tolerates_missing(self, executor):
        executor.execute("DROP TABLE IF EXISTS nope")  # no error

    def test_create_duplicate_rejected(self, executor):
        executor.execute("CREATE TABLE t (a INT)")
        with pytest.raises(CatalogError, match="already exists"):
            executor.execute("CREATE TABLE t (a INT)")

    def test_not_null_enforced_on_insert(self, executor):
        executor.execute("CREATE TABLE t (a INT NOT NULL)")
        with pytest.raises(ExecutionError):
            executor.execute("INSERT INTO t VALUES (NULL)")


class TestInsertFromTableFunction:
    """``INSERT ... SELECT cols FROM fn(...)`` lands a columnar payload in
    bulk. A payload of rows, or a float64 array bound for an INTEGER column,
    takes the row-path tail instead: the rows are the row tier's, it counts
    as one fallback select, and the function still runs once."""

    PAYLOADS = {
        "rows": lambda: ResultSet(
            TableSchema((Column("w", SqlType.INTEGER), Column("v", SqlType.FLOAT))),
            rows=[(1, 0.5), (2, -1.25), (3, 4.0)],
        ),
        "float-into-integer": lambda: ResultSet(
            TableSchema((Column("w", SqlType.FLOAT), Column("v", SqlType.FLOAT))),
            column_data=[np.array([1.0, 2.0, 3.0]), np.array([0.5, -1.25, 4.0])],
        ),
    }

    @pytest.mark.parametrize("payload", sorted(PAYLOADS))
    def test_the_row_tail_matches_the_row_tier(self, payload):
        landed = []
        for vectorized in (True, False):
            calls = []

            def generate(args, variables):
                calls.append(args)
                return self.PAYLOADS[payload]()

            executor = Executor(Catalog(), enable_vectorized=vectorized)
            executor.catalog.register_table_function("gen", generate)
            executor.execute("CREATE TABLE t (w INT, v FLOAT)")
            before = executor.stats.fallback_selects
            assert executor.execute("INSERT INTO t SELECT w, v FROM gen(7)").scalar() == 3
            assert calls == [(7,)]
            assert executor.stats.fallback_selects == before + 1
            rows = executor.catalog.table("t").rows
            landed.append((rows, [tuple(type(v) for v in row) for row in rows]))
        assert landed[0] == landed[1]
        assert landed[0][0] == [(1, 0.5), (2, -1.25), (3, 4.0)]


class TestScriptsAndStats:
    def test_execute_script(self, executor):
        results = executor.execute_script(
            "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2); "
            "SELECT COUNT(*) AS n FROM t"
        )
        assert results[-1].scalar() == 2

    def test_stats_track_work(self, people):
        before = people.stats.rows_scanned
        people.execute("SELECT * FROM people")
        assert people.stats.rows_scanned == before + 5
        assert people.stats.statements >= 1
