"""Unit tests for the VG registry and its SQL (PDB) exposure."""

import pytest

from repro.errors import VGFunctionError
from repro.sqldb import Catalog, Executor, register_library, register_vg_function
from repro.vg import GaussianSeries, VGLibrary


def make_vg(name="Series", n=6):
    return GaussianSeries(name, n, base=10.0, trend=1.0, sigma=0.5)


class TestVGLibrary:
    def test_register_and_get_case_insensitive(self):
        library = VGLibrary()
        vg = library.register(make_vg())
        assert library.get("series") is vg
        assert "SERIES" in library

    def test_duplicate_rejected_without_replace(self):
        library = VGLibrary()
        library.register(make_vg())
        with pytest.raises(VGFunctionError, match="already registered"):
            library.register(make_vg())

    def test_replace_updates_model(self):
        library = VGLibrary()
        library.register(make_vg())
        better = make_vg()
        library.register(better, replace=True)
        assert library.get("Series") is better

    def test_unregister(self):
        library = VGLibrary()
        library.register(make_vg())
        library.unregister("series")
        assert len(library) == 0
        with pytest.raises(VGFunctionError):
            library.unregister("series")

    def test_missing_get_raises(self):
        with pytest.raises(VGFunctionError, match="no such VG-Function"):
            VGLibrary().get("nope")

    def test_counters_aggregate(self):
        library = VGLibrary()
        a = library.register(make_vg("A"))
        b = library.register(make_vg("B"))
        a.invoke(1, ())
        b.invoke(1, ())
        b.invoke(2, ())
        assert library.total_invocations() == 3
        assert library.total_component_samples() == 18
        library.reset_counters()
        assert library.total_invocations() == 0

    def test_names(self):
        library = VGLibrary()
        library.register(make_vg("A"))
        library.register(make_vg("B"))
        assert library.names == ("A", "B")


class TestPdbExtension:
    def setup_method(self):
        self.catalog = Catalog()
        self.executor = Executor(self.catalog)
        self.vg = make_vg()
        register_vg_function(self.catalog, self.vg)

    def test_table_form_yields_components(self):
        result = self.executor.execute("SELECT t, value FROM SeriesT(1234) ORDER BY t")
        assert len(result) == 6
        expected = self.vg.invoke(1234, ())
        assert result.column("value") == pytest.approx(list(expected))

    def test_scalar_form_indexes_component(self):
        value = self.executor.execute("SELECT Series(1234, 3) AS v").scalar()
        assert value == pytest.approx(float(self.vg.invoke(1234, ())[3]))

    def test_scalar_form_validates_seed_type(self):
        with pytest.raises(VGFunctionError, match="integer world seed"):
            self.executor.execute("SELECT Series('x', 3) AS v")

    def test_scalar_form_validates_component_range(self):
        with pytest.raises(VGFunctionError, match="out of range"):
            self.executor.execute("SELECT Series(1, 99) AS v")

    def test_scalar_form_arity(self):
        with pytest.raises(VGFunctionError, match="expects 2 args"):
            self.executor.execute("SELECT Series(1) AS v")

    def test_table_form_arity(self):
        with pytest.raises(VGFunctionError, match="expects 1 args"):
            self.executor.execute("SELECT * FROM SeriesT(1, 2)")

    def test_invocation_cached_within_seed(self):
        self.vg.reset_counters()
        self.executor.execute("SELECT Series(7, 0) AS a, Series(7, 5) AS b")
        assert self.vg.invocations == 1  # one world generation, two reads

    @pytest.mark.parametrize(
        "joined", ["worlds w CROSS JOIN weeks t", "weeks t CROSS JOIN worlds w"]
    )
    def test_scalar_scan_generates_once_per_world_in_either_join_order(self, joined):
        self.executor.execute("CREATE TABLE worlds (seed INTEGER)")
        self.executor.execute("CREATE TABLE weeks (t INTEGER)")
        for seed in range(5):
            self.executor.execute(f"INSERT INTO worlds VALUES ({seed})")
        for week in range(6):
            self.executor.execute(f"INSERT INTO weeks VALUES ({week})")
        self.vg.reset_counters()
        result = self.executor.execute(f"SELECT Series(w.seed, t.t) AS v FROM {joined}")
        assert len(result) == 30
        assert self.vg.invocations == 5  # one generation per world, not per row

    def test_register_library_registers_all(self):
        catalog = Catalog()
        library = VGLibrary()
        library.register(make_vg("M1"))
        library.register(make_vg("M2"))
        register_library(catalog, library)
        executor = Executor(catalog)
        assert executor.execute("SELECT M1(1, 0) AS v").scalar() is not None
        assert len(executor.execute("SELECT * FROM M2T(1)")) == 6

    def test_duplicate_registration_rejected(self):
        with pytest.raises(Exception):
            register_vg_function(self.catalog, make_vg())

    def test_sql_and_python_paths_agree(self):
        # The SQL table form and a direct invoke see the same world.
        sql_values = self.executor.execute(
            "SELECT value FROM SeriesT(42) ORDER BY t"
        ).column("value")
        python_values = list(self.vg.invoke(42, ()))
        assert sql_values == pytest.approx(python_values)
