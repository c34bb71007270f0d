"""Tests for basis-distribution persistence (warm session restarts)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.argcodec import decode_args, encode_args
from repro.core.config import EngineConfig, ReuseConfig, SamplingConfig
from repro.core.engine import ProphetEngine
from repro.core.persistence import load_bases, save_bases
from repro.errors import FingerprintError
from repro.models import build_risk_vs_cost
from repro.vg.base import CallableVGFunction
from repro.vg.seeds import world_seed

POINT = {"purchase1": 16, "purchase2": 32, "feature": 12}
CONFIG = EngineConfig(sampling=SamplingConfig(n_worlds=12))


def make_engine(config=CONFIG):
    scenario, library = build_risk_vs_cost(purchase_step=16)
    return ProphetEngine(scenario, library, config)


@pytest.fixture
def archive(tmp_path):
    return tmp_path / "bases.npz"


class TestSaveLoadRoundTrip:
    def test_counts_match(self, archive):
        engine = make_engine()
        engine.evaluate_point(POINT)
        saved = save_bases(engine, archive)
        assert saved == 2  # demand + capacity bases

        fresh = make_engine()
        assert load_bases(fresh, archive) == 2
        assert len(fresh.storage) == 2

    def test_loaded_bases_serve_exact_hits_without_simulation(self, archive):
        engine = make_engine()
        engine.evaluate_point(POINT)
        save_bases(engine, archive)

        fresh = make_engine()
        load_bases(fresh, archive)
        invocations_before = fresh.invocation_count()
        evaluation = fresh.evaluate_point(POINT)
        assert fresh.invocation_count() == invocations_before  # zero simulation
        assert all(report.source == "exact" for report in evaluation.reuse_reports)

    def test_loaded_statistics_match_original(self, archive):
        engine = make_engine()
        original = engine.evaluate_point(POINT)
        save_bases(engine, archive)

        fresh = make_engine()
        load_bases(fresh, archive)
        restored = fresh.evaluate_point(POINT)
        for alias in ("demand", "capacity", "overload"):
            assert restored.statistics.expectation(alias) == pytest.approx(
                original.statistics.expectation(alias)
            )

    def test_loaded_fingerprints_enable_mapping(self, archive):
        engine = make_engine()
        engine.evaluate_point(POINT)
        save_bases(engine, archive)

        fresh = make_engine()
        load_bases(fresh, archive)
        probes_before = fresh.registry.probes_computed
        neighbor = fresh.evaluate_point(
            {"purchase1": 32, "purchase2": 32, "feature": 12}
        )
        assert neighbor.any_reuse
        # Basis fingerprints were restored, not re-probed; only the target
        # parameterizations needed probing.
        assert fresh.registry.probes_computed == probes_before + 1

    def test_writes_exactly_a_suffixless_path(self, tmp_path):
        engine = make_engine()
        engine.evaluate_point(POINT)
        path = tmp_path / "bases.archive"
        assert save_bases(engine, str(path)) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bases.archive"]
        assert load_bases(make_engine(), str(path)) == 2

    def test_failed_save_keeps_the_previous_archive(self, archive, monkeypatch):
        engine = make_engine()
        engine.evaluate_point(POINT)
        save_bases(engine, archive)
        previous = archive.read_bytes()

        def crash(handle, **arrays):
            handle.write(b"PK\x03\x04 half an archive")
            raise OSError("disk full")

        engine.evaluate_point({**POINT, "purchase1": 32})
        monkeypatch.setattr(np, "savez_compressed", crash)
        with pytest.raises(OSError, match="disk full"):
            save_bases(engine, archive)
        assert archive.read_bytes() == previous
        assert [p.name for p in archive.parent.iterdir()] == [archive.name]
        assert load_bases(make_engine(), archive) == 2


class TestSpecCompatibility:
    def test_mismatched_spec_strict_raises(self, archive):
        engine = make_engine()
        engine.evaluate_point(POINT)
        save_bases(engine, archive)

        other = make_engine(EngineConfig(
            sampling=SamplingConfig(n_worlds=12),
            reuse=ReuseConfig(fingerprint_seeds=4),
        ))
        with pytest.raises(FingerprintError, match="probe spec"):
            load_bases(other, archive)

    def test_mismatched_spec_lenient_loads_bases_only(self, archive):
        engine = make_engine()
        engine.evaluate_point(POINT)
        save_bases(engine, archive)

        other = make_engine(EngineConfig(
            sampling=SamplingConfig(n_worlds=12),
            reuse=ReuseConfig(fingerprint_seeds=4),
        ))
        assert load_bases(other, archive, strict=False) == 2
        assert len(other.storage) == 2

    def test_removed_model_skipped(self, archive):
        engine = make_engine()
        engine.evaluate_point(POINT)
        save_bases(engine, archive)

        scenario, library = build_risk_vs_cost(purchase_step=16)
        library.unregister("CapacityModel")
        from repro.vg.library import VGLibrary

        slim = VGLibrary()
        slim.register(library.get("DemandModel"))
        # Build an engine over a demand-only scenario.
        from repro.core.scenario import Scenario, VGOutput, DerivedOutput
        from repro.sqldb.parser import parse_expression

        demand_only = Scenario(
            name="slim",
            space=scenario.space.without("purchase1", "purchase2"),
            axis="current",
            outputs=[
                VGOutput("demand", "DemandModel", parse_expression("@current"),
                         (parse_expression("@feature"),)),
                DerivedOutput("high", parse_expression(
                    "CASE WHEN demand > 7000 THEN 1 ELSE 0 END"
                )),
            ],
        )
        slim_engine = ProphetEngine(demand_only, slim, CONFIG)
        assert load_bases(slim_engine, archive) == 1  # only the demand basis

    def test_reshaped_model_skipped(self, archive):
        engine = make_engine()
        engine.evaluate_point(POINT)
        save_bases(engine, archive)

        scenario, library = build_risk_vs_cost(purchase_step=16)
        from repro.models import DemandModel

        library.register(DemandModel(n_weeks=30), replace=True)
        short_space = scenario.space.without("current")
        from repro.core.parameters import Parameter, ParameterSpace
        from repro.core.scenario import Scenario

        new_space = ParameterSpace(
            [Parameter.from_range("current", 0, 29, 1)]
            + [p for p in short_space]
        )
        reshaped = Scenario(
            name="reshaped",
            space=new_space,
            axis="current",
            outputs=list(scenario.outputs),
        )
        reshaped_engine = ProphetEngine(reshaped, library, CONFIG)
        # Demand basis is stale (53 != 30 components); capacity still loads.
        assert load_bases(reshaped_engine, archive) == 1


def _assert_same_typed(actual, expected):
    """Equality plus exact type identity, recursively (True != 1, () != [])."""
    assert type(actual) is type(expected), f"{actual!r} vs {expected!r}"
    if isinstance(expected, (tuple, list)):
        assert len(actual) == len(expected)
        for a, b in zip(actual, expected):
            _assert_same_typed(a, b)
    elif isinstance(expected, float) and math.isnan(expected):
        assert math.isnan(actual)
    else:
        assert actual == expected


_ARG_VALUES = st.recursive(
    st.one_of(
        st.booleans(),
        st.integers(min_value=-(2**53), max_value=2**53),
        st.floats(allow_nan=False),
        st.text(max_size=8),
        st.none(),
    ),
    lambda children: st.lists(children, max_size=3).map(tuple)
    | st.lists(children, max_size=3),
    max_leaves=8,
)

#: Representative ParamKeys: tuples of scalars and nested containers.
_PARAM_KEYS = st.lists(_ARG_VALUES, max_size=4).map(tuple)


class TestArgsCodec:
    """Regression: plain-JSON round-trips turned nested tuples into lists,
    so reloaded bases could never exact-hit their original key and could
    crash dict insertion with an unhashable key."""

    @settings(max_examples=200, deadline=None)
    @given(_PARAM_KEYS)
    def test_round_trip_preserves_values_and_types(self, args):
        _assert_same_typed(decode_args(encode_args(args)), args)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=6)), max_size=3).map(tuple))
    def test_round_tripped_scalar_keys_stay_hashable_and_equal(self, args):
        decoded = decode_args(encode_args(args))
        assert {args: 1}[decoded] == 1  # same dict key before and after

    def test_nested_tuples_come_back_hashable(self):
        args = ((1, (2, 3)), "label", (True, 5.0))
        decoded = decode_args(encode_args(args))
        _assert_same_typed(decoded, args)
        hash(decoded)  # plain JSON decoding raised TypeError here

    def test_non_finite_floats_round_trip(self):
        decoded = decode_args(encode_args((math.inf, -math.inf, math.nan)))
        assert decoded[0] == math.inf and decoded[1] == -math.inf
        assert math.isnan(decoded[2])

    def test_bool_and_int_do_not_alias(self):
        encoded_bool = encode_args((True,))
        encoded_int = encode_args((1,))
        assert encoded_bool != encoded_int
        assert decode_args(encoded_bool)[0] is True
        assert type(decode_args(encoded_int)[0]) is int


class TestNestedTupleArgsRoundTrip:
    def test_saved_nested_tuple_key_exact_hits_after_reload(self, archive):
        """End-to-end regression: a basis keyed by nested-tuple args must
        reload under its exact original key (v1 archives decoded the args
        as nested lists — unhashable, and never an exact hit)."""
        nested_fn = CallableVGFunction(
            "NestedModel", 4, ("cfg",), lambda rng, args: rng.normal(size=4)
        )
        scenario, library = build_risk_vs_cost(purchase_step=16)
        library.register(nested_fn)
        engine = ProphetEngine(scenario, library, CONFIG)
        nested_args = ((1, (2, 3)),)
        seeds = [world_seed(42, w) for w in range(3)]
        matrix = np.vstack([nested_fn.invoke(s, nested_args) for s in seeds])
        engine.storage.store(nested_fn, nested_args, matrix, range(3), seeds)
        assert save_bases(engine, archive) == 1

        scenario2, library2 = build_risk_vs_cost(purchase_step=16)
        library2.register(
            CallableVGFunction(
                "NestedModel", 4, ("cfg",), lambda rng, args: rng.normal(size=4)
            )
        )
        fresh = ProphetEngine(scenario2, library2, CONFIG)
        assert load_bases(fresh, archive) == 1
        entry = fresh.storage.entry("NestedModel", nested_args)
        assert entry is not None  # exact (vg_name, tuple(args)) key hit
        assert isinstance(entry.args[0], tuple)
        assert isinstance(entry.args[0][1], tuple)
        assert entry.samples.tobytes() == matrix.tobytes()


class TestLegacyArchives:
    def test_v1_archive_with_nested_args_loads_as_tuples(self, archive):
        """Regression: v1 archives carry plain-JSON args; nested arrays must
        decode as tuples (lists are unhashable store keys and crashed
        load_bases)."""
        import json

        nested_fn = CallableVGFunction(
            "NestedModel", 4, ("cfg",), lambda rng, args: rng.normal(size=4)
        )
        scenario, library = build_risk_vs_cost(purchase_step=16)
        library.register(nested_fn)
        engine = ProphetEngine(scenario, library, CONFIG)

        seeds = [world_seed(42, w) for w in range(3)]
        matrix = np.vstack(
            [nested_fn.invoke(s, ((1, (2, 3)),)) for s in seeds]
        )
        spec = engine.registry.spec
        header = {
            "format_version": 1,
            "scenario": scenario.name,
            "n_probe_seeds": spec.n_seeds,
            "probe_base_seed": spec.base_seed,
            "entries": [
                {
                    "vg_name": "NestedModel",
                    # v1 wrote json.dumps(list(args)): tuples became arrays.
                    "args": json.dumps([[1, [2, 3]]]),
                    "has_fingerprint": False,
                }
            ],
        }
        np.savez_compressed(
            archive,
            samples_0=matrix,
            worlds_0=np.asarray(range(3), dtype=np.int64),
            seeds_0=np.asarray(seeds, dtype=np.uint64),
            header=np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
        )

        assert load_bases(engine, archive) == 1
        entry = engine.storage.entry("NestedModel", ((1, (2, 3)),))
        assert entry is not None
        assert isinstance(entry.args[0], tuple)
        assert entry.samples.tobytes() == matrix.tobytes()


class TestGarbledArchives:
    """A file that is not the archive ``save_bases`` wrote ends in a
    ``FingerprintError`` naming it — never in whatever NumPy or ``zipfile``
    raise — and leaves the engine as it was."""

    @pytest.fixture
    def saved(self, archive):
        engine = make_engine()
        engine.evaluate_point(POINT)
        assert save_bases(engine, archive) == 2
        return archive.read_bytes()

    def _assert_refused(self, archive, blob):
        archive.write_bytes(blob)
        fresh = make_engine()
        with pytest.raises(FingerprintError, match=archive.name):
            load_bases(fresh, archive)
        assert len(fresh.storage) == 0 and len(fresh.registry) == 0

    @pytest.mark.parametrize("keep", [0, 3, 100, 0.5, 0.99])
    def test_truncated(self, archive, saved, keep):
        cut = keep if isinstance(keep, int) else int(len(saved) * keep)
        self._assert_refused(archive, saved[:cut])

    def test_not_an_archive(self, archive):
        self._assert_refused(archive, b"these bytes were never an npz archive")

    def test_member_missing(self, archive, saved):
        with np.load(archive) as good:
            kept = {name: good[name] for name in good.files if name != "seeds_1"}
        np.savez_compressed(archive, **kept)
        self._assert_refused(archive, archive.read_bytes())
        kept.pop("header")
        np.savez_compressed(archive, **kept)
        self._assert_refused(archive, archive.read_bytes())

    def test_bit_flipped_anywhere_is_refused_or_harmless(self, archive, saved):
        """One flipped bit, at 150 positions across the file (member data,
        local headers, the central directory): the load is refused with the
        engine untouched, or — the bit was one nothing reads, a timestamp
        say — it succeeds whole."""
        refused = 0
        for position in range(0, len(saved), len(saved) // 150):
            blob = bytearray(saved)
            blob[position] ^= 1 << (position % 8)
            archive.write_bytes(bytes(blob))
            fresh = make_engine()
            try:
                assert load_bases(fresh, archive) == 2
            except FingerprintError as error:
                assert archive.name in str(error)
                assert len(fresh.storage) == 0 and len(fresh.registry) == 0
                refused += 1
        assert refused > 100

    def test_a_path_that_cannot_be_opened_is_still_an_oserror(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_bases(make_engine(), tmp_path / "never-written.npz")
