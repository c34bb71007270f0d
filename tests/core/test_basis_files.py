"""One basis file format, one trust rule.

A basis reaches memory from a file three ways: a spill fault of the
engine's own tier, a spill dir an earlier engine left behind (adopted at
startup), and a directory ``load_bases`` adopts. Whatever the way, a basis
whose rows were simulated under another base seed, whose matrix no longer
has the model's shape, or whose model left the library must never serve:
it is dropped, counted as a failed fault, and the request is a miss whose
statistics equal a fresh run's. Garbled files end the same way or are
skipped at indexing, and a directory written in the original layout (no
fingerprint members) still adopts.
"""

import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from repro.core.argcodec import encode_args
from repro.core.basis_store import basis_file_path, write_basis_file
from repro.core.config import EngineConfig, SamplingConfig, StoreConfig
from repro.core.engine import ProphetEngine
from repro.core.persistence import load_bases, save_bases
from repro.core.storage import BasisEntry
from repro.models import DemandModel, build_risk_vs_cost
from repro.vg.seeds import world_seed

POINT = {"purchase1": 16, "purchase2": 32, "feature": 12}
N_WORLDS = 12
BASE_SEED = 42


def make_engine(**store):
    scenario, library = build_risk_vs_cost(purchase_step=16)
    config = EngineConfig(
        sampling=SamplingConfig(n_worlds=N_WORLDS, base_seed=BASE_SEED),
        store=StoreConfig(**store),
    )
    return ProphetEngine(scenario, library, config)


def demand_key(engine):
    output = next(o for o in engine.scenario.vg_outputs if o.vg_name == "DemandModel")
    return ("demandmodel", tuple(output.model_arg_values(POINT)))


def statistics_bytes(evaluation):
    stats = evaluation.statistics
    return {
        alias: (stats.expectation(alias).tobytes(), stats.stddev(alias).tobytes())
        for alias in stats.aliases()
    }


@pytest.fixture(scope="module")
def fresh_statistics():
    return statistics_bytes(make_engine().evaluate_point(POINT, reuse=False))


def defective_entry(defect, args):
    """The demand basis at ``args``, spoiled by ``defect``."""
    worlds = tuple(range(N_WORLDS))
    if defect == "foreign_seed":
        seeds = tuple(world_seed(7, w) for w in worlds)
    else:
        seeds = tuple(world_seed(BASE_SEED, w) for w in worlds)
    model = DemandModel(n_weeks=30) if defect == "reshaped" else DemandModel()
    samples = np.vstack([model.invoke(seed, args) for seed in seeds])
    name = "RetiredModel" if defect == "removed_model" else "DemandModel"
    return (name.lower(), args), BasisEntry(name, args, samples, worlds, seeds)


def _own_spill(tmp_path, defective_file):
    """The engine spills its demand basis, then the file is spoiled."""
    engine = make_engine(basis_cap=1, basis_dir=str(tmp_path / "own"))
    engine.evaluate_point(POINT, reuse=False)
    spilled = basis_file_path(str(tmp_path / "own"), demand_key(engine))
    assert os.path.exists(spilled)  # demand was evicted by capacity
    shutil.copyfile(defective_file, spilled)
    return engine


def _earlier_spill_dir(tmp_path, defective_file):
    """An earlier run left the spoiled file in the engine's basis_dir."""
    return make_engine(basis_dir=os.path.dirname(defective_file))


def _loaded_with(directory, expect):
    engine = make_engine()
    assert load_bases(engine, directory) == expect
    return engine


def _loaded_directory(tmp_path, defective_file):
    return _loaded_with(os.path.dirname(defective_file), 0)


SOURCES = {
    "own_spill": _own_spill,
    "earlier_spill_dir": _earlier_spill_dir,
    "load_bases": _loaded_directory,
}
DEFECTS = ("foreign_seed", "reshaped", "removed_model")


class TestOneTrustRule:
    @pytest.mark.parametrize("defect", DEFECTS)
    @pytest.mark.parametrize("source", sorted(SOURCES))
    def test_no_stale_basis_serves(self, tmp_path, source, defect, fresh_statistics):
        args = demand_key(make_engine())[1]
        key, entry = defective_entry(defect, args)
        (tmp_path / "disk").mkdir()
        record = write_basis_file(str(tmp_path / "disk"), key, entry)
        engine = SOURCES[source](tmp_path, record.path)

        evaluation = engine.evaluate_point(POINT, reuse=False)
        held = list(engine.storage.entries())  # reads every spilled basis

        demand = next(r for r in evaluation.reuse_reports if r.vg_name == "DemandModel")
        assert demand.source == "fresh"
        assert engine.storage.tier.stats.failed_faults == 1
        assert statistics_bytes(evaluation) == fresh_statistics
        for (name, _), basis in held:
            model = engine.library.get(name)
            assert basis.samples.shape[1] == model.n_components
            assert basis.seeds == tuple(world_seed(BASE_SEED, w) for w in basis.worlds)

    def test_a_sound_directory_serves_every_source(self, tmp_path, fresh_statistics):
        writer = make_engine()
        writer.evaluate_point(POINT, reuse=False)
        assert save_bases(writer, tmp_path / "saved") == 2
        for engine in (
            make_engine(basis_dir=str(tmp_path / "saved")),
            _loaded_with(tmp_path / "saved", expect=2),
        ):
            evaluation = engine.evaluate_point(POINT, reuse=False)
            assert {r.source for r in evaluation.reuse_reports} == {"exact"}
            assert engine.storage.tier.stats.failed_faults == 0
            assert statistics_bytes(evaluation) == fresh_statistics

    def test_a_spill_file_holding_another_key_never_serves(self, tmp_path, fresh_statistics):
        """A spill path names one key; a file there that holds another
        parameterization of the same model (sound seeds, sound shape) is
        refused like any other defect."""
        args = demand_key(make_engine())[1]
        other = (args[0] + 24,) + tuple(args[1:])
        key, entry = defective_entry("sound", other)
        (tmp_path / "disk").mkdir()
        record = write_basis_file(str(tmp_path / "disk"), key, entry)
        engine = _own_spill(tmp_path, record.path)
        evaluation = engine.evaluate_point(POINT, reuse=False)
        demand = next(r for r in evaluation.reuse_reports if r.vg_name == "DemandModel")
        assert demand.source == "fresh"
        assert engine.storage.tier.stats.failed_faults == 1
        assert statistics_bytes(evaluation) == fresh_statistics

    def test_adoption_never_replaces_a_held_basis(self, tmp_path):
        engine = make_engine()
        engine.evaluate_point(POINT, reuse=False)
        key = demand_key(engine)
        held = engine.storage.tier.get(key)
        _, stale = defective_entry("foreign_seed", key[1])
        (tmp_path / "disk").mkdir()
        write_basis_file(str(tmp_path / "disk"), key, stale)
        assert load_bases(engine, tmp_path / "disk") == 0
        assert engine.storage.tier.get(key) is held
        assert engine.storage.tier.stats.failed_faults == 0


class TestGarbledFiles:
    """A file that is not a whole basis file is skipped at indexing or
    dropped as a counted failed fault — through ``load_bases`` and through
    startup indexing alike. Nothing raises out of ``evaluate_point`` and no
    statistic changes."""

    @pytest.fixture
    def saved(self, tmp_path):
        engine = make_engine()
        engine.evaluate_point(POINT, reuse=False)
        directory = tmp_path / "saved"
        assert save_bases(engine, directory) == 2
        path = basis_file_path(str(directory), demand_key(engine))
        with open(path, "rb") as handle:
            return path, handle.read()

    @staticmethod
    def _outcome(path, blob, fresh_statistics):
        """Write ``blob`` over the demand file; how did each route end?

        ``skipped`` (never adopted), ``dropped`` (adopted, then a counted
        failed fault) or ``served`` (an exact hit of the original bytes),
        the same for ``load_bases`` and for startup indexing.
        """
        with open(path, "wb") as handle:
            handle.write(blob)
        directory = os.path.dirname(path)
        loaded = make_engine()
        served = load_bases(loaded, directory)
        outcomes = set()
        for engine in (loaded, make_engine(basis_dir=directory)):
            evaluation = engine.evaluate_point(POINT, reuse=False)
            assert statistics_bytes(evaluation) == fresh_statistics
            demand = next(
                r for r in evaluation.reuse_reports if r.vg_name == "DemandModel"
            )
            failed = engine.storage.tier.stats.failed_faults
            if demand.source == "exact":
                assert failed == 0
                outcomes.add("served")
            else:
                assert demand.source == "fresh" and failed in (0, 1)
                outcomes.add("dropped" if failed else "skipped")
        (outcome,) = outcomes
        assert served == (2 if outcome == "served" else 1)
        return outcome

    @pytest.mark.parametrize("keep", [0, 3, 100, 0.5, 0.99])
    def test_truncated(self, saved, fresh_statistics, keep):
        path, blob = saved
        cut = keep if isinstance(keep, int) else int(len(blob) * keep)
        assert self._outcome(path, blob[:cut], fresh_statistics) == "skipped"

    def test_not_an_archive(self, saved, fresh_statistics):
        path, _ = saved
        blob = b"these bytes were never an npz file"
        assert self._outcome(path, blob, fresh_statistics) == "skipped"

    @pytest.mark.parametrize(
        "member, outcome",
        [
            ("samples", "dropped"),
            ("seeds", "dropped"),
            ("worlds", "skipped"),
            ("header", "skipped"),
            ("fingerprint", "skipped"),
        ],
    )
    def test_member_missing(self, saved, fresh_statistics, member, outcome):
        path, _ = saved
        with np.load(path) as good:
            kept = {name: good[name] for name in good.files if name != member}
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **kept)
        with open(path, "rb") as handle:
            assert self._outcome(path, handle.read(), fresh_statistics) == outcome

    def test_bit_flipped_anywhere_is_contained(self, saved, fresh_statistics):
        """One flipped bit at 60 positions across the file (member data,
        local headers, the central directory): the basis is skipped or
        dropped, or — the bit was one nothing reads, a timestamp say — it
        serves its original bytes."""
        path, blob = saved
        outcomes = [
            self._outcome(path, blob[:at] + bytes([blob[at] ^ 1 << (at % 8)]) + blob[at + 1:],
                          fresh_statistics)
            for at in range(0, len(blob), max(1, len(blob) // 60))
        ]
        # Flips in the samples member pass indexing and fail its CRC when
        # the matrix is read (dropped); flips in the header, worlds or
        # central directory fail indexing (skipped). Few bits go unread.
        assert outcomes.count("dropped") and outcomes.count("skipped")
        assert outcomes.count("served") < len(outcomes) // 10

    def test_a_directory_that_cannot_be_opened_is_still_an_oserror(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_bases(make_engine(), tmp_path / "never-written")


class TestParentFormat:
    def test_a_file_without_fingerprint_members_adopts_and_exact_hits(self, tmp_path):
        """The original spill layout, built by hand: ``samples``,
        ``worlds``, ``seeds`` and a four-field ``header``."""
        writer = make_engine()
        writer.evaluate_point(POINT, reuse=False)
        key = demand_key(writer)
        entry = writer.storage.tier.get(key)
        digest = hashlib.sha256(
            json.dumps([key[0], encode_args(key[1])]).encode("utf-8")
        ).hexdigest()
        directory = tmp_path / "parent"
        directory.mkdir()
        header = {
            "format_version": 1,
            "vg_name": entry.vg_name,
            "args": encode_args(entry.args),
            "n_bytes": int(entry.samples.nbytes),
        }
        with open(directory / f"basis_{digest[:40]}.npz", "wb") as handle:
            np.savez_compressed(
                handle,
                samples=entry.samples,
                worlds=np.asarray(entry.worlds, dtype=np.int64),
                seeds=np.asarray(entry.seeds, dtype=np.uint64),
                header=np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
            )

        for engine in (make_engine(basis_dir=str(directory)), _loaded_with(directory, 1)):
            evaluation = engine.evaluate_point(POINT, reuse=False)
            demand = next(
                r for r in evaluation.reuse_reports if r.vg_name == "DemandModel"
            )
            assert demand.source == "exact"
            held = engine.storage.tier.get(key)
            assert held.samples.tobytes() == entry.samples.tobytes()
            assert not engine.registry.has_fingerprint(*key)  # none stored

    def test_a_stored_fingerprint_is_adopted_without_a_probe(self, tmp_path):
        writer = make_engine()
        writer.evaluate_point(POINT)
        save_bases(writer, tmp_path / "saved")
        for engine in (
            make_engine(basis_dir=str(tmp_path / "saved")),
            _loaded_with(tmp_path / "saved", 2),
        ):
            assert engine.registry.probes_computed == 0
            key = demand_key(engine)
            adopted = engine.registry.get_fingerprint(*key)
            stored = writer.registry.get_fingerprint(*key)
            assert adopted.matrix.tobytes() == stored.matrix.tobytes()
