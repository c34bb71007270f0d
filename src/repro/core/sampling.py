"""The sampling plane: the fresh Monte Carlo stage with pluggable backends.

Fresh sampling — the only stage of the Figure-1 cycle that no reuse layer
can serve — runs here for the engine and (transitively) for every shard
worker. :class:`SamplingPlane` is that stage behind one abstraction with two
backends:

* ``batched`` (default) — one generated statement per world *slice*: the
  batch table form of the VG-Function (``nameTB(@_worlds, @_seeds, ...)``)
  produces the whole ``(n_worlds, n_components)`` matrix in a single
  invocation and the executor's columnar bulk-insert path lands it without
  materializing Python row tuples.
* ``loop`` — the original per-world parameterized INSERT template, one
  statement execution per world. Retained as the fallback and as the
  bit-identity reference.

Every backend is required to be bit-identical to the per-world loop: the
batch table form routes each world's randomness through that world's own
seed-derived stream (see :meth:`repro.vg.base.VGFunction.invoke_batch` and
its parity guard), and both backends land the same rows in batch order,
which is how the matrix is read back. Without the batch table form the
plane degrades to the loop; the ``sampled_batched`` / ``sampled_fallback``
world-row counters (``repro ... --stats``) make that observable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import ScenarioError
from repro.obs.trace import NULL_TRACER
from repro.sqldb.pdbext import BATCH_FORM_SUFFIX

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.instance import InstanceBatch
    from repro.core.querygen import QueryGenerator
    from repro.core.scenario import VGOutput
    from repro.sqldb.executor import Executor
    from repro.vg.library import VGLibrary


#: Known sampling backends, in documentation order.
SAMPLING_BACKENDS: tuple[str, ...] = ("batched", "loop")


class SamplingPlane:
    """Fresh-sampling stage shared by the engine and every shard worker.

    One plane serves one engine's (query generator, SQL executor, VG
    library) triple. :meth:`sample` produces the fresh sample matrix of one
    VG output over one instance batch, through the configured backend, and
    attributes wall-clock to the caller's ``timings`` (any object with
    mutable ``querygen``/``sql`` float attributes — the engine passes its
    :class:`~repro.core.engine.StageTimings`).
    """

    def __init__(
        self,
        querygen: "QueryGenerator",
        executor: "Executor",
        library: "VGLibrary",
        backend: str = "batched",
    ) -> None:
        self.querygen = querygen
        self.executor = executor
        self.library = library
        self.backend = backend
        #: Backend that served the most recent :meth:`sample` call
        #: ("batched" or "loop"); shard workers report it upstream.
        self.last_backend: str = backend
        #: Observability: the engine's :meth:`~repro.core.engine.
        #: ProphetEngine.set_tracer` replaces this shared no-op tracer.
        self.tracer = NULL_TRACER

    # -- public API ---------------------------------------------------------

    def sample(
        self,
        output: "VGOutput",
        batch: "InstanceBatch",
        timings: Optional[object] = None,
    ) -> np.ndarray:
        """Fresh Monte Carlo samples of ``output`` over ``batch``.

        Returns the ``(len(batch), n_components)`` matrix and leaves the
        scenario's samples table populated, exactly as the per-world loop
        would.
        """
        if not len(batch):
            raise ScenarioError("sampling needs at least one world")
        batched = self.backend == "batched" and self.executor.catalog.has_table_function(
            output.vg_name + BATCH_FORM_SUFFIX
        )
        self.last_backend = "batched" if batched else "loop"
        stats = self.executor.stats
        if batched:
            stats.sampled_batched += len(batch)
        else:
            stats.sampled_fallback += len(batch)
        with self.tracer.span(
            "sample", alias=output.alias, backend=self.last_backend, worlds=len(batch)
        ):
            self._land(output, batch, batched, timings)
            return self._read_back(output, batch)

    # -- backends -----------------------------------------------------------

    def _land(self, output, batch, batched: bool, timings) -> None:
        """Fill a fresh samples table: one statement for the whole slice, or
        the per-world INSERT loop (the bit-identity reference)."""
        querygen = self.querygen
        with self.tracer.stage("querygen", timings):
            drop = querygen.drop_samples_table_sql(output.alias)
            create = querygen.create_samples_table_sql(output.alias)
            if batched:
                insert = querygen.insert_batch_template(output)
                bindings = [querygen.batch_variables(batch.worlds, batch.seeds, batch.point_dict)]
            else:
                insert = querygen.insert_world_template(output)
                point = batch.point_dict
                bindings = (
                    querygen.world_variables(world, seed, point)
                    for world, seed in zip(batch.worlds.tolist(), batch.seeds.tolist())
                )

        with self.tracer.stage("sql", timings, stats=self.executor.stats):
            self.executor.execute(drop)
            self.executor.execute(create)
            for variables in bindings:
                self.executor.execute(insert, variables)

    def _read_back(self, output, batch) -> np.ndarray:
        """The landed table's ``value`` column as the matrix, in batch order.

        No statement re-sorts the rows: ``world``/``t`` are checked against
        ``repeat(worlds)``/``tile(arange(n_components))`` instead, and a
        lost, extra or reordered row raises :class:`ScenarioError`.
        """
        n_components = self.library.get(output.vg_name).n_components
        n_worlds = len(batch)
        view = self.executor.catalog.table(
            self.querygen.samples_table(output.alias)
        ).columnar_view()
        if view.n_rows != n_worlds * n_components:
            raise ScenarioError(
                f"sampling produced {view.n_rows} rows, expected "
                f"{n_worlds * n_components}"
            )
        shape = (n_worlds, n_components)
        worlds, weeks = view.arrays.get("world"), view.arrays.get("t")
        if (
            worlds is None
            or weeks is None
            or not (worlds.reshape(shape) == np.asarray(batch.worlds)[:, None]).all()
            or not (weeks.reshape(shape) == np.arange(n_components)).all()
        ):
            raise ScenarioError(
                f"sampled rows of {output.alias!r} are not in batch order"
            )
        return np.asarray(view.arrays["value"], dtype=float).reshape(shape)
