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
seed-derived stream (see :meth:`repro.vg.base.VGFunction.generate_batch`
and its parity guard), both backends land the identical world-major row
order, and both read the matrix back through the same ORDER BY query. When
the batched backend cannot run — a catalog without the batch table form —
the plane silently degrades to the loop, and the
``ExecutionStats.sampled_batched`` / ``sampled_fallback`` world-row
counters (surfaced by ``repro ... --stats``) make that degradation
observable.
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


class _NullTimings:
    """Timing sink used when the caller does not attribute stage time."""

    querygen = 0.0
    sql = 0.0


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
        sink = timings if timings is not None else _NullTimings()
        stats = self.executor.stats
        if self.backend == "batched" and self._batch_form_available(output):
            self.last_backend = "batched"
            stats.sampled_batched += len(batch)
            with self.tracer.span(
                "sample", alias=output.alias, backend="batched", worlds=len(batch)
            ):
                return self._sample_batched(output, batch, sink)
        self.last_backend = "loop"
        stats.sampled_fallback += len(batch)
        with self.tracer.span(
            "sample", alias=output.alias, backend="loop", worlds=len(batch)
        ):
            return self._sample_loop(output, batch, sink)

    # -- backends -----------------------------------------------------------

    def _batch_form_available(self, output: "VGOutput") -> bool:
        return self.executor.catalog.has_table_function(
            output.vg_name + BATCH_FORM_SUFFIX
        )

    def _sample_batched(self, output, batch, timings) -> np.ndarray:
        """One statement lands the entire world slice."""
        with self.tracer.stage("querygen", timings):
            drop = self.querygen.drop_samples_table_sql(output.alias)
            create = self.querygen.create_samples_table_sql(output.alias)
            insert = self.querygen.insert_batch_template(output)

        with self.tracer.stage("sql", timings, stats=self.executor.stats):
            self.executor.execute(drop)
            self.executor.execute(create)
            self.executor.execute(
                insert,
                self.querygen.batch_variables(
                    batch.worlds, batch.seeds, batch.point_dict
                ),
            )
        return self._read_back(output, batch, timings)

    def _sample_loop(self, output, batch, timings) -> np.ndarray:
        """The per-world parameterized INSERT loop (bit-identity reference)."""
        with self.tracer.stage("querygen", timings):
            drop = self.querygen.drop_samples_table_sql(output.alias)
            create = self.querygen.create_samples_table_sql(output.alias)
            insert = self.querygen.insert_world_template(output)

        with self.tracer.stage("sql", timings, stats=self.executor.stats):
            self.executor.execute(drop)
            self.executor.execute(create)
            point = batch.point_dict
            for instance in batch:
                self.executor.execute(
                    insert,
                    self.querygen.world_variables(
                        instance.world, instance.seed, point
                    ),
                )
        return self._read_back(output, batch, timings)

    def _read_back(self, output, batch, timings) -> np.ndarray:
        """Read the landed samples back into matrix form (shared tail)."""
        with self.tracer.stage("querygen", timings):
            readback = (
                f"SELECT world, t, value "
                f"FROM {self.querygen.samples_table(output.alias)} "
                f"ORDER BY world, t"
            )

        with self.tracer.stage("sql", timings, stats=self.executor.stats):
            result = self.executor.execute(readback)

        n_components = self.library.get(output.vg_name).n_components
        n_worlds = len(batch)
        if len(result) != n_worlds * n_components:
            raise ScenarioError(
                f"sampling produced {len(result)} rows, expected "
                f"{n_worlds * n_components}"
            )
        values = np.asarray(result.column_array("value"), dtype=float)
        return values.reshape(n_worlds, n_components)
