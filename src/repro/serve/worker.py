"""Worker-side machinery for process-pool point evaluation.

A worker process cannot receive a live :class:`ProphetEngine` (engines hold
an open SQL catalog, numpy matrices, and closures), so it receives an
:class:`EngineSpec` — a small picklable recipe — and builds the engine
itself, once, caching it for every later task. Specs describe the scenario
either as DSL text plus a named VG library, or as a named builder from
:data:`SCENARIO_BUILDERS`.

:func:`run_point` is the one unit of work, and :class:`PointTask` its one
frozen payload: evaluate one ``reuse=False`` request — ``(spec, point,
worlds)`` — from sampling through GROUP BY, and ship back a
:class:`PointResult`: the statistics, the fresh reuse reports and the
counters, a few KB whatever the world count. A ``reuse=False`` request
reads and writes nothing an engine remembers between requests (see
:meth:`ProphetEngine.evaluate_point`), so it is a pure function of its
task: which lane runs it, after which other tasks, or whether the
coordinator's engine re-runs it as a rescue, cannot change a bit of the
answer. Who runs the task changes only where the engine comes from: a pool
worker looks it up in this module's per-process cache keyed by
``task.spec``; the coordinator's rescue hands in its own.

Under the shm transport the statistics travel back through a result region
the coordinator leased (:mod:`repro.serve.transport`): the task carries its
descriptor, :func:`run_point` writes the region, and the result carries the
same descriptor instead of the array.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, replace
from types import MappingProxyType
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from repro.core.config import EngineConfig
from repro.core.engine import ProphetEngine, Request, StageTimings
from repro.core.storage import ReuseReport
from repro.dsl import parse_scenario
from repro.errors import ServeError
from repro.models import (
    build_demo_library,
    build_growth_scenario,
    build_maintenance_scenario,
    build_risk_vs_cost,
)
from repro.serve.transport import SegmentReader, SegmentRef

#: Named VG libraries a spec may reference (DSL-text specs). Immutable:
#: the registry pickles toward workers by name only, so a mutation on the
#: coordinator could never reach them anyway — freezing makes that
#: impossible to rely on by accident.
LIBRARY_BUILDERS: Mapping[str, Callable[[], Any]] = MappingProxyType(
    {
        "demo": build_demo_library,
    }
)

#: Named (scenario, library) builders a spec may reference instead of DSL.
SCENARIO_BUILDERS: Mapping[str, Callable[..., tuple[Any, Any]]] = MappingProxyType(
    {
        "risk_vs_cost": build_risk_vs_cost,
        "growth": build_growth_scenario,
        "maintenance": build_maintenance_scenario,
    }
)


@dataclass(frozen=True)
class EngineSpec:
    """A picklable recipe for constructing a :class:`ProphetEngine`.

    Exactly one of ``dsl`` or ``builder`` must be set. ``config`` is the
    coordinator's own frozen sections (worlds, seeds, tolerances); two specs
    with equal :meth:`content_hash` build engines that produce bit-identical
    samples for the same (point, worlds) requests.
    """

    dsl: Optional[str] = None
    library: str = "demo"
    builder: Optional[str] = None
    builder_args: tuple[tuple[str, Any], ...] = ()
    scenario_name: str = "serve_scenario"
    config: EngineConfig = field(default_factory=EngineConfig)

    @classmethod
    def from_dsl(
        cls,
        text: str,
        *,
        library: str = "demo",
        config: Optional[EngineConfig] = None,
        scenario_name: str = "serve_scenario",
    ) -> "EngineSpec":
        if library not in LIBRARY_BUILDERS:
            raise ServeError(
                f"unknown VG library {library!r} "
                f"(known: {sorted(LIBRARY_BUILDERS)})"
            )
        return cls(
            dsl=text,
            library=library,
            scenario_name=scenario_name,
            config=config or EngineConfig(),
        )

    @classmethod
    def from_builder(
        cls,
        name: str,
        *,
        config: Optional[EngineConfig] = None,
        **builder_kwargs: Any,
    ) -> "EngineSpec":
        if name not in SCENARIO_BUILDERS:
            raise ServeError(
                f"unknown scenario builder {name!r} "
                f"(known: {sorted(SCENARIO_BUILDERS)})"
            )
        return cls(
            builder=name,
            builder_args=tuple(sorted(builder_kwargs.items())),
            scenario_name=name,
            config=config or EngineConfig(),
        )

    def __post_init__(self) -> None:
        if (self.dsl is None) == (self.builder is None):
            raise ServeError("EngineSpec needs exactly one of dsl= or builder=")

    def content_hash(self) -> str:
        """Digest of everything that determines the engine's behavior: every
        section field participates, so a new knob is hashed by default."""
        payload = json.dumps(
            {
                "dsl": self.dsl,
                "library": self.library,
                "builder": self.builder,
                "builder_args": [[k, repr(v)] for k, v in self.builder_args],
                "config": asdict(self.config),  # section -> {field: value}
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def build_scenario(self) -> tuple[Any, Any]:
        """The (scenario, library) pair this spec describes (no engine)."""
        if self.builder is not None:
            return SCENARIO_BUILDERS[self.builder](**dict(self.builder_args))
        scenario = parse_scenario(self.dsl, name=self.scenario_name)
        return scenario, LIBRARY_BUILDERS[self.library]()

    def build(self) -> ProphetEngine:
        scenario, library = self.build_scenario()
        return ProphetEngine(scenario, library, self.config)


@dataclass(frozen=True)
class PointTask:
    """One ``reuse=False`` request: everything :func:`run_point` needs.

    ``spec`` is what a worker process builds its engine from; ``request``
    is the coordinator engine's normalised request, evaluated as it stands;
    ``result`` is ``None`` (the statistics ride back in the
    :class:`PointResult`) or the pre-leased ``(2 * n_outputs, n_weeks)``
    float64 region the task writes them to.
    """

    spec: EngineSpec
    request: Request
    result: Optional[SegmentRef] = None


@dataclass(frozen=True)
class PointResult:
    """One point task's answer, shipped worker -> coordinator.

    ``columns`` holds the statistics in
    :meth:`~repro.core.aggregator.ResultAggregator.statistic_columns`
    layout (one column per axis value in ``axis_values``) — or, in transit
    under the shm transport, the :class:`SegmentRef` of the region they
    were written to. ``sampled_batched``/``sampled_fallback`` count the
    fresh world-rows by the sampling-plane backend that produced them, and
    ``elapsed_seconds``/``timings`` are the task's own wall-clock: the
    coordinator keeps them as fleet counters and worker-track trace
    events, never in its engine's totals.
    """

    columns: np.ndarray | SegmentRef
    axis_values: tuple[int, ...]
    reuse_reports: tuple[ReuseReport, ...]
    timings: StageTimings
    sampled_batched: int = 0
    sampled_fallback: int = 0
    elapsed_seconds: float = 0.0


#: Per-process engine cache: one engine per spec, reused across tasks.
#: Keyed by spec content hash, so a cold worker rebuilds an identical
#: engine — divergence from the coordinator is impossible.
_WORKER_ENGINES: dict[str, ProphetEngine] = {}


def _engine_for(spec: EngineSpec) -> ProphetEngine:
    key = spec.content_hash()
    engine = _WORKER_ENGINES.get(key)
    if engine is None:
        # Point tasks never consult the basis store (reuse=False), so drop
        # the disk tier: indexing the coordinator's spill dir in every
        # worker process would be pure startup I/O.
        scenario, library = spec.build_scenario()
        config = replace(
            spec.config, store=replace(spec.config.store, basis_dir=None)
        )
        engine = ProphetEngine(scenario, library, config)
        _WORKER_ENGINES[key] = engine
    return engine


def _warm_point(engine: ProphetEngine) -> dict[str, Any]:
    """The first grid point, as it stands (the engine normalises it)."""
    return next(iter(engine.scenario.sweep_space.grid()))


def draw_worlds(
    spec: EngineSpec, worlds: Sequence[int]
) -> dict[str, tuple[list[int], tuple[np.ndarray, ...]]]:
    """Build this process's engine for ``spec``, draw the seed events of
    ``worlds`` for every model the scenario samples, and return them by
    model name — one lane's share of the worlds every lane must hold."""
    engine = _engine_for(spec)
    point = _warm_point(engine)
    for output in engine.scenario.vg_outputs:
        engine.sample_fresh(output.alias, point, worlds)
    return {
        function.name: function.events.rows() for function in engine.library if len(function.events)
    }


def warm_lane(spec: EngineSpec, drawn: Sequence[dict] = ()) -> None:
    """Make this process's engine for ``spec`` ready for timed tasks: adopt
    the seed events other lanes drew (:func:`draw_worlds`), then evaluate
    one grid point over every world — which draws whatever is still
    missing and caches the statement plans."""
    engine = _engine_for(spec)
    for events in drawn:
        for name, (seeds, fields) in events.items():
            engine.library.get(name).events.adopt(seeds, fields)
    engine.evaluate_point(_warm_point(engine), reuse=False)


def run_point(task: PointTask, engine: Optional[ProphetEngine] = None) -> PointResult:
    """The one task entry point: evaluate ``task`` and ship its result.

    A process worker receives only the task and looks ``engine`` up in the
    per-process cache keyed by ``task.spec``; the coordinator's rescue
    passes its own. Either way the answer is the same pure function of
    (spec, point, worlds).
    """
    if engine is None:
        engine = _engine_for(task.spec)
    counted = engine.executor.stats
    batched, fallback = counted.sampled_batched, counted.sampled_fallback
    started = time.perf_counter()
    evaluation = engine.evaluate_point(task.request)
    result = PointResult(
        columns=engine.aggregator.columns_of(evaluation.statistics),
        axis_values=evaluation.statistics.axis_values,
        reuse_reports=evaluation.reuse_reports,
        timings=evaluation.timings,
        sampled_batched=counted.sampled_batched - batched,
        sampled_fallback=counted.sampled_fallback - fallback,
        elapsed_seconds=time.perf_counter() - started,
    )
    if task.result is None:
        return result
    # A shape mismatch is a deterministic bug (the coordinator sized the
    # region from the same scenario), so it is a permanent ServeError.
    if result.columns.shape != task.result.shape:
        raise ServeError(
            f"point produced statistics of shape {result.columns.shape}, "
            f"result region is {task.result.shape}"
        )
    reader = SegmentReader()
    try:
        reader.view(task.result)[...] = result.columns
    finally:
        reader.close()
    return replace(result, columns=task.result)
