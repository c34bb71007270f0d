"""The unified Prophet client façade.

One entrypoint — ``ProphetClient.open(scenario, library, config=...)`` —
replaces the four divergent legacy surfaces (``ProphetEngine``,
``OnlineSession``, ``OfflineOptimizer``, ``serve``'s service/scheduler).
Backends are pure configuration, chosen once when the backend is built:
the mode drivers and sweep handles resolve against an in-process engine or
the sharded serve backend, bit-identically by the serve parity contract,
and one :meth:`ProphetClient.stats` report unifies every counter dialect.

Fluent configuration (before the backend is built)::

    client = (
        ProphetClient.open(FIGURE2_DSL, "demo")
        .with_sampling(n_worlds=400)
        .with_serving(workers=4, shards=4)
        .with_cache(".repro-cache")
        .with_basis_store(cap=256, dir=".repro-bases")
    )
    for result in client.sweep():        # streams as jobs complete
        print(result.point, result.statistics.expectation("overload").max())
    print(client.stats().to_json())
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Union

from repro.api.config import ClientConfig
from repro.api.handles import AdaptiveSweepHandle, SweepHandle
from repro.api.stats import StatsReport
from repro.core.engine import PointEvaluation, ProphetEngine
from repro.core.offline import OfflineOptimizer
from repro.core.online import OnlineSession
from repro.core.scenario import Scenario
from repro.dsl import parse_scenario
from repro.errors import ScenarioError, ServeError
from repro.obs import NULL_TRACER, EngineProfiler, Tracer
from repro.serve.executors import create_executor
from repro.serve.scheduler import Scheduler
from repro.serve.service import EvaluationService
from repro.serve.worker import LIBRARY_BUILDERS, EngineSpec
from repro.vg.library import VGLibrary


class ProphetClient:
    """The public surface: open a scenario, get handles, read one stats report.

    Construction is lazy: no engine, pool, or cache is built until the
    first handle (or evaluation) needs it, so the fluent ``with_*`` helpers
    can refine the configuration cheaply. Once the backend exists the
    configuration is frozen — ``with_*`` then raises instead of silently
    serving two configs from one client.
    """

    def __init__(
        self,
        scenario: Scenario,
        library: VGLibrary,
        config: Optional[ClientConfig] = None,
        *,
        dsl_text: Optional[str] = None,
        library_name: Optional[str] = None,
        scenario_name: str = "scenario",
    ) -> None:
        self.scenario = scenario
        self.library = library
        self.config = config or ClientConfig()
        self._dsl_text = dsl_text
        self._library_name = library_name
        self._scenario_name = scenario_name
        self._engine: Optional[ProphetEngine] = None
        self._service: Optional[EvaluationService] = None
        self._scheduler: Optional[Scheduler] = None
        self._served = False  # fixed by _ensure_backend
        self._tracer: Any = NULL_TRACER
        self._profiler: Optional[EngineProfiler] = None
        self._trace_exported = False

    # -- construction --------------------------------------------------------

    @classmethod
    def open(
        cls,
        scenario: Union[Scenario, str],
        library: Union[VGLibrary, str] = "demo",
        *,
        config: Optional[ClientConfig] = None,
        name: str = "scenario",
    ) -> "ProphetClient":
        """Open a client over a scenario and a VG library.

        ``scenario`` is a parsed :class:`Scenario` or Fuzzy Prophet DSL
        text; ``library`` is a :class:`VGLibrary` or the name of a
        registered one (``"demo"``). Opening from DSL text + a library
        name keeps the client shippable: process-pool serving needs both
        to rebuild engines inside workers.
        """
        dsl_text: Optional[str] = None
        library_name: Optional[str] = None
        if isinstance(library, str):
            if library not in LIBRARY_BUILDERS:
                raise ScenarioError(
                    f"unknown VG library {library!r} "
                    f"(known: {sorted(LIBRARY_BUILDERS)})"
                )
            library_name = library
            library = LIBRARY_BUILDERS[library]()
        if isinstance(scenario, str):
            dsl_text = scenario
            scenario = parse_scenario(dsl_text, name=name)
        scenario.check_against_library(library)
        return cls(
            scenario,
            library,
            config,
            dsl_text=dsl_text,
            library_name=library_name,
            scenario_name=name,
        )

    # -- fluent configuration ------------------------------------------------

    def with_config(self, config: ClientConfig) -> "ProphetClient":
        """A client over the same scenario with a replacement config."""
        self._require_unbuilt("with_config")
        return ProphetClient(
            self.scenario,
            self.library,
            config,
            dsl_text=self._dsl_text,
            library_name=self._library_name,
            scenario_name=self._scenario_name,
        )

    def _with_section(self, section: str, changes: Mapping[str, Any]) -> "ProphetClient":
        """The one routine behind every ``with_*`` helper.

        Replaces exactly the fields that were passed (``None`` = not
        passed, so chained calls accumulate instead of resetting each
        other); an unknown name raises :class:`ScenarioError` listing the
        section's fields.
        """
        passed = {key: value for key, value in changes.items() if value is not None}
        return self.with_config(self.config.replace_section(section, **passed))

    def with_serving(self, **changes: Any) -> "ProphetClient":
        """Route evaluations through the sharded serve backend.

        Takes any :class:`~repro.api.ServeConfig` field (``workers``,
        ``shards``, ``executor``, ``min_shard_worlds``).
        Calling with no geometry knob at all still opts into the serve
        backend (inline, default sizing).
        """
        client = self._with_section("serve", changes)
        if not client.config.serve.enabled:
            # The caller asked for serving but named no geometry knob:
            # pin the executor so the request is not a silent no-op.
            client = client._with_section("serve", {"executor": "inline"})
        return client

    def with_cache(self, dir: Optional[str]) -> "ProphetClient":
        """Persist finished point statistics in a cross-run result cache."""
        return self.with_config(self.config.replace_section("cache", dir=dir))

    def with_basis_store(
        self,
        *,
        cap: Optional[int] = None,
        byte_cap: Optional[int] = None,
        dir: Optional[str] = None,
    ) -> "ProphetClient":
        """Bound the in-memory basis tier and/or spill evictions to disk."""
        return self._with_section(
            "store", {"basis_cap": cap, "basis_byte_cap": byte_cap, "basis_dir": dir}
        )

    def with_sampling(self, **changes: Any) -> "ProphetClient":
        """Set any :class:`~repro.api.SamplingConfig` field (``n_worlds``,
        ``base_seed``, ``backend``, ``refinement_first``,
        ``refinement_growth``)."""
        return self._with_section("sampling", changes)

    def with_adaptive(self, **changes: Any) -> "ProphetClient":
        """Turn on adaptive anytime sampling (the round protocol).

        Takes any :class:`~repro.api.AdaptiveConfig` field. ``target_ci``
        is the switch: sweeps then run in growing world-prefix rounds,
        retire points whose worst CI half-width is at most the target, and
        reassign the unspent budget to unresolved points. ``min_worlds`` /
        ``max_worlds`` / ``round_growth`` bound the round ladder; left
        unset they fall back to the sampling section (``max_worlds`` to
        ``n_worlds``, the others to ``refinement_first`` /
        ``refinement_growth``).

        Stopping decisions are pure functions of accumulated statistics,
        so adaptive runs are deterministic; with ``max_worlds`` equal to
        ``n_worlds`` and an unreachable target the run is bitwise identical
        to the fixed-budget sweep.
        """
        return self._with_section("adaptive", changes)

    def with_resilience(self, **changes: Any) -> "ProphetClient":
        """Tune the fault-tolerance ladder (deadlines, retries, rescue).

        Takes any :class:`~repro.api.ResilienceConfig` field. Any
        non-default resilience section routes evaluations through the
        serve backend, where the shard dispatcher lives.
        """
        return self._with_section("resilience", changes)

    def with_transport(self, **changes: Any) -> "ProphetClient":
        """Choose how shard payloads travel to process-pool workers.

        Takes any :class:`~repro.api.TransportConfig` field.
        ``shard_transport="shm"`` ships worlds and result buffers through
        named shared-memory segments leased from the coordinator's arena —
        task pickles stay O(1) in the world count and merge reads are
        zero-copy. The default ``"pickle"`` keeps the plain
        pickled payloads; shm falls back to it per generation (counted,
        never an error) when segments are unavailable or a payload exceeds
        the cap. A non-default transport section routes evaluations through
        the serve backend, where the shard transport lives.
        """
        return self._with_section("transport", changes)

    def with_observability(self, **changes: Any) -> "ProphetClient":
        """Turn on span tracing and/or cProfile around evaluations.

        Takes any :class:`~repro.api.ObsConfig` field. ``trace_file``
        implies tracing and is exported (Chrome trace format) on
        :meth:`close`. Observability never changes which backend is built,
        and the stable counter JSON (:meth:`StatsReport.to_json`) stays
        byte-identical with it on or off — wall-clock only ever travels in
        the separate :class:`~repro.obs.TimingReport`.
        """
        return self._with_section("obs", changes)

    def _require_unbuilt(self, method: str) -> None:
        if self._engine is not None or self._service is not None:
            raise ScenarioError(
                f"{method}() must be called before the backend is built; "
                "configure the client before requesting handles or stats"
            )

    # -- backend -------------------------------------------------------------

    @property
    def engine(self) -> ProphetEngine:
        """The coordinator engine (built on first use)."""
        self._ensure_backend()
        return self._engine

    def _ensure_backend(self) -> None:
        """Build the backend and fix, once, what evaluates a point.

        Serve-configured clients evaluate through the service (drivers
        through its scheduler's job queue); every other client calls its
        engine directly — and keeps doing so after a :meth:`sweep` builds
        the private inline scheduler that sweeps alone run on.
        """
        if self._engine is not None:
            return
        self._served = self.config.wants_service()
        if self._served:
            self._build_service()
            self._engine = self._service.engine
        else:
            self._engine = ProphetEngine(
                self.scenario, self.library, self.config.engine_sections()
            )
        self._attach_observability()

    def _attach_observability(self) -> None:
        """Wire the configured tracer/profiler into the built backend.

        Idempotent: the sweep scheduler's lazily-built inline service calls
        it again to pick up the same tracer instance.
        """
        obs = self.config.obs
        if obs.tracing:
            if self._tracer is NULL_TRACER:
                self._tracer = Tracer()
            if self._service is not None:
                self._service.set_tracer(self._tracer)
            elif self._engine is not None:
                self._engine.set_tracer(self._tracer)
            if self._scheduler is not None:
                self._scheduler.tracer = self._tracer
        if obs.profile and self._engine is not None:
            if self._profiler is None:
                self._profiler = EngineProfiler()
            self._engine.profiler = self._profiler

    def _build_service(self) -> None:
        serve = self.config.serve
        engine_config = self.config.engine_sections()
        kind = serve.executor
        if kind == "auto" and serve.workers is None:
            # Without an explicit worker count "auto" means sequential —
            # the in-process executor (mirrors the CLI contract).
            kind = "inline"
        executor = create_executor(kind, serve.workers)
        spec: Optional[EngineSpec] = None
        if self._dsl_text is not None and self._library_name is not None:
            spec = EngineSpec.from_dsl(
                self._dsl_text,
                library=self._library_name,
                config=engine_config,
                scenario_name=self._scenario_name,
            )
        if executor.kind == "process" and spec is None:
            raise ServeError(
                "process-pool serving needs a shippable scenario: open the "
                "client with DSL text and a named library "
                "(ProphetClient.open(dsl, 'demo')), or serve with an "
                "inline executor"
            )
        # Without a shippable spec the (inline) service wraps a local engine.
        engine = (
            None
            if spec is not None
            else ProphetEngine(self.scenario, self.library, engine_config)
        )
        self._service = EvaluationService(
            spec,
            engine=engine,
            executor=executor,
            shards=serve.shards,
            cache_dir=self.config.cache.dir,
            min_shard_worlds=serve.min_shard_worlds,
            resilience=self.config.resilience,
            transport=self.config.transport,
        )
        self._scheduler = Scheduler(self._service)

    def _sweep_scheduler(self) -> Scheduler:
        """The scheduler behind sweeps — built on demand for every backend.

        A pure in-process client still schedules sweeps (dedup and the
        streaming iterator need the job queue); it gets an inline
        single-shard service over the client's own engine, which the serve
        parity suite pins bit-identical to direct engine evaluation.
        """
        if self._scheduler is None:
            self._ensure_backend()
            if self._scheduler is None:
                self._service = EvaluationService(
                    engine=self._engine,
                    resilience=self.config.resilience,
                    transport=self.config.transport,
                )
                self._scheduler = Scheduler(self._service)
                self._attach_observability()
        return self._scheduler

    # -- drivers + sweeps ----------------------------------------------------

    def _driver_evaluate(
        self, session_name: str
    ) -> Optional[Callable[..., PointEvaluation]]:
        """The ``evaluate=`` seam of a mode driver: the scheduler's job queue
        on a serve-configured client, else the driver's default (its engine)."""
        self._ensure_backend()
        if self._served:
            return functools.partial(self._scheduler.evaluate, session=session_name)
        return None

    def interactive(
        self, *, neighbor_depth: int = 1, session_name: str = "interactive"
    ) -> OnlineSession:
        """Sliders + progressive refresh: an :class:`OnlineSession` on this
        client's backend (``session_name`` labels its serve jobs)."""
        return OnlineSession(
            self.engine,
            evaluate=self._driver_evaluate(session_name),
            neighbor_depth=neighbor_depth,
        )

    def sweep(
        self,
        points: Optional[Iterable[Mapping[str, Any]]] = None,
        *,
        worlds: Optional[Sequence[int]] = None,
        reuse: bool = True,
        session_name: str = "sweep",
    ) -> Union[SweepHandle, AdaptiveSweepHandle]:
        """A streaming sweep over ``points`` (default: the full grid).

        Returns immediately with every job queued (identical points
        coalesced); iterate the handle to run them one at a time and
        consume each :class:`~repro.api.SweepResult` as it completes.

        With adaptive sampling on (:meth:`with_adaptive`) the sweep runs
        through the scheduler's CI budget allocator instead and returns an
        :class:`AdaptiveSweepHandle` — same streaming surface, but points
        retire as their confidence target resolves. An explicit ``worlds``
        slice contradicts adaptive stopping and raises.
        """
        scheduler = self._sweep_scheduler()
        if self.config.adaptive.enabled:
            if worlds is not None:
                raise ScenarioError(
                    "an explicit worlds= slice is incompatible with adaptive "
                    "sampling (the round protocol chooses world prefixes); "
                    "drop worlds= or turn off with_adaptive()"
                )
            adaptive = scheduler.submit_adaptive(
                points,
                target_ci=self.config.adaptive.target_ci,
                plan=self.config.round_plan(),
                session=session_name,
                reuse=reuse,
            )
            return AdaptiveSweepHandle(scheduler, adaptive)
        jobs = scheduler.submit_sweep(
            points, worlds=worlds, session=session_name, reuse=reuse
        )
        return SweepHandle(scheduler, jobs)

    def optimize(self, *, session_name: str = "optimizer") -> OfflineOptimizer:
        """The scenario's OPTIMIZE block: an :class:`OfflineOptimizer` on
        this client's backend (``session_name`` labels its serve jobs)."""
        return OfflineOptimizer(
            self.engine, evaluate=self._driver_evaluate(session_name)
        )

    # -- evaluation + stats --------------------------------------------------

    def evaluate(
        self,
        point: Mapping[str, Any],
        *,
        worlds: Optional[Sequence[int]] = None,
        reuse: bool = True,
    ) -> PointEvaluation:
        """Evaluate one parameter point through the configured backend.

        Goes straight to the service (result cache + sharded engine cycle),
        not through the scheduler's job queue — an evaluate() call mid-sweep
        must not drain jobs a streaming :class:`SweepHandle` has pending.

        With adaptive sampling on (and no explicit ``worlds`` slice) the
        point instead runs the round ladder to its confidence target
        through the scheduler — each round is a queued job, so this path
        *does* drain the queue; avoid it mid-sweep.
        """
        if self.config.adaptive.enabled and worlds is None:
            scheduler = self._sweep_scheduler()
            sweep = scheduler.submit_adaptive(
                [point],
                target_ci=self.config.adaptive.target_ci,
                plan=self.config.round_plan(),
                session="evaluate",
                reuse=reuse,
            )
            scheduler.run_adaptive(sweep)
            state = sweep.states[0]
            if state.failed:
                if state.exception is not None:
                    raise state.exception
                raise ServeError(f"adaptive evaluation failed: {state.error}")
            return state.evaluator.result
        self._ensure_backend()
        if self._served:
            return self._service.evaluate(point, worlds=worlds, reuse=reuse)
        return self._engine.evaluate_point(point, worlds=worlds, reuse=reuse)

    def backend_description(self) -> str:
        """Human description of the built backend: ``"sequential"`` for a
        bare engine, ``"<executor> x<workers>"`` for the serve backend."""
        self._ensure_backend()
        if not self._served:
            return "sequential"
        return f"{self._service.executor.kind} x{self._service.executor.workers}"

    def stats(self) -> StatsReport:
        """One merged report over every backend layer's counters.

        Wall-clock rides along as ``report.timing`` (a
        :class:`~repro.obs.TimingReport`); the byte-stable counter JSON
        (``report.to_json()``) never includes it.
        """
        self._ensure_backend()
        return StatsReport.gather(
            self._engine,
            service=self._service,
            scheduler=self._scheduler,
            tracer=self._tracer,
        )

    # -- observability -------------------------------------------------------

    @property
    def tracer(self) -> Any:
        """The live tracer (the shared no-op instance when tracing is off)."""
        return self._tracer

    def export_trace(self, path: Optional[str] = None) -> str:
        """Write the collected spans as a Chrome-loadable trace file.

        Defaults to the configured ``ObsConfig.trace_file``; returns the
        path written. Loads in ``chrome://tracing`` / Perfetto.
        """
        target = path if path is not None else self.config.obs.trace_file
        if target is None:
            raise ScenarioError(
                "no trace destination: pass export_trace(path=...) or "
                "configure with_observability(trace_file=...)"
            )
        if not self._tracer.enabled:
            raise ScenarioError(
                "tracing is off: enable it with with_observability(trace=True)"
                " or with_observability(trace_file=...) before evaluating"
            )
        self._tracer.export_chrome(target)
        self._trace_exported = True
        return target

    def profile_summary(self, top: Optional[int] = None) -> str:
        """The accumulated cProfile's top-N cumulative-time table."""
        if self._profiler is None:
            raise ScenarioError(
                "profiling is off: enable it with "
                "with_observability(profile=True) before evaluating"
            )
        return self._profiler.summary(
            top if top is not None else self.config.obs.profile_top
        )

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut down the serve backend's executor, if one was built; export
        the trace to the configured ``trace_file`` if not already written."""
        if (
            self.config.obs.trace_file is not None
            and self._tracer.enabled
            and not self._trace_exported
        ):
            self.export_trace()
        if self._service is not None:
            self._service.close()

    def __enter__(self) -> "ProphetClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
