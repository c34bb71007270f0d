"""The unified Prophet client façade.

One entrypoint — ``ProphetClient.open(scenario, library, config=...)`` —
replaces the four divergent legacy surfaces (``ProphetEngine``,
``OnlineSession``, ``OfflineOptimizer``, ``serve``'s service/scheduler).
Every client has one backend: an :class:`EvaluationService` over its
coordinator engine and one :class:`Scheduler` over that service, both built
the first time they are needed. Synchronous calls — ``evaluate()``, the
interactive session's refreshes, ``optimize().run()`` — go straight to the
service; queued work — ``sweep()`` and adaptive evaluation — goes to the
scheduler. The configuration only sizes that backend (executor, workers,
result cache, resilience, transport), and one :meth:`ProphetClient.stats`
report unifies every counter dialect.

Fluent configuration (before the backend is built)::

    client = (
        ProphetClient.open(FIGURE2_DSL, "demo")
        .with_sampling(n_worlds=400)
        .with_serving(workers=4)
        .with_cache(".repro-cache")
        .with_basis_store(cap=256, dir=".repro-bases")
    )
    for result in client.sweep():        # streams as jobs complete
        print(result.point, result.statistics.expectation("overload").max())
    print(client.stats().to_json())
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional, Sequence, Union

from repro.api.config import ClientConfig
from repro.api.handles import AdaptiveSweepHandle, SweepHandle
from repro.api.stats import StatsReport
from repro.core.engine import PointEvaluation, ProphetEngine
from repro.core.offline import OfflineOptimizer
from repro.core.online import OnlineSession
from repro.core.rounds import RoundPlan
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
        self._service: Optional[EvaluationService] = None
        self._scheduler: Optional[Scheduler] = None
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
        """Size the evaluation service: its executor and worker count.

        Takes any :class:`~repro.api.ServeConfig` field (``workers``,
        ``executor``; ``shards`` is accepted and ignored). Every client
        evaluates through the service; unsized, it runs in-process. On a
        process pool, ``reuse=False`` requests run as whole-point tasks.
        """
        return self._with_section("serve", changes)

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
        ``base_seed``, ``backend``)."""
        return self._with_section("sampling", changes)

    def with_adaptive(self, **changes: Any) -> "ProphetClient":
        """Turn on adaptive anytime sampling (the round protocol).

        Takes any :class:`~repro.api.AdaptiveConfig` field. ``target_ci``
        is the switch: sweeps then run in growing world-prefix rounds,
        retire points whose worst CI half-width is at most the target, and
        reassign the unspent budget to unresolved points. ``min_worlds`` /
        ``max_worlds`` / ``round_growth`` declare the client's round
        ladder, which :meth:`interactive`'s progressive refresh steps too;
        left unset the first round is ``min(25, budget)``, growth 2.0 and
        ``max_worlds`` the sampling section's ``n_worlds``.

        Stopping decisions are pure functions of accumulated statistics,
        so adaptive runs are deterministic; with ``max_worlds`` equal to
        ``n_worlds`` and an unreachable target the run is bitwise identical
        to the fixed-budget sweep.
        """
        return self._with_section("adaptive", changes)

    def with_resilience(self, **changes: Any) -> "ProphetClient":
        """Tune the fault-tolerance ladder (deadlines, retries, rescue).

        Takes any :class:`~repro.api.ResilienceConfig` field; the service's
        task dispatcher applies it to every point task.
        """
        return self._with_section("resilience", changes)

    def with_transport(self, **changes: Any) -> "ProphetClient":
        """Choose how point-task results travel back from process workers.

        Takes any :class:`~repro.api.TransportConfig` field.
        ``shard_transport="shm"`` brings each task's statistics back
        through a shared-memory region leased from the coordinator's arena;
        the default ``"pickle"`` keeps them in the result pickle. shm falls
        back to pickle (counted, never an error) where segments are
        unavailable.
        """
        return self._with_section("transport", changes)

    def with_observability(self, **changes: Any) -> "ProphetClient":
        """Turn on span tracing and/or cProfile around evaluations.

        Takes any :class:`~repro.api.ObsConfig` field. ``trace_file``
        implies tracing and is exported (Chrome trace format) on
        :meth:`close`. Observability never changes the backend, and the
        stable counter JSON (:meth:`StatsReport.to_json`) stays
        byte-identical with it on or off — wall-clock only ever travels in
        the separate :class:`~repro.obs.TimingReport`.
        """
        return self._with_section("obs", changes)

    def _require_unbuilt(self, method: str) -> None:
        if self._service is not None:
            raise ScenarioError(
                f"{method}() must be called before the backend is built; "
                "configure the client before requesting handles or stats"
            )

    # -- backend -------------------------------------------------------------

    @property
    def engine(self) -> ProphetEngine:
        """The coordinator engine (built on first use)."""
        return self._ensure_backend().engine

    def _ensure_backend(self) -> EvaluationService:
        """Build the client's one backend on first use; return its service.

        An inline service wraps an engine built from the client's own
        scenario and library objects. A process pool gets an
        :class:`EngineSpec` instead: its workers build their engines from
        it, and so does the service for the coordinator. The scheduler is
        built over the service in the same step.
        """
        if self._service is None:
            self._service = self._build_service()
            self._scheduler = Scheduler(self._service)
            self._attach_observability()
        return self._service

    def _attach_observability(self) -> None:
        """Wire the configured tracer/profiler into the just-built backend."""
        obs = self.config.obs
        if obs.tracing:
            self._tracer = Tracer()
            self._service.set_tracer(self._tracer)
            self._scheduler.tracer = self._tracer
        if obs.profile:
            self._profiler = EngineProfiler()
            self._service.engine.profiler = self._profiler

    def _build_service(self) -> EvaluationService:
        serve = self.config.serve
        engine_config = self.config.engine_sections()
        kind = serve.executor
        if kind == "auto" and serve.workers is None:
            # Without an explicit worker count "auto" means the inline
            # executor (mirrors the CLI contract).
            kind = "inline"
        executor = create_executor(kind, serve.workers)
        spec: Optional[EngineSpec] = None
        engine: Optional[ProphetEngine] = None
        if executor.kind == "process":
            if self._dsl_text is None or self._library_name is None:
                raise ServeError(
                    "process-pool serving needs a shippable scenario: open the "
                    "client with DSL text and a named library "
                    "(ProphetClient.open(dsl, 'demo')), or serve with an "
                    "inline executor"
                )
            spec = EngineSpec.from_dsl(
                self._dsl_text,
                library=self._library_name,
                config=engine_config,
                scenario_name=self._scenario_name,
            )
        else:
            engine = ProphetEngine(self.scenario, self.library, engine_config)
        return EvaluationService(
            spec,
            engine=engine,
            executor=executor,
            cache_dir=self.config.cache.dir,
            resilience=self.config.resilience,
            transport=self.config.transport,
        )

    # -- drivers + sweeps ----------------------------------------------------

    def interactive(self, *, neighbor_depth: int = 1) -> OnlineSession:
        """Sliders + progressive refresh: an :class:`OnlineSession` whose
        refreshes and proactive points go straight to this client's service
        (never through the job queue), stepping the client's round ladder
        over ``sampling.n_worlds``."""
        service = self._ensure_backend()
        ladder = self.config.round_plan()
        return OnlineSession(
            service.engine,
            evaluate=service.evaluate,
            neighbor_depth=neighbor_depth,
            plan=RoundPlan.over(
                self.config.sampling.n_worlds,
                first=ladder.first,
                growth=ladder.growth,
            ),
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

        Returns immediately with every job queued on the client's scheduler
        (identical points coalesced); iterate the handle to run them one at
        a time and consume each :class:`~repro.api.SweepResult` as it
        completes.

        With adaptive sampling on (:meth:`with_adaptive`) the sweep runs
        through the scheduler's CI budget allocator instead and returns an
        :class:`AdaptiveSweepHandle` — same streaming surface, but points
        retire as their confidence target resolves. An explicit ``worlds``
        slice contradicts adaptive stopping and raises.
        """
        self._ensure_backend()
        scheduler = self._scheduler
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

    def optimize(self) -> OfflineOptimizer:
        """The scenario's OPTIMIZE block: an :class:`OfflineOptimizer` whose
        grid points go straight to this client's service."""
        service = self._ensure_backend()
        return OfflineOptimizer(service.engine, evaluate=service.evaluate)

    # -- evaluation + stats --------------------------------------------------

    def evaluate(
        self,
        point: Mapping[str, Any],
        *,
        worlds: Optional[Sequence[int]] = None,
        reuse: bool = True,
    ) -> PointEvaluation:
        """Evaluate one parameter point.

        Goes straight to the service (result cache + engine cycle or point task),
        not through the scheduler's job queue — an evaluate() call mid-sweep
        must not drain jobs a streaming :class:`SweepHandle` has pending.

        With adaptive sampling on (and no explicit ``worlds`` slice) the
        point instead runs the round ladder to its confidence target
        through the scheduler — each round is a queued job, so this path
        *does* drain the queue; avoid it mid-sweep.
        """
        service = self._ensure_backend()
        if self.config.adaptive.enabled and worlds is None:
            scheduler = self._scheduler
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
        return service.evaluate(point, worlds=worlds, reuse=reuse)

    def backend_description(self) -> str:
        """``"<executor> x<workers>"`` of the built service (a default
        client is ``"inline x1"``)."""
        executor = self._ensure_backend().executor
        return f"{executor.kind} x{executor.workers}"

    def stats(self) -> StatsReport:
        """One merged report over every backend layer's counters.

        Wall-clock rides along as ``report.timing`` (a
        :class:`~repro.obs.TimingReport`); the byte-stable counter JSON
        (``report.to_json()``) never includes it.
        """
        service = self._ensure_backend()
        return StatsReport.gather(
            service.engine, service, self._scheduler, tracer=self._tracer
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

    def profile_summary(self, top: int = 20) -> str:
        """The accumulated cProfile's top-``top`` cumulative-time table."""
        if self._profiler is None:
            raise ScenarioError(
                "profiling is off: enable it with "
                "with_observability(profile=True) before evaluating"
            )
        return self._profiler.summary(top)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut down the service's executor, if the backend was built; export
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
