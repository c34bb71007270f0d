"""Online mode: interactive parameter exploration (paper §3.2).

The :class:`OnlineSession` is the programmatic equivalent of the demo GUI:
one slider per sweep parameter, a live graph of per-week statistics, and a
progressively refined estimate. Fingerprints make the second and later
adjustments cheap — only the weeks whose distribution actually changed are
re-simulated, and the graph reports exactly which weeks were re-rendered.

Proactive exploration: between user interactions the session can evaluate
neighboring slider positions speculatively (the demo GUI's parameter-space
grid showing "values proactively being explored anticipating their future
usage"); a subsequent move to one of those values is then an instant hit.

Scheduler backend: passing a :class:`repro.serve.Scheduler` routes every
evaluation through the shared sharded evaluation service — slider refreshes
run their fresh sampling across the worker pool, proactive exploration is
submitted as deduplicated jobs, and results land in the cross-run cache for
other sessions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import numpy as np

from repro.errors import OnlineSessionError
from repro.core.aggregator import AxisStatistics
from repro.core.rounds import ConvergenceTracker
from repro.core.config import EngineConfig
from repro.core.engine import PointEvaluation, ProphetEngine, resolve_engine
from repro.core.guide import PriorityGuide
from repro.core.scenario import Scenario
from repro.vg.library import VGLibrary


@dataclass(frozen=True)
class GraphView:
    """One rendering of the online graph after an interaction."""

    point: dict[str, Any]
    statistics: AxisStatistics
    refreshed_weeks: tuple[int, ...]  # weeks whose estimates were recomputed
    reused_weeks: tuple[int, ...]  # weeks served from mapped/stored bases
    elapsed_seconds: float
    n_worlds: int
    vg_invocations: int
    component_samples: int

    @property
    def refresh_fraction(self) -> float:
        """Fraction of rendered weeks that were recomputed this interaction.

        An empty view (nothing refreshed, nothing reused — e.g. a
        cache-served evaluation carrying no week sets) re-rendered nothing,
        so it reports ``0.0``; reporting ``1.0`` would inflate aggregate
        refresh-cost metrics with phantom full refreshes.
        """
        total = len(self.refreshed_weeks) + len(self.reused_weeks)
        if total == 0:
            return 0.0
        return len(self.refreshed_weeks) / total


@dataclass
class InteractionLog:
    """History of slider interactions (drives the demo narrative)."""

    views: list[GraphView] = field(default_factory=list)

    def record(self, view: GraphView) -> None:
        self.views.append(view)

    @property
    def last(self) -> Optional[GraphView]:
        return self.views[-1] if self.views else None

    def __len__(self) -> int:
        return len(self.views)


class OnlineSession:
    """Interactive exploration session over one scenario."""

    def __init__(
        self,
        scenario: Scenario,
        library: VGLibrary,
        config: EngineConfig | None = None,
        neighbor_depth: int = 1,
        scheduler: Optional[Any] = None,
        session_name: str = "online",
        engine: Optional[ProphetEngine] = None,
    ) -> None:
        self.scheduler = scheduler
        self.session_name = session_name
        self.engine = resolve_engine(
            scenario, library, config, engine, scheduler, OnlineSessionError
        )
        self.scenario = scenario
        self.guide = PriorityGuide(
            scenario.space,
            scenario.axis,
            self.engine.config.sampling.plan(),
            self.engine.config.sampling.base_seed,
            neighbor_depth=neighbor_depth,
        )
        self._sliders: dict[str, Any] = scenario.sweep_space.default_point()
        self.log = InteractionLog()
        self.tracker = ConvergenceTracker()

    # -- sliders --------------------------------------------------------------

    @property
    def sliders(self) -> dict[str, Any]:
        """Current slider positions (copy)."""
        return dict(self._sliders)

    def set_slider(self, name: str, value: Any) -> None:
        """Move one slider (does not evaluate; call :meth:`refresh`)."""
        key = name.lstrip("@").lower()
        if key == self.scenario.axis:
            raise OnlineSessionError(
                f"@{key} is the graph axis, not a slider"
            )
        parameter = self.scenario.space.parameter(key)
        if value not in parameter:
            raise OnlineSessionError(
                f"value {value!r} not in domain of @{parameter.name} "
                f"(domain: {parameter.values})"
            )
        self._sliders[key] = value

    def set_sliders(self, values: Mapping[str, Any]) -> None:
        for name, value in values.items():
            self.set_slider(name, value)

    # -- evaluation ------------------------------------------------------------

    def _evaluate(self, *, worlds=None, reuse: bool = True) -> PointEvaluation:
        """One point evaluation, via the scheduler backend when present."""
        if self.scheduler is not None:
            return self.scheduler.evaluate(
                self._sliders, worlds=worlds, session=self.session_name, reuse=reuse
            )
        return self.engine.evaluate_point(self._sliders, worlds=worlds, reuse=reuse)

    def refresh(self, *, reuse: bool = True) -> GraphView:
        """Evaluate the scenario at the current slider point; full worlds."""
        # repro-lint: disable=DET001 -- feeds GraphView.elapsed_seconds, a
        # user-facing latency readout; never read by the engine.
        started = time.perf_counter()
        invocations_before = self.engine.invocation_count()
        samples_before = self.engine.component_sample_count()
        evaluation = self._evaluate(reuse=reuse)
        view = self._view_from(
            evaluation,
            # repro-lint: disable=DET001 -- observability only (see above).
            time.perf_counter() - started,
            self.engine.invocation_count() - invocations_before,
            self.engine.component_sample_count() - samples_before,
        )
        self.log.record(view)
        self.tracker.update(view.statistics)
        return view

    def refresh_progressive(self, *, reuse: bool = True) -> list[GraphView]:
        """Refine in passes (coarse first); returns one view per pass.

        The first view is the "first guess"; the convergence tracker decides
        when the estimate has stabilized — the basis of the paper's lower
        time-to-first-accurate-guess claim.
        """
        views: list[GraphView] = []
        self.tracker.reset()
        for world_range in self.engine.config.sampling.plan().passes():
            # repro-lint: disable=DET001 -- per-pass latency readout for
            # GraphView; convergence tracks statistics, not wall time.
            started = time.perf_counter()
            invocations_before = self.engine.invocation_count()
            samples_before = self.engine.component_sample_count()
            evaluation = self._evaluate(worlds=range(world_range.stop), reuse=reuse)
            view = self._view_from(
                evaluation,
                # repro-lint: disable=DET001 -- observability only (see above).
                time.perf_counter() - started,
                self.engine.invocation_count() - invocations_before,
                self.engine.component_sample_count() - samples_before,
            )
            views.append(view)
            self.log.record(view)
            self.tracker.update(view.statistics)
            if self.tracker.converged:
                break
        return views

    def explore_proactively(self, max_points: int | None = None) -> int:
        """Speculatively evaluate neighbor points (coarse pass only).

        Returns the number of points explored. Call while the user is idle;
        their next slider move then lands on a stored basis.

        With a scheduler backend the neighbor points are submitted as jobs
        first (coalescing with any identical in-flight requests from other
        sessions) and then drained through the shared shard pool.
        """
        explored = 0
        if self.scheduler is not None:
            jobs = []
            for batch in self.guide.proactive_batches(self._sliders):
                if max_points is not None and explored >= max_points:
                    break
                jobs.append(
                    self.scheduler.submit(
                        batch.point_dict,
                        worlds=batch.worlds,
                        session=self.session_name,
                    )
                )
                explored += 1
            self.scheduler.run_pending()
            failed = [job for job in jobs if job.error is not None]
            if failed:
                # The sequential path propagates evaluation errors; the
                # scheduler path must not hide them in job records.
                raise OnlineSessionError(
                    f"{len(failed)} proactive evaluation(s) failed; "
                    f"first: {failed[0].error}"
                )
            return explored
        for batch in self.guide.proactive_batches(self._sliders):
            if max_points is not None and explored >= max_points:
                break
            self.engine.evaluate_point(batch.point_dict, worlds=batch.worlds, reuse=True)
            explored += 1
        return explored

    # -- views --------------------------------------------------------------------

    def _view_from(
        self,
        evaluation: PointEvaluation,
        elapsed: float,
        invocations: int,
        component_samples: int,
    ) -> GraphView:
        refreshed: set[int] = set()
        reused: set[int] = set()
        n_components = len(evaluation.statistics.axis_values)
        for report in evaluation.reuse_reports:
            if report.source == "fresh":
                refreshed.update(range(n_components))
            else:
                recomputed = set(report.recomputed_components)
                refreshed.update(recomputed)
                reused.update(set(range(n_components)) - recomputed)
        reused -= refreshed
        return GraphView(
            point=evaluation.point,
            statistics=evaluation.statistics,
            refreshed_weeks=tuple(sorted(refreshed)),
            reused_weeks=tuple(sorted(reused)),
            elapsed_seconds=elapsed,
            n_worlds=evaluation.n_worlds,
            vg_invocations=invocations,
            component_samples=component_samples,
        )

    # -- convenience ---------------------------------------------------------------

    def graph_series(self, view: GraphView) -> dict[str, np.ndarray]:
        """The series the GRAPH directive asks for, keyed by label."""
        if self.scenario.graph is None:
            raise OnlineSessionError("scenario has no GRAPH directive")
        series: dict[str, np.ndarray] = {}
        for spec in self.scenario.graph.series:
            if spec.kind == "EXPECT":
                series[f"E[{spec.alias}]"] = view.statistics.expectation(spec.alias)
            else:
                series[f"SD[{spec.alias}]"] = view.statistics.stddev(spec.alias)
        return series
