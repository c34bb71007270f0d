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

The seam: a session drives one :class:`ProphetEngine` through one
``evaluate`` callable with :meth:`ProphetEngine.evaluate_point`'s signature
(the default). Handing it a serve scheduler's ``evaluate`` instead routes
every refresh and proactive point through the shared job queue — dedup,
the worker pool's retry ladder and the cross-run cache — with
bit-identical statistics; the session itself never knows which it got.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

import numpy as np

from repro.errors import OnlineSessionError
from repro.core.aggregator import AxisStatistics
from repro.core.rounds import ConvergenceTracker, RoundPlan
from repro.core.engine import PointEvaluation, ProphetEngine
from repro.core.guide import PriorityGuide
from repro.core.scenario import Scenario


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


def graph_series(
    scenario: Scenario, statistics: AxisStatistics
) -> dict[str, np.ndarray]:
    """The series the scenario's GRAPH directive asks for, keyed by label."""
    if scenario.graph is None:
        raise OnlineSessionError("scenario has no GRAPH directive")
    series: dict[str, np.ndarray] = {}
    for spec in scenario.graph.series:
        if spec.kind == "EXPECT":
            series[f"E[{spec.alias}]"] = statistics.expectation(spec.alias)
        else:
            series[f"SD[{spec.alias}]"] = statistics.stddev(spec.alias)
    return series


class OnlineSession:
    """Interactive exploration session driving one engine.

    Scenario, library and config are the engine's; ``evaluate`` is any
    callable with :meth:`ProphetEngine.evaluate_point`'s signature (the
    default) — e.g. a serve scheduler's ``evaluate``, whose coordinator
    engine is then the ``engine`` to pass. ``plan`` is the ladder
    :meth:`refresh_progressive` steps and whose first round proactive
    exploration samples (default: :meth:`RoundPlan.over` the engine's
    worlds).
    """

    def __init__(
        self,
        engine: ProphetEngine,
        *,
        evaluate: Optional[Callable[..., PointEvaluation]] = None,
        neighbor_depth: int = 1,
        plan: Optional[RoundPlan] = None,
    ) -> None:
        self.engine = engine
        self.scenario = engine.scenario
        self._evaluate = evaluate if evaluate is not None else engine.evaluate_point
        self.guide = PriorityGuide(
            self.scenario.space,
            self.scenario.axis,
            plan if plan is not None else RoundPlan.over(engine.config.sampling.n_worlds),
            engine.config.sampling.base_seed,
            neighbor_depth=neighbor_depth,
        )
        self._sliders: dict[str, Any] = self.scenario.sweep_space.default_point()
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
            raise OnlineSessionError(f"@{key} is the graph axis, not a slider")
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

    def _render(self, *, worlds=None, reuse: bool = True) -> GraphView:
        """Evaluate the current slider point, clock it, record the view."""
        # The clock feeds GraphView.elapsed_seconds, a user-facing latency
        # readout; never read by the engine or tracker.
        started = time.perf_counter()
        invocations_before = self.engine.invocation_count()
        samples_before = self.engine.component_sample_count()
        evaluation = self._evaluate(self._sliders, worlds=worlds, reuse=reuse)
        view = self._view_from(
            evaluation,
            time.perf_counter() - started,
            self.engine.invocation_count() - invocations_before,
            self.engine.component_sample_count() - samples_before,
        )
        self.log.record(view)
        self.tracker.update(view.statistics)
        return view

    def refresh(self, *, reuse: bool = True) -> GraphView:
        """Evaluate the scenario at the current slider point; full worlds."""
        return self._render(reuse=reuse)

    def refresh_progressive(self, *, reuse: bool = True) -> list[GraphView]:
        """Refine in passes (coarse first); returns one view per pass.

        The first view is the "first guess"; the convergence tracker decides
        when the estimate has stabilized — the basis of the paper's lower
        time-to-first-accurate-guess claim.
        """
        views: list[GraphView] = []
        self.tracker.reset()
        for world_range in self.guide.plan.passes():
            views.append(self._render(worlds=range(world_range.stop), reuse=reuse))
            if self.tracker.converged:
                break
        return views

    def explore_proactively(self, max_points: int | None = None) -> int:
        """Speculatively evaluate neighbor points (coarse pass only).

        Returns the number of points explored. Call while the user is idle;
        their next slider move then lands on a stored basis. A failing
        neighbor raises its original exception.
        """
        explored = 0
        for batch in self.guide.proactive_batches(self._sliders):
            if max_points is not None and explored >= max_points:
                break
            self._evaluate(batch.point_dict, worlds=batch.worlds, reuse=True)
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
        return graph_series(self.scenario, view.statistics)
