"""The round protocol: world-prefix rounds and CI-driven stopping rules.

Point evaluation proceeds in **rounds**: round *r* evaluates the world
prefix ``[0, boundary_r)`` of the fixed seed sequence. Because world ``w``
is always simulated from ``world_seed(base_seed, w)`` regardless of which
round (or process) produces it, every round boundary yields *exact*
statistics for the worlds computed so far, and the final full-prefix round
is bitwise identical to a one-shot evaluation — the round decomposition
itself loses nothing.

Stopping is a pure function of accumulated statistics, never wall-clock:
a point *converges* once the largest normal-approximation confidence
half-width across its output series falls to ``target_ci``. Identical
submissions therefore make identical stopping decisions on every re-run,
under any worker count and either executor — which is what makes
adaptive runs reproducible and testable.

This module holds the whole round protocol:

* :class:`RoundPlan` — the round ladder.
* :class:`ConvergenceTracker` — the delta-based convergence heuristic the
  online mode uses between refinement passes.
* :func:`max_ci_halfwidth` — the scalar of the CI stopping rule that
  :meth:`repro.core.engine.PointEvaluator.step` applies (converged once it
  is at most ``target_ci``); the serve scheduler's budget allocator reads
  the evaluator's decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.aggregator import AxisStatistics
from repro.errors import ScenarioError


@dataclass(frozen=True)
class RoundPlan:
    """Split ``n_worlds`` into a ladder of growing world-prefix rounds.

    ``first`` worlds give the first (coarse) estimate; each later round
    adds ``growth`` times more until ``n_worlds`` is reached. The ladder is
    declared once, on the client: :meth:`repro.api.ClientConfig.round_plan`
    maps :class:`~repro.api.AdaptiveConfig`'s ``min_worlds`` /
    ``max_worlds`` / ``round_growth`` onto ``first`` / ``n_worlds`` /
    ``growth`` through :meth:`over`; a session, evaluator or scheduler
    handed no ladder takes :meth:`over` its engine's worlds.
    """

    n_worlds: int = 200
    first: int = 25
    growth: float = 2.0

    def __post_init__(self) -> None:
        if self.n_worlds < 1:
            raise ScenarioError(f"n_worlds must be >= 1, got {self.n_worlds}")
        if not 1 <= self.first <= self.n_worlds:
            raise ScenarioError(
                f"first pass must be in [1, {self.n_worlds}], got {self.first}"
            )
        if self.growth <= 1.0:
            raise ScenarioError(f"growth must be > 1, got {self.growth}")

    @classmethod
    def over(
        cls,
        n_worlds: int,
        *,
        first: Optional[int] = None,
        growth: Optional[float] = None,
    ) -> "RoundPlan":
        """The ladder over ``n_worlds``; an unset ``first`` / ``growth``
        takes the class default, and ``first`` is capped at ``n_worlds``."""
        return cls(
            n_worlds=n_worlds,
            first=min(cls.first if first is None else first, n_worlds),
            growth=cls.growth if growth is None else growth,
        )

    def passes(self) -> list[range]:
        """World-index ranges of each round's *increment* (contiguous).

        Each increment is ``growth`` times the last, and at least one world
        more, so a ladder whose ``int(size * growth)`` truncates never stalls.
        """
        result: list[range] = []
        start = 0
        size = self.first
        while start < self.n_worlds:
            stop = min(start + size, self.n_worlds)
            result.append(range(start, stop))
            start = stop
            size = max(size + 1, int(size * self.growth))
        return result

    def boundaries(self) -> tuple[int, ...]:
        """Cumulative world-prefix sizes, one per round, ending at
        ``n_worlds``. Round ``r`` evaluates worlds ``[0, boundaries()[r])``."""
        return tuple(world_range.stop for world_range in self.passes())

    def next_boundary(self, current: int) -> int:
        """The prefix the round after ``current`` worlds would extend to.

        Within the ladder this is the next planned boundary; past
        ``n_worlds`` it keeps growing geometrically (the budget allocator
        uses this to extend unresolved points with reallocated worlds).
        Always strictly greater than ``current``.
        """
        if current < 0:
            raise ScenarioError(f"current must be >= 0, got {current}")
        for boundary in self.boundaries():
            if boundary > current:
                return boundary
        return max(current + 1, int(current * self.growth))


def max_ci_halfwidth(statistics: AxisStatistics, z: float = 1.96) -> float:
    """The largest CI half-width across every output series and axis value.

    The scalar the stopping rule compares against ``target_ci``: a point is
    resolved only when *all* of its estimates are resolved. Non-finite
    half-widths (too few worlds, NaN statistics) report ``inf`` so an
    undetermined series can never be mistaken for a converged one.
    """
    worst = 0.0
    for alias in statistics.aliases():
        halfwidths = statistics.series[alias].ci_halfwidth(z)
        finite = np.isfinite(halfwidths)
        if not bool(finite.all()):
            return math.inf
        if halfwidths.size:
            worst = max(worst, float(np.max(halfwidths)))
    return worst


@dataclass
class ConvergenceTracker:
    """Detects when progressive refinement has stabilized (delta heuristic).

    The online mode refines estimates in rounds; the view is "accurate" once
    the largest *relative* change between consecutive rounds falls below
    ``tolerance``. Each series' delta is normalized by that series' scale
    (``max(|values|)``), so a capacity curve in the thousands and an overload
    probability in [0, 1] converge on comparable terms. Used to measure the
    paper's time-to-first-accurate-guess claim (C5).

    This is the *heuristic* stopping rule (cheap, but depends on the round
    ladder); the adaptive budget allocator stops on the CI rule of
    :class:`~repro.core.engine.PointEvaluator` instead, which is a pure
    function of the accumulated statistics.
    """

    tolerance: float = 0.01
    _previous: Optional[AxisStatistics] = field(default=None, repr=False)
    history: list[float] = field(default_factory=list)

    def update(self, statistics: AxisStatistics) -> float:
        """Record a refinement round; returns the max relative series delta."""
        if self._previous is None:
            self._previous = statistics
            self.history.append(math.inf)
            return math.inf
        delta = 0.0
        for alias in statistics.aliases():
            current = statistics.expectation(alias)
            previous = self._previous.expectation(alias)
            if current.shape == previous.shape:
                finite = np.isfinite(current) & np.isfinite(previous)
                if finite.any():
                    scale = max(float(np.max(np.abs(current[finite]))), 1e-12)
                    change = float(np.max(np.abs(current[finite] - previous[finite])))
                    delta = max(delta, change / scale)
        self._previous = statistics
        self.history.append(delta)
        return delta

    @property
    def converged(self) -> bool:
        return bool(self.history) and self.history[-1] <= self.tolerance

    def reset(self) -> None:
        self._previous = None
        self.history.clear()
