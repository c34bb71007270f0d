"""Risk metrics over Monte Carlo sample matrices.

Paper §2: the Result Aggregator "produces expectations, standard deviations,
and other desired metrics". This module supplies the enterprise-analytics
metrics beyond mean/stddev: per-week quantiles, exceedance probabilities,
expected shortfall, and worst-week summaries — computed from the sample
matrices the Storage Manager already holds (no extra simulation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.errors import ScenarioError
from repro.core.engine import PointEvaluation
from repro.core.scenario import DerivedOutput, Scenario
from repro.sqldb.expressions import EvalContext, compile_expression
from repro.sqldb.functions import builtin_scalar_functions


def quantile_series(samples: np.ndarray, q: float) -> np.ndarray:
    """Per-component ``q``-quantile of a (worlds x components) matrix."""
    if not 0.0 <= q <= 1.0:
        raise ScenarioError(f"quantile must be in [0, 1], got {q}")
    return np.quantile(np.asarray(samples, dtype=float), q, axis=0)


def exceedance_probability(samples: np.ndarray, threshold: float) -> np.ndarray:
    """Per-component P(value > threshold)."""
    data = np.asarray(samples, dtype=float)
    return (data > threshold).mean(axis=0)


def shortfall_probability(samples: np.ndarray, threshold: float) -> np.ndarray:
    """Per-component P(value < threshold) — e.g. capacity under demand floor."""
    data = np.asarray(samples, dtype=float)
    return (data < threshold).mean(axis=0)


def expected_shortfall(samples: np.ndarray, q: float) -> np.ndarray:
    """Per-component mean of the worst ``q`` tail (a CVaR-style metric).

    For each component, averages the values at or below the ``q``-quantile.
    """
    data = np.asarray(samples, dtype=float)
    cutoff = quantile_series(data, q)
    result = np.empty(data.shape[1], dtype=float)
    for component in range(data.shape[1]):
        column = data[:, component]
        tail = column[column <= cutoff[component]]
        result[component] = tail.mean() if tail.size else float("nan")
    return result


@dataclass(frozen=True)
class RiskSummary:
    """Headline risk numbers for one output at one parameter point."""

    alias: str
    worst_week: int
    worst_week_value: float
    p05: np.ndarray
    p50: np.ndarray
    p95: np.ndarray


class RiskAnalyzer:
    """Derives risk metrics from a :class:`PointEvaluation`.

    VG outputs use the stored sample matrices directly; derived outputs
    (``overload``, ``headroom``...) are re-evaluated elementwise from the VG
    matrices through the scenario's own SQL expressions, so the metrics stay
    consistent with the combine query's semantics.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self._functions = builtin_scalar_functions()

    def samples_for(self, evaluation: PointEvaluation, alias: str) -> np.ndarray:
        if not evaluation.samples:
            raise ScenarioError(
                "evaluation carries no sample matrices (it was served from "
                "the repro.serve result cache, which stores only statistics);"
                " re-evaluate with the cache disabled to analyze risk"
            )
        key = alias.lower()
        if key in evaluation.samples:
            return evaluation.samples[key]
        derived = self._derived_output(key)
        return self._derived_matrix(evaluation, derived)

    def quantiles(
        self, evaluation: PointEvaluation, alias: str, qs: tuple[float, ...] = (0.05, 0.5, 0.95)
    ) -> dict[float, np.ndarray]:
        samples = self.samples_for(evaluation, alias)
        return {q: quantile_series(samples, q) for q in qs}

    def summary(self, evaluation: PointEvaluation, alias: str, *, worst: str = "max") -> RiskSummary:
        """Headline summary; ``worst`` picks the max- or min-mean week."""
        samples = self.samples_for(evaluation, alias)
        means = samples.mean(axis=0)
        worst_week = int(np.argmax(means) if worst == "max" else np.argmin(means))
        quantiles = self.quantiles(evaluation, alias)
        return RiskSummary(
            alias=alias.lower(),
            worst_week=worst_week,
            worst_week_value=float(means[worst_week]),
            p05=quantiles[0.05],
            p50=quantiles[0.5],
            p95=quantiles[0.95],
        )

    def overload_run_lengths(self, evaluation: PointEvaluation, alias: str = "overload") -> np.ndarray:
        """Distribution of the longest consecutive overloaded stretch per world.

        Capacity planners care whether overloads cluster; this returns one
        value per Monte Carlo world: its longest run of overloaded weeks.
        """
        samples = self.samples_for(evaluation, alias)
        binary = samples > 0.5
        runs = np.zeros(binary.shape[0], dtype=float)
        for world in range(binary.shape[0]):
            longest = current = 0
            for flag in binary[world]:
                current = current + 1 if flag else 0
                longest = max(longest, current)
            runs[world] = longest
        return runs

    # -- internals -----------------------------------------------------------

    def _derived_output(self, alias: str) -> DerivedOutput:
        for output in self.scenario.derived_outputs:
            if output.alias.lower() == alias:
                return output
        raise ScenarioError(f"no output named {alias!r} in scenario {self.scenario.name!r}")

    def _derived_matrix(
        self, evaluation: PointEvaluation, derived: DerivedOutput
    ) -> np.ndarray:
        matrices: Mapping[str, np.ndarray] = evaluation.samples
        first = next(iter(matrices.values()))
        n_worlds, n_components = first.shape
        result = np.empty((n_worlds, n_components), dtype=float)
        env: dict[str, Any] = {}
        context = EvalContext(
            columns=env, variables=dict(evaluation.point), functions=self._functions
        )
        expression = compile_expression(derived.expression)
        for world in range(n_worlds):
            for component in range(n_components):
                env.clear()
                env[self.scenario.axis] = component
                env["t"] = component
                for name, matrix in matrices.items():
                    env[name] = float(matrix[world, component])
                value = expression(context)
                result[world, component] = float(value) if value is not None else np.nan
        return result
