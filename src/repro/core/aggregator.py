"""The Result Aggregator (paper Figure 1, stage 4).

Turns the results table produced by the combine query into per-axis
statistics: expectations, standard deviations, overload probabilities,
confidence intervals. The statistics feed the online graph directly and the
Guide's convergence decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.errors import ScenarioError
from repro.sqldb.table import ResultSet


@dataclass(frozen=True)
class SeriesStats:
    """Per-axis statistics of one output alias."""

    alias: str
    expectation: np.ndarray  # E[output | t], one entry per axis value
    stddev: np.ndarray  # sqrt(Var[output | t]) over worlds
    n_worlds: int

    def ci_halfwidth(self, z: float = 1.96) -> np.ndarray:
        """Normal-approximation confidence half-width of the expectation.

        With one world (or none) no variance estimate exists — the ddof=1
        stddev is NaN — so the half-width is ``inf`` everywhere: an
        undetermined estimate must never look converged to the round
        protocol's stopping rule (:func:`repro.core.rounds.ci_converged`).
        """
        if self.n_worlds <= 1:
            return np.full_like(self.expectation, np.inf)
        return z * self.stddev / math.sqrt(self.n_worlds)


@dataclass(frozen=True)
class AxisStatistics:
    """Statistics of every output over the axis (the online-graph payload)."""

    axis_values: tuple[int, ...]
    series: Mapping[str, SeriesStats]
    n_worlds: int

    def expectation(self, alias: str) -> np.ndarray:
        return self._series(alias).expectation

    def stddev(self, alias: str) -> np.ndarray:
        return self._series(alias).stddev

    def max_expectation(self, alias: str) -> float:
        return float(np.max(self.expectation(alias)))

    def min_expectation(self, alias: str) -> float:
        return float(np.min(self.expectation(alias)))

    def _series(self, alias: str) -> SeriesStats:
        try:
            return self.series[alias.lower()]
        except KeyError:
            raise ScenarioError(f"no statistics for output {alias!r}") from None

    def aliases(self) -> tuple[str, ...]:
        return tuple(self.series.keys())


class ResultAggregator:
    """Builds :class:`AxisStatistics` from aggregate-query output."""

    def __init__(self, output_aliases: Sequence[str]) -> None:
        self.output_aliases = tuple(alias.lower() for alias in output_aliases)

    def from_aggregate_result(self, result: ResultSet, n_worlds: int) -> AxisStatistics:
        """Parse the Query Generator's aggregate query output.

        Expects columns ``t, e_<alias>, sd_<alias>, ...`` ordered by ``t``.
        """
        axis_values = tuple(int(v) for v in result.column("t"))
        series: dict[str, SeriesStats] = {}
        for alias in self.output_aliases:
            expectation = np.asarray(
                [_nan_if_none(v) for v in result.column(f"e_{alias}")], dtype=float
            )
            stddev = np.asarray(
                [_nan_if_none(v) for v in result.column(f"sd_{alias}")], dtype=float
            )
            series[alias] = SeriesStats(
                alias=alias, expectation=expectation, stddev=stddev, n_worlds=n_worlds
            )
        return AxisStatistics(axis_values=axis_values, series=series, n_worlds=n_worlds)

    def from_sample_matrices(
        self, matrices: Mapping[str, np.ndarray], axis_values: Sequence[int]
    ) -> AxisStatistics:
        """Build statistics directly from sample matrices (test utility).

        The production path goes through SQL; this exists so property tests
        can cross-check the SQL aggregation against numpy.
        """
        n_worlds = 0
        series: dict[str, SeriesStats] = {}
        for alias, matrix in matrices.items():
            data = np.asarray(matrix, dtype=float)
            n_worlds = data.shape[0]
            series[alias.lower()] = SeriesStats(
                alias=alias.lower(),
                expectation=data.mean(axis=0),
                stddev=data.std(axis=0, ddof=1) if data.shape[0] > 1 else np.zeros(data.shape[1]),
                n_worlds=n_worlds,
            )
        return AxisStatistics(
            axis_values=tuple(int(v) for v in axis_values), series=series, n_worlds=n_worlds
        )


def error_against_reference(
    estimate: AxisStatistics, reference: AxisStatistics, alias: str
) -> float:
    """Max absolute expectation error of ``estimate`` vs a reference run."""
    current = estimate.expectation(alias)
    truth = reference.expectation(alias)
    if current.shape != truth.shape:
        raise ScenarioError(
            f"shape mismatch comparing {alias!r}: {current.shape} vs {truth.shape}"
        )
    finite = np.isfinite(current) & np.isfinite(truth)
    if not finite.any():
        return math.inf
    return float(np.max(np.abs(current[finite] - truth[finite])))


def _nan_if_none(value: Any) -> float:
    return float("nan") if value is None else float(value)


# -- mergeable accumulators (repro.serve sharded evaluation) -----------------
#
# Sharded evaluation splits the fixed world-seed sequence into contiguous
# shards and evaluates them in parallel. Merging per-shard statistics must
# not depend on the shard split, so these accumulators keep *exact*
# sufficient statistics: sums are held as Shewchuk partial expansions (the
# algorithm behind ``math.fsum``) whose represented value is the exact real
# sum regardless of insertion or merge order, and the finalization rounds
# exactly once. Any partition of the same samples therefore finalizes to
# bit-identical floats.


class ExactSum:
    """Exact, mergeable float summation (Shewchuk partials).

    ``add`` maintains a list of non-overlapping partials whose mathematical
    sum equals the exact sum of everything added so far; ``merge`` folds in
    another accumulator's partials (still exact); ``value`` rounds the exact
    sum to the nearest float exactly once. Because the represented value is
    exact, the result is independent of how the inputs were partitioned.
    """

    __slots__ = ("_partials",)

    def __init__(self, values: Iterable[float] = ()) -> None:
        self._partials: list[float] = []
        for value in values:
            self.add(value)

    def add(self, value: float) -> None:
        x = float(value)
        partials = self._partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def merge(self, other: "ExactSum") -> None:
        for partial in other._partials:
            self.add(partial)

    def value(self) -> float:
        """The exact sum, correctly rounded to one float."""
        return math.fsum(self._partials)

    def exact(self) -> Fraction:
        """The exact sum as a rational (floats are dyadic rationals)."""
        total = Fraction(0)
        for partial in self._partials:
            total += Fraction(partial)
        return total


_ZERO = Fraction(0)

#: Dekker's two-product is exact only while every intermediate product
#: stays clear of the subnormal floor. The binding term is ``lo * lo``:
#: ``lo``'s lowest mantissa bit sits at ``2**(e-52)`` for ``|x| ~ 2**e``,
#: so ``lo * lo`` needs bits down to ``2**(2e-104)``, which must stay
#: >= 2**-1074 — i.e. ``x * x`` >= ~2**-970. Anything below routes through
#: the exact-rational fallback (2**-960 leaves a safety margin).
_DEKKER_MIN_PRODUCT = 2.0**-960


def _exact_square(x: float) -> tuple[float, float, Fraction]:
    """``x * x`` as ``(product, rounding_error, rest)``, exact in total.

    The mathematical square equals ``product + rounding_error + rest``
    exactly. In the Dekker regime (product comfortably normal) the float
    pair alone is exact and ``rest`` is zero. Near and below the underflow
    threshold the rounding residual itself may need bits below the
    subnormal floor, where no finite sum of floats can represent it; the
    fallback then returns the correctly rounded float residual plus the
    exact rational remainder, so accumulators can stay exact in every
    regime.
    """
    product = x * x
    if not (_DEKKER_MIN_PRODUCT <= product < math.inf):
        if not math.isfinite(product):
            return product, 0.0, _ZERO  # overflow: no finite error term exists
        if x == 0.0:
            return 0.0, 0.0, _ZERO
        residual = Fraction(x) * Fraction(x) - Fraction(product)
        error = float(residual)
        return product, error, residual - Fraction(error)
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    lo = x - hi
    error = ((hi * hi - product) + 2.0 * hi * lo) + lo * lo
    return product, error, _ZERO


class MergeableMoments:
    """Mergeable count/sum/min/max and exact mean/variance of one stream.

    Sums of values *and* of their squares are kept exact (squares via
    Dekker two-product error compensation), and ``mean``/``variance``
    finalize through exact rational arithmetic — so any shard partition of
    the same values produces bit-identical statistics, and the only
    rounding in the result is the final one.
    """

    __slots__ = ("count", "_sum", "_sumsq", "_sumsq_rest", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self._sum = ExactSum()
        self._sumsq = ExactSum()
        # Exact rational remainder of squares whose residual needs bits
        # below the subnormal floor (deep-underflow inputs); zero otherwise.
        self._sumsq_rest = _ZERO
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        x = float(value)
        self.count += 1
        self._sum.add(x)
        square, error, rest = _exact_square(x)
        self._sumsq.add(square)
        if error:
            self._sumsq.add(error)
        if rest:
            self._sumsq_rest += rest
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x

    def add_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def merge(self, other: "MergeableMoments") -> None:
        self.count += other.count
        self._sum.merge(other._sum)
        self._sumsq.merge(other._sumsq)
        self._sumsq_rest += other._sumsq_rest
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum

    @property
    def total(self) -> float:
        return self._sum.value()

    @property
    def mean(self) -> float:
        if self.count == 0:
            return math.nan
        return float(self._sum.exact() / self.count)

    def variance(self, ddof: int = 1) -> float:
        """Exact-rational sample variance, rounded once at the end."""
        if self.count <= ddof:
            return math.nan
        total = self._sum.exact()
        sumsq = self._sumsq.exact() + self._sumsq_rest
        exact = (sumsq - total * total / self.count) / (self.count - ddof)
        return float(max(exact, Fraction(0)))

    def stddev(self, ddof: int = 1) -> float:
        variance = self.variance(ddof)
        return math.sqrt(variance) if not math.isnan(variance) else math.nan


class MergeableAxisStats:
    """Mergeable per-week statistics of every output alias.

    One :class:`MergeableMoments` per (alias, week): the week axis of an
    :class:`AxisStatistics`, in a form that shards can compute independently
    over their world slice and merge exactly. A shard's payload is
    ``O(aliases x weeks)`` regardless of how many worlds it simulated.
    """

    def __init__(self, aliases: Sequence[str], n_weeks: int) -> None:
        self.aliases = tuple(alias.lower() for alias in aliases)
        self.n_weeks = int(n_weeks)
        self._moments: dict[str, list[MergeableMoments]] = {
            alias: [MergeableMoments() for _ in range(self.n_weeks)]
            for alias in self.aliases
        }

    @classmethod
    def from_matrices(cls, matrices: Mapping[str, np.ndarray]) -> "MergeableAxisStats":
        """Accumulate from ``alias -> (n_worlds, n_weeks)`` sample matrices."""
        first = next(iter(matrices.values()))
        stats = cls(tuple(matrices.keys()), np.asarray(first).shape[1])
        for alias, matrix in matrices.items():
            data = np.asarray(matrix, dtype=float)
            if data.shape[1] != stats.n_weeks:
                raise ScenarioError(
                    f"matrix for {alias!r} has {data.shape[1]} weeks, "
                    f"expected {stats.n_weeks}"
                )
            per_week = stats._moments[alias.lower()]
            for week in range(stats.n_weeks):
                column = data[:, week]
                moments = per_week[week]
                for value in column:
                    moments.add(value)
        return stats

    def moments(self, alias: str, week: int) -> MergeableMoments:
        try:
            return self._moments[alias.lower()][week]
        except KeyError:
            raise ScenarioError(f"no statistics for output {alias!r}") from None

    def merge(self, other: "MergeableAxisStats") -> None:
        if self.aliases != other.aliases or self.n_weeks != other.n_weeks:
            raise ScenarioError(
                "cannot merge axis statistics with different aliases or weeks"
            )
        for alias in self.aliases:
            mine = self._moments[alias]
            theirs = other._moments[alias]
            for week in range(self.n_weeks):
                mine[week].merge(theirs[week])

    def to_axis_statistics(
        self, axis_values: Optional[Sequence[int]] = None
    ) -> AxisStatistics:
        """Finalize into an :class:`AxisStatistics` (ddof=1 stddev)."""
        axis = (
            tuple(int(v) for v in axis_values)
            if axis_values is not None
            else tuple(range(self.n_weeks))
        )
        n_worlds = 0
        series: dict[str, SeriesStats] = {}
        for alias in self.aliases:
            per_week = self._moments[alias]
            n_worlds = per_week[0].count if per_week else 0
            series[alias] = SeriesStats(
                alias=alias,
                expectation=np.asarray([m.mean for m in per_week], dtype=float),
                stddev=np.asarray([m.stddev() for m in per_week], dtype=float),
                n_worlds=n_worlds,
            )
        return AxisStatistics(axis_values=axis, series=series, n_worlds=n_worlds)
