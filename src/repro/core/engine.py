"""The Prophet engine: the evaluation cycle of paper Figure 1.

One :class:`ProphetEngine` owns a scenario, a VG library, a SQL catalog with
the PDB extension registered, the fingerprint registry, the Storage Manager,
and the Result Aggregator. Its unit of work is *evaluating one parameter
point*: produce (or reuse) the Monte Carlo sample matrix of every VG model,
land samples in SQL, run the generated combine and aggregate queries, and
return per-axis statistics.

The cycle (stage names match Figure 1):

1. **guide** — the caller (GridGuide / PriorityGuide / user) picks the point;
2. **querygen + sql** — generated pure SQL samples fresh worlds through the
   VG table functions and lands them in the samples tables;
3. **storage** — the Storage Manager intercepts with basis distributions:
   exact hits and fingerprint-mapped reuse skip stage 2 for the mapped
   components entirely;
4. **aggregate** — the combine and aggregate queries produce the statistics
   that feed the online graph or the offline optimizer, and the results are
   fed back (stored as new basis distributions) to direct future sampling.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from repro.errors import ScenarioError
from repro.obs.trace import NULL_TRACER
from repro.core.aggregator import (
    AxisStatistics,
    MergeableAxisStats,
    ResultAggregator,
)
from repro.core.config import EngineConfig
from repro.core.fingerprint.registry import FingerprintRegistry
from repro.core.instance import InstanceBatch
from repro.core.querygen import QueryGenerator
from repro.core.rounds import RoundPlan, max_ci_halfwidth
from repro.core.sampling import SamplingPlane
from repro.core.scenario import Scenario, VGOutput
from repro.core.storage import BasisEntry, ReuseReport, StorageManager, column_digests
from repro.sqldb.catalog import Catalog
from repro.sqldb.executor import Executor
from repro.sqldb.expressions import collect_variables
from repro.sqldb.pdbext import register_library
from repro.sqldb.table import tiled_column
from repro.vg.library import VGLibrary


@lru_cache(maxsize=None)
def _week_bytes(n_weeks: int) -> tuple[bytes, ...]:
    """Week indices as the fixed-width bytes of a week-memo key."""
    return tuple(week.to_bytes(8, "little") for week in range(n_weeks))


def world_ids(worlds: Sequence[int], entry_point: str) -> tuple[int, ...]:
    """Shared world-slice guard of every evaluation entry point.

    ``evaluate_point``, ``sample_fresh``, ``EvaluationService.evaluate`` and
    ``Scheduler.submit`` must agree on this behavior: an empty world slice
    is a caller error, never a silently-empty result; world ids are Python
    ints — ``3`` and ``np.int64(3)`` are one world, one seed, one cache key;
    and a world appears once, since a repeated id would interleave its
    copies' rows in the samples tables.
    """
    try:
        ids = tuple(map(operator.index, worlds))
    except TypeError:
        bad = next((w for w in worlds if not hasattr(w, "__index__")), None)
        raise ScenarioError(
            f"{entry_point} world ids must be integers, got {bad!r}"
        ) from None
    if not ids:
        raise ScenarioError(f"{entry_point} needs at least one world")
    if len(set(ids)) != len(ids):
        repeated = next(w for i, w in enumerate(ids) if w in ids[:i])
        raise ScenarioError(f"{entry_point} world id {repeated} repeats")
    return ids


@dataclass
class StageTimings:
    """Wall-clock seconds attributed to each Figure-1 stage."""

    querygen: float = 0.0
    sql: float = 0.0
    storage: float = 0.0
    aggregate: float = 0.0

    def total(self) -> float:
        return self.querygen + self.sql + self.storage + self.aggregate

    def add(self, other: "StageTimings") -> None:
        self.querygen += other.querygen
        self.sql += other.sql
        self.storage += other.storage
        self.aggregate += other.aggregate


@dataclass(frozen=True)
class PointEvaluation:
    """Everything the engine learned about one parameter point.

    Its arrays are read-only: the sample matrices are the stored bases, the
    statistics the stats cache's and the week memo's.
    """

    point: dict[str, Any]
    statistics: AxisStatistics
    samples: dict[str, np.ndarray]  # alias -> (n_worlds, n_components)
    reuse_reports: tuple[ReuseReport, ...]
    timings: StageTimings
    n_worlds: int

    @property
    def fully_fresh(self) -> bool:
        return all(report.source == "fresh" for report in self.reuse_reports)

    @property
    def any_reuse(self) -> bool:
        return any(report.source != "fresh" for report in self.reuse_reports)


class ProphetEngine:
    """Scenario evaluation with fingerprint-driven computation reuse."""

    def __init__(
        self,
        scenario: Scenario,
        library: VGLibrary,
        config: EngineConfig | None = None,
    ) -> None:
        self.scenario = scenario
        self.library = library
        self.config = config or EngineConfig()
        scenario.check_against_library(library)

        self.catalog = Catalog(name=f"prophet_{scenario.name}")
        self.executor = Executor(self.catalog)
        register_library(self.catalog, library)

        self.querygen = QueryGenerator(scenario)
        self.sampling = SamplingPlane(
            self.querygen,
            self.executor,
            library,
            backend=self.config.sampling.backend,
        )
        reuse, store = self.config.reuse, self.config.store
        # Each model's seed-event store holds this engine's world universe.
        for function in library:
            function.events.reserve(self.config.sampling.n_worlds + reuse.fingerprint_seeds)
        self.registry = FingerprintRegistry(
            reuse.fingerprint_spec(), reuse.correlation_policy()
        )
        self.storage = StorageManager(
            self.registry,
            library,
            self.config.sampling.base_seed,
            basis_cap=store.basis_cap,
            basis_byte_cap=store.basis_byte_cap,
            spill_dir=store.basis_dir,
        )
        self.aggregator = ResultAggregator(scenario.output_aliases)
        #: Observability is strictly opt-in: the shared no-op tracer and no
        #: profiler until :meth:`set_tracer` / the API layer installs them.
        self.tracer = NULL_TRACER
        self.profiler = None
        self.total_timings = StageTimings()
        self.points_evaluated = 0
        self._stats_cache: dict[tuple, PointEvaluation] = {}
        # Per-week statistics memo: joint-sample content -> aggregate row.
        # Implements the §3.2 claim that "only a small portion of the output
        # statistics is recomputed" — a week whose joint samples (and the
        # parameter values its derived expressions read) are unchanged
        # reuses its statistics without touching SQL.
        self._week_stats_cache: dict[bytes, np.ndarray] = {}
        self._derived_params = self._collect_derived_params()
        #: The world slice of a request that names none: every configured
        #: world, in order.
        self.default_worlds = tuple(range(self.config.sampling.n_worlds))
        self.week_stats_hits = 0
        self.week_stats_misses = 0

    # -- observability -------------------------------------------------------

    def set_tracer(self, tracer: Any) -> None:
        """Install one tracer across the engine and its planes.

        The sampling plane and the basis tier record their own spans; they
        must share the engine's tracer so the trace is one timeline.
        """
        self.tracer = tracer
        self.sampling.tracer = tracer
        self.storage.tier.tracer = tracer

    # -- public API ----------------------------------------------------------

    def evaluate_point(
        self,
        point: Mapping[str, Any],
        *,
        worlds: Optional[Sequence[int]] = None,
        reuse: bool = True,
    ) -> PointEvaluation:
        """Evaluate the scenario at one sweep point (axis excluded).

        ``worlds`` defaults to all configured Monte Carlo worlds; the online
        mode passes growing prefixes for progressive refinement.

        ``reuse=False`` is a baseline measurement: every output is sampled
        fresh through the generated SQL, and the request neither reads nor
        writes the Storage Manager, the stats cache or the week memo. Each
        world's seed is a pure function of ``(base_seed, world)`` (see
        :func:`repro.vg.seeds.world_seed`), so such a request is a pure
        function of ``(scenario, config, point, worlds)``: any engine built
        from the same spec answers it with the same bits, in any order —
        what lets ``repro.serve`` run it as a whole-point task on a process
        pool.
        """
        profiler = self.profiler
        if profiler is None:
            with self.tracer.span("evaluate") as span:
                return self._evaluate_point(point, worlds, reuse, span)
        with profiler:
            with self.tracer.span("evaluate") as span:
                return self._evaluate_point(point, worlds, reuse, span)

    def _request(
        self, point: Mapping[str, Any], worlds: Optional[Sequence[int]], reuse: bool
    ) -> tuple[tuple, dict[str, Any]]:
        """A request's identity ``(point key, worlds, reuse)`` and its
        validated point."""
        validated = self.scenario.validate_sweep_point(point)
        chosen_worlds = (
            self.default_worlds
            # The serve layer passes the default slice on, already checked.
            if worlds is None or worlds is self.default_worlds
            else world_ids(worlds, "evaluate_point")
        )
        return (
            self.scenario.sweep_space.point_key(validated),
            chosen_worlds,
            reuse,
        ), validated

    def _evaluate_point(
        self,
        point: Mapping[str, Any],
        worlds: Optional[Sequence[int]],
        reuse: bool,
        span: Any,
    ) -> PointEvaluation:
        key, validated = self._request(point, worlds, reuse)
        cached = self._stats_cache_hit(key)
        if cached is not None:
            self.points_evaluated += 1
            span.set(stats_cache_hit=True, n_worlds=cached.n_worlds)
            return cached
        point_key, chosen_worlds, _ = key
        batch = InstanceBatch.at_point(validated, chosen_worlds, self.config.sampling.base_seed)

        timings = StageTimings()
        reports: list[ReuseReport] = []
        matrices: dict[str, np.ndarray] = {}
        # The stored basis each matrix *is*, where it is one: its cached
        # column digests key the week memo.
        bases: dict[str, BasisEntry] = {}
        for output in self.scenario.vg_outputs:
            if reuse:
                matrix, report, basis = self._samples_for_output(output, batch, timings)
            else:
                matrix, report, basis = self._fresh_output(output, batch, timings)
            alias = output.alias.lower()
            # Result matrices are read-only, like the stored bases they mostly are.
            matrix.flags.writeable = False
            matrices[alias] = matrix
            if basis is not None:
                bases[alias] = basis
            reports.append(report)
        self.points_evaluated += 1

        statistics = self._combine_and_aggregate(
            validated, batch, matrices, timings, use_week_memo=reuse, bases=bases
        )
        self.total_timings.add(timings)
        span.set(stats_cache_hit=False, n_worlds=len(batch))
        evaluation = PointEvaluation(
            point=validated,
            statistics=statistics,
            samples=matrices,
            reuse_reports=tuple(reports),
            timings=timings,
            n_worlds=len(batch),
        )
        if reuse:
            self._stats_cache[(point_key, chosen_worlds)] = evaluation
        return evaluation

    def _stats_cache_hit(self, key: tuple) -> Optional[PointEvaluation]:
        """The stats cache's answer to a request, served as a pure hit.

        The stats cache holds finished point statistics: a re-visited point
        (same worlds) skips the combine/aggregate queries entirely. A
        ``reuse=False`` request (a baseline measurement) bypasses it.
        """
        point_key, chosen_worlds, reuse = key
        if not reuse:
            return None
        cached = self._stats_cache.get((point_key, chosen_worlds))
        if cached is None:
            return None
        # Re-label the reuse reports: this serving is a pure cache hit,
        # regardless of how the cached evaluation was produced.
        hit_reports = tuple(
            ReuseReport(
                vg_name=r.vg_name,
                args=r.args,
                source="exact",
                basis_args=r.args,
                mapped_fraction=1.0,
                components_total=r.components_total,
                components_recomputed=0,
                kind_counts={"identity": r.components_total},
            )
            for r in cached.reuse_reports
        )
        return PointEvaluation(
            point=cached.point,
            statistics=cached.statistics,
            samples=cached.samples,
            reuse_reports=hit_reports,
            timings=StageTimings(),
            n_worlds=cached.n_worlds,
        )

    def sample_fresh(
        self,
        alias: str,
        point: Mapping[str, Any],
        worlds: Sequence[int],
        timings: Optional[StageTimings] = None,
    ) -> np.ndarray:
        """Fresh-sample one VG output over a world slice.

        Runs only the generated-SQL sampling stage — no storage, no reuse,
        no aggregation. Because each world's seed derives purely from
        ``(base_seed, world)``, the returned ``(len(worlds), n_components)``
        matrix rows are identical to what any other engine with the same
        scenario and config would produce for those worlds.
        """
        output = self.scenario.vg_output(alias)
        validated = self.scenario.validate_sweep_point(point)
        batch = InstanceBatch.at_point(
            validated, world_ids(worlds, "sample_fresh"), self.config.sampling.base_seed
        )
        return self.sampling.sample(output, batch, timings)

    def invocation_count(self) -> int:
        """Total real VG invocations so far (probes included)."""
        return self.library.total_invocations()

    def component_sample_count(self) -> int:
        return self.library.total_component_samples()

    def reset_counters(self) -> None:
        self.library.reset_counters()

    # -- sampling ---------------------------------------------------------------

    def _samples_for_output(
        self,
        output: VGOutput,
        batch: InstanceBatch,
        timings: StageTimings,
    ) -> tuple[np.ndarray, ReuseReport, Optional[BasisEntry]]:
        """One output's ``(samples, report, basis)`` under ``reuse=True``.

        ``basis`` is the stored entry whose matrix ``samples`` is — an exact
        hit over the basis's own worlds, a mapped hit, a fresh store — and
        ``None`` for any other world selection.
        """
        function = self.library.get(output.vg_name)
        args = output.model_arg_values(batch.point_dict)
        worlds, seeds = batch.id_tuples()
        base_seed = self.config.sampling.base_seed
        min_mapped_fraction = self.config.reuse.min_mapped_fraction

        # Extend a same-args basis that covers only some requested worlds.
        # A basis read from a file has passed the Storage Manager's trust
        # rule (this engine's world seeds, the model's shape) before it can
        # be merged with this engine's samples.
        tracer = self.tracer
        with tracer.stage("reuse", timings, attr="storage", alias=output.alias):
            existing = self.storage.validated_entry(function, args)
        if existing is not None and existing.worlds != worlds:
            held = set(existing.worlds)
            missing = [w for w in worlds if w not in held]
            if missing:
                missing_batch = InstanceBatch.at_point(batch.point_dict, missing, base_seed)
                missing, missing_seeds = missing_batch.id_tuples()
                # Extending the world set: try to map the missing worlds from
                # another basis before falling back to fresh simulation.
                with tracer.stage("reuse", timings, attr="storage"):
                    fresh, _ = self.storage.acquire(
                        function,
                        args,
                        missing,
                        missing_seeds,
                        min_mapped_fraction=min_mapped_fraction,
                    )
                if fresh is None:
                    fresh = self.sampling.sample(output, missing_batch, timings)
                merged_worlds = existing.worlds + missing
                merged_seeds = existing.seeds + missing_seeds
                merged = np.vstack([existing.samples, fresh])
                with tracer.stage("reuse", timings, attr="storage"):
                    self.storage.store(
                        function, args, merged, merged_worlds, merged_seeds
                    )

        with tracer.stage(
            "reuse", timings, attr="storage", alias=output.alias
        ) as stage:
            samples, report = self.storage.acquire(
                function,
                args,
                worlds,
                seeds,
                min_mapped_fraction=min_mapped_fraction,
            )
            stage.set(source=report.source)
        if samples is not None:
            return samples, report, self.storage.basis_of(function, args, samples)

        samples = self.sampling.sample(output, batch, timings)
        with tracer.stage("reuse", timings, attr="storage"):
            basis = self.storage.store(function, args, samples, worlds, seeds)
        return basis.samples, report, basis

    def _fresh_output(
        self, output: VGOutput, batch: InstanceBatch, timings: StageTimings
    ) -> tuple[np.ndarray, ReuseReport, None]:
        """One output's ``(samples, report, None)`` under ``reuse=False``:
        the generated-SQL sampling path, with no Storage Manager call."""
        function = self.library.get(output.vg_name)
        report = ReuseReport(
            vg_name=function.name,
            args=tuple(output.model_arg_values(batch.point_dict)),
            source="fresh",
            components_total=function.n_components,
            components_recomputed=function.n_components,
        )
        return self.sampling.sample(output, batch, timings), report, None

    def _land_samples(
        self,
        batch: InstanceBatch,
        matrices: Mapping[str, np.ndarray],
        weeks: list[int],
        timings: StageTimings,
    ) -> None:
        """Load the given weeks (ascending, no repeats) of every output's
        matrix into its samples table.

        Fresh evaluations originally landed through SQL; here the Storage
        Manager bulk-loads exactly the weeks whose statistics must be
        recomputed (the analogue of SQL Server's bulk copy path — generated
        SQL still does all combining and aggregation).
        """
        outputs = self.scenario.vg_outputs
        every_week = len(weeks) == next(iter(matrices.values())).shape[1]
        with self.tracer.stage("sql", timings, stats=self.executor.stats):
            for output in outputs:
                self.executor.execute(self.querygen.drop_samples_table_sql(output.alias))
                self.executor.execute(self.querygen.create_samples_table_sql(output.alias))

        with self.tracer.stage("reuse", timings, attr="storage", weeks=len(weeks)):
            # Column-major bulk load in (world-major, week-minor) row order,
            # without any Python tuples. Every table shares the two key
            # columns, and they say how they are laid out (``tiled_column``):
            # that is what lets the combine join the tables and group by week
            # without reading a key. The value columns are read-only views of
            # the matrices when every week lands.
            world_col = tiled_column(batch.worlds, len(weeks), 1)
            t_col = tiled_column(weeks, 1, len(batch))
            for output in outputs:
                matrix = matrices[output.alias.lower()]
                values = np.ascontiguousarray(
                    matrix if every_week else matrix[:, weeks], dtype=np.float64
                ).reshape(-1)
                values.flags.writeable = False
                self.catalog.table(self.querygen.samples_table(output.alias)).load_columnar(
                    [world_col, t_col, values]
                )

    def _collect_derived_params(self) -> tuple[str, ...]:
        """Parameters read by derived expressions (part of the week memo key)."""
        names: set[str] = set()
        for output in self.scenario.derived_outputs:
            names.update(collect_variables(output.expression))
        names.discard(self.scenario.axis)
        return tuple(sorted(names))

    def _week_keys(
        self,
        point: Mapping[str, Any],
        batch: InstanceBatch,
        matrices: Mapping[str, np.ndarray],
        bases: Optional[Mapping[str, BasisEntry]] = None,
    ) -> list[bytes]:
        """Per week, the content key of its joint samples + relevant parameters.

        A key is fixed-width fields side by side: one digest of the worlds
        and the derived-expression parameters (the same for every week of a
        point), the week index, and each output's digest of its week column
        (:func:`~repro.core.storage.column_digests`). A matrix that is a
        stored basis (``bases``) brings the digests the basis computed once;
        any other matrix is digested here.
        """
        prefix = hashlib.blake2b(digest_size=16)
        # World ids are an int64 array: fixed-width bytes behind their count
        # cannot collide across slices.
        prefix.update(len(batch).to_bytes(8, "little"))
        prefix.update(batch.worlds.tobytes())
        prefix.update(
            repr(tuple((name, point.get(name)) for name in self._derived_params)).encode()
        )
        bases = bases or {}
        columns = []
        for output in self.scenario.vg_outputs:
            alias = output.alias.lower()
            basis = bases.get(alias)
            columns.append(
                basis.digests if basis is not None else column_digests(matrices[alias])
            )
        weeks = _week_bytes(len(columns[0]))
        return list(map(b"".join, zip(repeat(prefix.digest()), weeks, *columns)))

    def _combine_and_aggregate(
        self,
        point: Mapping[str, Any],
        batch: InstanceBatch,
        matrices: Mapping[str, np.ndarray],
        timings: StageTimings,
        use_week_memo: bool = True,
        bases: Optional[Mapping[str, BasisEntry]] = None,
    ) -> AxisStatistics:
        """Every week's statistics: from the week memo where ``use_week_memo``
        finds them, through combine + aggregate SQL for the rest.

        A memo value is one week's statistics row, a read-only float64 array
        in :meth:`ResultAggregator.statistic_columns` order; a point's
        statistics are its weeks' rows side by side. Without the memo
        nothing is hashed or remembered: every week is a miss, and the
        aggregate query's rows — one per week, ordered by ``t`` — are the
        answer as they stand.
        """
        n_components = next(iter(matrices.values())).shape[1]
        tracer = self.tracer
        with tracer.stage("aggregate", timings) as memo_stage:
            if use_week_memo:
                week_keys = self._week_keys(point, batch, matrices, bases)
                memo = self._week_stats_cache
                rows = list(map(memo.get, week_keys))
                missing = [week for week, row in enumerate(rows) if row is None]
            else:
                missing = list(range(n_components))
            self.week_stats_hits += n_components - len(missing)
            self.week_stats_misses += len(missing)
            memo_stage.set(
                week_memo_hits=n_components - len(missing),
                week_memo_misses=len(missing),
            )

        if missing:
            self._land_samples(batch, matrices, missing, timings)
            with tracer.stage("querygen", timings):
                # Parameterized combine: the statement text is constant per
                # scenario (plan-cache friendly); the point binds at execution.
                combine = self.querygen.combine_sql_template()
                aggregate = self.querygen.aggregate_sql()

            with tracer.stage("sql", timings, stats=self.executor.stats):
                self.executor.execute(combine, point)
                result = self.executor.execute(aggregate)

            if not use_week_memo:
                with tracer.stage("aggregate", timings):
                    return self.aggregator.from_aggregate_result(
                        result, n_worlds=len(batch)
                    )

            with tracer.stage("aggregate", timings):
                computed = np.ascontiguousarray(self.aggregator.statistic_columns(result).T)
                computed.flags.writeable = False
                for week, row in zip(result.column("t"), computed):
                    memo[week_keys[int(week)]] = rows[int(week)] = row

        with tracer.stage("aggregate", timings):
            columns = np.ascontiguousarray(
                np.concatenate(rows).reshape(len(week_keys), -1).T
            )
            return self.aggregator.from_columns(columns, n_worlds=len(batch))


# -- the round protocol -------------------------------------------------------


@dataclass(frozen=True)
class RoundResult:
    """One completed round of a :class:`PointEvaluator`.

    ``evaluation`` covers the whole world prefix ``[0, worlds_total)`` — not
    just this round's increment — so its statistics are exact for every world
    spent so far, and the final round's evaluation *is* the point's result.
    """

    index: int
    worlds_total: int
    worlds_added: int
    evaluation: PointEvaluation
    max_ci: float
    converged: bool


class PointEvaluator:
    """Resumable round-based evaluation of one parameter point.

    Evaluates the point in world-*prefix* rounds: round *r* covers worlds
    ``[0, boundary_r)`` of the fixed seed sequence, where the boundaries come
    from a :class:`~repro.core.rounds.RoundPlan` (or an explicit ``prefix``
    passed to :meth:`step` — the serve scheduler's budget allocator uses that
    to extend unresolved points with reallocated worlds). Because the engine's
    basis-extend path fresh-samples only the worlds a previous round did not
    cover, a round ladder costs the same fresh sampling as one-shot
    evaluation, and the final full-prefix round is bitwise identical to it.

    Stopping is the round protocol's pure CI rule
    (:func:`repro.core.rounds.ci_converged` applied to each round's
    statistics): once every output series' half-width is at most
    ``target_ci``, the evaluator is converged and the remaining budget is
    never spent. ``target_ci=None`` (default) runs the full ladder.

    ``evaluate`` substitutes the engine's :meth:`ProphetEngine.evaluate_point`
    with any callable of the same signature — the serve scheduler passes one
    that routes each round through its job queue, so the dispatcher and
    resilience ladder apply unchanged per round.

    Stopping decisions and results read each round's (exact, SQL-produced)
    statistics only. :attr:`moments` is an on-demand roll-up beside them:
    reading it merges each retained round's sample *increment* — an exact
    Shewchuk-partial merge, not a rounding Chan merge — into
    :class:`~repro.core.aggregator.MergeableAxisStats`, the bit-exact
    mergeable moments that let tests pin the round decomposition against
    one-shot evaluation. :meth:`step` never computes them, so a round a
    result waits for does not pay for the oracle.
    """

    def __init__(
        self,
        engine: "ProphetEngine",
        point: Mapping[str, Any],
        *,
        plan: Optional[RoundPlan] = None,
        target_ci: Optional[float] = None,
        z: float = 1.96,
        reuse: bool = True,
        evaluate: Optional[Callable[..., PointEvaluation]] = None,
        tracer: Any = None,
    ) -> None:
        self.engine = engine
        self.point = dict(point)
        self.plan = plan if plan is not None else RoundPlan.over(
            engine.config.sampling.n_worlds
        )
        self.target_ci = target_ci
        self.z = z
        self.reuse = reuse
        self._evaluate = evaluate if evaluate is not None else engine.evaluate_point
        self.tracer = tracer if tracer is not None else engine.tracer
        self.rounds: list[RoundResult] = []
        self.worlds_spent = 0
        self.converged = False
        # Lazily folded exact moments of rounds[:_rounds_folded].
        self._moments: Optional[MergeableAxisStats] = None
        self._moments_complete = True
        self._rounds_folded = 0

    # -- protocol -----------------------------------------------------------

    @property
    def finished(self) -> bool:
        """Converged, or the plan's fixed world budget is exhausted."""
        return self.converged or self.worlds_spent >= self.plan.n_worlds

    @property
    def result(self) -> Optional[PointEvaluation]:
        """The latest round's full-prefix evaluation (None before round 0)."""
        return self.rounds[-1].evaluation if self.rounds else None

    @property
    def max_ci(self) -> float:
        """The latest round's worst CI half-width (inf before round 0)."""
        return self.rounds[-1].max_ci if self.rounds else float("inf")

    def step(self, prefix: Optional[int] = None) -> RoundResult:
        """Evaluate one more round and return it.

        Without ``prefix`` the next :class:`RoundPlan` boundary is used
        (capped at ``plan.n_worlds``); an explicit ``prefix`` may exceed the
        plan — that is how reallocated budget extends an unresolved point —
        but must strictly grow the world prefix.
        """
        if self.converged:
            raise ScenarioError(
                f"point {self.point!r} already converged at "
                f"{self.worlds_spent} worlds"
            )
        if prefix is None:
            if self.worlds_spent >= self.plan.n_worlds:
                raise ScenarioError(
                    "round ladder exhausted; pass an explicit prefix to "
                    "extend past the plan's world budget"
                )
            prefix = min(
                self.plan.next_boundary(self.worlds_spent), self.plan.n_worlds
            )
        prefix = int(prefix)
        if prefix <= self.worlds_spent:
            raise ScenarioError(
                f"round prefix must exceed the {self.worlds_spent} worlds "
                f"already spent, got {prefix}"
            )
        previous = self.worlds_spent
        index = len(self.rounds)
        with self.tracer.span(
            "round",
            index=index,
            worlds_total=prefix,
            worlds_added=prefix - previous,
        ) as span:
            evaluation = self._evaluate(
                self.point, worlds=range(prefix), reuse=self.reuse
            )
            ci = max_ci_halfwidth(evaluation.statistics, self.z)
            converged = self.target_ci is not None and ci <= self.target_ci
            span.set(max_ci=ci, converged=converged)
        self.worlds_spent = prefix
        self.converged = converged
        completed = RoundResult(
            index=index,
            worlds_total=prefix,
            worlds_added=prefix - previous,
            evaluation=evaluation,
            max_ci=ci,
            converged=converged,
        )
        self.rounds.append(completed)
        return completed

    def run(self) -> PointEvaluation:
        """Step the round ladder until converged or the budget is spent."""
        while not self.finished:
            self.step()
        return self.rounds[-1].evaluation

    # -- mergeable moments --------------------------------------------------

    @property
    def moments(self) -> Optional[MergeableAxisStats]:
        """Exact moments of every round's sample increment, folded on read."""
        self._fold_moments()
        return self._moments

    @property
    def moments_complete(self) -> bool:
        """``False`` once a round could not contribute: ``moments`` is partial."""
        self._fold_moments()
        return self._moments_complete

    def _fold_moments(self) -> None:
        """Merge the increments of the rounds :meth:`step` added since a read.

        Result-cache hits ship statistics without sample matrices; such a
        round cannot contribute its increment ``[previous, prefix)``, so the
        moments are marked incomplete (only the rounds' statistics are
        authoritative then) rather than silently wrong.
        """
        for completed in self.rounds[self._rounds_folded:]:
            prefix = completed.worlds_total
            previous = prefix - completed.worlds_added
            increment = {
                alias: np.asarray(matrix)[previous:prefix]
                for alias, matrix in completed.evaluation.samples.items()
            }
            if not increment or any(
                matrix.shape[0] != prefix - previous for matrix in increment.values()
            ):
                self._moments_complete = False
                continue
            stats = MergeableAxisStats.from_matrices(increment)
            if self._moments is None:
                self._moments = stats
            else:
                self._moments.merge(stats)
        self._rounds_folded = len(self.rounds)
