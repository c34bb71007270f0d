"""One merged statistics surface for every backend.

PRs 1–4 grew four stats dialects: the SQL executor's ``ExecutionStats``
(plan cache, vectorization, sampling-plane dispatch), the Storage Manager's
basis counters plus the tier's eviction/spill/fault stats, the engine's
week-memo counters, the evaluation service's ``ServiceStats`` and the
scheduler's job counters. :class:`StatsReport` rolls all of them into
one frozen snapshot with a stable :meth:`to_json` and the human rendering
the CLI ``--stats`` flag prints.

Determinism contract: the report carries **counters only** — never
wall-clock — so two identical runs produce byte-identical ``to_json()``
output (asserted by the API test suite).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

from repro.core.engine import ProphetEngine
from repro.obs.report import TimingReport


@dataclass(frozen=True)
class StatsReport:
    """A point-in-time snapshot of every counter behind one client.

    ``timing`` is the wall-clock side (:class:`~repro.obs.TimingReport`):
    it rides on the report for rendering but is deliberately **excluded**
    from :meth:`to_dict` / :meth:`to_json`, which stay counters-only and
    byte-stable.
    """

    execution: dict[str, Any]
    sampling: dict[str, Any]
    basis: dict[str, Any]
    week_memo: dict[str, Any]
    service: dict[str, Any]
    scheduler: dict[str, Any]
    #: Per-point adaptive outcomes (worlds spent, rounds, CI half-widths).
    #: Present only after an adaptive sweep ran — fixed-budget runs keep
    #: their pre-adaptive JSON byte-identical.
    adaptive: Optional[dict[str, Any]] = None
    timing: Optional[TimingReport] = None

    @classmethod
    def gather(
        cls,
        engine: ProphetEngine,
        service: Any,
        scheduler: Any,
        tracer: Any = None,
    ) -> "StatsReport":
        """Snapshot the counters of one engine, its service and scheduler."""
        stats = engine.executor.stats
        tier = engine.storage.tier
        execution = {
            "statements": stats.statements,
            "plan_cache_hits": stats.plan_cache_hits,
            "plan_cache_misses": stats.plan_cache_misses,
            "vectorized_selects": stats.vectorized_selects,
            "fallback_selects": stats.fallback_selects,
            "rows_vectorized": stats.rows_vectorized,
            "rows_fallback": stats.rows_fallback,
        }
        sampling = {
            "backend": engine.config.sampling.backend,
            "sampled_batched": stats.sampled_batched,
            "sampled_fallback": stats.sampled_fallback,
            "parity_fallbacks": engine.library.total_parity_fallbacks(),
        }
        basis = {
            "exact_hits": engine.storage.exact_hits,
            "mapped_hits": engine.storage.mapped_hits,
            "misses": engine.storage.misses,
            "resident": tier.resident_count,
            "resident_bytes": tier.resident_bytes,
            "spilled": tier.spilled_count,
            **{f"tier_{k}": v for k, v in tier.stats.as_dict().items()},
        }
        week_memo = {
            "hits": engine.week_stats_hits,
            "misses": engine.week_stats_misses,
        }
        return cls(
            execution=execution,
            sampling=sampling,
            basis=basis,
            week_memo=week_memo,
            service={
                "executor_kind": service.executor.kind,
                "executor_workers": service.executor.workers,
                "shard_transport": service.transport.shard_transport,
                # Stale-tmp files swept when the result cache opened — a
                # deterministic counter (a clean run sweeps zero), safe for
                # the byte-stable JSON.
                "cache_tmp_swept": (
                    service.cache.tmp_swept if service.cache is not None else 0
                ),
                **service.stats.as_dict(),
            },
            scheduler={
                "jobs_completed": scheduler.jobs_completed,
                "dedup_hits": scheduler.dedup_hits,
                "jobs_retired_early": scheduler.jobs_retired_early,
                "worlds_spent": scheduler.worlds_spent,
                "worlds_budgeted": scheduler.worlds_budgeted,
            },
            adaptive=scheduler.adaptive_report(),
            timing=TimingReport.gather(engine, service=service, tracer=tracer),
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Nested plain dict; an absent adaptive section is omitted, not null.

        ``timing`` is never included — wall-clock would break the
        byte-stability contract. Serialize it separately via
        ``report.timing.to_dict()`` when you want it.
        """
        payload: dict[str, Any] = {
            "execution": dict(self.execution),
            "sampling": dict(self.sampling),
            "basis": dict(self.basis),
            "week_memo": dict(self.week_memo),
            "service": dict(self.service),
            "scheduler": dict(self.scheduler),
        }
        if self.adaptive is not None:
            payload["adaptive"] = dict(self.adaptive)
        return payload

    def to_json(self) -> str:
        """Stable JSON: sorted keys, counters only — identical runs produce
        identical bytes."""
        return json.dumps(self.to_dict(), sort_keys=True)

    # -- human rendering -----------------------------------------------------

    def render(self) -> str:
        """The ``--stats`` block, exactly as the CLI prints it."""
        e, s, b, w = self.execution, self.sampling, self.basis, self.week_memo
        plan_total = e["plan_cache_hits"] + e["plan_cache_misses"]
        plan_rate = e["plan_cache_hits"] / plan_total if plan_total else 0.0
        lines = [
            "execution stats:",
            f"  plan cache: {e['plan_cache_hits']} hits / "
            f"{e['plan_cache_misses']} misses ({plan_rate:.1%})",
            f"  selects: {e['vectorized_selects']} vectorized "
            f"({e['rows_vectorized']} rows) / {e['fallback_selects']} "
            f"fallback ({e['rows_fallback']} rows)",
            f"  sampling: {s['sampled_batched']} worlds batched / "
            f"{s['sampled_fallback']} worlds per-world loop "
            f"({s['backend']} backend, "
            f"{s['parity_fallbacks']} parity-guard fallbacks)",
            f"  basis reuse: {b['exact_hits']} exact / "
            f"{b['mapped_hits']} mapped / {b['misses']} fresh",
            f"  basis tier: {b['resident']} resident "
            f"({b['resident_bytes'] / 1024:.0f} KiB) / {b['spilled']} spilled; "
            f"{b['tier_evictions']} evicted, {b['tier_spills']} spills, "
            f"{b['tier_faults']} faults, {b['tier_dropped']} dropped",
            f"  week memo: {w['hits']} hits / {w['misses']} misses",
            *self._render_service(),
        ]
        if self.timing is not None:
            lines.append(self.timing.render())
        return "\n".join(lines)

    def _render_service(self) -> list[str]:
        sv, sc = self.service, self.scheduler
        cache_total = sv["cache_hits"] + sv["cache_misses"]
        cache_rate = sv["cache_hits"] / cache_total if cache_total else 0.0
        lines = [
            "service stats:",
            f"  result cache: {sv['cache_hits']} hits / "
            f"{sv['cache_misses']} misses ({cache_rate:.1%}), "
            f"{sv.get('cache_tmp_swept', 0)} stale tmp swept",
            f"  point tasks: {sv['shard_tasks']} "
            f"({sv['executor_kind']} x{sv['executor_workers']}), "
            f"{sv['sampled_batched']} worlds batched / "
            f"{sv['sampled_fallback']} worlds per-world loop",
            f"  resilience: {sv['shard_retries']} task retries / "
            f"{sv['shard_timeouts']} timeouts / "
            f"{sv['pool_rebuilds']} pool rebuilds / "
            f"{sv['inline_rescues']} inline rescues",
            f"  transport: {sv.get('shard_transport', 'pickle')} — "
            f"{sv.get('bytes_zero_copy', 0)} B zero-copy / "
            f"{sv.get('bytes_shipped', 0)} B pickled, "
            f"{sv.get('segments_leased', 0)} segments leased / "
            f"{sv.get('segments_reclaimed', 0)} reclaimed, "
            f"{sv.get('transport_fallbacks', 0)} fallbacks",
            f"  scheduler: {sc['jobs_completed']} jobs, "
            f"{sc['dedup_hits']} deduplicated",
        ]
        if sc.get("worlds_budgeted", 0):
            lines.append(
                f"  adaptive: {sc['jobs_retired_early']} points retired "
                f"early, {sc['worlds_spent']} worlds spent of "
                f"{sc['worlds_budgeted']} budgeted"
            )
        if self.adaptive is not None:
            points = self.adaptive.get("points", [])
            converged = sum(1 for p in points if p.get("converged"))
            lines.append(
                f"  adaptive points: {len(points)} swept, {converged} "
                f"converged at target_ci={self.adaptive.get('target_ci')}"
            )
        return lines
