"""From raw repeat records to the ledger's named metrics.

Names, units, directions and bounds of the gated metrics are declared once,
in ``BENCHMARK.json`` at the repository root; this module only computes the
values. ``END_TO_END`` adds what that file's fixed schema cannot hold: the
workloads each metric is native to, and an absolute floor under the
relative bound for metrics whose medians are tiny.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Any, Optional, Sequence

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

SWEEPS = ("grid_reuse", "adaptive_rounds", "fresh_fanout")
ALL = SWEEPS[:1] + ("interactive_walk",) + SWEEPS[1:]

#: The nine end-to-end metrics. ``on`` lists the workloads a metric is
#: native to; on the others the gated ones carry a stand-in (see README).
#: ``gated=False``: ledger-only — exact ratios that the benchmark contract
#: (never zero, steady across seeds) cannot express; ``compare.py`` requires
#: them not to rise at all.
END_TO_END: dict[str, dict[str, Any]] = {
    "setup_s": {"on": ALL, "floor": 0.05},
    "points_per_s": {"on": SWEEPS},
    "first_result_s": {"on": ("adaptive_rounds",)},
    "refresh_new_ms_p50": {"on": ("interactive_walk",)},
    "refresh_new_ms_p95": {"on": ("interactive_walk",)},
    "refresh_revisit_ms_p50": {"on": ("interactive_walk",), "floor": 0.03},
    "peak_rss_mb": {"on": ALL},
    "worlds_spent_frac": {
        "on": ("adaptive_rounds",), "gated": False, "unit": "ratio", "better": "lower",
    },
    "failed_frac": {"on": ALL, "gated": False, "unit": "ratio", "better": "lower"},
}


def load_benchmark() -> dict[str, Any]:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def supported_percentile(n: int, ladder: Sequence[float] = (50, 75, 90, 95, 99)) -> float:
    """The highest percentile of the ladder with >= 10 samples beyond it."""
    supported = [p for p in ladder if n * (1.0 - p / 100.0) >= 10.0]
    return supported[-1] if supported else 0.0


def summary(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles, min and count of one metric over the repeats."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "n": len(values),
    }


def spread(stats: dict[str, float]) -> float:
    """Interquartile distance as a share of the median."""
    return abs(stats["q3"] - stats["q1"]) / abs(stats["median"]) if stats["median"] else 0.0


# -- end to end ---------------------------------------------------------------


def end_to_end(record: dict[str, Any]) -> dict[str, float]:
    """The nine end-to-end values of one untraced repeat."""
    name = record["workload"]
    # On the walk only the never-visited points count as work done: revisits
    # are served from the stats cache in ~0.1 ms.
    points_per_s = (len(record["new_ms"]) or record["operations"]) / record["wall_s"]
    # Stand-in where a latency metric is not native: mean time per result.
    first_result_s = 1.0 / points_per_s
    new_p50 = new_p95 = revisit_p50 = 1e3 / points_per_s
    if name in END_TO_END["first_result_s"]["on"]:
        first_result_s = record["first_result_s"]
    if name in END_TO_END["refresh_new_ms_p50"]["on"]:
        new_p50 = statistics.median(record["new_ms"])
        new_p95 = percentile(record["new_ms"], 95)
        revisit_p50 = statistics.median(record["revisit_ms"])
    scheduler = record["counters"].get("scheduler") or {}
    budgeted = scheduler.get("worlds_budgeted", 0)
    return {
        "setup_s": record["setup_s"],
        "points_per_s": points_per_s,
        "first_result_s": first_result_s,
        "refresh_new_ms_p50": new_p50,
        "refresh_new_ms_p95": new_p95,
        "refresh_revisit_ms_p50": revisit_p50,
        "peak_rss_mb": record["peak_rss_mb"],
        "worlds_spent_frac": scheduler["worlds_spent"] / budgeted if budgeted else 1.0,
        "failed_frac": record["failed"] / record["operations"],
    }


def refresh_latencies(records: list[dict[str, Any]]) -> dict[str, float]:
    """The walk's refresh metrics over all repeats.

    Every repeat performs the same moves, so the median over repeats is
    taken per move first and the percentile over moves second. A slow spell
    of the host hits different moves in different repeats; the other order
    (a percentile per repeat, then their median) let it through into p95.
    """
    def per_move(key: str) -> list[float]:
        return [statistics.median(column) for column in zip(*(r[key] for r in records))]

    new_ms, revisit_ms = per_move("new_ms"), per_move("revisit_ms")
    return {
        "refresh_new_ms_p50": statistics.median(new_ms),
        "refresh_new_ms_p95": percentile(new_ms, 95),
        "refresh_revisit_ms_p50": statistics.median(revisit_ms),
    }


def end_to_end_table(records: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Every end-to-end metric of one workload, summarised over its repeats."""
    per_repeat = [end_to_end(record) for record in records]
    table = {m: summary([values[m] for values in per_repeat]) for m in END_TO_END}
    if records[0]["workload"] in END_TO_END["refresh_new_ms_p50"]["on"]:
        for metric, value in refresh_latencies(records).items():
            table[metric]["median"] = value
    return table


# -- per layer ----------------------------------------------------------------


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(
    timed: list[dict[str, Any]],
    traced: dict[str, Any],
    obs: Optional[dict[str, Any]],
) -> dict[str, float]:
    """Every per-layer metric of one workload.

    Span times come from the traced pass; *counters* are exact values from
    ``client.stats().to_json()`` / ``TimingReport`` of the untraced repeats
    (timings among them as the median over those repeats).
    """
    spans = traced["spans"]

    def med(read) -> float:
        return statistics.median(read(record) for record in timed)

    def self_s(*names: str) -> float:
        return sum(spans[n]["self_s"] for n in names if n in spans)

    def layer_self(layer: str) -> float:
        return sum(row["self_s"] for name, row in spans.items() if name.startswith(layer + ":"))

    def calls(*names: str) -> float:
        return sum(spans[n]["calls"] for n in names if n in spans)

    def layer_calls(layer: str) -> float:
        return sum(row["calls"] for name, row in spans.items() if name.startswith(layer + ":"))

    counters = timed[0]["counters"]
    execution, basis, memo = counters["execution"], counters["basis"], counters["week_memo"]
    scheduler = counters.get("scheduler") or {}
    service = counters.get("service") or {}
    adaptive = counters.get("adaptive") or {}
    wall = med(lambda r: r["wall_s"])
    def clocked(read) -> float:
        """A time the program measured itself, restated like the harness's own."""
        return med(lambda r: read(r["timing"]) / r["slowdown"])

    wait_s = clocked(lambda t: t["parallel_seconds"])
    busy_s = clocked(lambda t: t["worker_seconds"])
    workers = service.get("executor_workers", 1)
    fanned_out = service.get("executor_kind") == "process"
    best_match_calls = calls("core.fingerprint:best_match")
    hits = basis["exact_hits"] + basis["mapped_hits"]
    plans = execution["plan_cache_hits"] + execution["plan_cache_misses"]

    values = {
        "dsl.parse_s": traced["setup_spans"].get("dsl:parse_scenario", {}).get(
            "total_s", 0.0
        ),
        "api.self_s": self_s("api:timed"),
        "api.worlds_per_s": med(
            lambda r: end_to_end(r)["points_per_s"] * r["n_worlds"]
        ),
        "core.online.refresh_self_s": self_s("core.online:refresh"),
        "serve.scheduler.self_s": layer_self("serve.scheduler"),
        "serve.scheduler.jobs": scheduler.get("jobs_completed", 0),
        "serve.scheduler.rounds": sum(p["rounds"] for p in adaptive.get("points", ())),
        "serve.scheduler.worlds_spent": scheduler.get("worlds_spent", 0),
        "serve.scheduler.worlds_budgeted": scheduler.get("worlds_budgeted", 0),
        "serve.scheduler.jobs_retired_early": scheduler.get("jobs_retired_early", 0),
        "serve.scheduler.dedup_hits": scheduler.get("dedup_hits", 0),
        "serve.service.self_s": layer_self("serve.service"),
        "serve.service.shard_tasks": service.get("shard_tasks", 0),
        "serve.service.shard_generations": service.get("shard_generations", 0),
        "serve.service.shard_retries": service.get("shard_retries", 0),
        "serve.service.inline_rescues": service.get("inline_rescues", 0),
        "serve.executors.pool_start_s": med(lambda r: r["warmup_s"]),
        "serve.executors.submit_s": self_s("serve.executors:submit"),
        "serve.executors.inflight_s": spans.get("serve.executors:inflight", {}).get(
            "total_s", 0.0
        ),
        "serve.executors.wait_s": wait_s,
        "serve.executors.worker_busy_s": busy_s,
        "serve.executors.parallel_efficiency": _ratio(busy_s, workers * wait_s),
        "serve.executors.worker_peak_rss_mb": (
            med(lambda r: r["worker_peak_rss_mb"]) if fanned_out else 0.0
        ),
        "serve.transport.lease_s": self_s("serve.transport:lease"),
        "serve.transport.pack_s": self_s("serve.transport:pack", "serve.transport:reserve"),
        "serve.transport.view_s": self_s("serve.transport:view"),
        "serve.transport.release_s": self_s("serve.transport:release"),
        "serve.transport.task_bytes_max": traced["tallies"].get(
            "serve.transport.task_bytes_max", 0
        ),
        "serve.transport.bytes_zero_copy": service.get("bytes_zero_copy", 0),
        "serve.transport.bytes_shipped": service.get("bytes_shipped", 0),
        "serve.transport.segments_leased": service.get("segments_leased", 0),
        "serve.transport.segments_leaked": max(r["segments_leaked"] for r in timed),
        "serve.transport.fallbacks": service.get("transport_fallbacks", 0),
        "core.engine.evaluate_calls": calls("core.engine:evaluate_point"),
        "core.engine.self_s": layer_self("core.engine"),
        "core.engine.week_memo_hit_rate": _ratio(memo["hits"], memo["hits"] + memo["misses"]),
        "core.engine.stage_querygen_s": clocked(lambda t: t["stages"]["querygen"]),
        "core.engine.stage_sql_s": clocked(lambda t: t["stages"]["sql"]),
        "core.engine.stage_storage_s": clocked(lambda t: t["stages"]["storage"]),
        "core.engine.stage_aggregate_s": clocked(lambda t: t["stages"]["aggregate"]),
        "core.engine.unstaged_s": med(
            lambda r: r["wall_s"] - r["timing"]["total_seconds"] / r["slowdown"]
        ),
        "core.instance.at_point_s": self_s("core.instance:at_point"),
        "core.instance.at_point_calls": calls("core.instance:at_point"),
        "core.storage.acquire_self_s": self_s("core.storage:acquire"),
        "core.storage.store_self_s": self_s("core.storage:store"),
        "core.storage.validated_entry_self_s": self_s("core.storage:validated_entry"),
        "core.storage.acquire_calls": calls("core.storage:acquire"),
        "core.storage.exact_hits": basis["exact_hits"],
        "core.storage.mapped_hits": basis["mapped_hits"],
        "core.storage.misses": basis["misses"],
        "core.storage.hit_rate": _ratio(hits, hits + basis["misses"]),
        "core.fingerprint.best_match_self_s": self_s(
            "core.fingerprint:best_match", "core.fingerprint:record_mapping"
        ),
        "core.fingerprint.best_match_calls": best_match_calls,
        "core.fingerprint.candidates_per_match": _ratio(
            traced["tallies"].get("core.fingerprint.candidates", 0), best_match_calls
        ),
        "core.fingerprint.fingerprint_of_self_s": self_s("core.fingerprint:fingerprint_of"),
        "core.fingerprint.fingerprint_of_calls": calls("core.fingerprint:fingerprint_of"),
        "core.basis_store.self_s": layer_self("core.basis_store"),
        "core.basis_store.calls": layer_calls("core.basis_store"),
        "core.basis_store.resident": basis["resident"],
        "core.basis_store.resident_bytes": basis["resident_bytes"],
        "core.basis_store.tier_spills": basis["tier_spills"],
        "core.basis_store.tier_faults": basis["tier_faults"],
        "vg.self_s": layer_self("vg"),
        "vg.invoke_calls": calls("vg:invoke"),
        "vg.invoke_batch_calls": calls("vg:invoke_batch"),
        "vg.invoke_components_calls": calls("vg:invoke_components"),
        "vg.invocations": timed[0]["vg_invocations"],
        "vg.component_samples": timed[0]["vg_component_samples"],
        "core.sampling.self_s": layer_self("core.sampling"),
        "core.sampling.sample_calls": calls("core.sampling:sample"),
        # Fleet-wide when a service counted the workers' rows too.
        "core.sampling.sampled_batched": service.get(
            "sampled_batched", counters["sampling"]["sampled_batched"]
        ),
        "core.sampling.sampled_fallback": service.get(
            "sampled_fallback", counters["sampling"]["sampled_fallback"]
        ),
        "core.querygen.self_s": layer_self("core.querygen"),
        "core.querygen.calls": layer_calls("core.querygen"),
        "sqldb.execute_self_s": layer_self("sqldb"),
        "sqldb.statements": execution["statements"],
        "sqldb.plan_cache_hit_rate": _ratio(execution["plan_cache_hits"], plans),
        "sqldb.vectorized_selects": execution["vectorized_selects"],
        "sqldb.fallback_selects": execution["fallback_selects"],
        "sqldb.rows_vectorized": execution["rows_vectorized"],
        "sqldb.rows_fallback": execution["rows_fallback"],
        "core.aggregator.from_result_self_s": self_s("core.aggregator:from_aggregate_result"),
        "core.aggregator.moments_self_s": self_s(
            "core.aggregator:from_matrices", "core.aggregator:merge"
        ),
        "core.aggregator.moments_calls": calls(
            "core.aggregator:from_matrices", "core.aggregator:merge"
        ),
        "core.rounds.ci_self_s": self_s("core.rounds:max_ci_halfwidth"),
        "core.rounds.ci_calls": calls("core.rounds:max_ci_halfwidth"),
        "obs.tracer_on_overhead_frac": obs["wall_s"] / wall - 1.0 if obs else 0.0,
        "bench.trace_overhead_frac": traced["wall_s"] / wall - 1.0,
        "bench.spans": traced["span_count"],
        "process.cpu_s": med(lambda r: r["cpu_s"]),
    }
    return {name: float(value) for name, value in values.items()}


def accounted_share(traced: dict[str, Any]) -> float:
    """Sum of every span's self time inside the timed section (``api.self_s``
    included) over that section's wall; in-flight futures ran beside it, and
    the pacer's samples belong to neither side."""
    spans = traced["spans"]
    beside = ("serve.executors:inflight", "bench:pacer")
    own = sum(row["self_s"] for name, row in spans.items() if name not in beside)
    paced = spans.get("bench:pacer", {}).get("total_s", 0.0)
    return _ratio(own, spans["api:timed"]["total_s"] - paced)
