#!/usr/bin/env python
"""The perf-trajectory runner: one command, one ``BENCH_<pr>.json``.

Runs the paper-shaped benchmark suite through the public client façade and
emits a machine-readable result file (wall-clock, speedup ratios, reuse and
cache hit rates, worlds/sec) so each PR commits a point on the performance
curve instead of only holding a guard floor. Re-anchors diff the
``BENCH_*.json`` sequence at the repo root to see the trajectory.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py                 # full run
    PYTHONPATH=src python benchmarks/run_all.py --smoke         # CI-sized
    PYTHONPATH=src python benchmarks/run_all.py --output BENCH_8.json \
        --trace bench_trace.json

The emitted document validates against :mod:`benchmarks.bench_schema`
(hand-rolled — no external jsonschema dependency)::

    python benchmarks/bench_schema.py BENCH_8.json

Numbers are wall-clock and vary by host; the *shape* (speedups >= 1 where
reuse applies, hit rates, parity booleans) is the stable, comparable part.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.api import (  # noqa: E402  (sys.path bootstrap above)
    CacheConfig,
    ClientConfig,
    ProphetClient,
    SamplingConfig,
)
from repro.core.config import EngineConfig  # noqa: E402
from repro.core.rounds import max_ci_halfwidth  # noqa: E402
from repro.serve import (  # noqa: E402
    EngineSpec,
    EvaluationService,
    InlineExecutor,
    ProcessExecutor,
    TransportConfig,
    shm_available,
)
from transport_ops import (  # noqa: E402
    generation_payload,
    ship_pickle,
    ship_shm,
    synthetic_snapshot,
)

#: The PR number this harness stamps into the output (and the filename).
PR_NUMBER = 9

#: Schema identity checked by benchmarks/bench_schema.py.
SCHEMA_VERSION = 1

#: The Figure-2-shaped scenario every measurement runs: a 3 x 3 x 2 sweep
#: grid over two VG models and a derived output — the same shape the
#: serve/api/obs parity suites pin.
BENCH_DSL = """
DECLARE PARAMETER @current AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 52 STEP BY 26;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 52 STEP BY 26;
DECLARE PARAMETER @feature AS SET (12, 36);
SELECT DemandModel(@current, @feature) AS demand,
       CapacityModel(@current, @purchase1, @purchase2) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
GRAPH OVER @current EXPECT overload WITH red;
OPTIMIZE SELECT @purchase1, @purchase2 FROM results
WHERE MAX(EXPECT overload) < 0.5
FOR MAX @purchase1, MAX @purchase2
"""


#: The adaptive-sweep grid: same shape, a denser @feature axis — 3 x 3 x 4
#: = 36 points, the sweep the adaptive budget allocator is measured on.
ADAPTIVE_DSL = BENCH_DSL.replace(
    "@feature AS SET (12, 36)", "@feature AS SET (0, 12, 24, 36)"
)


def _client(
    n_worlds: int,
    *,
    backend: str = "batched",
    cache_dir: Optional[str] = None,
    dsl: str = BENCH_DSL,
    refinement_first: Optional[int] = None,
) -> ProphetClient:
    config = ClientConfig(
        sampling=SamplingConfig(
            n_worlds=n_worlds,
            refinement_first=refinement_first or max(1, n_worlds // 2),
            backend=backend,
        ),
        cache=CacheConfig(dir=cache_dir),
    )
    return ProphetClient.open(dsl, "demo", config=config)


def _sweep_points(client: ProphetClient, limit: Optional[int]) -> list[dict[str, Any]]:
    points = [dict(p) for p in client.scenario.sweep_space.grid()]
    return points[:limit] if limit is not None else points


def _timed_sweep(client: ProphetClient, points: list[dict[str, Any]]) -> tuple[float, list[Any]]:
    started = time.perf_counter()
    results = list(client.sweep(points))
    elapsed = time.perf_counter() - started
    failures = [r.error for r in results if not r.ok]
    if failures:
        raise RuntimeError(f"sweep failed: {failures}")
    return elapsed, results


def _statistics_digest(results: list[Any]) -> bytes:
    """Concatenated expectation bytes of every result, for parity checks."""
    chunks = []
    for result in results:
        stats = result.statistics
        for alias in sorted(stats.aliases()):
            chunks.append(stats.expectation(alias).tobytes())
    return b"".join(chunks)


def _rate(hits: int, total: int) -> float:
    return hits / total if total else 0.0


def bench_fresh_and_reuse(
    n_worlds: int, points_limit: Optional[int], trace_file: Optional[str]
) -> tuple[dict[str, Any], dict[str, Any], dict[str, Any], bytes]:
    """Cold sweep, warm re-sweep on the same client, plan-cache rates.

    The warm pass re-submits the identical grid: the fingerprint-driven
    reuse plane (basis store + stats cache) should make it dramatically
    cheaper — that ratio is the paper's headline mechanism, tracked here
    per PR.
    """
    client = _client(n_worlds)
    if trace_file is not None:
        client = client.with_observability(trace_file=trace_file)
    points = _sweep_points(client, points_limit)

    fresh_seconds, results = _timed_sweep(client, points)
    fresh = {
        "wall_seconds": round(fresh_seconds, 4),
        "points": len(points),
        "n_worlds": n_worlds,
        "worlds_per_second": round(len(points) * n_worlds / fresh_seconds, 2),
    }

    warm_seconds, _ = _timed_sweep(client, points)
    counters = json.loads(client.stats().to_json())
    basis = counters["basis"]
    basis_hits = basis["exact_hits"] + basis["mapped_hits"]
    memo = counters["week_memo"]
    reuse = {
        "wall_seconds": round(warm_seconds, 4),
        "speedup_vs_fresh": round(fresh_seconds / warm_seconds, 2),
        "basis_hit_rate": round(_rate(basis_hits, basis_hits + basis["misses"]), 4),
        "exact_hits": basis["exact_hits"],
        "mapped_hits": basis["mapped_hits"],
        "misses": basis["misses"],
        "stats_memo_hit_rate": round(_rate(memo["hits"], memo["hits"] + memo["misses"]), 4),
    }

    execution = counters["execution"]
    plan_total = execution["plan_cache_hits"] + execution["plan_cache_misses"]
    plan_cache = {
        "hits": execution["plan_cache_hits"],
        "misses": execution["plan_cache_misses"],
        "hit_rate": round(_rate(execution["plan_cache_hits"], plan_total), 4),
    }

    if trace_file is not None:
        client.export_trace()
    client.close()
    return fresh, reuse, plan_cache, _statistics_digest(results)


def bench_batched_vs_loop(n_worlds: int, points_limit: Optional[int], batched_digest: bytes) -> dict[str, Any]:
    """The vectorized sampling plane against the per-world loop, plus parity.

    Reports per-stage engine timings for each backend, and a *single-round*
    leg (``refinement_first=n_worlds``): the default anytime protocol slices
    each generation into rounds, and the batched backend's fixed per-round
    SQL cost (table churn + one ordered readback per slice) amortizes
    poorly over small rounds — BENCH_8's 0.87x was exactly that. The two
    speedups bracket the round-size effect instead of hiding it.
    """
    timings = {}
    digests = {}
    stages = {}
    single = {}
    for backend in ("batched", "loop"):
        client = _client(n_worlds, backend=backend)
        points = _sweep_points(client, points_limit)
        timings[backend], results = _timed_sweep(client, points)
        stages[backend] = {
            stage: round(seconds, 4)
            for stage, seconds in client.stats().timing.stages.items()
        }
        digests[backend] = _statistics_digest(results)
        client.close()

        single_client = _client(n_worlds, backend=backend, refinement_first=n_worlds)
        single[backend], single_results = _timed_sweep(single_client, points)
        digests[f"{backend}_single"] = _statistics_digest(single_results)
        single_client.close()
    return {
        "batched_seconds": round(timings["batched"], 4),
        "loop_seconds": round(timings["loop"], 4),
        "speedup": round(timings["loop"] / timings["batched"], 2),
        "parity": digests["batched"]
        == digests["loop"]
        == digests["batched_single"]
        == digests["loop_single"]
        == batched_digest,
        "stages": stages,
        "single_round": {
            "batched_seconds": round(single["batched"], 4),
            "loop_seconds": round(single["loop"], 4),
            "speedup": round(single["loop"] / single["batched"], 2),
        },
    }


def bench_result_cache(n_worlds: int, points_limit: Optional[int]) -> dict[str, Any]:
    """A persistent-cache cold run vs a fresh client warm rerun."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        cold_client = _client(n_worlds, cache_dir=cache_dir)
        points = _sweep_points(cold_client, points_limit)
        cold_seconds, _ = _timed_sweep(cold_client, points)
        cold_client.close()

        warm_client = _client(n_worlds, cache_dir=cache_dir)
        warm_seconds, _ = _timed_sweep(warm_client, points)
        service = json.loads(warm_client.stats().to_json())["service"]
        warm_client.close()
    hits, misses = service["cache_hits"], service["cache_misses"]
    return {
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "speedup": round(cold_seconds / warm_seconds, 2),
        "hit_rate": round(_rate(hits, hits + misses), 4),
    }


def bench_adaptive_sweep(n_worlds: int, points_limit: Optional[int]) -> dict[str, Any]:
    """Worlds saved by CI-targeted adaptive sampling, at equal confidence.

    A fixed-budget sweep of the denser 36-point grid sets the baseline and
    the confidence yardstick: the target half-width is derived from the
    *worst* full-budget CI (x1.25), so every point provably converges at or
    before its full budget — the saving measured here is pure early
    retirement, not looser answers. The parity leg re-runs with an
    unreachable target and must reproduce the fixed-budget bytes exactly.
    """
    min_worlds = max(1, n_worlds // 8)

    fixed_client = _client(n_worlds, dsl=ADAPTIVE_DSL)
    points = _sweep_points(fixed_client, points_limit)
    fixed_seconds, fixed_results = _timed_sweep(fixed_client, points)
    fixed_digest = _statistics_digest(fixed_results)
    target_ci = round(
        max(max_ci_halfwidth(r.statistics) for r in fixed_results) * 1.25, 6
    )
    fixed_client.close()

    adaptive_client = _client(n_worlds, dsl=ADAPTIVE_DSL).with_adaptive(
        target_ci=target_ci, min_worlds=min_worlds
    )
    adaptive_seconds, _ = _timed_sweep(adaptive_client, points)
    scheduler = json.loads(adaptive_client.stats().to_json())["scheduler"]
    adaptive_client.close()

    parity_client = _client(n_worlds, dsl=ADAPTIVE_DSL).with_adaptive(
        target_ci=1e-12, min_worlds=min_worlds
    )
    _, parity_results = _timed_sweep(parity_client, points)
    parity_ok = _statistics_digest(parity_results) == fixed_digest
    parity_client.close()

    budgeted = scheduler["worlds_budgeted"]
    spent = scheduler["worlds_spent"]
    return {
        "points": len(points),
        "n_worlds": n_worlds,
        "target_ci": target_ci,
        "fixed_seconds": round(fixed_seconds, 4),
        "adaptive_seconds": round(adaptive_seconds, 4),
        "worlds_budgeted": budgeted,
        "worlds_spent": spent,
        "worlds_saved": budgeted - spent,
        "saving_fraction": round(_rate(budgeted - spent, budgeted), 4),
        "points_retired_early": scheduler["jobs_retired_early"],
        "parity_ok": parity_ok,
    }


class _RecordingExecutor(InlineExecutor):
    """Inline execution that records each task's pickled size.

    ``kind = "process"`` routes the service down the real fan-out path
    (shard tasks, snapshot shipping) while the tasks still run in-process,
    so the recorded bytes are exactly what a pool worker would receive.
    """

    kind = "process"

    def __init__(self) -> None:
        super().__init__()
        self.task_bytes: list[int] = []

    def submit(self, fn, *args):
        self.task_bytes.append(
            len(pickle.dumps((fn, args), protocol=pickle.HIGHEST_PROTOCOL))
        )
        return super().submit(fn, *args)


def _transport_spec(n_worlds: int) -> EngineSpec:
    return EngineSpec.from_builder(
        "risk_vs_cost", config=EngineConfig(
            sampling=SamplingConfig(n_worlds=n_worlds),
        ), purchase_step=8
    )


_TRANSPORT_POINT = {"purchase1": 8, "purchase2": 24, "feature": 12}
_TRANSPORT_WARMUP = {"purchase1": 0, "purchase2": 0, "feature": 44}


def _max_task_bytes(n_worlds: int, transport: Optional[TransportConfig]) -> int:
    """Largest task pickle one fresh fan-out ships at ``n_worlds``."""
    executor = _RecordingExecutor()
    service = EvaluationService(
        _transport_spec(n_worlds),
        executor=executor,
        shards=8,
        min_shard_worlds=1,
        transport=transport,
    )
    service.evaluate(_TRANSPORT_POINT, reuse=False)
    service.close()
    return max(executor.task_bytes)


def bench_transport(smoke: bool) -> Optional[dict[str, Any]]:
    """The zero-copy shard transport: task-pickle growth, op cost, parity.

    * task bytes: the largest fan-out task pickle at 64 vs 512 worlds —
      O(1) under shm (descriptors only), O(n_worlds) under pickle;
    * op speedup: shipping 8-shard generations (world slices + result
      matrices + a two-entry hot snapshot re-pickled per shard) through
      arena pack + segment views vs per-task pickle round-trips;
    * parity: an inline-serve sweep digest must be bit-identical across
      transports;
    * e2e (>= 2 cores only): fresh ``n_worlds=400`` evaluations through a
      2-worker pool, pickle vs shm wall-clock.

    Returns ``None`` (section omitted) where POSIX shm is unavailable.
    """
    if not shm_available():
        return None
    shm = TransportConfig(shard_transport="shm")

    # Task-byte probes are one inline evaluation each — cheap enough to
    # keep full-sized in smoke mode, and the O(1)-vs-O(n) contrast needs
    # the 8x world spread.
    small, large = 64, 512
    task_bytes = {
        "pickle_small": _max_task_bytes(small, None),
        "pickle_large": _max_task_bytes(large, None),
        "shm_small": _max_task_bytes(small, shm),
        "shm_large": _max_task_bytes(large, shm),
    }
    # Worlds pickle at ~3 bytes each; demand at least 1 byte per extra
    # world in the largest shard so the pickle leg provably grows while
    # the shm leg stays flat.
    o1 = (
        abs(task_bytes["shm_large"] - task_bytes["shm_small"]) < 256
        and task_bytes["pickle_large"] - task_bytes["pickle_small"] > (large - small) // 8
    )

    rounds = 30
    snapshot = synthetic_snapshot()
    shard_worlds, shard_results = generation_payload()
    # Best-of-3 per leg: single-shot wall clocks flake on loaded hosts.
    op_pickle = min(
        ship_pickle(snapshot, shard_worlds, shard_results, rounds) for _ in range(3)
    )
    op_shm = min(
        ship_shm(snapshot, shard_worlds, shard_results, rounds) for _ in range(3)
    )

    digests = {}
    for name, transport in (("pickle", None), ("shm", shm)):
        client = _client(20 if smoke else 64).with_serving(
            executor="inline", shards=4, min_shard_worlds=1
        )
        if transport is not None:
            client = client.with_transport(shard_transport="shm")
        points = _sweep_points(client, 6 if smoke else None)
        _, results = _timed_sweep(client, points)
        digests[name] = _statistics_digest(results)
        client.close()

    section: dict[str, Any] = {
        "n_worlds": large,
        "shards": 8,
        "task_bytes_pickle_small": task_bytes["pickle_small"],
        "task_bytes_pickle_large": task_bytes["pickle_large"],
        "task_bytes_shm_small": task_bytes["shm_small"],
        "task_bytes_shm_large": task_bytes["shm_large"],
        "task_bytes_o1": o1,
        "op_pickle_seconds": round(op_pickle, 4),
        "op_shm_seconds": round(op_shm, 4),
        "op_speedup": round(op_pickle / op_shm, 2),
        "parity": digests["pickle"] == digests["shm"],
    }

    cores = os.cpu_count() or 1
    if cores >= 2:
        e2e_worlds = 120 if smoke else 400
        seconds = {}
        e2e_digests = {}
        for name, transport in (("pickle", None), ("shm", shm)):
            with ProcessExecutor(2) as pool:
                service = EvaluationService(
                    _transport_spec(e2e_worlds),
                    executor=pool,
                    shards=2,
                    transport=transport,
                )
                service.evaluate(_TRANSPORT_WARMUP, worlds=range(8), reuse=False)
                started = time.perf_counter()
                evaluation = service.evaluate(_TRANSPORT_POINT, reuse=False)
                seconds[name] = time.perf_counter() - started
                stats = evaluation.statistics
                e2e_digests[name] = b"".join(
                    stats.expectation(alias).tobytes()
                    for alias in sorted(stats.aliases())
                )
                service.close()
        section["e2e"] = {
            "cores": cores,
            "n_worlds": e2e_worlds,
            "pickle_seconds": round(seconds["pickle"], 4),
            "shm_seconds": round(seconds["shm"], 4),
            "speedup": round(seconds["pickle"] / seconds["shm"], 2),
            "parity": e2e_digests["pickle"] == e2e_digests["shm"],
        }
    return section


def run(mode: str, trace_file: Optional[str]) -> dict[str, Any]:
    smoke = mode == "smoke"
    n_worlds = 20 if smoke else 100
    points_limit = 6 if smoke else None

    fresh, reuse, plan_cache, digest = bench_fresh_and_reuse(
        n_worlds, points_limit, trace_file
    )
    batched_vs_loop = bench_batched_vs_loop(n_worlds, points_limit, digest)
    result_cache = bench_result_cache(n_worlds, points_limit)
    adaptive_sweep = bench_adaptive_sweep(n_worlds, points_limit)
    transport = bench_transport(smoke)

    benchmarks = {
        "fresh_sweep": fresh,
        "reuse_sweep": reuse,
        "batched_vs_loop": batched_vs_loop,
        "result_cache": result_cache,
        "plan_cache": plan_cache,
        "adaptive_sweep": adaptive_sweep,
    }
    if transport is not None:
        benchmarks["transport"] = transport

    return {
        "schema_version": SCHEMA_VERSION,
        "pr": PR_NUMBER,
        "mode": mode,
        "scenario": {
            "n_worlds": n_worlds,
            "sweep_points": fresh["points"],
        },
        "benchmarks": benchmarks,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: fewer worlds and sweep points, same measurements",
    )
    parser.add_argument(
        "--output",
        default=f"BENCH_{PR_NUMBER}.json",
        help="where to write the result document (default: %(default)s)",
    )
    parser.add_argument(
        "--trace",
        dest="trace_file",
        metavar="FILE",
        default=None,
        help="also export a Chrome trace of the fresh+reuse sweeps",
    )
    args = parser.parse_args(argv)

    document = run("smoke" if args.smoke else "full", args.trace_file)
    Path(args.output).write_text(json.dumps(document, indent=2) + "\n")

    bench = document["benchmarks"]
    print(f"wrote {args.output} (mode: {document['mode']})")
    print(
        f"  fresh sweep: {bench['fresh_sweep']['wall_seconds']}s, "
        f"{bench['fresh_sweep']['worlds_per_second']} worlds/sec"
    )
    print(
        f"  reuse re-sweep: {bench['reuse_sweep']['speedup_vs_fresh']}x, "
        f"basis hit rate {bench['reuse_sweep']['basis_hit_rate']:.1%}"
    )
    print(
        f"  batched vs loop: {bench['batched_vs_loop']['speedup']}x "
        f"(single-round: {bench['batched_vs_loop']['single_round']['speedup']}x; "
        f"parity: {bench['batched_vs_loop']['parity']})"
    )
    print(
        f"  result cache warm rerun: {bench['result_cache']['speedup']}x, "
        f"hit rate {bench['result_cache']['hit_rate']:.1%}"
    )
    print(f"  plan cache hit rate: {bench['plan_cache']['hit_rate']:.1%}")
    adaptive = bench["adaptive_sweep"]
    print(
        f"  adaptive sweep: {adaptive['worlds_saved']} of "
        f"{adaptive['worlds_budgeted']} worlds saved "
        f"({adaptive['saving_fraction']:.1%} at target_ci="
        f"{adaptive['target_ci']}; parity: {adaptive['parity_ok']})"
    )
    transport = bench.get("transport")
    if transport is not None:
        e2e = transport.get("e2e")
        e2e_note = f", e2e {e2e['speedup']}x on {e2e['cores']} cores" if e2e else ""
        print(
            f"  transport ops: {transport['op_speedup']}x shm vs pickle, "
            f"task pickle {transport['task_bytes_shm_large']} B at "
            f"n_worlds={transport['n_worlds']} (O(1): "
            f"{transport['task_bytes_o1']}; parity: {transport['parity']}"
            f"{e2e_note})"
        )
    if args.trace_file:
        print(f"  trace written to {args.trace_file}")
    if not bench["batched_vs_loop"]["parity"]:
        print("error: batched vs loop parity FAILED", file=sys.stderr)
        return 1
    if not adaptive["parity_ok"]:
        print("error: adaptive vs fixed parity FAILED", file=sys.stderr)
        return 1
    if transport is not None and not (
        transport["parity"] and transport.get("e2e", {"parity": True})["parity"]
    ):
        print("error: transport shm vs pickle parity FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
