"""The four ledger workloads: inputs from a seed, one timed repeat each.

Every workload drives the public ``repro.api.ProphetClient`` only, on
``FIGURE2_DSL`` + the ``demo`` library. Each was picked so that one layer
dominates it and is nearly idle in another (see README.md); sizes are
fixed — a run that must be shorter lowers the repeat count, never these.

A *repeat* is one call of :func:`run_repeat` in a fresh process: build the
backend (``setup_s``), run the workload's closed loop once (one client,
next request after the previous completes), hash every operation's output,
close the client and check nothing leaked.

Every timing in the record is *restated at reference host speed*
(``calibrate.Pacer.restated``): the pacer's own samples are taken out and
the rest is divided by how slow the host was around that interval. The raw
wall clock is kept beside it (``raw_wall_s``, ``raw_setup_s``, ``slowdown``).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import multiprocessing
import os
import random
import resource
import time
from typing import Any, Optional, Sequence

import calibrate

WORKLOADS: dict[str, dict[str, Any]] = {
    "grid_reuse": {
        "n_worlds": 64,
        "stride": 1,
        "smoke": {"n_worlds": 16, "stride": 49},
    },
    "interactive_walk": {
        "n_worlds": 400,
        "new_points": 220,
        "smoke": {"n_worlds": 50, "new_points": 20},
    },
    "adaptive_rounds": {
        "n_worlds": 400,
        "stride": 8,
        "target_ci": 150.0,
        "min_worlds": 50,
        "smoke": {"n_worlds": 100, "stride": 147},
    },
    "fresh_fanout": {
        "n_worlds": 2000,
        "stride": 32,
        "workers": 2,
        "smoke": {"n_worlds": 200, "stride": 294},
    },
}

#: Share of walk moves that jump back, and how far back they may reach.
WALK_REVISIT_SHARE = 0.25
WALK_RECENT = 32
#: Every ``--seed`` walks this one path (only the worlds change). New-point
#: refreshes are bimodal — ~10 ms when one model's samples can be mapped,
#: ~60 ms when not — and on most paths the median sits on the boundary
#: between the modes (111-122 cheap points of 220), flipping between 11 ms
#: and 45 ms from seed to seed. This path has 131 cheap points.
WALK_PATH_SEED = 0

#: The reference replay of ``fresh_fanout`` checks every 4th timed point:
#: with reuse off each point's statistics are independent of the others, and
#: the per-world loop at 2000 worlds costs ~1 s per point.
FANOUT_REFERENCE_STEP = 4


def sizes(name: str, smoke: bool) -> dict[str, Any]:
    """The workload's parameters, with the smoke overrides applied."""
    spec = dict(WORKLOADS[name])
    overrides = spec.pop("smoke")
    if smoke:
        spec.update(overrides)
    return spec


# -- inputs -------------------------------------------------------------------


def input_seed(name: str, seed: int) -> int:
    """The seed a workload's inputs are made from.

    ``adaptive_rounds`` takes seed 0 whatever ``--seed`` says, worlds and
    grid offset alike, because both decide *which work is done*:

    * the worlds decide the round count. On three base seeds in four every
      point converges on the plain ladder (12100 worlds, 153 rounds); on the
      others a few points go through reallocation rounds (up to 19100
      worlds, 188 rounds, a wall 60% longer) — four of seeds 200-209 do, and
      ten runs over them spread by 21%;
    * results stream in submission order, so the first submitted point
      decides when the first result can appear, and offsets 3-7 start on a
      point that retires one round earlier: ``first_result_s`` was bimodal.
    """
    return 0 if name == "adaptive_rounds" else seed


def sweep_points(stride: int, seed: int, grid: Sequence[Any]) -> list[Any]:
    """Every ``stride``-th grid point, from offset ``seed mod stride``."""
    return list(grid[seed % stride :: stride])


def slider_walk(
    seed: int, shape: Sequence[int], new_points: int
) -> list[tuple[tuple[int, ...], bool]]:
    """A seeded slider walk as ``(position, never_visited_before)`` moves.

    Starts mid-grid; a quarter of the moves jump back to one of the last 32
    visited positions, the rest step +-1 on one slider, preferring unvisited
    neighbours. Ends at the move that reaches the ``new_points``-th
    never-visited position. Only ``Random.random()`` is drawn, so the walk
    is the same on every Python version.
    """
    rng = random.Random(seed)

    def pick(options: list[tuple[int, ...]]) -> tuple[int, ...]:
        return options[int(rng.random() * len(options))]

    position = tuple(n // 2 for n in shape)
    visited = {position}
    history = [position]
    moves = [(position, True)]
    while len(visited) < new_points:
        recent = [p for p in history[-WALK_RECENT:] if p != position]
        if recent and rng.random() < WALK_REVISIT_SHARE:
            position = pick(recent)
        else:
            neighbours = [
                position[:axis] + (position[axis] + step,) + position[axis + 1 :]
                for axis in range(len(shape))
                for step in (-1, 1)
                if 0 <= position[axis] + step < shape[axis]
            ]
            unvisited = [p for p in neighbours if p not in visited]
            position = pick(unvisited or neighbours)
        moves.append((position, position not in visited))
        visited.add(position)
        history.append(position)
    return moves


# -- outputs ------------------------------------------------------------------


def statistics_digest(statistics: Any) -> str:
    """Hash of the expectation and stddev bytes of every alias."""
    digest = hashlib.sha256()
    for alias in sorted(statistics.aliases()):
        digest.update(alias.encode())
        digest.update(statistics.expectation(alias).tobytes())
        digest.update(statistics.stddev(alias).tobytes())
    return digest.hexdigest()


def combined_digest(op_digests: Sequence[str]) -> str:
    return hashlib.sha256("".join(op_digests).encode()).hexdigest()


# -- one repeat ---------------------------------------------------------------


def _open_client(name: str, spec: dict[str, Any], seed: int, mode: str) -> Any:
    from repro.api import ClientConfig, ProphetClient, SamplingConfig
    from repro.models.scenario_library import FIGURE2_DSL

    reference = mode == "reference"
    sampling = SamplingConfig(
        n_worlds=spec["n_worlds"],
        base_seed=42 + seed,
        backend="loop" if reference else "batched",
    )
    client = ProphetClient.open(
        FIGURE2_DSL, "demo", config=ClientConfig(sampling=sampling)
    )
    if name == "adaptive_rounds":
        client = client.with_adaptive(
            target_ci=spec["target_ci"], min_worlds=spec["min_worlds"]
        )
    if name == "fresh_fanout" and not reference:
        client = client.with_serving(
            executor="process", workers=spec["workers"], shards=spec["workers"]
        ).with_transport(shard_transport="shm")
    if mode == "obs":
        client = client.with_observability(trace=True)
    return client


def _run_sweep(client: Any, points: list[dict[str, Any]], reuse: bool, begin: Any) -> dict:
    """Stream one sweep; clock the ``sweep()`` call and each result's arrival."""
    arrivals: list[float] = []
    outputs = []  # the statistics of each operation, None where it failed
    started = time.perf_counter()
    handle = client.sweep(points, reuse=reuse)
    for index in range(len(points)):
        begin(index)
        try:
            result = next(handle)
            outputs.append(result.statistics if result.ok else None)
        except Exception:  # counted as a failed operation
            outputs.append(None)
        arrivals.append(time.perf_counter())
    return {"started": started, "ended": arrivals[-1], "first": arrivals[0],
            "moves": [], "outputs": outputs}


def _run_walk(client: Any, moves: list, values: list[tuple[str, tuple]], begin: Any) -> dict:
    """One interactive session; each move is ``set_sliders`` + ``refresh``."""
    clocked: list[tuple[float, float, bool]] = []  # (before, after, is new)
    outputs = []
    started = time.perf_counter()
    session = client.interactive()
    for index, (position, is_new) in enumerate(moves):
        sliders = {name: domain[i] for (name, domain), i in zip(values, position)}
        begin(index)
        before = time.perf_counter()
        try:
            session.set_sliders(sliders)
            outputs.append(session.refresh().statistics)
        except Exception:  # counted as a failed operation
            outputs.append(None)
        clocked.append((before, time.perf_counter(), is_new))
    return {"started": started, "ended": time.perf_counter(), "first": clocked[0][1],
            "moves": clocked, "outputs": outputs}


def run_repeat(
    name: str,
    seed: int,
    *,
    mode: str = "timed",
    smoke: bool = False,
    spawned_at: Optional[float] = None,
    recorder: Any = None,
) -> dict[str, Any]:
    """Set up, run and tear down one workload once; returns the raw record.

    Called in a fresh process that has its interpreter, NumPy and the
    harness's own modules up and has not imported the program yet:
    ``setup_s`` runs from here to the backend being built. ``spawned_at`` is
    the parent's ``time.time()`` just before it started this process; what
    passed since is the platform's start, recorded raw as ``platform_s`` and
    part of no metric (see README: it is the one thing here the pacer cannot
    restate, and nothing a change to the program can move). ``recorder``
    (traced pass) marks the set-up and timed sections and the operation each
    span belongs to, and gets the pacer's samples as spans.
    """
    platform_s = time.time() - spawned_at if spawned_at is not None else 0.0
    spec = sizes(name, smoke)
    seed = input_seed(name, seed)
    pacer = calibrate.Pacer(recorder)
    try:
        return _paced_repeat(name, seed, mode, spec, platform_s, pacer, recorder)
    finally:
        pacer.stop()


def _paced_repeat(
    name: str, seed: int, mode: str, spec: dict[str, Any], platform_s: float,
    pacer: calibrate.Pacer, recorder: Any,
) -> dict[str, Any]:
    if recorder is not None:
        section, begin = recorder.section, recorder.begin
    else:
        section, begin = (lambda name: contextlib.nullcontext()), (lambda index: None)

    with section("bench:setup"):
        setup_started = time.perf_counter()
        pacer.start()
        client = _open_client(name, spec, seed, mode)
        grid = [dict(p) for p in client.scenario.sweep_space.grid()]
        client.engine  # builds the backend (engine; for fanout the pool too)
        backend_built = time.time()
        warmup_s = 0.0
        if name == "interactive_walk":
            values = [(p.name, tuple(p.values)) for p in client.scenario.sweep_space]
            moves = slider_walk(
                WALK_PATH_SEED, [len(v) for _, v in values], spec["new_points"]
            )
        else:
            points = sweep_points(spec["stride"], seed, grid)
        if name == "fresh_fanout" and mode == "reference":
            points = points[::FANOUT_REFERENCE_STEP]
        elif name == "fresh_fanout":
            # Start the workers and give each one shard, on a point that is
            # not in the timed list.
            warm = grid[(seed % spec["stride"] + spec["stride"] // 2) % len(grid)]
            client.evaluate(warm, reuse=False)
            warmup_s = time.time() - backend_built
        setup_ended = time.perf_counter()
        setup_slowdown = pacer.slowdown(setup_started, setup_ended)
        setup_s = pacer.restated(setup_started, setup_ended)
        warmup_s /= setup_slowdown

    gc.collect()
    with section("api:timed"):
        if name == "interactive_walk":
            record = _run_walk(client, moves, values, begin)
        else:
            record = _run_sweep(client, points, name != "fresh_fanout", begin)

    outputs = record.pop("outputs")
    started, ended = record.pop("started"), record.pop("ended")
    latencies: dict[bool, list[float]] = {True: [], False: []}  # by "is new"
    for before, after, is_new in record.pop("moves"):
        latencies[is_new].append(pacer.restated(before, after) * 1e3)
    report = client.stats()
    record.update(
        wall_s=pacer.restated(started, ended),
        raw_wall_s=ended - started,
        slowdown=pacer.slowdown(started, ended),
        pacer_samples=len(pacer.ends),
        first_result_s=pacer.restated(started, record.pop("first")),
        new_ms=latencies[True],
        revisit_ms=latencies[False],
        raw_setup_s=setup_ended - setup_started,
        setup_slowdown=setup_slowdown,
        platform_s=platform_s,
        workload=name,
        mode=mode,
        seed=seed,
        n_worlds=spec["n_worlds"],
        operations=len(outputs),
        failed=outputs.count(None),
        op_digests=["failed" if o is None else statistics_digest(o) for o in outputs],
        setup_s=setup_s,
        warmup_s=warmup_s,
        counters=json.loads(report.to_json()),
        timing=report.timing.to_dict(),
        vg_invocations=client.engine.invocation_count(),
        vg_component_samples=client.engine.component_sample_count(),
    )
    record["digest"] = combined_digest(record["op_digests"])
    client.close()
    # A worker that has exited can read as alive for an instant (the pool's
    # manager thread and close() both wait on it); only one still there
    # after a grace period was left behind.
    grace_ends = time.monotonic() + 2.0
    while multiprocessing.active_children() and time.monotonic() < grace_ends:
        time.sleep(0.01)
    live = multiprocessing.active_children()
    record["live_children"] = len(live)
    for child in live:  # never leave a worker behind, even on a failed check
        child.kill()
        child.join()
    after = json.loads(client.stats().to_json()).get("service") or {}
    record["segments_leaked"] = after.get("segments_leased", 0) - after.get(
        "segments_reclaimed", 0
    )
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["worker_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    )
    record["cpu_s"] = sum(os.times()[:4]) / record["slowdown"]
    return record
