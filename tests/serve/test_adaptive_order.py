"""The order the round ladder is walked in decides no outcome.

The scheduler walks the ladder one point at a time (a point's rounds back
to back); until ISSUE 28 it walked it one round at a time (round *r* of
every point before round *r+1* of any). The old walk lives on here, as the
reference: both must give every point the same rounds, worlds, decision and
statistic bits, and leave every counter where the other leaves it — on the
inline executor and on a process pool over two shards, pickle and shm.

Why they agree: stopping reads only the point's own statistics, and storage
offers ``best_match`` only bases that already *cover* the requested world
prefix. Round *r* of point *k* therefore sees the same candidates either
way — the earlier points that reached round *r* — and never a later point
(one round behind in the old order, not started in the new); so the exact /
mapped / miss counters are equal too, not just the answers.
"""

from __future__ import annotations

import pytest

from repro.api import ClientConfig, ProphetClient, SamplingConfig
from repro.models.scenario_library import FIGURE2_DSL
from repro.serve import shm_available
from serve_testutil import assert_stats_identical

N_WORLDS = 400
STRIDE = 64
#: Ledger ``adaptive_rounds`` at seed 0: every point retires on the ladder.
LADDER_ONLY = dict(base_seed=42, offset=0, target_ci=150.0)
#: Most points spend the whole plan; the last retires early and the budget it
#: frees extends point 1 past the plan (a reallocation round).
REALLOCATES = dict(base_seed=243, offset=9, target_ci=85.0)

BACKENDS = [
    pytest.param({}, id="inline"),
    pytest.param(
        dict(executor="process", workers=2, shards=2, shard_transport="pickle"),
        id="process-2-shards-pickle",
    ),
    pytest.param(
        dict(executor="process", workers=2, shards=2, shard_transport="shm"),
        marks=pytest.mark.skipif(not shm_available(), reason="no shared memory here"),
        id="process-2-shards-shm",
    ),
]


def drive_breadth_first(scheduler, sweep):
    """The ladder as it was walked before ISSUE 28 (test-only reference)."""
    active = list(sweep.states)
    while active:
        still_active = []
        for state in active:
            if scheduler._step_state(sweep, state):
                yield state
            if state.finalized:
                continue
            if state.evaluator.finished:
                scheduler._finalize_state(sweep, state)
            else:
                still_active.append(state)
        active = still_active
    # Every point is finalized, so the scheduler's own driver has only the
    # reallocation phase left to run.
    yield from scheduler._drive_adaptive(sweep)


def _run(base_seed, offset, target_ci, backend, *, breadth_first):
    backend = dict(backend)
    transport = backend.pop("shard_transport", None)
    client = ProphetClient.open(
        FIGURE2_DSL,
        "demo",
        config=ClientConfig(sampling=SamplingConfig(n_worlds=N_WORLDS, base_seed=base_seed)),
    ).with_adaptive(target_ci=target_ci, min_worlds=50)
    if backend:
        client = client.with_serving(**backend).with_transport(shard_transport=transport)
    with client:
        grid = [dict(p) for p in client.scenario.sweep_space.grid()]
        handle = client.sweep(grid[offset::STRIDE])
        if breadth_first:
            handle.sweep._driver = drive_breadth_first(handle._scheduler, handle.sweep)
        results = handle.run()
        converged = [s.evaluator.converged for s in handle.sweep.states]
        report = handle._scheduler.adaptive_report()
        return results, converged, report, client.stats().to_json()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "config, reallocates",
    [pytest.param(LADDER_ONLY, False, id="ladder-only"),
     pytest.param(REALLOCATES, True, id="reallocates")],
)
def test_depth_first_equals_breadth_first(config, reallocates, backend):
    results, converged, report, stats = _run(**config, backend=backend, breadth_first=False)
    ref_results, ref_converged, ref_report, ref_stats = _run(
        **config, backend=backend, breadth_first=True
    )
    assert any(r.worlds_spent > N_WORLDS for r in results) == reallocates
    assert len({r.rounds for r in results}) > 1  # the two walks really differ
    assert converged == ref_converged
    for actual, reference in zip(results, ref_results):
        assert actual.ok and reference.ok
        for name in ("point", "worlds_spent", "rounds", "max_ci", "retired_early"):
            assert getattr(actual, name) == getattr(reference, name), name
        assert_stats_identical(actual.statistics, reference.statistics)
    assert report == ref_report
    assert stats == ref_stats
    if backend:
        assert '"shard_tasks": 0' not in stats  # the pool really sampled
