"""A world slice in any order samples each world as itself.

Fresh samples are stored as a basis labelled with the request's worlds, in
request order, and later requests select rows from it by world id. The rows
must therefore come back from the sampling plane in the request's order —
on the batched backend, on the per-world loop backend, and on the
coordinator of a process pool — not re-sorted by world id. The first
request is ``reuse=True``: a ``reuse=False`` request stores nothing, so it
could not show a row stored under the wrong world. A pooled ``reuse=False``
request is a point task sampled in a worker; it must see the same rows in
the same order as the coordinator does.
"""

from __future__ import annotations

import pytest

from repro.api import ClientConfig, ProphetClient, SamplingConfig
from repro.models.scenario_library import FIGURE2_DSL

POINT = {"purchase1": 8, "purchase2": 24, "feature": 12}

#: Unsorted slices, one per backend.
SLICES = {
    "batched": [5, 2, 9],
    "loop": [5, 2, 9],
    "pool": [9, 2, 17, 5, 13, 8, 19, 4, 11, 3, 0, 6, 15, 10, 1, 7, 12, 18, 14, 16],
}


def _client(kind: str) -> ProphetClient:
    sampling = SamplingConfig(n_worlds=20, backend="loop" if kind == "loop" else "batched")
    client = ProphetClient.open(FIGURE2_DSL, "demo", config=ClientConfig(sampling=sampling))
    if kind == "pool":
        client = client.with_serving(executor="process", workers=2)
    return client


def _assert_same_statistics(actual, expected):
    for alias in expected.aliases():
        assert actual.expectation(alias).tobytes() == expected.expectation(alias).tobytes()
        assert actual.stddev(alias).tobytes() == expected.stddev(alias).tobytes()


@pytest.mark.parametrize("kind", sorted(SLICES))
def test_an_unsorted_slice_stores_each_world_under_its_own_id(kind):
    with _client(kind) as fresh:
        expected = fresh.evaluate(POINT, worlds=[2])
    with _client(kind) as client:
        unsorted = client.evaluate(POINT, worlds=SLICES[kind])
        served = client.evaluate(POINT, worlds=[2])
    assert {r.source for r in served.reuse_reports} == {"exact"}
    row = SLICES[kind].index(2)
    for alias, matrix in expected.samples.items():
        assert served.samples[alias].tobytes() == matrix.tobytes(), alias
        assert unsorted.samples[alias][row].tobytes() == matrix[0].tobytes(), alias
    _assert_same_statistics(served.statistics, expected.statistics)


def test_a_point_task_samples_an_unsorted_slice_in_request_order():
    with _client("pool") as client:
        coordinator = client.evaluate(POINT, worlds=SLICES["pool"])
        task = client.evaluate(POINT, worlds=SLICES["pool"], reuse=False)
        assert client.stats().service["shard_tasks"] == 1
    assert task.samples == {}
    _assert_same_statistics(task.statistics, coordinator.statistics)
