"""A world slice in any order samples each world as itself.

Fresh samples are stored as a basis labelled with the request's worlds, in
request order, and later requests select rows from it by world id. The rows
must therefore come back from the sampling plane in the request's order —
on the batched backend, on the per-world loop backend, and from the shards
of a process pool — not re-sorted by world id.
"""

from __future__ import annotations

import pytest

from repro.api import ClientConfig, ProphetClient, SamplingConfig
from repro.models.scenario_library import FIGURE2_DSL

POINT = {"purchase1": 8, "purchase2": 24, "feature": 12}

#: Unsorted slices. The pool splits its slice into two shards of ten worlds
#: (a shard holds at least eight), so each worker sees an unsorted slice too.
SLICES = {
    "batched": [5, 2, 9],
    "loop": [5, 2, 9],
    "pool": [9, 2, 17, 5, 13, 8, 19, 4, 11, 3, 0, 6, 15, 10, 1, 7, 12, 18, 14, 16],
}


def _client(kind: str) -> ProphetClient:
    sampling = SamplingConfig(n_worlds=20, backend="loop" if kind == "loop" else "batched")
    client = ProphetClient.open(FIGURE2_DSL, "demo", config=ClientConfig(sampling=sampling))
    if kind == "pool":
        client = client.with_serving(executor="process", workers=2, shards=2)
    return client


@pytest.mark.parametrize("kind", sorted(SLICES))
def test_an_unsorted_slice_stores_each_world_under_its_own_id(kind):
    with _client(kind) as fresh:
        expected = fresh.evaluate(POINT, worlds=[2])
    with _client(kind) as client:
        unsorted = client.evaluate(POINT, worlds=SLICES[kind], reuse=False)
        served = client.evaluate(POINT, worlds=[2])
    row = SLICES[kind].index(2)
    for alias, matrix in expected.samples.items():
        assert served.samples[alias].tobytes() == matrix.tobytes(), alias
        assert unsorted.samples[alias][row].tobytes() == matrix[0].tobytes(), alias
    for alias in expected.statistics.aliases():
        assert (
            served.statistics.expectation(alias).tobytes()
            == expected.statistics.expectation(alias).tobytes()
        )
        assert (
            served.statistics.stddev(alias).tobytes()
            == expected.statistics.stddev(alias).tobytes()
        )
