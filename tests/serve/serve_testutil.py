"""Shared constants and assertions for the serve-layer tests."""

from __future__ import annotations

import pickle

from repro.serve import InlineExecutor

#: A compact scenario (3 x 3 x 2 sweep grid) that still exercises two VG
#: models and a derived output.
SERVE_DSL = """
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

POINT = {"purchase1": 0, "purchase2": 26, "feature": 12}


def assert_stats_identical(actual, expected) -> None:
    """Bit-for-bit equality of two AxisStatistics."""
    assert actual.axis_values == expected.axis_values
    assert actual.n_worlds == expected.n_worlds
    assert sorted(actual.aliases()) == sorted(expected.aliases())
    for alias in expected.aliases():
        assert (
            actual.expectation(alias).tobytes()
            == expected.expectation(alias).tobytes()
        ), f"expectation of {alias!r} differs"
        assert (
            actual.stddev(alias).tobytes() == expected.stddev(alias).tobytes()
        ), f"stddev of {alias!r} differs"


class InProcessPool(InlineExecutor):
    """Masquerades as a process pool — so the service runs ``reuse=False``
    requests as point tasks, through the dispatcher and its fault plan —
    while running every task in this process. An injected crash is
    simulated (a ``WorkerCrashError``), never an ``os._exit``; there is
    nothing to heal. ``result_bytes`` records what each task's result
    would have cost to pickle."""

    kind = "process"

    def __init__(self) -> None:
        super().__init__()
        self.result_bytes: list[int] = []

    def submit(self, fn, *args, lane=None):
        from repro.serve.faults import run_with_fault

        if fn is run_with_fault:  # (plan, seq, attempt, in_worker, fn, *task)
            args = args[:3] + (False,) + args[4:]
        future = super().submit(fn, *args, lane=lane)
        if lane is None and future._error is None:
            self.result_bytes.append(len(pickle.dumps(future.result())))
        return future

    def recycle(self, timeout: float = 1.0) -> None:
        pass
