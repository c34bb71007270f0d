"""Arrays a result shares with engine state are read-only.

An evaluation's sample matrices are the stored bases themselves (an exact
hit over the basis's own worlds, a mapped hit, a fresh store), and its
statistics are the stats cache's and the week memo's. Writing into any of
them must raise, not corrupt what a later evaluation reads: each case
checks the later result byte for byte against a fresh engine that ran the
same requests without the write.
"""

import numpy as np
import pytest

from repro.core.config import EngineConfig, SamplingConfig
from repro.core.engine import ProphetEngine
from repro.models import build_risk_vs_cost

POINT = {"purchase1": 16, "purchase2": 32, "feature": 12}
MAPPED = {"purchase1": 32, "purchase2": 32, "feature": 12}
LATER = {"purchase1": 48, "purchase2": 32, "feature": 12}


def _engine() -> ProphetEngine:
    scenario, library = build_risk_vs_cost(purchase_step=16)
    return ProphetEngine(scenario, library, EngineConfig(sampling=SamplingConfig(n_worlds=12)))


def _bytes(evaluation):
    statistics = evaluation.statistics
    return {
        alias: (
            statistics.expectation(alias).tobytes(),
            statistics.stddev(alias).tobytes(),
            evaluation.samples[alias].tobytes() if alias in evaluation.samples else None,
        )
        for alias in statistics.aliases()
    }


def test_sample_matrices_are_the_stored_bases_and_refuse_writes():
    engine = _engine()
    first = engine.evaluate_point(POINT)
    second = engine.evaluate_point(MAPPED)
    sources = {report.source for report in first.reuse_reports + second.reuse_reports}
    assert {"fresh", "mapped", "exact"} <= sources
    for evaluation in (first, second):
        for output in engine.scenario.vg_outputs:
            alias = output.alias.lower()
            matrix = evaluation.samples[alias]
            stored = engine.storage.validated_entry(
                engine.library.get(output.vg_name), output.model_arg_values(evaluation.point)
            )
            assert matrix is stored.samples  # shared, never copied
            with pytest.raises(ValueError):
                matrix[0, 0] = -1.0
            with pytest.raises(ValueError):
                matrix += 1.0

    later = engine.evaluate_point(LATER)
    reference = _engine()
    for point in (POINT, MAPPED):
        reference.evaluate_point(point)
    assert _bytes(later) == _bytes(reference.evaluate_point(LATER))


def test_statistics_are_cached_state_and_refuse_writes():
    engine = _engine()
    first = engine.evaluate_point(POINT)
    second = engine.evaluate_point(MAPPED)  # most weeks served by the week memo
    assert engine.week_stats_hits > 0
    for evaluation in (first, second):
        for alias in evaluation.statistics.aliases():
            for array in (
                evaluation.statistics.expectation(alias),
                evaluation.statistics.stddev(alias),
            ):
                with pytest.raises(ValueError):
                    array[0] = np.nan

    revisit = engine.evaluate_point(POINT)  # the stats cache answers
    assert revisit.statistics is first.statistics
    reference = _engine()
    assert _bytes(revisit) == _bytes(reference.evaluate_point(POINT))
