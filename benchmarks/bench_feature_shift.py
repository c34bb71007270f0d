"""C2 — §3.2: moving the feature release date changes the *slope* of the
demand curve, yet Fuzzy Prophet's distribution mapping still reduces the
set of weeks that must be recomputed (shift maps on the tail, identity on
the head; only the window between the two dates is re-simulated).
"""

import pytest

from conftest import report
from repro.core.fingerprint import FingerprintSpec, compute_fingerprint, correlate
from repro.core.engine import ProphetEngine
from repro.core.online import OnlineSession
from repro.models import DemandModel, build_risk_vs_cost


@pytest.mark.benchmark(group="C2-feature-shift")
def test_c2_feature_move_reuse(benchmark, fast_config):
    scenario, library = build_risk_vs_cost()
    session = OnlineSession(ProphetEngine(scenario, library, fast_config))
    session.set_sliders({"purchase1": 8, "purchase2": 24, "feature": 12})
    session.refresh()

    def move_feature():
        session.set_slider("feature", 36)
        return session.refresh()

    view = benchmark.pedantic(move_feature, rounds=1, iterations=1)
    expected_window = set(range(12, 36))
    report(
        "C2: feature release 12 -> 36 (slope change)",
        [
            f"re-rendered weeks: {len(view.refreshed_weeks)}/53 "
            f"({view.refresh_fraction:.1%})",
            f"all re-rendered weeks inside [12, 36): "
            f"{set(view.refreshed_weeks) <= expected_window}",
            f"component-samples: {view.component_samples}",
        ],
    )
    assert set(view.refreshed_weeks) <= expected_window


@pytest.mark.benchmark(group="C2-feature-shift")
def test_c2_map_kind_anatomy(benchmark):
    """Per-week map kinds for the feature move — the mechanism behind C2."""
    vg = DemandModel()
    spec = FingerprintSpec(n_seeds=8)

    def correlate_features():
        old = compute_fingerprint(vg, (12,), spec)
        new = compute_fingerprint(vg, (36,), spec)
        from repro.core.fingerprint import CorrelationPolicy

        return correlate(old, new, CorrelationPolicy())

    result = benchmark.pedantic(correlate_features, rounds=5, iterations=1)
    counts = result.kind_counts()
    report(
        "C2: map kinds, DemandModel feature 12 -> 36",
        [
            f"identity (weeks < 12):        {counts['identity']}",
            f"unmapped (weeks in [12, 36)): {counts['unmapped']}",
            f"shift    (weeks >= 36):       {counts['shift']}",
            f"affine:                       {counts['affine']}",
        ],
    )
    assert counts["identity"] == 12
    assert counts["unmapped"] == 24
    assert counts["shift"] == 17
