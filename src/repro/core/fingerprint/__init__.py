"""Fingerprinting: the paper's core contribution.

* :class:`FingerprintSpec`, :class:`Fingerprint`, :func:`compute_fingerprint`
* :class:`CorrelationPolicy`, :func:`correlate`, :func:`correlate_many`,
  :class:`ComponentMap`
* :func:`remap_samples`
* Markov analysis: :func:`analyze_markov`, :func:`simulate_with_shortcuts`
* :class:`FingerprintRegistry` — the engine's index of explored points
"""

from repro.core.fingerprint.correlation import (
    ComponentMap,
    CorrelationPolicy,
    CorrelationResult,
    MapKind,
    correlate,
    correlate_many,
    match_component,
)
from repro.core.fingerprint.fingerprint import (
    Fingerprint,
    FingerprintSpec,
    compute_fingerprint,
)
from repro.core.fingerprint.mapping import (
    RemapResult,
    remap_error,
    remap_samples,
)
from repro.core.fingerprint.markov import (
    MarkovAnalysis,
    Region,
    StepModel,
    analyze_markov,
    simulate_with_shortcuts,
)
from repro.core.fingerprint.registry import (
    FingerprintRegistry,
    MappingRecord,
    MatchOutcome,
)

__all__ = [
    "Fingerprint",
    "FingerprintSpec",
    "compute_fingerprint",
    "ComponentMap",
    "MapKind",
    "CorrelationPolicy",
    "CorrelationResult",
    "correlate",
    "correlate_many",
    "match_component",
    "RemapResult",
    "remap_samples",
    "remap_error",
    "MarkovAnalysis",
    "Region",
    "StepModel",
    "analyze_markov",
    "simulate_with_shortcuts",
    "FingerprintRegistry",
    "MappingRecord",
    "MatchOutcome",
]
