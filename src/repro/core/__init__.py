"""Fuzzy Prophet core: parameters, scenarios, the evaluation cycle,
fingerprinting, and the online/offline exploration modes."""

from repro.core.aggregator import (
    AxisStatistics,
    ExactSum,
    MergeableAxisStats,
    MergeableMoments,
    ResultAggregator,
    SeriesStats,
    error_against_reference,
)
from repro.core.config import EngineConfig
from repro.core.engine import (
    PointEvaluation,
    PointEvaluator,
    ProphetEngine,
    RoundResult,
    StageTimings,
)
from repro.core.guide import GridGuide, PriorityGuide
from repro.core.instance import InstanceBatch, WorldInstance
from repro.core.rounds import (
    ConvergenceTracker,
    RoundPlan,
    max_ci_halfwidth,
)
from repro.core.offline import (
    ConstraintEvaluator,
    OfflineOptimizer,
    OptimizationResult,
    PointRecord,
)
from repro.core.online import GraphView, InteractionLog, OnlineSession
from repro.core.parameters import Parameter, ParameterSpace
from repro.core.querygen import QueryGenerator, substitute
from repro.core.scenario import (
    DerivedOutput,
    GraphSeries,
    GraphSpec,
    OptimizeObjective,
    OptimizeSpec,
    Scenario,
    VGOutput,
)
from repro.core.persistence import load_bases, save_bases
from repro.core.risk import (
    RiskAnalyzer,
    RiskSummary,
    exceedance_probability,
    expected_shortfall,
    quantile_series,
    shortfall_probability,
)
from repro.core.storage import BasisEntry, ReuseReport, StorageManager


__all__ = [
    "Parameter",
    "ParameterSpace",
    "WorldInstance",
    "InstanceBatch",
    "Scenario",
    "VGOutput",
    "DerivedOutput",
    "GraphSpec",
    "GraphSeries",
    "OptimizeSpec",
    "OptimizeObjective",
    "GridGuide",
    "PriorityGuide",
    "RoundPlan",
    "max_ci_halfwidth",
    "QueryGenerator",
    "substitute",
    "StorageManager",
    "BasisEntry",
    "ReuseReport",
    "ResultAggregator",
    "AxisStatistics",
    "SeriesStats",
    "ConvergenceTracker",
    "ExactSum",
    "MergeableMoments",
    "MergeableAxisStats",
    "error_against_reference",
    "ProphetEngine",
    "EngineConfig",
    "PointEvaluation",
    "PointEvaluator",
    "RoundResult",
    "StageTimings",
    "OnlineSession",
    "GraphView",
    "InteractionLog",
    "OfflineOptimizer",
    "OptimizationResult",
    "PointRecord",
    "ConstraintEvaluator",
    "RiskAnalyzer",
    "RiskSummary",
    "quantile_series",
    "exceedance_probability",
    "shortfall_probability",
    "expected_shortfall",
    "save_bases",
    "load_bases",
]
