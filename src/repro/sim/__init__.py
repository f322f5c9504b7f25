"""Discrete-event simulation substrate: engine, RNG, metrics, config, world."""

from .config import (
    ChannelConfig,
    CloudConfig,
    MobilityConfig,
    ScenarioConfig,
    SecurityConfig,
)
from .engine import ERROR_POLICIES, CallbackFailure, Engine, EventHandle, PeriodicTask
from .metrics import (
    Ledger,
    MetricDelta,
    MetricsRegistry,
    SeriesSummary,
    ToleranceBand,
    diff_metrics,
    percentile,
    summarize,
)
from .rng import SeededRng, derive_seed
from .spatial import SpatialGrid, grid_from_positions
from .world import World

__all__ = [
    "CallbackFailure",
    "ChannelConfig",
    "CloudConfig",
    "ERROR_POLICIES",
    "Engine",
    "EventHandle",
    "Ledger",
    "MetricDelta",
    "MetricsRegistry",
    "MobilityConfig",
    "PeriodicTask",
    "ScenarioConfig",
    "SecurityConfig",
    "SeededRng",
    "SeriesSummary",
    "SpatialGrid",
    "ToleranceBand",
    "World",
    "derive_seed",
    "diff_metrics",
    "grid_from_positions",
    "percentile",
    "summarize",
]
