"""Database facade: one store, pluggable reasoning strategies, and the
workload-driven strategy advisor (the Section II-D open problem)."""

from .adaptive import AdaptiveDatabase, StrategySwitch
from .advisor import StrategyAdvice, WorkloadProfile, recommend_strategy
from .database import RDFDatabase, Strategy, UnsupportedGraphError

__all__ = [
    "RDFDatabase", "Strategy", "UnsupportedGraphError",
    "AdaptiveDatabase", "StrategySwitch",
    "WorkloadProfile", "StrategyAdvice", "recommend_strategy",
]
