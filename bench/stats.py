"""Summary statistics the reports use, in one place."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

median = statistics.median


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``q`` of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def geometric_mean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_kind_median(samples: Iterable[Tuple[str, float]]) -> Dict[str, float]:
    grouped: Dict[str, List[float]] = {}
    for kind, value in samples:
        grouped.setdefault(kind, []).append(value)
    return {kind: median(values) for kind, values in grouped.items()}
