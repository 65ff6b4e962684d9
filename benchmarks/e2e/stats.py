"""Order statistics for benchmark samples.

Every timing the benchmark reports is a median with its quartiles,
extremes and sample count.
"""

from __future__ import annotations

import statistics
from typing import Dict, Sequence

__all__ = ["summary"]


def summary(values: Sequence[float]) -> Dict[str, float]:
    """``median``, ``q1``, ``q3``, ``min``, ``max`` and ``n`` of a
    non-empty sample. Quartiles are ``statistics.quantiles(n=4)`` (the
    rule the driver applies); a single value is its own quartiles."""
    if not values:
        raise ValueError("summary of an empty sample")
    data = [float(v) for v in values]
    if len(data) == 1:
        q1 = q3 = data[0]
    else:
        q1, __, q3 = statistics.quantiles(data, n=4)
    return {
        "median": statistics.median(data),
        "q1": q1,
        "q3": q3,
        "min": min(data),
        "max": max(data),
        "n": len(data),
    }

