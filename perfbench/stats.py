"""Summary statistics for per-op samples."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Candidate tail percentiles, highest first.  A percentile needs about
#: 10 / (1 - p) samples, so p50, p80, p95, p99 and p99.9 switch in at 20, 50,
#: 200, 1000 and 10000 samples.  The workloads' 25-second runs take roughly
#: 20-30 (chain_revise), 60-110 (the other chains) and 500 (fixtures) samples,
#: inside those bands, so the percentile used mostly stays the same from run to
#: run while the sample count moves with host speed.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 80.0, 50.0)
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest candidate percentile
    that leaves at least ten samples beyond it, by the nearest-rank method.

    With fewer than twenty samples no candidate qualifies; the median is
    returned, with the number of samples beyond it, which is then below ten.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = max(1, math.ceil(percentile / 100.0 * n))
        if n - rank >= TAIL_BEYOND:
            return float(ordered[rank - 1]), percentile, n - rank
    rank = max(1, math.ceil(n / 2))
    return float(ordered[rank - 1]), 50.0, n - rank
