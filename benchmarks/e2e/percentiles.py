"""Order statistics the benchmark reports.

A timing is reported as its median and as the highest percentile that
still has at least ten samples beyond it, together with the sample
count: with fewer than ten samples beyond, a "p99" is a guess.
"""

from __future__ import annotations

import statistics
from typing import Optional, Sequence, Tuple

#: candidate tail percentiles, highest first, in basis points
TAIL_BASIS_POINTS = (9999, 9990, 9900, 9500, 9000, 7500, 5000)
MIN_BEYOND = 10


def nearest_rank(ordered: Sequence[float], basis_points: int) -> float:
    """The nearest-rank percentile of already sorted values."""
    rank = -(-basis_points * len(ordered) // 10_000)  # ceil, in integers
    return ordered[max(rank, 1) - 1]


def tail_percentile(values: Sequence[float]
                    ) -> Optional[Tuple[float, float, int]]:
    """``(percentile, value, n)`` for the highest percentile of
    :data:`TAIL_BASIS_POINTS` with at least :data:`MIN_BEYOND` samples
    ranked above it, or ``None`` when even the median has fewer."""
    ordered = sorted(values)
    n = len(ordered)
    for basis_points in TAIL_BASIS_POINTS:
        rank = -(-basis_points * n // 10_000)
        if n - rank >= MIN_BEYOND:
            return basis_points / 100, nearest_rank(ordered, basis_points), n
    return None


def tail_or_max(values: Sequence[float]) -> float:
    """The qualifying tail percentile, or the slowest sample when there
    are too few samples for any percentile to qualify."""
    tail = tail_percentile(values)
    return tail[1] if tail is not None else max(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3
