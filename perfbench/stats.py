"""Order statistics the benchmark reports.

A tail is the highest percentile that still has at least TAIL_BEYOND samples
above it; with fewer than MIN_TAIL_SAMPLES samples that percentile would sit
at or below the median, so no tail is reported.
"""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10
MIN_TAIL_SAMPLES = 40


def median(values) -> float:
    return statistics.median(values)


def tail(values) -> tuple[float, float] | None:
    """(value, percentile) of the sample with exactly TAIL_BEYOND samples above it.

    Returns None below MIN_TAIL_SAMPLES samples. At 40 samples this is the
    75th percentile, so the tail can never read below the median.
    """
    n = len(values)
    if n < MIN_TAIL_SAMPLES:
        return None
    rank = n - TAIL_BEYOND  # 1-based rank of the reported sample
    return sorted(values)[rank - 1], 100.0 * rank / n
