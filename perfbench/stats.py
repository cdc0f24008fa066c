"""Order statistics for the benchmark's reports."""

from __future__ import annotations

import math

# A percentile is reported as resolved only with at least this many samples
# strictly above it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank q-quantile (0 < q <= 1) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank(len(ordered), q)]


def _rank(n: int, q: float) -> int:
    return min(n - 1, max(0, math.ceil(q * n) - 1))


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-quantile."""
    return n - 1 - _rank(n, q)


def resolved(n: int, q: float) -> bool:
    """True when the q-quantile of n samples has MIN_BEYOND samples beyond."""
    return samples_beyond(n, q) >= MIN_BEYOND

