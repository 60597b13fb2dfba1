"""Order statistics used by the benchmark."""

from __future__ import annotations

import statistics
from fractions import Fraction
from math import ceil

# Percentiles a timing may be reported at, highest last.
PERCENTILES = (50, 90, 99, 99.9)
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """Number of the n samples at or below the nearest-rank percentile p."""
    return max(1, ceil(Fraction(str(p)) * n / 100))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of
    the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), p) - 1]


def median(values) -> float:
    """Middle value, or the mean of the two middle values."""
    return statistics.median(values)


def samples_beyond(n: int, p: float) -> int:
    return n - _rank(n, p)


def highest_percentile(n: int) -> float | None:
    """The highest reportable percentile that leaves at least ten of n
    samples beyond it, or None when even the median does not."""
    best = None
    for p in PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def tail(values, p: float) -> float:
    """Percentile p, refused when fewer than ten samples lie beyond it."""
    top = highest_percentile(len(values))
    if top is None or top < p:
        raise ValueError(f"{len(values)} samples are too few for p{p:g}")
    return percentile(values, p)
