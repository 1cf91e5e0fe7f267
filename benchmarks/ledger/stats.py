"""Order statistics with the ledger's sample-count rule."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

__all__ = [
    "MIN_BEYOND",
    "TooFewSamples",
    "median",
    "high_percentile",
    "try_high_percentile",
    "quartile_spread",
]

#: A percentile is printed only when at least this many samples lie
#: beyond it (p90 therefore needs 100 samples).
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def median(values: Sequence[float]) -> float:
    if not values:
        raise TooFewSamples("median of an empty sample")
    return statistics.median(values)


def high_percentile(values: Sequence[float], percent: float) -> float:
    """The ``percent``-th percentile (linear interpolation between the
    two nearest ranks), refused unless MIN_BEYOND samples lie beyond it."""
    if not 50.0 < percent < 100.0:
        raise ValueError("high_percentile is for percentiles above the median")
    n = len(values)
    # Integer arithmetic: 100 samples support p90 exactly.
    if n * (100.0 - percent) < MIN_BEYOND * 100.0 - 1e-9:
        raise TooFewSamples(
            f"p{percent:g} needs {MIN_BEYOND} samples beyond it; "
            f"{n} samples leave {n * (100.0 - percent) / 100.0:.1f}"
        )
    ordered = sorted(values)
    position = (n - 1) * percent / 100.0
    low = int(position)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def try_high_percentile(values: Sequence[float], percent: float) -> Optional[float]:
    """:func:`high_percentile`, or None where the rule refuses it."""
    try:
        return high_percentile(values, percent)
    except TooFewSamples:
        return None


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with the quartiles of ``statistics.quantiles``
    (the contract's definition of run-to-run spread)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
