"""Summary statistics the benchmark reports.

A timing is reported as its median and as the highest percentile that
still has at least :data:`MIN_BEYOND` samples beyond it, together with
the sample count.  A named percentile (``p99``) is only valid once the
run collected enough samples for it; :func:`tail_percentile` says how
many that is.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

#: Percentiles the benchmark may report, lowest first.
LADDER = (50.0, 90.0, 99.0)


def percentile(values, p: float) -> float:
    """The *p*-th percentile of *values* by linear interpolation
    between closest ranks (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_needed(p: float) -> int:
    """Smallest sample count with :data:`MIN_BEYOND` samples beyond
    the *p*-th percentile."""
    return math.ceil(round(MIN_BEYOND * 100.0 / (100.0 - p), 6))


def tail_percentile(n: int) -> float | None:
    """The highest percentile of :data:`LADDER` that *n* samples
    support, or ``None`` when even the median lacks the samples."""
    best = None
    for p in LADDER:
        if n >= samples_needed(p):
            best = p
    return best


def tail(values, p: float) -> float:
    """The *p*-th percentile, refusing a sample too small for it."""
    n = len(values)
    if n < samples_needed(p):
        raise ValueError(f"p{p:g} needs {samples_needed(p)} samples, "
                         f"got {n}")
    return percentile(values, p)


def median(values) -> float:
    return statistics.median(values)
