"""The benchmark's own arithmetic: tails, ratios and failure counts.

Kept free of any ``repro`` import so the unit tests in
``perfbench/tests`` exercise it without running a simulation.
"""

import math
from typing import Iterable, Sequence, Tuple

__all__ = [
    "TAIL_BEYOND",
    "fail_frac",
    "geomean",
    "ratio",
    "tail",
]

#: A tail percentile is reported only where at least this many samples
#: lie beyond it, so one slow outlier cannot move it on its own.
TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile, samples)``.  With ``n`` samples sorted
    ascending, the sample at 0-based rank ``n - TAIL_BEYOND - 1`` is the
    highest one that still has ``TAIL_BEYOND`` samples after it; it sits
    at percentile ``100 * (n - TAIL_BEYOND) / n``.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(
            "a tail needs more than %d samples, got %d" % (TAIL_BEYOND, n))
    ordered = sorted(values)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def geomean(ratios: Iterable[float]) -> float:
    """Geometric mean of positive ratios."""
    logs = []
    for r in ratios:
        if r <= 0:
            raise ValueError("geometric mean of a non-positive ratio %r" % r)
        logs.append(math.log(r))
    if not logs:
        raise ValueError("geometric mean of no ratios")
    return math.exp(sum(logs) / len(logs))


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, and 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


def fail_frac(outcomes: Sequence[bool]) -> Tuple[int, int, float]:
    """``(attempted, failed, fraction)`` from per-cell pass flags."""
    attempted = len(outcomes)
    failed = sum(1 for ok in outcomes if not ok)
    return attempted, failed, ratio(failed, attempted)

