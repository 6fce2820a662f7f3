"""Order statistics for latency samples.

A tail percentile is only reported when the sample supports it: at
least :data:`MIN_TAIL` samples must lie beyond it, so a "p95" drawn
from twelve requests is never mistaken for a measured tail.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: Samples that must lie strictly beyond a percentile for it to count
#: as measured.
MIN_TAIL = 10

#: Tail percentiles considered, lowest first.
TAIL_PERCENTILES = (90.0, 95.0, 99.0, 99.9)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank ``q``-th."""
    return count - max(1, math.ceil(q / 100.0 * count))


def supported_tail(count: int) -> Optional[float]:
    """The highest tail percentile with :data:`MIN_TAIL` samples beyond it."""
    best = None
    for q in TAIL_PERCENTILES:
        if beyond(count, q) >= MIN_TAIL:
            best = q
    return best


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, the supported tail percentile and the sample count."""
    count = len(values)
    tail_q = supported_tail(count)
    return {
        "n": count,
        "p50": statistics.median(values) if values else None,
        "tail_q": tail_q,
        "tail": percentile(values, tail_q) if tail_q is not None else None,
    }


def describe(values: Sequence[float], unit: str = "ms") -> str:
    """One table cell: ``p50=.. p95=.. (n=..)``; an unsupported tail is named."""
    summary = summarize(values)
    if summary["n"] == 0:
        return "no samples"
    text = f"p50={summary['p50']:.2f}{unit}"
    if summary["tail_q"] is not None:
        text += f" p{summary['tail_q']:g}={summary['tail']:.2f}{unit}"
    else:
        text += " (no tail percentile supported)"
    return text + f" n={summary['n']}"
