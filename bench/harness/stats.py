"""Order statistics used by every reported figure.

The reference box is a small shared VM whose cores flip, for seconds at
a time, between a fast state and one about 1.4x slower (a fixed spin
loop reads 11 ms or 16 ms, nothing else running).  A figure taken over
a whole phase, or the median of a few long segments, lands on either
side of that flip by luck.  So every timed phase is cut into short equal
segments and the figure is taken from the quiet end of them: interference
only ever adds time, so the fast segments are the ones that show what
the program costs.  Throughput is read at a low percentile of the
segment durations, latency at the same percentile of the segments'
medians.
"""

from __future__ import annotations

import statistics
from typing import List, Sequence

from harness.specs import FAST_PERCENT

__all__ = [
    "percentile",
    "split_segments",
    "quiet_median",
    "spread_share",
]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Raises:
        ValueError: on an empty sample or ``q`` outside ``[0, 100]``.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def split_segments(values: Sequence, segments: int) -> List[Sequence]:
    """``values`` cut into ``segments`` contiguous equal-length runs.

    A remainder that does not fill a segment is dropped from the tail,
    so every segment carries the same weight in the median.

    Raises:
        ValueError: when there are fewer values than segments.
    """
    if segments < 1:
        raise ValueError(f"segments must be >= 1, got {segments}")
    size = len(values) // segments
    if size < 1:
        raise ValueError(
            f"{len(values)} value(s) cannot fill {segments} segment(s)"
        )
    return [values[i * size : (i + 1) * size] for i in range(segments)]


def quiet_median(samples: Sequence[float], per_segment: int) -> float:
    """The median a segment of ``samples`` reaches while the host is quiet.

    ``samples`` are cut into segments of ``per_segment`` (a remainder is
    dropped), each gives its median — which one stalled sample inside it
    does not move — and the result is the ``FAST_PERCENT``-th percentile
    of those medians: interference only ever adds time, so the fast end
    of the segments is the program's own cost, and it is the end that
    repeats from run to run.
    """
    parts = split_segments(samples, len(samples) // per_segment)
    return percentile([statistics.median(part) for part in parts], FAST_PERCENT)


def spread_share(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median.

    The quartiles are ``statistics.quantiles(values, n=4)`` — the same
    rule the acceptance driver applies to ten runs of one workload.
    """
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    if middle == 0:
        return 0.0 if third == first else float("inf")
    return (third - first) / abs(middle)
