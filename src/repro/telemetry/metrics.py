"""Metric primitives and a labeled registry.

Overhead contract (see DESIGN.md "Telemetry plane"):

- ``Histogram.observe`` is a bisect into a **preallocated** bucket-count
  list plus three scalar updates — no allocation, no lock.
- Metrics assume the repo-wide single-writer invariant: one thread
  mutates a given metric.  Readers (the HTTP scrape path) only ever
  copy scalars and lists, which is safe under CPython without locks;
  a snapshot is internally consistent per metric, not across metrics.
- Registry *creation* (get-or-create of a labeled child) takes a small
  lock; wire-up happens at construction time, not per slide.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# Log-spaced 1/2.5/5 ladder from 100 microseconds to one minute.  Fixed
# at module import so every histogram shares one bounds tuple and the
# prometheus ``le`` labels line up across scrapes.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0,
    10.0, 30.0, 60.0,
)


class Counter:
    """Monotone counter (floats allowed: busy-seconds accumulate here)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount


class Gauge:
    """Point-in-time value (queue depth, shards degraded, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1) to the gauge."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` (default 1) from the gauge."""
        self.value -= amount


class Histogram:
    """Fixed-bucket latency histogram with exact count/sum/max.

    Bucket counts are *non-cumulative* internally (one ``+= 1`` per
    observe); cumulative sums are computed at snapshot/render time,
    off the hot path.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "max")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be strictly increasing")
        self.bounds = bounds
        # One extra slot for the +Inf overflow bucket.
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``value`` ``count`` times: one bucket bump, count/sum/max."""
        self.counts[bisect_left(self.bounds, value)] += count
        self.count += count
        self.sum += value * count
        if value > self.max:
            self.max = value

    def percentile(self, q: float) -> float:
        """Linear-interpolated quantile estimate, ``q`` in [0, 1].

        Within a bucket the mass is assumed uniform between the previous
        bound and the bucket's own bound; the overflow bucket reports
        the observed max.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        total = self.count
        if total == 0:
            return 0.0
        rank = q * total
        seen = 0
        lo = 0.0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                if i < len(self.bounds):
                    lo = self.bounds[i]
                continue
            if seen + bucket_count >= rank:
                if i >= len(self.bounds):  # overflow bucket
                    return self.max
                hi = self.bounds[i]
                fraction = (rank - seen) / bucket_count
                return min(lo + (hi - lo) * fraction, self.max if self.max else hi)
            seen += bucket_count
            lo = self.bounds[i] if i < len(self.bounds) else lo
        return self.max

    def summary(self) -> Dict[str, float]:
        """JSON-friendly digest: count, sum, mean, p50/p95/p99, max."""
        count = self.count
        return {
            "count": count,
            "sum": round(self.sum, 6),
            "mean": round(self.sum / count, 6) if count else 0.0,
            "p50": round(self.percentile(0.50), 6),
            "p95": round(self.percentile(0.95), 6),
            "p99": round(self.percentile(0.99), 6),
            "max": round(self.max, 6),
        }

    def cumulative_counts(self) -> List[int]:
        """Prometheus-style running bucket totals (last = total count)."""
        out: List[int] = []
        running = 0
        for bucket_count in self.counts:
            running += bucket_count
            out.append(running)
        return out


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

LabelPairs = Tuple[Tuple[str, str], ...]


class _Family:
    """All children of one metric name, keyed by sorted label pairs."""

    __slots__ = ("name", "kind", "help", "buckets", "children")

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        buckets: Optional[Sequence[float]],
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.buckets = buckets
        self.children: Dict[LabelPairs, object] = {}

    def child(self, labels: LabelPairs):
        metric = self.children.get(labels)
        if metric is None:
            if self.kind == "histogram":
                metric = Histogram(self.buckets or DEFAULT_LATENCY_BUCKETS)
            else:
                metric = _KINDS[self.kind]()
            self.children[labels] = metric
        return metric


def _label_key(labels: Dict[str, str]) -> LabelPairs:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Get-or-create registry of labeled metric families.

    ``counter`` / ``gauge`` / ``histogram`` return the live metric
    object; hold on to it at wire-up time rather than re-resolving
    per observation.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        buckets: Optional[Sequence[float]] = None,
    ) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text, buckets)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}"
                )
            return family

    def counter(self, name: str, help_text: str = "", **labels: str) -> Counter:
        """Get or create the counter ``name`` with these labels."""
        family = self._family(name, "counter", help_text)
        with self._lock:
            return family.child(_label_key(labels))  # type: ignore[return-value]

    def gauge(self, name: str, help_text: str = "", **labels: str) -> Gauge:
        """Get or create the gauge ``name`` with these labels."""
        family = self._family(name, "gauge", help_text)
        with self._lock:
            return family.child(_label_key(labels))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Optional[Sequence[float]] = None,
        **labels: str,
    ) -> Histogram:
        """Get or create the histogram ``name`` with these labels."""
        family = self._family(name, "histogram", help_text, buckets)
        with self._lock:
            return family.child(_label_key(labels))  # type: ignore[return-value]

    def attach(
        self,
        name: str,
        kind: str,
        metric,
        help_text: str = "",
        **labels: str,
    ):
        """Adopt an externally-owned metric (e.g. a layer's histogram).

        Layers that cannot see the registry at construction time own
        their metric objects directly; the server grafts them in here so
        one snapshot/exposition covers everything.
        """
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        family = self._family(
            name, kind, help_text, getattr(metric, "bounds", None)
        )
        with self._lock:
            family.children[_label_key(labels)] = metric
        return metric

    def families(self) -> Iterable[_Family]:
        """A point-in-time copy of every registered family."""
        with self._lock:
            return list(self._families.values())

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly snapshot: histograms as p50/p95/p99 summaries."""
        out: Dict[str, object] = {}
        for family in self.families():
            entries = {}
            for labels, metric in list(family.children.items()):
                key = ",".join(f"{k}={v}" for k, v in labels) or "_"
                if isinstance(metric, Histogram):
                    entries[key] = metric.summary()
                else:
                    value = metric.value  # type: ignore[attr-defined]
                    entries[key] = round(value, 6)
            out[family.name] = entries if set(entries) != {"_"} else entries["_"]
        return out
