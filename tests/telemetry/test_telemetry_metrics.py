"""Unit tests for the telemetry metric primitives and registry."""

import pytest

from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)
from tests.conftest import parse_prometheus


class TestScalars:
    def test_counter_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_gauge_set_inc_dec(self):
        gauge = Gauge()
        gauge.set(10.0)
        gauge.inc(5.0)
        gauge.dec()
        assert gauge.value == 14.0


class TestHistogram:
    def test_observe_places_values_in_buckets(self):
        hist = Histogram(buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            hist.observe(value)
        assert hist.counts == [1, 1, 1, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(5.555)
        assert hist.max == 5.0

    def test_observe_with_count_equals_repeated_observes(self):
        once, repeated = Histogram(buckets=(0.01, 0.1)), Histogram(buckets=(0.01, 0.1))
        once.observe(0.05, count=3)
        for _ in range(3):
            repeated.observe(0.05)
        assert (once.counts, once.count, once.max) == ([0, 3, 0], 3, 0.05)
        assert (once.counts, once.count, once.max) == (
            repeated.counts, repeated.count, repeated.max,
        )
        assert once.sum == pytest.approx(repeated.sum)

    def test_boundary_value_lands_in_its_bucket(self):
        """`le` is inclusive: an observation equal to a bound counts under it."""
        hist = Histogram(buckets=(0.01, 0.1))
        hist.observe(0.01)
        assert hist.counts == [1, 0, 0]

    def test_cumulative_counts(self):
        hist = Histogram(buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            hist.observe(value)
        assert hist.cumulative_counts() == [1, 2, 3, 4]

    def test_percentile_empty_is_zero(self):
        hist = Histogram()
        assert hist.percentile(0.5) == 0.0
        summary = hist.summary()
        assert summary["count"] == 0
        assert summary["p99"] == 0.0

    def test_percentile_interpolates_within_bucket(self):
        hist = Histogram(buckets=(0.0, 1.0))
        for _ in range(100):
            hist.observe(0.5)
        p50 = hist.percentile(0.5)
        assert 0.0 < p50 <= 1.0

    def test_percentile_never_exceeds_observed_max(self):
        hist = Histogram(buckets=(1.0, 10.0))
        hist.observe(1.5)
        assert hist.percentile(0.99) <= 1.5

    def test_overflow_bucket_reports_max(self):
        hist = Histogram(buckets=(0.001,))
        hist.observe(42.0)
        assert hist.percentile(0.99) == 42.0

    def test_summary_percentile_ordering(self):
        hist = Histogram()
        for i in range(1, 1000):
            hist.observe(i / 1000.0)
        summary = hist.summary()
        assert summary["p50"] <= summary["p95"] <= summary["p99"]
        assert summary["p99"] <= summary["max"]
        assert summary["mean"] == pytest.approx(0.5, abs=0.01)

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 0.5))

    def test_default_buckets_are_shared_and_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)
        assert Histogram().bounds == DEFAULT_LATENCY_BUCKETS


class TestRegistry:
    def test_get_or_create_returns_same_child(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x_total", "help")
        b = registry.counter("repro_x_total")
        assert a is b

    def test_labels_create_distinct_children(self):
        registry = MetricsRegistry()
        a = registry.gauge("repro_shard_up", shard="0")
        b = registry.gauge("repro_shard_up", shard="1")
        assert a is not b
        a.set(1.0)
        assert b.value == 0.0

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_x_total")

    def test_attach_adopts_external_histogram(self):
        registry = MetricsRegistry()
        hist = Histogram()
        hist.observe(0.5)
        adopted = registry.attach(
            "repro_wal_fsync_seconds", "histogram", hist, "help"
        )
        assert adopted is hist
        snapshot = registry.snapshot()
        assert snapshot["repro_wal_fsync_seconds"]["count"] == 1

    def test_attach_rejects_unknown_kind(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="unknown metric kind"):
            registry.attach("repro_x", "timer", Histogram())

    def test_snapshot_shapes(self):
        registry = MetricsRegistry()
        registry.counter("repro_plain_total").inc(3)
        registry.gauge("repro_labeled", shard="0").set(7.0)
        registry.histogram("repro_lat_seconds").observe(0.02)
        snapshot = registry.snapshot()
        assert snapshot["repro_plain_total"] == 3
        assert snapshot["repro_labeled"] == {"shard=0": 7.0}
        summary = snapshot["repro_lat_seconds"]
        assert summary["count"] == 1
        assert {"p50", "p95", "p99", "max"} <= set(summary)


class TestPrometheusRender:
    def test_render_is_parseable_and_complete(self):
        registry = MetricsRegistry()
        registry.counter("repro_actions_total", "Actions seen").inc(41)
        registry.gauge("repro_queue_depth", "Depth").set(3)
        hist = registry.histogram("repro_lat_seconds", "Latency")
        hist.observe(0.003)
        hist.observe(0.3)
        text = render_prometheus(registry)
        assert text.endswith("\n")
        samples = parse_prometheus(text)
        assert samples["repro_actions_total"][""] == 41
        assert samples["repro_queue_depth"][""] == 3
        assert samples["repro_lat_seconds_count"][""] == 2
        assert samples["repro_lat_seconds_sum"][""] == pytest.approx(0.303)
        buckets = samples["repro_lat_seconds_bucket"]
        assert buckets['{le="+Inf"}'] == 2
        # Cumulative counts never decrease across the ladder.
        ordered = [
            buckets[f'{{le="{self._fmt(b)}"}}']
            for b in DEFAULT_LATENCY_BUCKETS
        ]
        assert ordered == sorted(ordered)

    @staticmethod
    def _fmt(bound: float) -> str:
        return str(int(bound)) if bound == int(bound) else repr(bound)

    def test_labeled_children_render_with_labels(self):
        registry = MetricsRegistry()
        registry.counter("repro_shard_restarts_total", shard="0").inc(2)
        registry.counter("repro_shard_restarts_total", shard="1").inc(5)
        samples = parse_prometheus(render_prometheus(registry))
        restarts = samples["repro_shard_restarts_total"]
        assert restarts['{shard="0"}'] == 2
        assert restarts['{shard="1"}'] == 5

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.gauge("repro_g", q='a"b\\c\nd').set(1.0)
        text = render_prometheus(registry)
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        assert "\nd" not in text.replace("\\n", "")
