"""Unit tests for throughput metering and the ground-truth evaluator."""

import time

import pytest

from repro.core.actions import Action
from repro.experiments.metrics import (
    RateEstimator,
    StreamEvaluator,
    ThroughputMeter,
)
from tests.conftest import (
    make_paper_stream,
    random_stream,
    window_index,
    window_pairs,
    window_times,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestRateEstimator:
    def test_initial_rate_zero(self):
        assert RateEstimator().rate == 0.0

    def test_steady_rate(self):
        clock = FakeClock()
        estimator = RateEstimator(halflife=10.0, clock=clock)
        for _ in range(20):
            clock.now += 1.0
            estimator.record(50)
        # 50 events per second, read at the slide boundary (a read taken
        # later decays toward zero by design — see the idle test).
        assert estimator.rate == pytest.approx(50.0, rel=0.05)

    def test_rate_tracks_recent_past(self):
        clock = FakeClock()
        estimator = RateEstimator(halflife=2.0, clock=clock)
        for _ in range(10):
            clock.now += 1.0
            estimator.record(100)
        fast = estimator.rate
        for _ in range(20):
            clock.now += 1.0
            estimator.record(10)
        slow = estimator.rate
        assert fast == pytest.approx(100.0, rel=0.1)
        assert slow == pytest.approx(10.0, rel=0.1)

    def test_idle_stream_decays_to_zero(self):
        clock = FakeClock()
        estimator = RateEstimator(halflife=1.0, clock=clock)
        estimator.record(100)
        clock.now += 1.0
        estimator.record(100)
        busy = estimator.rate
        clock.now += 60.0  # one idle minute
        assert estimator.rate < busy / 100

    def test_halflife_validated(self):
        with pytest.raises(ValueError, match="halflife"):
            RateEstimator(halflife=0.0)


class TestThroughputMeter:
    def test_initial_state(self):
        meter = ThroughputMeter()
        assert meter.throughput == 0.0
        assert meter.elapsed == 0.0
        assert meter.actions == 0

    def test_accumulates(self):
        meter = ThroughputMeter()
        meter.start()
        time.sleep(0.01)
        interval = meter.stop(100)
        assert interval > 0
        assert meter.actions == 100
        assert meter.throughput == pytest.approx(100 / meter.elapsed)

    def test_double_start_rejected(self):
        meter = ThroughputMeter()
        meter.start()
        with pytest.raises(RuntimeError, match="already started"):
            meter.start()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError, match="not started"):
            ThroughputMeter().stop(1)


class TestStreamEvaluator:
    def test_influence_value_matches_example(self):
        evaluator = StreamEvaluator(window_size=8)
        evaluator.feed(make_paper_stream()[:8])
        assert evaluator.influence_value({1, 3}) == 5.0
        evaluator.feed(make_paper_stream()[8:])
        assert evaluator.influence_value({2, 3}) == 6.0
        assert evaluator.influence_value({1, 3}) == 4.0

    def test_window_expiry(self):
        evaluator = StreamEvaluator(window_size=2)
        evaluator.feed([Action.root(1, 1), Action.root(2, 2), Action.root(3, 3)])
        assert evaluator.influence_value({1}) == 0.0
        assert evaluator.influence_value({2, 3}) == 2.0

    def test_index_matches_window(self):
        """Feeds of any length, one longer than the window, keep exactly
        the last ``N`` actions' influence."""
        actions = random_stream(60, 7, seed=9)
        evaluator = StreamEvaluator(window_size=10)
        for start, stop in ((0, 3), (3, 4), (4, 19), (19, 31), (31, 60)):
            evaluator.feed(actions[start:stop])
            expected = window_index(actions[:stop], 10)
            assert window_pairs(evaluator.index) == window_pairs(expected)
            assert window_times(evaluator) == [
                a.time for a in actions[max(0, stop - 10):stop]
            ]

    def test_quality_runs_monte_carlo(self):
        evaluator = StreamEvaluator(window_size=8)
        evaluator.feed(make_paper_stream()[:8])
        spread = evaluator.quality({1, 3}, mc_rounds=200, seed=1)
        # Seeds themselves activate, so spread >= |{1,3} ∩ graph nodes|.
        assert spread >= 2.0
        assert spread <= 6.0

    def test_quality_deterministic_under_seed(self):
        evaluator = StreamEvaluator(window_size=8)
        evaluator.feed(make_paper_stream()[:8])
        a = evaluator.quality({1, 3}, mc_rounds=100, seed=3)
        b = evaluator.quality({1, 3}, mc_rounds=100, seed=3)
        assert a == b

    def test_empty_seed_quality(self):
        evaluator = StreamEvaluator(window_size=8)
        evaluator.feed(make_paper_stream()[:8])
        assert evaluator.quality(set(), mc_rounds=10, seed=1) == 0.0
