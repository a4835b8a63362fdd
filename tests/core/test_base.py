"""Unit tests for the SIMAlgorithm base plumbing."""

import pytest

from repro.core.actions import Action
from repro.core.base import SIMAlgorithm, SIMResult
from repro.core.diffusion import records_to_columns
from repro.core.stream import batched
from tests.conftest import random_stream, states_equal, store_roundtrip


class Recorder(SIMAlgorithm):
    """Minimal concrete algorithm capturing slide callbacks."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.slides = []

    def _on_slide(self, arrived, expired):
        self.slides.append((list(arrived), list(expired)))

    def query(self):
        return SIMResult(time=self.now, seeds=frozenset(), value=0.0)


class TestValidation:
    def test_rejects_non_positive_k(self):
        with pytest.raises(ValueError, match="k must be positive"):
            Recorder(window_size=5, k=0)

    def test_rejects_small_retention(self):
        with pytest.raises(ValueError, match="retention"):
            Recorder(window_size=10, k=1, retention=9)

    def test_accepts_retention_equal_to_window(self):
        Recorder(window_size=10, k=1, retention=10)


class TestBaseState:
    @pytest.mark.parametrize("gap", [0, 40], ids=["dense", "window-record-pruned"])
    def test_window_records_state_is_the_window_records(self, gap):
        """Copied from the forest's newest rows, or — once a retention
        horizon pruned a window record, which needs a gap in the
        timestamps — written from the records themselves."""
        shift = lambda time: time + gap if time > 27 else time
        actions = [
            Action(shift(a.time), a.user, a.parent if a.is_root else shift(a.parent))
            for a in random_stream(30, 5, seed=4, recent_bias=6)
        ]
        algorithm = Recorder(window_size=6, k=1, retention=6)
        for batch in batched(actions, 4):
            algorithm.process(batch)
        window = list(algorithm._window_records)
        assert (window[0].time in algorithm.forest) == (gap == 0)
        state = algorithm._base_state()
        assert states_equal(state["window_records"], records_to_columns(window))
        restored = Recorder(window_size=6, k=1, retention=6)
        restored._restore_base(store_roundtrip(state))
        assert list(restored._window_records) == window


class TestSliding:
    def test_empty_batch_is_noop(self):
        algorithm = Recorder(window_size=4, k=1)
        algorithm.process([])
        assert algorithm.slides == []
        assert algorithm.actions_processed == 0

    def test_arrived_records_match_batch(self):
        algorithm = Recorder(window_size=4, k=1)
        batch = [Action.root(1, 5), Action.response(2, 6, 1)]
        algorithm.process(batch)
        (arrived, expired), = algorithm.slides
        assert [r.time for r in arrived] == [1, 2]
        assert [r.user for r in arrived] == [5, 6]
        assert expired == []

    def test_expired_records_reported_in_order(self):
        algorithm = Recorder(window_size=3, k=1)
        actions = random_stream(10, 4, seed=1)
        for action in actions:
            algorithm.process([action])
        # After 10 single slides with N=3, expiries are actions 1..7.
        expired_times = [
            r.time for _, expired in algorithm.slides for r in expired
        ]
        assert expired_times == list(range(1, 8))

    def test_now_tracks_latest_action(self):
        algorithm = Recorder(window_size=4, k=1)
        algorithm.process([Action.root(1, 0)])
        assert algorithm.now == 1
        algorithm.process([Action.root(2, 0), Action.root(3, 1)])
        assert algorithm.now == 3

    def test_process_stream(self):
        algorithm = Recorder(window_size=4, k=1)
        from repro.core.stream import batched

        algorithm.process_stream(batched(random_stream(9, 3, seed=2), 3))
        assert algorithm.actions_processed == 9
        assert len(algorithm.slides) == 3

    def test_properties(self):
        algorithm = Recorder(window_size=7, k=3)
        assert algorithm.k == 3
        assert algorithm.window_size == 7
        assert algorithm.window.size == 7
        assert algorithm.forest.actions_seen == 0
