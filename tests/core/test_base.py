"""Unit tests for the SIMAlgorithm base plumbing."""

import numpy as np
import pytest

from repro.core.actions import Action
from repro.core.base import SIMAlgorithm, SIMResult
from repro.core.diffusion import records_to_columns
from repro.core.resolve import ResolvedSlide, SlideResolver
from repro.core.stream import batched
from repro.telemetry.trace import TraceRecorder
from tests.conftest import random_stream, states_equal, store_roundtrip


class Recorder(SIMAlgorithm):
    """Minimal concrete algorithm capturing slide callbacks."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.slides = []

    def _on_slide(self, arrived):
        self.slides.append(list(arrived))

    def query(self):
        return SIMResult(time=self.now, seeds=frozenset(), value=0.0)


class ResolvedRecorder(Recorder):
    """A recorder that also absorbs pre-resolved slides."""

    def _on_slide_resolved(self, resolved):
        self.slides.append(list(resolved.records))


class TestValidation:
    def test_rejects_non_positive_k(self):
        with pytest.raises(ValueError, match="k must be positive"):
            Recorder(window_size=5, k=0)

    @pytest.mark.parametrize("size", [0, -3])
    def test_rejects_non_positive_window(self, size):
        with pytest.raises(ValueError, match="window size must be positive"):
            Recorder(window_size=size, k=1)

    def test_rejects_small_retention(self):
        with pytest.raises(ValueError, match="retention"):
            Recorder(window_size=10, k=1, retention=9)

    def test_accepts_retention_equal_to_window(self):
        Recorder(window_size=10, k=1, retention=10)


class TestBaseState:
    def test_base_state_is_the_clock_and_the_forest(self):
        """The window is ``N`` and the clock; the base keeps no actions or
        records of its own."""
        algorithm = Recorder(window_size=6, k=1, retention=6)
        for batch in batched(random_stream(30, 5, seed=4, recent_bias=6), 4):
            algorithm.process(batch)
        state = algorithm._base_state()
        assert set(state) == {"window", "forest", "actions_processed"}
        assert state["window"] == {"size": 6, "last_time": 30}
        restored = Recorder(window_size=6, k=1, retention=6)
        restored._restore_base(store_roundtrip(state))
        assert (restored.window_size, restored.now) == (6, 30)
        assert restored.actions_processed == 30
        assert states_equal(restored._base_state(), state)

    def test_older_documents_window_entries_are_ignored(self):
        """Documents written while the base kept the window's actions and
        records still restore; those entries are not read."""
        algorithm = Recorder(window_size=6, k=1)
        for batch in batched(random_stream(30, 5, seed=4), 4):
            algorithm.process(batch)
        state = algorithm._base_state()
        older = dict(state, window=dict(state["window"], actions=np.zeros((6, 3), np.int64)))
        older["window_records"] = records_to_columns(
            list(algorithm.forest.record(t) for t in range(25, 31))
        )
        restored = Recorder(window_size=6, k=1)
        restored._restore_base(store_roundtrip(older))
        assert states_equal(restored._base_state(), state)


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
        arrived, = algorithm.slides
        assert [r.time for r in arrived] == [1, 2]
        assert [r.user for r in arrived] == [5, 6]

    def test_rejects_out_of_order(self):
        algorithm = Recorder(window_size=3, k=1)
        algorithm.process([Action.root(5, 0)])
        for time in (5, 4):
            with pytest.raises(ValueError, match="out-of-order"):
                algorithm.process([Action.root(time, 0)])
        assert algorithm.now == 5

    def test_resolve_slide_leaves_the_clock(self):
        """Resolution feeds the forest only; the clock and the hook wait
        for the application."""
        algorithm = Recorder(window_size=4, k=1)
        resolved = algorithm.resolve_slide([Action.root(1, 5), Action.response(2, 6, 1)])
        assert (resolved.start, resolved.last, resolved.count) == (1, 2, 2)
        assert [r.influencers for r in resolved.records] == [(5,), (5, 6)]
        assert algorithm.forest.actions_seen == 2
        assert (algorithm.now, algorithm.actions_processed) == (0, 0)
        assert algorithm.slides == []

    def test_rejected_batch_leaves_no_trace(self):
        """A batch with one out-of-order action is refused whole: the
        forest, the clock and the hook see none of it."""
        algorithm = Recorder(window_size=4, k=1)
        algorithm.process([Action.root(3, 0)])
        with pytest.raises(ValueError, match="out-of-order"):
            algorithm.process([Action.root(4, 1), Action.root(6, 2), Action.root(5, 3)])
        assert algorithm.forest.actions_seen == 1
        assert (algorithm.now, algorithm.actions_processed) == (3, 1)
        assert len(algorithm.slides) == 1

    def test_traced_slide_splits_into_forest_and_oracle_stages(self):
        algorithm = Recorder(window_size=4, k=1)
        recorder = TraceRecorder()
        trace = recorder.begin(slide=1, actions=3)
        algorithm.process([Action.root(t, t) for t in (1, 2, 3)])
        recorder.finish(trace)
        assert list(trace.stages) == ["forest_index", "oracle"]
        assert [items for _seconds, items in trace.stages.values()] == [3, 3]

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
        assert algorithm.forest.actions_seen == 0


class TestApplyResolved:
    def test_advances_the_clock_and_hands_over_records(self):
        resolver = SlideResolver()
        algorithm = ResolvedRecorder(window_size=4, k=1)
        first = resolver.resolve([Action.root(1, 5), Action.response(2, 6, 1)])
        second = resolver.resolve([Action.response(4, 7, 2)])
        algorithm.apply_resolved(first)
        algorithm.apply_resolved(second)
        assert (algorithm.now, algorithm.actions_processed) == (4, 3)
        assert algorithm.slides == [list(first.records), list(second.records)]
        assert algorithm.forest.actions_seen == 0

    def test_default_hook_refuses_pre_resolved_slides(self):
        """An algorithm that needs its own forest walk refuses the routed
        path instead of silently diverging."""
        algorithm = Recorder(window_size=4, k=1)
        slide = SlideResolver().resolve([Action.root(1, 5)])
        with pytest.raises(NotImplementedError, match="pre-resolved"):
            algorithm.apply_resolved(slide)
        assert algorithm.slides == []

    def test_traced_apply_times_only_the_oracle_stage(self):
        algorithm = ResolvedRecorder(window_size=4, k=1)
        slide = SlideResolver().resolve([Action.root(t, t) for t in (1, 2)])
        recorder = TraceRecorder()
        trace = recorder.begin(slide=1, actions=2)
        algorithm.apply_resolved(slide)
        algorithm.apply_resolved(ResolvedSlide.empty())
        recorder.finish(trace)
        assert list(trace.stages) == ["oracle"]
        assert trace.stages["oracle"][1] == 2
