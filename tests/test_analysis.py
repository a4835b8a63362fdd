"""Unit tests for the optimality-analysis helpers."""

import pytest

from repro.analysis.optimality import (
    MAX_CANDIDATES,
    RatioReport,
    RatioTracker,
    exact_optimum,
)
from repro.core.greedy import WindowedGreedy
from repro.core.actions import Action
from repro.core.diffusion import DiffusionForest
from repro.core.influence_index import (
    AppendOnlyInfluenceIndex,
    InfluenceWindow,
    VersionedInfluenceIndex,
)
from repro.core.sic import SparseInfluentialCheckpoints
from tests.conftest import make_paper_stream, random_stream, window_index


class TestExactOptimum:
    def test_paper_example(self):
        index = window_index(make_paper_stream()[:8], 8)
        seeds, value = exact_optimum(index, k=2)
        assert value == 5.0
        assert seeds == {1, 3}

    def test_empty_index(self):
        seeds, value = exact_optimum(InfluenceWindow(1).view(), k=3)
        assert seeds == frozenset() and value == 0.0

    def test_suffix_view(self):
        """A view of the shared index (what IC's ``shared_index`` and every
        window consumer hand out) is enumerated by iterating it."""
        forest = DiffusionForest()
        shared = VersionedInfluenceIndex()
        for action in make_paper_stream():
            shared.add(forest.add(action))
        assert exact_optimum(shared.view(1), k=2) == (frozenset({2, 3}), 6.0)
        # From a5 on, u3 no longer influences itself (a3 is hidden).
        assert exact_optimum(shared.view(5), k=2) == (frozenset({2, 3}), 5.0)

    def test_index_that_cannot_be_enumerated_is_refused(self):
        index = AppendOnlyInfluenceIndex()
        index.add(DiffusionForest().add(Action.root(1, 1)))
        with pytest.raises(TypeError, match="iterates its influencers"):
            exact_optimum(index, k=1)

    def test_duplicate_influence_sets_deduplicated(self):
        # Users 10..25 all with identical singleton influence sets must not
        # explode the combination count.
        from repro.core.actions import Action

        index = window_index([Action.root(t, 0) for t in range(1, 60)], 59)
        seeds, value = exact_optimum(index, k=2)
        assert value == 1.0

    def test_candidate_limit(self):
        from repro.core.actions import Action

        # All distinct sets.
        actions = [Action.root(t, t) for t in range(1, MAX_CANDIDATES + 3)]
        index = window_index(actions, len(actions))
        with pytest.raises(ValueError, match="brute-force limit"):
            exact_optimum(index, k=2)


class TestRatioTracker:
    def test_greedy_ratio_near_one(self):
        actions = random_stream(60, 6, seed=1)
        tracker = RatioTracker(WindowedGreedy(window_size=15, k=2))
        report = tracker.run(actions, slide=5, warmup_windows=2)
        assert report.windows == 10
        assert report.worst >= 1 - 1 / 2.718281828 - 1e-9
        assert report.mean >= 0.9  # greedy is near-optimal in practice

    def test_sic_ratio_exceeds_theorem4(self):
        beta = 0.2
        actions = random_stream(80, 6, seed=2)
        tracker = RatioTracker(
            SparseInfluentialCheckpoints(window_size=20, k=2, beta=beta)
        )
        report = tracker.run(actions, slide=4, warmup_windows=3)
        assert report.worst >= 0.25 - beta - 1e-9

    def test_report_edge_cases(self):
        empty = RatioReport(ratios=())
        assert empty.worst == 1.0
        assert empty.mean == 1.0
        assert empty.windows == 0
        mixed = RatioReport(ratios=(0.5, 1.0))
        assert mixed.worst == 0.5
        assert mixed.mean == 0.75
