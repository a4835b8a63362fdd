"""Unit tests for the IMM/UBI SIM adapters."""

from repro.baselines.adapters import IMMAlgorithm, UBIAlgorithm
from repro.core.stream import batched
from tests.conftest import (
    random_stream,
    window_index,
    window_pairs,
    window_times,
)


def drive(algorithm, actions, slide=5):
    for batch in batched(actions, slide):
        algorithm.process(batch)
    return algorithm


class TestIMMAdapter:
    def test_query_returns_seeds(self):
        imm = IMMAlgorithm(window_size=40, k=3, seed=1, max_rr_sets=500)
        drive(imm, random_stream(100, 10, seed=1))
        result = imm.query()
        assert 0 < len(result.seeds) <= 3
        assert result.time == 100

    def test_window_expiry_respected(self):
        imm = IMMAlgorithm(window_size=20, k=2, seed=2, max_rr_sets=500)
        drive(imm, random_stream(100, 8, seed=2))
        # The adapter's index only holds window pairs.
        for u in imm.index:
            assert imm.index.influence_set(u)

    def test_index_matches_window(self):
        imm = IMMAlgorithm(window_size=25, k=2, seed=7, max_rr_sets=100)
        actions = random_stream(80, 6, seed=7)
        drive(imm, actions, slide=7)
        expected = window_index(actions, 25)
        assert window_pairs(imm.index) == window_pairs(expected)
        assert window_times(imm) == [a.time for a in actions[-25:]]

    def test_empty_window_query(self):
        imm = IMMAlgorithm(window_size=10, k=2, seed=3, max_rr_sets=100)
        result = imm.query()
        assert result.seeds == frozenset()


class TestUBIAdapter:
    def test_query_returns_seeds(self):
        ubi = UBIAlgorithm(window_size=40, k=3, seed=4, rr_samples=300)
        drive(ubi, random_stream(100, 10, seed=4))
        result = ubi.query()
        assert 0 < len(result.seeds) <= 3

    def test_tracker_exposed(self):
        ubi = UBIAlgorithm(window_size=30, k=2, seed=5, rr_samples=200)
        drive(ubi, random_stream(60, 8, seed=5))
        assert ubi.tracker.seeds == ubi.query().seeds

    def test_index_matches_window(self):
        ubi = UBIAlgorithm(window_size=25, k=2, seed=6, rr_samples=200)
        actions = random_stream(80, 6, seed=6)
        drive(ubi, actions)
        # Compare against a freshly built exact index.
        expected = window_index(actions, 25)
        for user in expected:
            assert ubi.index.influence_set(user) == expected.influence_set(user)
