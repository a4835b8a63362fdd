"""Unit and property tests for windowed greedy (CELF and naive)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import Action
from repro.core.greedy import WindowedGreedy, greedy_seed_selection
from repro.core.influence_index import AppendOnlyInfluenceIndex
from repro.core.diffusion import DiffusionForest
from repro.core.stream import batched
from repro.influence.functions import (
    CardinalityInfluence,
    ConformityAwareInfluence,
    WeightedCardinalityInfluence,
)
from tests.conftest import (
    make_paper_stream,
    random_stream,
    window_index,
    window_pairs,
    window_times,
)


def build_index(actions):
    forest = DiffusionForest()
    index = AppendOnlyInfluenceIndex()
    for action in actions:
        index.add(forest.add(action))
    return index


def drive(algorithm, actions, slide=1):
    for batch in batched(actions, slide):
        algorithm.process(batch)
    return algorithm


class TestSeedSelection:
    def test_empty_candidates(self):
        index = build_index([])
        seeds, value = greedy_seed_selection(index, [], 3, CardinalityInfluence())
        assert seeds == set() and value == 0.0

    def test_stops_when_gain_exhausted(self):
        actions = random_stream(20, 3, seed=1)
        index = build_index(actions)
        seeds, _ = greedy_seed_selection(
            index, range(3), 10, CardinalityInfluence()
        )
        assert len(seeds) <= 3

    def test_lazy_equals_naive(self):
        """CELF must select the same value as the plain greedy."""
        func = CardinalityInfluence()
        for seed in range(6):
            actions = random_stream(80, 9, seed=seed)
            index = build_index(actions)
            candidates = list(range(9))
            lazy_seeds, lazy_value = greedy_seed_selection(
                index, candidates, 3, func, lazy=True
            )
            naive_seeds, naive_value = greedy_seed_selection(
                index, candidates, 3, func, lazy=False
            )
            assert lazy_value == pytest.approx(naive_value)

    def test_weighted_function(self):
        actions = random_stream(60, 6, seed=3)
        index = build_index(actions)
        weights = {u: 10.0 if u == 0 else 1.0 for u in range(6)}
        func = WeightedCardinalityInfluence(weights)
        seeds, value = greedy_seed_selection(index, range(6), 1, func)
        # The single best seed must cover user 0 if anyone influences it.
        covering = [u for u in range(6) if 0 in index.influence_set(u)]
        if covering:
            chosen = next(iter(seeds))
            assert 0 in index.influence_set(chosen)

    def test_non_modular_function(self):
        actions = random_stream(50, 5, seed=4)
        index = build_index(actions)
        func = ConformityAwareInfluence({}, {}, 0.7, 0.6)
        seeds, value = greedy_seed_selection(index, range(5), 2, func)
        assert value == pytest.approx(func.evaluate(seeds, index))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 100_000))
def test_lazy_and_naive_windowed_greedy_select_alike(seed):
    """Both modes take the maximum gain, then the lowest user id, so they
    select the same seeds and value after every slide, whatever order the
    window lists its users in (25 users, N 30, k 3, 12 slides of 5)."""
    actions = random_stream(60, 25, seed=seed)
    lazy = WindowedGreedy(window_size=30, k=3, lazy=True)
    naive = WindowedGreedy(window_size=30, k=3, lazy=False)
    for batch in batched(actions, 5):
        lazy.process(batch)
        naive.process(batch)
        assert lazy.query() == naive.query()


def test_naive_ties_go_to_the_lowest_user_id():
    """Equal gains: the lowest id wins, not the first candidate listed."""
    actions = [Action.root(t, user) for t, user in enumerate((7, 3, 5), start=1)]
    index = build_index(actions)
    for lazy in (True, False):
        seeds, value = greedy_seed_selection(
            index, [7, 5, 3], 2, CardinalityInfluence(), lazy=lazy
        )
        assert seeds == {3, 5} and value == 2.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 3))
def test_greedy_respects_1_minus_1_over_e(seed, k):
    """Property: greedy value >= (1 - 1/e) * OPT (Nemhauser et al.)."""
    actions = random_stream(40, 6, seed=seed)
    index = build_index(actions)
    func = CardinalityInfluence()
    users = [u for u in range(6) if u in index]
    seeds, value = greedy_seed_selection(index, users, k, func)
    best = 0.0
    for combo in itertools.combinations(users, min(k, len(users))):
        best = max(best, func.evaluate(combo, index))
    assert value >= (1 - 1 / 2.718281828) * best - 1e-9


class TestWindowedGreedy:
    def test_paper_example(self):
        greedy = drive(WindowedGreedy(window_size=8, k=2), make_paper_stream()[:8])
        result = greedy.query()
        assert result.seeds == {1, 3}
        assert result.value == 5.0

    def test_paper_example_after_slide(self):
        greedy = drive(WindowedGreedy(window_size=8, k=2), make_paper_stream())
        result = greedy.query()
        assert result.seeds == {2, 3}
        assert result.value == 6.0

    def test_expiry_reduces_values(self):
        actions = random_stream(100, 6, seed=5)
        greedy = WindowedGreedy(window_size=10, k=2)
        drive(greedy, actions)
        # Window holds 10 actions; influence value bounded by active users.
        assert greedy.query().value <= len({a.user for a in actions[-10:]})

    def test_index_matches_window(self):
        """Slides longer than one action expire the same records as the
        one-at-a-time window."""
        actions = random_stream(70, 6, seed=8)
        greedy = drive(WindowedGreedy(window_size=12, k=2), actions, slide=5)
        expected = window_index(actions, 12)
        assert window_pairs(greedy.index) == window_pairs(expected)
        assert window_times(greedy) == [a.time for a in actions[-12:]]

    def test_naive_flag(self):
        actions = random_stream(60, 6, seed=6)
        lazy = drive(WindowedGreedy(window_size=20, k=2, lazy=True), actions)
        naive = drive(WindowedGreedy(window_size=20, k=2, lazy=False), actions)
        assert lazy.query().value == pytest.approx(naive.query().value)

    def test_query_is_stateless(self):
        greedy = drive(WindowedGreedy(window_size=10, k=2),
                       random_stream(30, 5, seed=7))
        first = greedy.query()
        second = greedy.query()
        assert first == second

    def test_retention_validation(self):
        with pytest.raises(ValueError, match="retention"):
            WindowedGreedy(window_size=10, k=1, retention=5)
