"""Unit and property tests for the diffusion forest."""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import ROOT, Action
from repro.core.diffusion import DiffusionForest
from repro.core.resolve import SlideResolver
from repro.core.stream import batched
from tests.conftest import random_stream, states_equal, store_roundtrip


class TestResolution:
    def test_root_influences_itself(self):
        forest = DiffusionForest()
        record = forest.add(Action.root(1, 7))
        assert record.influencers == (7,)
        assert record.depth == 1

    def test_response_credits_parent_chain(self):
        forest = DiffusionForest()
        forest.add(Action.root(1, 1))
        forest.add(Action.response(2, 2, 1))
        record = forest.add(Action.response(3, 3, 2))
        assert record.influencers == (1, 2, 3)
        assert record.depth == 3

    def test_duplicate_user_in_chain_collapses(self):
        forest = DiffusionForest()
        forest.add(Action.root(1, 1))
        forest.add(Action.response(2, 2, 1))
        record = forest.add(Action.response(3, 1, 2))  # u1 responds to own chain
        assert record.influencers == (2, 1)
        assert record.fanout == 2

    def test_paper_example_influencers(self, paper_stream):
        forest = DiffusionForest()
        records = {a.time: forest.add(a) for a in paper_stream}
        # a8 = <u4, a7>, chain a7 -> a3 (u5, u3): influencers u3, u5, u4.
        assert set(records[8].influencers) == {3, 5, 4}
        assert records[8].depth == 3
        # a4 = <u3, a1>: u1 then u3.
        assert records[4].influencers == (1, 3)

    def test_rejects_duplicate_add(self):
        forest = DiffusionForest()
        forest.add(Action.root(1, 1))
        with pytest.raises(ValueError, match="already added"):
            forest.add(Action.root(1, 2))

    def test_late_actions_resolve_only_below_the_horizon(self):
        forest = DiffusionForest()
        forest.add(Action.root(1, 1))
        forest.add(Action.root(5, 2))
        forest.prune_before(3)
        with pytest.raises(ValueError, match="only appends"):
            forest.add(Action.root(3, 3))
        # A redelivery the horizon already dropped: a root, not stored.
        record = forest.add(Action.response(2, 3, 1))
        assert (record.influencers, record.depth) == ((3,), 1)
        assert 2 not in forest and len(forest) == 1
        assert forest.truncated_chains == 1

    def test_record_lookup(self):
        forest = DiffusionForest()
        forest.add(Action.root(1, 4))
        assert forest.record(1).user == 4
        with pytest.raises(KeyError):
            forest.record(99)


class TestStatistics:
    def test_mean_and_max_depth(self):
        forest = DiffusionForest()
        forest.add(Action.root(1, 1))  # depth 1
        forest.add(Action.response(2, 2, 1))  # depth 2
        forest.add(Action.response(3, 3, 2))  # depth 3
        assert forest.mean_depth == pytest.approx(2.0)
        assert forest.max_depth == 3
        assert forest.actions_seen == 3

    def test_empty_forest_statistics(self):
        forest = DiffusionForest()
        assert forest.mean_depth == 0.0
        assert forest.max_depth == 0


class TestRetention:
    def test_prune_before_drops_old_records(self):
        forest = DiffusionForest()
        for t in range(1, 6):
            forest.add(Action.root(t, t))
        dropped = forest.prune_before(4)
        assert dropped == 3
        assert 3 not in forest
        assert 4 in forest

    def test_retention_truncates_late_responses(self):
        forest = DiffusionForest(retention=2)
        forest.add(Action.root(1, 1))
        forest.add(Action.root(2, 2))
        forest.add(Action.root(3, 3))
        forest.add(Action.root(4, 4))  # prunes t=1
        record = forest.add(Action.response(5, 5, 1))  # parent pruned
        assert record.influencers == (5,)
        assert record.depth == 1
        assert forest.truncated_chains == 1

    def test_retention_bounds_the_columns(self):
        forest = DiffusionForest(retention=10)
        for t in range(1, 1000):
            forest.add(Action.root(t, t % 7))
        assert len(forest) == 11
        assert len(forest._time) <= 2 * len(forest) + 1  # compacted
        assert forest.actions_seen == 999 and forest.max_depth == 1

    def test_retention_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            DiffusionForest(retention=0)

    def test_prune_with_large_sparse_gap(self):
        """Pruning far past the retained range must not orphan records."""
        forest = DiffusionForest()
        forest.add(Action.root(1, 1))
        forest.add(Action.root(10_000, 2))
        forest.add(Action.root(10_001, 3))
        dropped = forest.prune_before(50_000)
        assert dropped == 3
        assert len(forest) == 0
        assert 10_000 not in forest

    def test_prune_sparse_keeps_recent(self):
        forest = DiffusionForest()
        forest.add(Action.root(1, 1))
        forest.add(Action.root(90_000, 2))
        assert forest.prune_before(80_000) == 1
        assert 90_000 in forest
        assert 1 not in forest


def brute_force_influencers(actions, time):
    """Reference: walk parent pointers explicitly."""
    by_time = {a.time: a for a in actions}
    chain = []
    current = by_time[time]
    while True:
        chain.append(current.user)
        if current.is_root:
            break
        current = by_time[current.parent]
    # De-dup keeping the *last* occurrence along root->leaf order (the
    # performer, the leaf, therefore comes last).
    seen = set()
    result = []
    for user in chain:
        if user not in seen:
            seen.add(user)
            result.append(user)
    return tuple(reversed(result)), len(chain)


def with_gaps(actions, gap, seed):
    """``actions`` renumbered with 1..``gap`` steps between timestamps
    (``gap=1`` keeps them dense)."""
    rng = random.Random(seed)
    renumbered = {}
    time = 0
    for action in actions:
        time += rng.randint(1, gap)
        renumbered[action.time] = time
    return [
        Action(renumbered[a.time], a.user, ROOT if a.is_root else renumbered[a.parent])
        for a in actions
    ]


def forest_view(actions, retention):
    """What a forest with ``retention`` resolves, by brute force: a response
    whose parent is below the horizon when it arrives counts as a root.
    Returns ``{time: (influencers, depth)}`` and the final horizon."""
    effective = []
    horizon = 1
    for action in actions:
        if not action.is_root and action.parent < horizon:
            action = Action.root(action.time, action.user)
        effective.append(action)
        if retention is not None:
            horizon = max(horizon, action.time - retention)
    expected = {a.time: brute_force_influencers(effective, a.time) for a in effective}
    return expected, horizon


streams = dict(
    seed=st.integers(0, 10_000),
    gap=st.sampled_from([1, 1, 9]),
    retention=st.none() | st.integers(1, 30),
    recent_bias=st.sampled_from([0, 8]),
)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 80), split=st.floats(0, 1), **streams)
def test_influencers_match_brute_force(n, split, seed, gap, retention, recent_bias):
    """Property: incremental ancestor resolution == explicit chain walk —
    roots, responses, sparse timestamps and a retention horizon; through
    ``add``, ``record`` and a snapshot round trip half way."""
    actions = with_gaps(random_stream(n, 6, seed=seed, recent_bias=recent_bias), gap, seed)
    expected, horizon = forest_view(actions, retention)
    forest = DiffusionForest(retention=retention)
    cut = int(len(actions) * split)
    for action in actions[:cut]:
        record = forest.add(action)
        assert (record.influencers, record.depth) == expected[action.time]
    restored = DiffusionForest.from_state(store_roundtrip(forest.to_state()))
    assert states_equal(restored.to_state(), forest.to_state())
    for action in actions[cut:]:
        record = forest.add(action)
        assert restored.add(action) == record
        assert (record.influencers, record.depth) == expected[action.time]
    assert states_equal(restored.to_state(), forest.to_state())
    for action in actions:
        if action.time < horizon:
            assert action.time not in forest
            continue
        record = forest.record(action.time)
        assert record.user == action.user
        assert (record.influencers, record.depth) == expected[action.time]
    assert len(forest) == sum(a.time >= horizon for a in actions)


@settings(max_examples=40, deadline=None)
@given(slide=st.integers(1, 8), back=st.integers(1, 40), **streams)
def test_resolver_redelivery_reuses_stored_records(
    slide, back, seed, gap, retention, recent_bias
):
    """A redelivered suffix re-resolves to the stored records; an action
    the horizon already pruned resolves as a root and is not stored."""
    actions = with_gaps(random_stream(60, 6, seed=seed, recent_bias=recent_bias), gap, seed)
    expected, _ = forest_view(actions, retention)
    resolver = SlideResolver(retention=retention)
    for batch in batched(actions, slide):
        for record in resolver.resolve(batch).records:
            assert (record.influencers, record.depth) == expected[record.time]
    before = (len(resolver.forest), resolver.now, resolver.actions_processed)
    again = resolver.resolve(actions[-back:])
    for action, record in zip(actions[-back:], again.records):
        if action.time in resolver.forest:
            assert (record.influencers, record.depth) == expected[action.time]
        else:
            assert (record.influencers, record.depth) == ((action.user,), 1)
    assert (len(resolver.forest), resolver.now, resolver.actions_processed) == before


def test_forest_keeps_no_object_per_record():
    """Rows live in columns: 10k adds leave no per-record Python object."""
    actions = random_stream(10_000, 50, seed=3)
    forest = DiffusionForest()
    gc.collect()
    before = len(gc.get_objects())
    for action in actions:
        forest.add(action)
    gc.collect()
    assert len(gc.get_objects()) - before < 100
    assert len(forest) == 10_000
