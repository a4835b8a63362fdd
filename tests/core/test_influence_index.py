"""Unit and property tests for the influence indexes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import Action
from repro.core.diffusion import DiffusionForest
from repro.core.influence_index import AppendOnlyInfluenceIndex, InfluenceWindow
from tests.conftest import (
    make_paper_stream,
    random_stream,
    store_roundtrip,
    window_index,
    window_pairs,
)
from tests.core.test_diffusion import with_gaps


def brute_force_influence(actions, window_size):
    """Definition 1 computed from scratch: v in I(u) iff some window action
    by v is (in)directly triggered by an action of u (or v == performer of
    an action crediting itself)."""
    by_time = {a.time: a for a in actions}
    window = [a for a in actions if a.time >= actions[-1].time - window_size + 1]
    influence = {}
    for action in window:
        # All chain users influence the performer.
        current = action
        chain_users = set()
        while True:
            chain_users.add(current.user)
            if current.is_root:
                break
            current = by_time[current.parent]
        for u in chain_users:
            influence.setdefault(u, set()).add(action.user)
    return influence


class TestPaperExample:
    def test_influence_sets_at_time_8(self):
        index = window_index(make_paper_stream()[:8], 8)
        assert index.influence_set(1) == {1, 2, 3}
        assert index.influence_set(2) == {2}
        assert index.influence_set(3) == {1, 3, 4, 5}
        assert index.influence_set(4) == {4}
        assert index.influence_set(5) == {4, 5}
        assert index.influence_set(6) == frozenset()

    def test_influence_sets_at_time_10(self):
        index = window_index(make_paper_stream(), 8)
        assert index.influence_set(1) == {1, 3}
        assert index.influence_set(2) == {2, 6}
        assert index.influence_set(3) == {1, 3, 4, 5}
        assert index.influence_set(4) == {4}
        assert index.influence_set(5) == {4, 5}
        assert index.influence_set(6) == {6}

    def test_optimal_coverage_at_8_and_10(self):
        index8 = window_index(make_paper_stream()[:8], 8)
        assert index8.coverage([1, 3]) == {1, 2, 3, 4, 5}
        index10 = window_index(make_paper_stream(), 8)
        assert index10.coverage([2, 3]) == {1, 2, 3, 4, 5, 6}
        # The old optimum loses u2 (Example 2).
        assert len(index10.coverage([1, 3])) == 4


def window_times(window):
    """Times of the records the window holds, oldest first."""
    return window.to_state()["records"]["time"].tolist()


def roots(forest, times, user=lambda t: 100 + t):
    """Root actions at ``times``, resolved."""
    return [forest.add(Action.root(t, user(t))) for t in times]


class TestWindowIndex:
    def test_empty_index(self):
        window = InfluenceWindow(4)
        index = window.view()
        assert len(index) == 0
        assert index.influence_set(1) == frozenset()
        assert index.coverage([1, 2]) == set()
        assert 1 not in index
        assert window_times(window) == []

    @pytest.mark.parametrize(
        ("size", "slides", "kept"),
        [
            (5, [[1, 2, 3]], [1, 2, 3]),
            (3, [[1, 2, 3], [4, 5]], [3, 4, 5]),
            (2, [[1, 2, 3, 4, 5]], [4, 5]),
            (3, [[t] for t in range(1, 11)], [8, 9, 10]),
            (10, [[1, 2], [5, 11, 13]], [5, 11, 13]),
            (4, [[1], [2, 30]], [30]),
        ],
        ids=[
            "fills-without-expiry",
            "overflow",
            "slide-beyond-window",
            "single-slides",
            "gapped",
            "gap-empties-all-but-the-arrival",
        ],
    )
    def test_slide_keeps_the_records_on_the_clock(self, size, slides, kept):
        """A slide expires exactly the records older than ``t − N + 1``."""
        forest = DiffusionForest()
        window = InfluenceWindow(size)
        for times in slides:
            window.slide(roots(forest, times))
        assert window_times(window) == kept
        assert window.start == max(kept[-1] - size + 1, 1)
        assert sorted(window.view()) == [100 + t for t in kept]

    def test_expiring_every_record_leaves_none_of_its_pairs(
        self, small_random_stream
    ):
        forest = DiffusionForest()
        window = InfluenceWindow(len(small_random_stream))
        window.slide([forest.add(a) for a in small_random_stream])
        last = small_random_stream[-1].time
        fresh = [Action.root(last + i, 1000 + i) for i in range(1, 61)]
        window.slide([forest.add(a) for a in fresh])
        assert set(window.view()) == {a.user for a in fresh}
        assert window_pairs(window.view()) == [(a.user, a.user) for a in fresh]
        # Nothing stale stays behind in the store either.
        assert window._pairs.pair_count == len(fresh)

    def test_empty_slide_expires_nothing(self):
        forest = DiffusionForest()
        window = InfluenceWindow(2)
        window.slide(roots(forest, (1, 2), user=lambda t: t))
        window.slide([])
        assert window_times(window) == [1, 2]
        assert sorted(window.view()) == [1, 2]

    def test_restored_records_expire_oldest_first(self):
        """The records ride in the state, so a restored window expires what
        the original would have."""
        forest = DiffusionForest()
        window = InfluenceWindow(3)
        window.slide([
            forest.add(Action.root(1, 1)),
            forest.add(Action.response(2, 2, 1)),
            forest.add(Action.root(3, 3)),
        ])
        restored = InfluenceWindow.from_state(store_roundtrip(window.to_state()), 3)
        assert window_times(restored) == [1, 2, 3]
        restored.slide([forest.add(Action.root(4, 4))])
        assert window_times(restored) == [2, 3, 4]
        assert restored.view().influence_set(1) == {2}
        restored.slide([forest.add(Action.root(5, 5))])
        assert sorted(restored.view()) == [3, 4, 5]

    def test_a_later_credit_keeps_the_pair(self):
        """A pair goes only when its *latest* credit expires."""
        forest = DiffusionForest()
        window = InfluenceWindow(3)
        window.slide([
            forest.add(Action.root(1, 1)),
            forest.add(Action.response(2, 2, 1)),
            forest.add(Action.response(3, 2, 1)),  # (1 -> 2) credited again
        ])
        window.slide(roots(forest, (4,), user=lambda t: 9))  # a1 expires
        assert window.view().influence_set(1) == {2}
        window.slide(roots(forest, (5,), user=lambda t: 9))  # a2: a3 keeps it
        assert window.view().influence_set(1) == {2}
        window.slide(roots(forest, (6,), user=lambda t: 9))  # a3: (1 -> 2) goes
        assert window.view().influence_set(1) == frozenset()
        assert 1 not in window.view()

    def test_influencers_iteration(self):
        index = window_index(make_paper_stream()[:8], 8)
        assert set(index) == {1, 2, 3, 4, 5}


def clock_window(actions, window_size):
    """Definition 1 over the clock window, from scratch: ``{u: I(u)}`` for
    the actions with ``time ≥ t − N + 1``."""
    forest = DiffusionForest()
    records = [forest.add(a) for a in actions]
    start = actions[-1].time - window_size + 1 if actions else 1
    pairs = {}
    for record in records:
        if record.time >= start:
            for u in record.influencers:
                pairs.setdefault(u, set()).add(record.user)
    return pairs


@st.composite
def slide_plan(draw):
    """A window size, a seeded (possibly gapped) stream, slide lengths in
    ``1..3N`` and the slide after which the window goes through a
    snapshot."""
    size = draw(st.integers(1, 8))
    slides = draw(st.lists(st.integers(1, 3 * size), min_size=1, max_size=12))
    seed = draw(st.integers(0, 10_000))
    users = draw(st.integers(1, 8))
    gap = draw(st.sampled_from([1, 1, 3, 12]))
    restore_after = draw(st.integers(0, len(slides)))
    return size, slides, seed, users, gap, restore_after


@settings(max_examples=200, deadline=None, derandomize=True)
@given(plan=slide_plan())
def test_slide_matches_the_clock_window(plan):
    """After every slide the window holds exactly the records with
    ``time ≥ t − N + 1`` and the pairs they credit, the store keeps no
    other pair, and a snapshot taken mid-stream continues identically."""
    size, slides, seed, users, gap, restore_after = plan
    actions = with_gaps(random_stream(sum(slides), users, seed=seed), gap, seed)
    forest = DiffusionForest()
    window = InfluenceWindow(size)
    done = 0
    for step, length in enumerate(slides, start=1):
        window.slide([forest.add(a) for a in actions[done : done + length]])
        done += length
        if step == restore_after:
            window = InfluenceWindow.from_state(
                store_roundtrip(window.to_state()), size
            )
        now = actions[done - 1].time
        assert window_times(window) == [
            a.time for a in actions[:done] if a.time >= now - size + 1
        ]
        expected = clock_window(actions[:done], size)
        view = window.view()
        assert set(view) == set(expected)
        for user in range(users):
            assert view.influence_set(user) == expected.get(user, set())
        assert window._pairs.pair_count == sum(map(len, expected.values()))


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    window_size=st.integers(1, 25),
)
def test_window_index_matches_brute_force(seed, window_size):
    """Property: incremental index == recompute-from-definition."""
    actions = random_stream(50, 7, seed=seed)
    index = window_index(actions, window_size)
    expected = brute_force_influence(actions, window_size)
    assert set(index) == set(expected)
    for user in expected:
        assert index.influence_set(user) == expected[user], user


class TestAppendOnlyIndex:
    def test_add_reports_updated_users(self):
        from repro.core.actions import Action

        forest = DiffusionForest()
        index = AppendOnlyInfluenceIndex()
        r1 = forest.add(Action.root(1, 1))
        assert index.add(r1) == [1]
        r2 = forest.add(Action.response(2, 2, 1))
        assert set(index.add(r2)) == {1, 2}
        # Same structure again: no set grows.
        r3 = forest.add(Action.response(3, 2, 1))
        assert index.add(r3) == []

    def test_sets_only_grow(self, small_random_stream):
        forest = DiffusionForest()
        index = AppendOnlyInfluenceIndex()
        previous_sizes = {}
        for action in small_random_stream:
            index.add(forest.add(action))
            for user in list(previous_sizes):
                assert len(index.influence_set(user)) >= previous_sizes[user]
            for user in range(8):
                previous_sizes[user] = len(index.influence_set(user))

    def test_coverage_union(self):
        from repro.core.actions import Action

        forest = DiffusionForest()
        index = AppendOnlyInfluenceIndex()
        index.add(forest.add(Action.root(1, 1)))
        index.add(forest.add(Action.response(2, 2, 1)))
        index.add(forest.add(Action.root(3, 3)))
        assert index.coverage([1, 3]) == {1, 2, 3}
        assert index.coverage([]) == set()
        assert 1 in index and 9 not in index


class TestWindowExpiryUpdatesSets:
    def test_arrival_grows_a_set(self):
        forest = DiffusionForest()
        window = InfluenceWindow(2)
        window.slide([forest.add(Action.root(1, 1))])
        assert window.view().influence_set(1) == {1}
        window.slide([forest.add(Action.response(2, 2, 1))])
        assert window.view().influence_set(1) == {1, 2}

    def test_expiry_shrinks_a_set(self):
        forest = DiffusionForest()
        window = InfluenceWindow(2)
        window.slide([forest.add(Action.root(1, 1)), forest.add(Action.response(2, 2, 1))])
        assert window.view().influence_set(1) == {1, 2}
        window.slide([forest.add(Action.root(3, 3))])
        assert window.view().influence_set(1) == {2}
        window.slide([forest.add(Action.root(4, 4))])
        assert window.view().influence_set(1) == frozenset()

    def test_recredit_outlives_the_first_credit(self):
        forest = DiffusionForest()
        window = InfluenceWindow(3)
        window.slide([forest.add(Action.root(1, 1)), forest.add(Action.response(2, 2, 1))])
        window.slide([forest.add(Action.response(3, 2, 1))])  # (1 -> 2) again
        window.slide([forest.add(Action.root(4, 9))])  # a1 expires: 1 leaves
        assert window.view().influence_set(1) == {2}
        window.slide([forest.add(Action.root(5, 9))])  # a2 expires: a3 remains
        assert window.view().influence_set(1) == {2}


class TestVersionedIndex:
    def build(self, actions):
        from repro.core.influence_index import VersionedInfluenceIndex

        forest = DiffusionForest()
        index = VersionedInfluenceIndex()
        for action in actions:
            index.add(forest.add(action))
        return index

    def test_add_reports_previous_latest(self):
        from repro.core.actions import Action
        from repro.core.influence_index import VersionedInfluenceIndex

        forest = DiffusionForest()
        index = VersionedInfluenceIndex()
        r1 = forest.add(Action.root(1, 1))
        assert index.add(r1) == [(1, 0)]
        r2 = forest.add(Action.response(2, 2, 1))
        assert index.add(r2) == [(1, 0), (2, 0)]
        # Same pair again: previous latest is reported, not zero.
        r3 = forest.add(Action.response(3, 2, 1))
        assert index.add(r3) == [(1, 2), (2, 2)]
        assert index.latest(1, 2) == 3
        assert index.pair_count == 3  # (1,1), (1,2), (2,2)

    def test_views_filter_by_start(self):
        from repro.core.actions import Action

        index = self.build(
            [
                Action.root(1, 1),
                Action.response(2, 2, 1),
                Action.root(3, 3),
                Action.response(4, 2, 1),  # re-credits (1 -> 2) at t=4
            ]
        )
        v1, v3, v4 = index.view(1), index.view(3), index.view(4)
        assert v1.influence_set(1) == {1, 2}
        assert v3.influence_set(1) == {2}  # only the t=4 re-credit survives
        assert v4.influence_set(1) == {2}
        assert v3.influence_set(3) == {3}
        assert v4.influence_set(3) == set()
        assert v1.coverage([1, 3]) == {1, 2, 3}
        assert v4.coverage([1, 3]) == {2}
        assert 1 in v1 and 1 in v4
        assert 3 in v3 and 3 not in v4
        # At start 4 only the t=4 action is visible; it credits u1 and the
        # performer u2 (self-pair), so two users have non-empty sets.
        assert len(v1) == 3 and len(v4) == 2
        assert v4.influence_set(2) == {2}

    def test_view_matches_append_only_suffix(self, small_random_stream):
        from repro.core.influence_index import VersionedInfluenceIndex

        forest = DiffusionForest()
        shared = VersionedInfluenceIndex()
        suffix_start = 20
        reference = AppendOnlyInfluenceIndex()
        for action in small_random_stream:
            record = forest.add(action)
            shared.add(record)
            if record.time >= suffix_start:
                reference.add(record)
        view = shared.view(suffix_start)
        for user in range(10):
            assert view.influence_set(user) == set(
                reference.influence_set(user)
            ), user
            assert (user in view) == (user in reference)

    def test_compact_reclaims_invisible_pairs(self):
        from repro.core.actions import Action
        from repro.core.influence_index import VersionedInfluenceIndex

        forest = DiffusionForest()
        index = VersionedInfluenceIndex()
        for t in range(1, 11):
            index.add(forest.add(Action.root(t, t)))  # 10 self-pairs
        assert index.pair_count == 10
        dropped = index.compact(6, force=True)
        assert dropped == 5
        assert index.pair_count == 5
        assert index.floor == 6
        # Visible sets are unaffected.
        assert index.view(6).influence_set(7) == {7}
        assert index.view(6).influence_set(3) == set()
        # The full-map fast path kicks in for starts at or below the floor.
        assert index.view(6).influence_set(8) == {8}

    def test_compact_is_amortised(self):
        from repro.core.actions import Action
        from repro.core.influence_index import VersionedInfluenceIndex

        forest = DiffusionForest()
        index = VersionedInfluenceIndex()
        for t in range(1, 40):
            index.add(forest.add(Action.root(t, t)))
        # Below the sweep threshold nothing happens without force.
        assert index.compact(30) == 0
        assert index.floor == 0
        assert index.compact(30, force=True) == 29


# -- the one store, against a brute-force latest-credit map ---------------------

INDEX_HISTORY = settings(
    max_examples=200, deadline=None, derandomize=True, database=None
)
USERS = range(7)  # random_stream draws users 0..5; 6 never appears


def index_history(seed, steps):
    """Drive a shared index through ``steps`` of ``(slide, batched, lag,
    force)``; yield ``(index, truth, cutoff, now)`` after each compaction.

    ``truth`` is the brute-force ``{(u, v): latest credit}`` of every pair
    ever credited; cutoffs trail the newest action by ``lag`` and never
    decrease, so every start at or above the current cutoff may be queried.
    """
    from repro.core.influence_index import VersionedInfluenceIndex

    actions = random_stream(sum(step[0] for step in steps), 6, seed=seed)
    forest = DiffusionForest()
    index = VersionedInfluenceIndex()
    truth = {}
    cutoff = position = 0
    for slide, batched_add, lag, force in steps:
        records = [forest.add(a) for a in actions[position:position + slide]]
        position += slide
        if batched_add:
            expected = []
            for record in records:
                for u in record.influencers:
                    expected.append((record.user, u, visible(index, truth, u, record.user)))
                    truth[u, record.user] = record.time
            assert index.add_batch(records) == expected
        else:
            for record in records:
                expected = [(u, visible(index, truth, u, record.user)) for u in record.influencers]
                assert index.add(record) == expected
                for u in record.influencers:
                    truth[u, record.user] = record.time
        now = records[-1].time
        cutoff = max(cutoff, now - lag)
        index.compact(cutoff, force=force)
        yield index, truth, cutoff, now


def visible(index, truth, u, v):
    """What ``latest(u, v)`` must read: the pair's latest credit, or 0 once
    a sweep past it dropped the pair."""
    t = truth.get((u, v), 0)
    return t if t >= index.floor else 0


def suffix_sets(truth, start):
    sets = {}
    for (u, v), t in truth.items():
        if t >= start:
            sets.setdefault(u, set()).add(v)
    return sets


STEPS = st.lists(
    st.tuples(st.integers(1, 8), st.booleans(), st.integers(0, 6), st.booleans()),
    min_size=1,
    max_size=10,
)


@INDEX_HISTORY
@given(seed=st.integers(0, 10_000), steps=STEPS)
def test_one_store_matches_brute_force_across_compactions(seed, steps):
    from repro.core.influence_index import VersionedInfluenceIndex

    for index, truth, cutoff, now in index_history(seed, steps):
        for u in USERS:
            for v in USERS:
                assert index.latest(u, v) == visible(index, truth, u, v), (u, v)
        assert index.pair_count == sum(t >= index.floor for t in truth.values())
        for start in range(max(cutoff, 1), now + 2):
            view = index.view(start)
            sets = suffix_sets(truth, start)
            for u in USERS:
                members = sets.get(u, set())
                assert view.influence_set(u) == members, (start, u)
                assert view.fresh_members(u, {0, 2, 4}) == members - {0, 2, 4}
                assert (u in view) == bool(members)
            assert len(view) == len(sets)
            for seeds in ([0, 1, 2], [3, 4, 5, 6], []):
                assert view.coverage(seeds) == set().union(
                    *(sets.get(u, set()) for u in seeds)
                )
        state = index.to_state()
        restored = VersionedInfluenceIndex.from_state(state).to_state()
        assert restored.keys() == state.keys()
        for key, value in state.items():  # users and each user's pairs, in order
            assert np.array_equal(restored[key], value), key


def legacy_state(index, before):
    """``index.to_state()`` laid out as older builds wrote it: each user's
    pairs credited before ``before`` moved to a ``cold`` section with the
    same four columns, sorted by credit time; users left with no other
    pairs drop out of the main section."""
    state = index.to_state()
    v, t = state["v"].tolist(), state["t"].tolist()
    main = {"users": [], "counts": [], "v": [], "t": []}
    cold = {"users": [], "counts": [], "v": [], "t": []}
    end = 0
    for u, count in zip(state["users"].tolist(), state["counts"].tolist()):
        pairs = list(zip(v[end:end + count], t[end:end + count]))
        end += count
        warm = [pair for pair in pairs if pair[1] >= before]
        chill = sorted((pair for pair in pairs if pair[1] < before), key=lambda p: p[1])
        for section, part in ((main, warm), (cold, chill)):
            if part:
                section["users"].append(u)
                section["counts"].append(len(part))
                section["v"] += [pv for pv, _pt in part]
                section["t"] += [pt for _pv, pt in part]
    as_arrays = lambda section: {k: np.array(x, dtype=np.int64) for k, x in section.items()}
    return {**state, **as_arrays(main), "cold": as_arrays(cold)}, main, cold


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10_000), steps=STEPS, split=st.integers(0, 8))
def test_legacy_cold_section_folds_into_the_one_store(seed, steps, split):
    from repro.core.influence_index import VersionedInfluenceIndex

    *_, (index, truth, cutoff, now) = index_history(seed, steps)
    state, main, cold = legacy_state(index, before=max(cutoff, 1) + split)
    loaded = VersionedInfluenceIndex.from_state(state)
    assert loaded.pair_count == index.pair_count
    assert loaded.user_count == index.user_count
    assert loaded.floor == index.floor
    for u in USERS:
        for v in USERS:
            assert loaded.latest(u, v) == index.latest(u, v)
    for start in range(max(cutoff, 1), now + 2):
        ours, theirs = index.view(start), loaded.view(start)
        assert len(ours) == len(theirs)
        for u in USERS:
            assert theirs.influence_set(u) == ours.influence_set(u)
            assert (u in theirs) == (u in ours)
    # Main-section users first, then cold-only ones; each user's main pairs
    # first, then the cold ones in credit-time order.
    expected = {}
    for section in (main, cold):
        end = 0
        for u, count in zip(section["users"], section["counts"]):
            pairs = list(zip(section["v"][end:end + count], section["t"][end:end + count]))
            expected.setdefault(u, []).extend(pairs)
            end += count
    folded = loaded.to_state()
    assert folded["users"].tolist() == list(expected)
    assert folded["v"].tolist() == [v for pairs in expected.values() for v, _t in pairs]
    assert folded["t"].tolist() == [t for pairs in expected.values() for _v, t in pairs]
