"""One window for every algorithm: the actions with ``time ≥ t − N + 1``.

IC and SIC expire a checkpoint by that clock.  Windowed greedy, IMM, UBI
and the experiments' ``StreamEvaluator`` hold the same window's pairs
(:class:`~repro.core.influence_index.InfluenceWindow`), so on a stream with
gaps between timestamps every algorithm — and the evaluator grading them —
answers over one window.  On a dense stream the window is the last ``N``
actions.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.optimality import exact_optimum
from repro.baselines.adapters import IMMAlgorithm, UBIAlgorithm
from repro.core.actions import Action
from repro.core.diffusion import DiffusionForest
from repro.core.greedy import WindowedGreedy, greedy_seed_selection
from repro.core.ic import InfluentialCheckpoints
from repro.core.sic import SparseInfluentialCheckpoints
from repro.core.stream import batched
from repro.experiments.metrics import StreamEvaluator
from repro.influence.functions import CardinalityInfluence
from repro.persistence.serialize import algorithm_from_state
from tests.conftest import random_stream, store_roundtrip, window_index
from tests.core.test_diffusion import with_gaps

BETA = 0.2


def clock_pairs(actions, window_size):
    """The ``(u, v)`` pairs credited by the actions with
    ``time ≥ t − N + 1``, ``t`` the last action's time, by brute force."""
    forest = DiffusionForest()
    records = [forest.add(a) for a in actions]
    start = actions[-1].time - window_size + 1
    return {
        (u, r.user) for r in records if r.time >= start for u in r.influencers
    }


def pairs_of(index, users):
    """The pairs an index holds among ``users``' influence sets."""
    return {(u, v) for u in users for v in index.influence_set(u)}


def engines(window):
    """IC and SIC on both planes (the default plane is the compiled kernel
    where one is available, else the object plane again)."""
    return [
        cls(window_size=window, k=2, beta=BETA, columnar=plane)
        for cls in (InfluentialCheckpoints, SparseInfluentialCheckpoints)
        for plane in (None, False)
    ]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10_000),
    gap=st.sampled_from([1, 4, 15]),
    window=st.integers(5, 16),
    slide=st.sampled_from([1, 5]),
)
def test_every_algorithm_answers_over_the_clock_window(seed, gap, window, slide):
    """After every slide of a gapped stream: greedy (both modes), IMM, UBI
    and the evaluator hold exactly the clock window's pairs, every live
    IC/SIC checkpoint on either plane sees a part of it, and IC/SIC keep
    Theorem 2/3's ratios against the exact optimum over it.

    Checkpoints open at slide starts, so when slides of several actions
    span gaps the window start can fall inside a slide.  IC then answers
    over the oldest checkpoint that still covers the whole window, and
    Theorem 2 is checked over that suffix.  SIC can be left with a
    checkpoint that covers part of the window only, so Theorem 3 is checked
    where every window start is a slide start: one-action slides, or dense
    streams with ``L ≤ N``.
    """
    users = range(6)
    actions = with_gaps(random_stream(40, len(users), seed=seed), gap, seed)
    consumers = [
        WindowedGreedy(window_size=window, k=2),
        WindowedGreedy(window_size=window, k=2, lazy=False),
        IMMAlgorithm(window_size=window, k=2, seed=1, max_rr_sets=50),
        UBIAlgorithm(window_size=window, k=2, seed=1, rr_samples=30),
    ]
    evaluator = StreamEvaluator(window)
    frameworks = engines(window)
    done = 0
    for batch in batched(actions, slide):
        done += len(batch)
        evaluator.feed(batch)
        for algorithm in consumers + frameworks:
            algorithm.process(batch)
        expected = clock_pairs(actions[:done], window)
        assert pairs_of(evaluator.index, users) == expected
        for consumer in consumers:
            assert pairs_of(consumer.index, users) == expected
        _, optimum = exact_optimum(evaluator.index, k=2)
        for framework, ratio in zip(frameworks, (0.5, 0.5, 0.25, 0.25)):
            for checkpoint in framework.checkpoints:
                if checkpoint.covers_window(framework.now, window):
                    view = framework.shared_index.view(checkpoint.start)
                    assert pairs_of(view, users) <= expected
            seeds = framework.query().seeds
            head = framework.checkpoints[0]
            if ratio == 0.25 and slide > 1 and gap > 1:
                continue
            if ratio == 0.5 and not head.covers_window(framework.now, window):
                view = framework.shared_index.view(head.start)
                achieved = len(view.coverage(seeds))
                _, bound = exact_optimum(view, k=2)
            else:
                achieved = evaluator.influence_value(seeds)
                bound = optimum
            assert achieved >= (ratio - BETA) * bound - 1e-9


def gapped_stream(n_actions, n_users, seed):
    """A stream whose times step by 1 with probability 0.7, else by 2–40."""
    rng = random.Random(seed)
    actions = random_stream(n_actions, n_users, seed=seed, recent_bias=30)
    retimed, time = {}, 0
    for action in actions:
        time += 1 if rng.random() < 0.7 else rng.randint(2, 40)
        retimed[action.time] = time
    return [
        Action(retimed[a.time], a.user, a.parent if a.is_root else retimed[a.parent])
        for a in actions
    ]


def test_gapped_stream_greedy_grades_the_engines_window():
    """The gapped repro: 400 actions over 60 users, 70% unit time steps
    and the rest 2–40, N 50, k 3, slides of 5.  Greedy and the evaluator
    answer over the checkpoints' clock window, not over the last 50
    actions, which reach up to 40 time units further back per gap."""
    window, k, users = 50, 3, range(60)
    actions = gapped_stream(400, len(users), seed=5)
    greedy = WindowedGreedy(window_size=window, k=k)
    evaluator = StreamEvaluator(window)
    frameworks = [
        cls(window_size=window, k=k, beta=BETA, columnar=plane)
        for cls in (InfluentialCheckpoints, SparseInfluentialCheckpoints)
        for plane in (None, False)
    ]
    done = 0
    for batch in batched(actions, 5):
        done += len(batch)
        evaluator.feed(batch)
        greedy.process(batch)
        for framework in frameworks:
            framework.process(batch)
        expected = clock_pairs(actions[:done], window)
        assert pairs_of(greedy.index, users) == expected
        assert pairs_of(evaluator.index, users) == expected
    answer = greedy.query()
    index = window_index(actions, window)
    _, value = greedy_seed_selection(index, index, k, CardinalityInfluence())
    assert answer.value == value
    assert evaluator.influence_value(answer.seeds) == answer.value
    # Greedy's value is at least (1 − 1/e) of the window's optimum, which
    # bounds what any checkpoint answer achieves on the same window.
    for framework in frameworks:
        achieved = evaluator.influence_value(framework.query().seeds)
        assert achieved <= answer.value / (1 - 1 / np.e)


def array(values):
    return np.array(values, np.int64)


#: A ``WindowedGreedy(window_size=6, k=2, lazy=False)`` document written
#: when the window kept reference-counted ``pairs`` next to its records:
#: ``random_stream(20, 5, seed=3)``, the first 14 actions in slides of 2.
LEGACY_GREEDY_DOCUMENT = {
    "format": 1,
    "algorithm": "greedy",
    "config": {
        "window_size": 6,
        "k": 2,
        "func": {"kind": "cardinality"},
        "retention": None,
        "lazy": False,
    },
    "base": {
        "window": {"size": 6, "last_time": 14},
        "forest": {
            "retention": None,
            "oldest": 1,
            "count": 14,
            "depth_sum": 23,
            "max_depth": 3,
            "truncated": 0,
            "records": {
                "time": array(range(1, 15)),
                "user": array([1, 4, 4, 4, 3, 1, 3, 3, 1, 1, 3, 1, 0, 0]),
                "depth": array([1, 2, 2, 1, 1, 1, 2, 1, 1, 2, 3, 3, 1, 2]),
                "fanout": array([1, 2, 2, 1, 1, 1, 1, 1, 1, 1, 3, 1, 1, 2]),
                "influencers": array(
                    [1, 1, 4, 1, 4, 4, 3, 1, 3, 3, 1, 1, 1, 4, 3, 1, 0, 3, 0]
                ),
            },
        },
        "actions_processed": 14,
    },
    "index": {
        "pairs": [
            [1, [[1, 3], [3, 1]]],
            [3, [[3, 1], [0, 1]]],
            [4, [[3, 1]]],
            [0, [[0, 2]]],
        ],
        "records": {
            "time": array([9, 10, 11, 12, 13, 14]),
            "user": array([1, 1, 3, 1, 0, 0]),
            "depth": array([1, 2, 3, 3, 1, 2]),
            "fanout": array([1, 1, 3, 1, 1, 2]),
            "influencers": array([1, 1, 1, 4, 3, 1, 0, 3, 0]),
        },
    },
}


def test_legacy_greedy_document_restores_and_continues():
    """The old document opens through the one reader (its ``pairs`` are
    ignored, its records replayed) and continues like an uninterrupted
    run, slide for slide."""
    actions = random_stream(20, 5, seed=3)
    live = WindowedGreedy(window_size=6, k=2, lazy=False)
    for batch in batched(actions[:14], 2):
        live.process(batch)
    restored = algorithm_from_state(store_roundtrip(LEGACY_GREEDY_DOCUMENT))
    assert restored.query() == live.query()
    for batch in batched(actions[14:], 2):
        live.process(batch)
        restored.process(batch)
        assert restored.query() == live.query()
    rewritten = restored.to_state()["index"]
    assert list(rewritten) == ["records"]
    assert rewritten["records"]["time"].tolist() == [15, 16, 17, 18, 19, 20]
