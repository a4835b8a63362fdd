"""Equivalence proof: the production engine == ``repro.reference``.

The production engine runs every checkpoint as a view over one shared
``VersionedInfluenceIndex`` and delivers each checkpoint's slide as one
merged ``(user, new_members)``-delta batch — through per-checkpoint object
oracles (``columnar=False``) or the columnar kernel (the default where the
spec supports it).  ``repro.reference`` is the literal per-checkpoint
algorithm: a private ``AppendOnlyInfluenceIndex`` and object oracle per
checkpoint, every checkpoint handed every slide, the retire and prune loops
as in the pseudo-code.  These property tests drive both over identical
*generated* streams and assert they are indistinguishable.

Checked per slide: query answers (seeds *and* values), the retained
checkpoint populations (starts, values, seeds, absorbed action counts) —
so SIC's pruning, IC's retirement and ``checkpoint_interval`` openings
coincide too — and, on the object plane, the flattened *oracle feed
sequences* per checkpoint: the shared bisect dispatch delivers exactly the
``(user, new_member)`` events the reference indexes produce, in the same
merged order.  Checkpoint views must also materialise the same suffix
influence sets as the reference per-checkpoint indexes.

The streams come from a Hypothesis strategy skewed the way real social
streams are — a few hot influencers author most roots and collect most
replies, and replies extend the newest chain more often than not — because
that is where one influencer's set grows in many checkpoints at once and
one slide merges several members into one delta.  ``derandomize=True``
keeps the examples (and so the suite's verdict) identical run to run.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import Action
from repro.core.checkpoint import Checkpoint
from repro.core.ic import InfluentialCheckpoints
from repro.core.oracles import _ckernel
from repro.core.sic import SparseInfluentialCheckpoints
from repro.core.stream import batched
from repro.reference import ReferenceCheckpoint, ReferenceIC, ReferenceSIC
from tests.conftest import random_stream

ORACLES = ["sieve", "threshold", "blog_watch", "mkc", "greedy"]

#: Oracles the columnar kernel serves — where the default plane is not the
#: object plane and is therefore compared as well.
KERNEL_ORACLES = ("sieve", "threshold")

#: (engine class, reference class, policy keywords both accept).
POLICIES = {
    "ic": (InfluentialCheckpoints, ReferenceIC, {}),
    "ic-interval3": (
        InfluentialCheckpoints, ReferenceIC, {"checkpoint_interval": 3}
    ),
    "sic": (SparseInfluentialCheckpoints, ReferenceSIC, {}),
}

N_USERS = 24
N_HOT = 3

#: One action of a generated history: what it replies to, who performs it,
#: and a free integer that picks among the candidates of that kind.
STEPS = st.tuples(
    st.sampled_from(["chain"] * 4 + ["hot"] * 3 + ["any", "root"]),
    st.integers(0, N_USERS - 1),
    st.integers(0, 10_000),
)


def build_stream(steps):
    """Turn drawn steps into a valid stream skewed like a social feed.

    ``root``: a hot user (one of the first ``N_HOT``) starts a cascade.
    ``chain``: a reply to the newest action — chains grow long, so every
    ancestor's influence set gains a member per link.  ``hot``: a reply to
    some earlier action *by a hot user*.  ``any``: a reply to any earlier
    action.
    """
    actions = []
    hot_times = []
    for t, (kind, user, pick) in enumerate(steps, start=1):
        if t == 1 or kind == "root":
            user %= N_HOT
            actions.append(Action.root(t, user))
        elif kind == "hot" and hot_times:
            parent = hot_times[pick % len(hot_times)]
            actions.append(Action.response(t, user, parent))
        elif kind == "any":
            actions.append(Action.response(t, user, 1 + pick % (t - 1)))
        else:
            actions.append(Action.response(t, user, t - 1))
        if user < N_HOT:
            hot_times.append(t)
    return actions


#: Histories long enough that checkpoints expire and SIC prunes (N = 40).
STREAMS = st.lists(STEPS, min_size=60, max_size=80).map(build_stream)


@contextmanager
def logged_feeds():
    """Log every oracle feed per checkpoint, on both implementations.

    The engine's delivery entry points (``Checkpoint.feed`` at L=1,
    ``feed_batch`` beyond) and the reference's (``ReferenceCheckpoint
    .feed``) are intercepted and flattened to ``(user, new_member)``
    events, so the logs are comparable.  Yields ``(feeds, delta_sizes)``:
    ``feeds`` maps checkpoint start -> ordered events, ``delta_sizes``
    lists the member count of every delivered delta (a plain ``feed``
    counts as 1) — the witness that a slide really merged several members
    into one delta.
    """
    feeds = defaultdict(list)
    delta_sizes = []
    engine_feed = Checkpoint.feed
    engine_feed_batch = Checkpoint.feed_batch
    reference_feed = ReferenceCheckpoint.feed

    def logging_feed(self, user, new_member):
        feeds[self.start].append((user, new_member))
        delta_sizes.append(1)
        engine_feed(self, user, new_member)

    def logging_feed_batch(self, deltas):
        deltas = list(deltas)
        log = feeds[self.start]
        for user, members in deltas:
            log.extend((user, member) for member in members)
            delta_sizes.append(len(members))
        engine_feed_batch(self, deltas)

    def logging_reference_feed(self, user, new_members):
        feeds[self.start].extend((user, member) for member in new_members)
        delta_sizes.append(len(new_members))
        reference_feed(self, user, new_members)

    Checkpoint.feed = logging_feed
    Checkpoint.feed_batch = logging_feed_batch
    ReferenceCheckpoint.feed = logging_reference_feed
    try:
        yield feeds, delta_sizes
    finally:
        Checkpoint.feed = engine_feed
        Checkpoint.feed_batch = engine_feed_batch
        ReferenceCheckpoint.feed = reference_feed


def drive_logged(make_algorithm, actions, slide):
    """Run an algorithm, snapshotting every slide and logging every feed.

    Returns ``(algorithm, snapshots, feeds, delta_sizes)`` where
    ``snapshots`` is the per-slide list of ``(query answer, checkpoint
    states)``; see :func:`logged_feeds` for the other two.
    """
    with logged_feeds() as (feeds, delta_sizes):
        algorithm = make_algorithm()
        snapshots = []
        for batch in batched(actions, slide):
            algorithm.process(batch)
            answer = algorithm.query()
            snapshots.append(
                (
                    (answer.time, answer.seeds, answer.value),
                    [
                        (c.start, c.value, c.seeds, c.actions_processed)
                        for c in algorithm.checkpoints
                    ],
                )
            )
    return algorithm, snapshots, dict(feeds), delta_sizes


def factories(policy, oracle):
    """``(reference factory, {plane: engine factory})`` for one cell.

    ``object`` pins per-checkpoint object oracles, whose feeds the log
    intercepts; ``default`` is added where it selects the columnar kernel
    (a supported oracle on a box where the compiled event loads), which
    legitimately bypasses ``Checkpoint.feed*`` and is held to the
    answers and populations only (its oracle-state proof lives in
    ``tests/core/test_columnar_equivalence.py``).
    """
    engine_cls, reference_cls, extra = POLICIES[policy]
    common = dict(window_size=40, k=3, beta=0.25, oracle=oracle, **extra)
    planes = {"object": lambda: engine_cls(columnar=False, **common)}
    if oracle in KERNEL_ORACLES and _ckernel.load() is not None:
        planes["default"] = lambda: engine_cls(**common)
    return (lambda: reference_cls(**common)), planes


@pytest.mark.parametrize("policy", list(POLICIES))
@pytest.mark.parametrize("oracle", ORACLES)
@pytest.mark.parametrize("slide", [1, 5])
@settings(derandomize=True, max_examples=3, deadline=None, database=None)
@given(actions=STREAMS)
def test_engine_matches_reference(policy, oracle, slide, actions):
    make_reference, planes = factories(policy, oracle)
    reference, ref_snaps, ref_feeds, _ = drive_logged(
        make_reference, actions, slide
    )
    for plane, make_engine in planes.items():
        engine, snaps, engine_feeds, _ = drive_logged(
            make_engine, actions, slide
        )
        assert engine.columnar == (plane == "default")
        assert snaps == ref_snaps, plane
        if plane == "default":
            continue
        # Feed sequences: element-for-element identical per checkpoint,
        # including checkpoints that were pruned or retired mid-run.
        assert engine_feeds == ref_feeds
        # Views materialise the same suffix sets as the reference indexes.
        ref_by_start = {c.start: c for c in reference.checkpoints}
        for checkpoint in engine.checkpoints:
            theirs = ref_by_start[checkpoint.start].index
            users = {u for u, _ in engine_feeds.get(checkpoint.start, ())}
            for user in users:
                assert checkpoint.index.influence_set(user) == set(
                    theirs.influence_set(user)
                ), (checkpoint.start, user)
            assert checkpoint.index.coverage(users) == theirs.coverage(users)


def multi_member_stream():
    """A stream whose third slide (L=5) hands one user several new members.

    User 1 roots the cascade; users 2..9 respond to it directly or
    transitively, so user 1 is an ancestor influencer of every response.
    Within one 5-action slide several distinct responders perform, and
    user 1 gains them all as new influence-set members in that single
    slide.
    """
    actions = [Action.root(1, 1)]
    for t in range(2, 16):
        actions.append(Action.response(t, (t % 9) + 1, t - 1))
    return actions


@pytest.mark.parametrize("policy", ["ic", "sic"])
@pytest.mark.parametrize("oracle", ORACLES)
def test_multi_member_slide_equivalence(policy, oracle):
    """A slide where one user gains multiple new members must be merged
    into a single delta — and stay identical to the reference."""
    actions = multi_member_stream()
    make_reference, planes = factories(policy, oracle)
    _, ref_snaps, ref_feeds, ref_sizes = drive_logged(
        make_reference, actions, 5
    )
    _, snaps, feeds, sizes = drive_logged(planes["object"], actions, 5)
    # The scenario exercises what it claims: some checkpoint received a
    # *single* delta carrying >= 2 merged members within one slide.  (A
    # whole-run duplicate-user check would also pass for a user fed in two
    # different slides, which proves nothing about merging.)
    assert any(size >= 2 for size in sizes), (
        "stream failed to produce a multi-member delta"
    )
    assert snaps == ref_snaps
    assert feeds == ref_feeds
    # Both partition the slide's events into the same deltas.
    assert sizes == ref_sizes


@pytest.mark.parametrize("slide", [1, 5])
def test_shared_feeds_are_strictly_fewer_index_probes(slide):
    """The shared plane's dispatch only ever feeds checkpoints whose suffix
    set actually grew — i.e. the events the reference implementation's
    per-checkpoint ``add`` calls would have reported."""
    actions = random_stream(200, 6, seed=7)
    _, planes = factories("ic", "sieve")
    _, _, feeds, _ = drive_logged(planes["object"], actions, slide)
    for start, events in feeds.items():
        # Within one checkpoint a (user, member) pair is fed at most once:
        # a second feed would mean the pair was already in the suffix set.
        assert len(events) == len(set(events)), start


@pytest.mark.parametrize(
    "engine_cls", [InfluentialCheckpoints, SparseInfluentialCheckpoints]
)
def test_plane_switches_are_retired(engine_cls):
    """``shared_index=True`` is still accepted (a no-op some callers pass);
    the per-checkpoint mode it used to switch off lives in
    ``repro.reference``, and ``batch_feeds`` is gone outright."""
    engine = engine_cls(window_size=10, k=2, beta=0.3, shared_index=True)
    assert engine.shared_index is not None
    with pytest.raises(ValueError, match=r"repro\.reference"):
        engine_cls(window_size=10, k=2, beta=0.3, shared_index=False)
    with pytest.raises(TypeError, match="batch_feeds"):
        engine_cls(window_size=10, k=2, beta=0.3, batch_feeds=False)


class TestNonModularAdmissionPath:
    """The singleton admission prefilter must not apply to non-modular
    functions: their admission gains are measured against lazily refreshed
    instance values and can exceed the singleton bound, so skipping
    instances would silently change results (a bug the plane-equivalence
    tests cannot catch because all planes share the oracle code)."""

    def _conformity(self):
        from repro.influence.functions import ConformityAwareInfluence

        return ConformityAwareInfluence({1: 0.9, 2: 0.3}, {3: 0.8, 4: 0.2})

    @pytest.mark.parametrize("oracle", ["sieve", "threshold"])
    def test_results_pinned_to_reference_implementation(self, oracle):
        """Final answers match a differential replay of the pre-refactor
        per-checkpoint implementation (verified against the seed commit)."""
        ic = InfluentialCheckpoints(
            window_size=40, k=3, beta=0.3, oracle=oracle, func=self._conformity()
        )
        for batch in batched(random_stream(250, 10, seed=0), 1):
            ic.process(batch)
        answer = ic.query()
        assert round(answer.value, 6) == 4.383125
        assert sorted(answer.seeds) == [3, 6, 8]

    @pytest.mark.parametrize("oracle_name", ["sieve", "threshold"])
    def test_prefilter_bypassed_for_non_modular(self, oracle_name):
        """Every under-k instance is offered every non-seed feed."""
        from repro.core.oracles.streaming_base import StreamingThresholdOracle

        attempts = []
        original = StreamingThresholdOracle._try_admit

        def counting(self, instance, user):
            attempts.append(user)
            original(self, instance, user)

        StreamingThresholdOracle._try_admit = counting
        try:
            ic = InfluentialCheckpoints(
                window_size=30,
                k=3,
                beta=0.3,
                oracle=oracle_name,
                func=self._conformity(),
            )
            for batch in batched(random_stream(80, 8, seed=3), 1):
                ic.process(batch)
        finally:
            StreamingThresholdOracle._try_admit = original
        # With the prefilter wrongly applied, low-singleton users would
        # never reach _try_admit; the non-modular path must offer them.
        assert len(attempts) > 0
