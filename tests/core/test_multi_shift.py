"""Properties of multiple window shifts (Section 5.3, L > 1)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.greedy import WindowedGreedy
from repro.core.ic import InfluentialCheckpoints
from repro.core.sic import SparseInfluentialCheckpoints
from repro.core.stream import batched
from repro.reference import ReferenceIC
from tests.conftest import random_stream, window_index


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), slide=st.integers(1, 4))
def test_ic_batched_keeps_theorem2_bound(seed, slide):
    """IC's ratio survives batch shifts (Theorem 2 + Section 5.3).

    An L-action slide is one SSM event: the whole slide is indexed before
    the oracles see one merged delta per updated user, so IC(L)'s oracle
    state can legitimately differ from IC(1)'s (a user admitted with a
    fuller set covers members another user would have claimed).  What must
    hold — and what the paper claims — is the approximation guarantee: at
    aligned times the answering checkpoint covers exactly the window, so
    the sieve's (1/2 − β) ratio applies to the exact window optimum."""
    import itertools

    window = 12  # slide ∈ {1,2,3,4} all divide 12
    beta = 0.2
    actions = random_stream(48, 6, seed=seed)
    ic = InfluentialCheckpoints(window_size=window, k=2, beta=beta)
    for batch in batched(actions, slide):
        ic.process(batch)
    # Ground truth for the final window.
    index = window_index(actions, window)
    users = list(index)
    opt = 0
    for combo in itertools.combinations(users, min(2, len(users))):
        opt = max(opt, len(index.coverage(combo)))
    achieved = len(index.coverage(ic.query().seeds))
    assert achieved >= (0.5 - beta) * opt - 1e-9


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), slide=st.integers(1, 4))
def test_ic_batched_dispatch_matches_reference(seed, slide):
    """Batched delivery (one process_batch per checkpoint per slide) and
    the reference's delivery (one process_delta per user per checkpoint)
    of the same merged deltas must be indistinguishable — the batch path
    only amortises bookkeeping, it never changes decisions."""
    window = 12
    actions = random_stream(48, 6, seed=seed)
    results = []
    for ic in (
        InfluentialCheckpoints(window_size=window, k=2, beta=0.2),
        ReferenceIC(window_size=window, k=2, beta=0.2),
    ):
        for batch in batched(actions, slide):
            ic.process(batch)
        answer = ic.query()
        results.append((answer.value, answer.seeds))
    assert results[0] == results[1]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), slide=st.integers(1, 6))
def test_greedy_is_slide_invariant(seed, slide):
    """The exact window state is independent of how arrivals are batched."""
    actions = random_stream(60, 7, seed=seed)
    one = WindowedGreedy(window_size=18, k=2)
    many = WindowedGreedy(window_size=18, k=2)
    for action in actions:
        one.process([action])
    for batch in batched(actions, slide):
        many.process(batch)
    assert one.query().value == many.query().value
    for user in range(7):
        assert one.index.influence_set(user) == many.index.influence_set(user)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), slide=st.integers(1, 4))
def test_sic_batched_keeps_theorem3_bound(seed, slide):
    """SIC's ratio survives batch shifts (Section 5.3's claim)."""
    import itertools

    window = 12
    beta = 0.2
    actions = random_stream(48, 6, seed=seed)
    sic = SparseInfluentialCheckpoints(window_size=window, k=2, beta=beta)
    for batch in batched(actions, slide):
        sic.process(batch)
    # Ground truth for the final window.
    index = window_index(actions, window)
    users = list(index)
    opt = 0
    for combo in itertools.combinations(users, min(2, len(users))):
        opt = max(opt, len(index.coverage(combo)))
    achieved = len(index.coverage(sic.query().seeds))
    assert achieved >= (0.25 - beta) * opt - 1e-9


def test_ic_checkpoint_count_follows_ceil_n_over_l():
    for window, slide, expected in [(20, 5, 4), (20, 4, 5), (24, 6, 4)]:
        ic = InfluentialCheckpoints(window_size=window, k=2)
        for batch in batched(random_stream(120, 6, seed=1), slide):
            ic.process(batch)
        assert ic.checkpoint_count == expected, (window, slide)
