"""Hypothesis fuzzing of the full SIC stack against a model checker.

A single property drives SparseInfluentialCheckpoints with arbitrary
window sizes, batch patterns, and stream shapes, checking the public
observables against an independently maintained model on every step.
This is the closest thing to a model-based state-machine test the
frameworks have — if checkpoint bookkeeping ever drifts from the window
model, this is where it surfaces.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import Action
from repro.core.sic import SparseInfluentialCheckpoints


@st.composite
def stream_plan(draw):
    """A window size plus a batched stream with random cascade structure."""
    window = draw(st.integers(2, 24))
    n_users = draw(st.integers(1, 8))
    batch_sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=14))
    structure = draw(
        st.lists(
            st.tuples(st.integers(0, n_users - 1), st.booleans(),
                      st.integers(1, 10)),
            min_size=sum(batch_sizes),
            max_size=sum(batch_sizes),
        )
    )
    return window, batch_sizes, structure


@settings(max_examples=60, deadline=None)
@given(plan=stream_plan(), beta=st.sampled_from([0.1, 0.3, 0.5]))
def test_sic_observables_track_the_model(plan, beta):
    window, batch_sizes, structure = plan
    sic = SparseInfluentialCheckpoints(window_size=window, k=2, beta=beta)
    actions = []
    t = 0
    for user, is_root, back in structure:
        t += 1
        if is_root or t == 1 or back >= t:
            actions.append(Action.root(t, user))
        else:
            actions.append(Action.response(t, user, t - min(back, t - 1)))
    cursor = 0
    fed = 0
    for size in batch_sizes:
        batch = actions[cursor:cursor + size]
        cursor += size
        if not batch:
            break
        sic.process(batch)
        fed += len(batch)
        # Observable invariants after every slide:
        assert sic.actions_processed == fed
        assert sic.now == batch[-1].time
        answer = sic.query()
        assert answer.time == sic.now
        assert len(answer.seeds) <= 2
        assert answer.value >= 1.0  # at least one user performed an action
        # All seeds are users that actually appeared so far.
        seen_users = {a.user for a in actions[:cursor]}
        assert answer.seeds <= seen_users
        # Checkpoints: sorted, unique, newest covers the latest batch.
        starts = [c.start for c in sic.checkpoints]
        assert starts == sorted(starts)
        assert len(set(starts)) == len(starts)
        assert starts[-1] == batch[0].time
