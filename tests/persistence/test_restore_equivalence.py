"""Restore-equivalence proof: kill → restore → finish ≡ uninterrupted.

Mirrors ``tests/core/test_shared_index_equivalence.py``: drive each
framework over identical random streams, kill the engine at slide ``i``
(dropping all in-memory state — only the per-slide WAL appends and past
snapshots survive, as after SIGKILL), restore from the state directory,
finish the stream, and require the remaining per-slide ``query()``
answers — times, seeds, *and* exact float values — to match an
uninterrupted run.  The replay counter must equal the WAL tail length
(slides since the last snapshot), pinning the O(tail) recovery claim.
"""

from __future__ import annotations

import pytest

from repro.core.greedy import WindowedGreedy
from repro.core.ic import InfluentialCheckpoints
from repro.core.sic import SparseInfluentialCheckpoints
from repro.core.stream import batched
from repro.persistence.engine import RecoverableEngine
from tests.conftest import random_stream

ORACLES = ["sieve", "threshold", "blog_watch", "mkc", "greedy"]

#: (snapshot cadence, kill slide): mid-tail kills plus one exactly on a
#: snapshot boundary (zero-replay recovery).
SCENARIOS = [(3, 7), (4, 12), (5, 11)]


def make_factory(framework, oracle):
    if framework == "ic":
        return lambda: InfluentialCheckpoints(
            window_size=40, k=3, beta=0.25, oracle=oracle
        )
    return lambda: SparseInfluentialCheckpoints(
        window_size=40, k=3, beta=0.25, oracle=oracle
    )


def run_uninterrupted(factory, batches):
    algorithm = factory()
    answers = []
    for batch in batches:
        algorithm.process(batch)
        answers.append(algorithm.query())
    return answers


def kill_and_restore(factory, batches, kill_at, cadence, state_dir):
    """Crash at slide ``kill_at``, reopen, finish; return (answers, engine)."""
    doomed = RecoverableEngine.open(
        state_dir, factory, snapshot_every=cadence, fsync=False
    )
    for batch in batches[:kill_at]:
        doomed.process(batch)
    # Simulated SIGKILL: no final snapshot, no orderly handoff — recovery
    # sees exactly what the per-slide WAL appends left on disk.
    doomed.close(snapshot=False)
    restored = RecoverableEngine.open(
        state_dir, factory, snapshot_every=cadence, fsync=False
    )
    answers = []
    for batch in batches[kill_at:]:
        restored.process(batch)
        answers.append(restored.query())
    restored.close(snapshot=False)
    return answers, restored


@pytest.mark.parametrize("framework", ["ic", "sic"])
@pytest.mark.parametrize("oracle", ORACLES)
@pytest.mark.parametrize("slide", [1, 5])
def test_kill_restore_equivalence(framework, oracle, slide, tmp_path):
    actions = random_stream(120, 8, seed=0)
    batches = list(batched(actions, slide))
    factory = make_factory(framework, oracle)
    expected = run_uninterrupted(factory, batches)
    for cadence, kill_at in SCENARIOS:
        state_dir = tmp_path / f"s{cadence}-k{kill_at}"
        answers, restored = kill_and_restore(
            factory, batches, kill_at, cadence, state_dir
        )
        key = (framework, oracle, slide, cadence, kill_at)
        # Recovery replays only the WAL tail behind the last snapshot.
        last_snapshot = (kill_at // cadence) * cadence
        assert restored.replayed_slides == kill_at - last_snapshot, key
        assert restored.slides_processed == len(batches), key
        # Byte-identical continuation: times, exact values, seed sets.
        assert answers == expected[kill_at:], key


def test_kill_restore_equivalence_with_checkpoint_interval(tmp_path):
    """A sparse roster (and IC's slide counter) restores just as exactly."""

    def factory():
        return InfluentialCheckpoints(
            window_size=40, k=3, beta=0.25, checkpoint_interval=2
        )

    batches = list(batched(random_stream(120, 8, seed=3), 5))
    expected = run_uninterrupted(factory, batches)
    answers, restored = kill_and_restore(factory, batches, 13, 4, tmp_path)
    assert restored.replayed_slides == 1
    assert answers == expected[13:]


@pytest.mark.parametrize("lazy", [True, False])
def test_kill_restore_equivalence_windowed_greedy(lazy, tmp_path):
    def factory():
        return WindowedGreedy(window_size=40, k=3, lazy=lazy)

    batches = list(batched(random_stream(120, 8, seed=4), 4))
    expected = run_uninterrupted(factory, batches)
    answers, restored = kill_and_restore(factory, batches, 17, 6, tmp_path)
    assert restored.replayed_slides == 5
    assert answers == expected[17:]


def test_double_crash_recovery(tmp_path):
    """Crash, recover, crash again, recover again — still identical."""
    factory = make_factory("sic", "sieve")
    batches = list(batched(random_stream(120, 8, seed=5), 3))
    expected = run_uninterrupted(factory, batches)
    first = RecoverableEngine.open(
        tmp_path, factory, snapshot_every=4, fsync=False
    )
    for batch in batches[:9]:
        first.process(batch)
    first.close(snapshot=False)
    second = RecoverableEngine.open(
        tmp_path, factory, snapshot_every=4, fsync=False
    )
    assert second.replayed_slides == 1  # snapshot at 8, WAL slide 9
    for batch in batches[9:23]:
        second.process(batch)
    second.close(snapshot=False)
    third = RecoverableEngine.open(
        tmp_path, factory, snapshot_every=4, fsync=False
    )
    assert third.replayed_slides == 3  # snapshot at 20, WAL 21-23
    answers = []
    for batch in batches[23:]:
        third.process(batch)
        answers.append(third.query())
    third.close(snapshot=False)
    assert answers == expected[23:]
