"""Shard supervision under scripted faults: heal in place, converge.

The acceptance matrix of the supervision plane: workers killed at every
slide position (cycling over the shards), hung workers tripping the call
timeout, dropped replies, and WAL-tail corruption between kill and
restart — in every case the caller must see zero
:class:`~repro.sharding.ShardingError` and the final merged answer must
equal a fault-free run of the same topology.
"""

import pytest

from repro.core.ic import InfluentialCheckpoints
from repro.core.sic import SparseInfluentialCheckpoints
from repro.core.stream import batched
from repro.faults import Fault, FaultPlan
from repro.sharding.engine import ShardedEngine
from tests.conftest import random_stream

SLIDE = 25


def _factory_for(algo):
    if algo == "ic":
        return lambda assignment=None: InfluentialCheckpoints(
            window_size=80, k=3, beta=0.3, shard=assignment
        )
    return lambda assignment=None: SparseInfluentialCheckpoints(
        window_size=80, k=3, beta=0.2, shard=assignment
    )


def _reference(factory, shards, batches):
    engine = ShardedEngine.open(factory, shards, backend="serial")
    try:
        for batch in batches:
            engine.process(batch)
        return engine.query()
    finally:
        engine.close()


def _run_faulted(factory, shards, batches, plan, state_dir, **kwargs):
    """Drive a faulted engine to the end; any ShardingError propagates."""
    engine = ShardedEngine.open(
        factory,
        shards,
        state_dir=state_dir,
        backend=kwargs.pop("backend", "process"),
        snapshot_every=kwargs.pop("snapshot_every", 3),
        fault_plan=plan,
        **kwargs,
    )
    try:
        for batch in batches:
            engine.process(batch)
        observed = engine.query()
        stats = engine.supervision_stats()
    finally:
        engine.close()
    return observed, stats


def _assert_converged(observed, expected):
    assert observed.time == expected.time
    assert observed.value == expected.value
    assert sorted(observed.seeds) == sorted(expected.seeds)


class TestKillMatrix:
    @pytest.mark.parametrize("algo", ["ic", "sic"])
    @pytest.mark.parametrize("shards", [2, 4])
    def test_kill_at_every_slide_heals_and_converges(
        self, algo, shards, tmp_path
    ):
        """One SIGKILL fires before *every* slide, cycling the target
        shard, so each slide position is exercised and every shard dies
        repeatedly — including slide 1, where the restart replays an
        empty store.  The caller never sees an error."""
        actions = random_stream(200, 25, seed=41)
        batches = [list(b) for b in batched(actions, SLIDE)]
        factory = _factory_for(algo)
        expected = _reference(factory, shards, batches)
        plan = FaultPlan(
            [
                Fault(kind="kill", shard=(s - 1) % shards, at_slide=s)
                for s in range(1, len(batches) + 1)
            ],
            seed=41,
        )
        observed, stats = _run_faulted(
            factory, shards, batches, plan, tmp_path / "state"
        )
        _assert_converged(observed, expected)
        assert stats["restarts"] == len(batches)
        assert stats["degraded_windows"] == len(batches)
        assert stats["escalations"] == 0
        assert not stats["degraded"]
        assert all(s["state"] == "up" for s in stats["shards"])


class TestTimeoutFaults:
    def test_hang_trips_timeout_and_degraded_window_clears(self, tmp_path):
        """A hung worker trips the per-call timeout, is killed and
        restarted; the degraded window opens, then closes on the heal."""
        actions = random_stream(150, 20, seed=42)
        batches = [list(b) for b in batched(actions, SLIDE)]
        factory = _factory_for("ic")
        expected = _reference(factory, 2, batches)
        plan = FaultPlan(
            [Fault(kind="hang", shard=1, at_slide=3, seconds=1.0)], seed=42
        )
        observed, stats = _run_faulted(
            factory,
            2,
            batches,
            plan,
            tmp_path / "state",
            call_timeout=0.5,
        )
        _assert_converged(observed, expected)
        assert stats["call_timeouts"] >= 1
        assert stats["restarts"] == 1
        assert stats["degraded_windows"] == 1
        assert stats["degraded_seconds"] > 0
        assert not stats["degraded"]

    def test_drop_reply_is_detected_and_healed(self, tmp_path):
        """A worker that swallows its reply looks identical to a hang on
        the wire: the timeout fires, the worker is fenced off (killed)
        and restarted, and the WAL-logged slide needs no redelivery."""
        actions = random_stream(150, 20, seed=43)
        batches = [list(b) for b in batched(actions, SLIDE)]
        factory = _factory_for("sic")
        expected = _reference(factory, 2, batches)
        plan = FaultPlan(
            [Fault(kind="drop_reply", shard=0, at_slide=4)], seed=43
        )
        observed, stats = _run_faulted(
            factory,
            2,
            batches,
            plan,
            tmp_path / "state",
            call_timeout=0.5,
        )
        _assert_converged(observed, expected)
        assert stats["call_timeouts"] == 1
        assert stats["restarts"] == 1
        assert not stats["degraded"]


class TestFacadeFaults:
    def test_corrupt_wal_tail_during_heal_still_converges(self, tmp_path):
        """Bit rot on the WAL tail between kill and restart: the damaged
        final record is truncated as torn, the restart recovers one
        slide earlier, and suffix redelivery heals the difference."""
        actions = random_stream(200, 25, seed=44)
        batches = [list(b) for b in batched(actions, SLIDE)]
        factory = _factory_for("ic")
        expected = _reference(factory, 2, batches)
        plan = FaultPlan(
            [
                Fault(kind="kill", shard=0, at_slide=5),
                Fault(kind="corrupt_wal_tail", shard=0),
            ],
            seed=44,
        )
        observed, stats = _run_faulted(
            factory, 2, batches, plan, tmp_path / "state"
        )
        _assert_converged(observed, expected)
        assert stats["restarts"] == 1
        assert stats["escalations"] == 0
        assert not stats["degraded"]
