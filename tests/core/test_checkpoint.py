"""Unit tests for OracleSpec, Checkpoint and the reference checkpoint."""

import pytest

from repro.core.actions import Action
from repro.core.checkpoint import Checkpoint, CheckpointRoster, OracleSpec
from repro.core.diffusion import DiffusionForest
from repro.core.influence_index import VersionedInfluenceIndex
from repro.influence.functions import CardinalityInfluence
from repro.reference import ReferenceCheckpoint


def spec(k=2, name="sieve", **params):
    if name in ("sieve", "threshold") and "beta" not in params:
        params["beta"] = 0.2
    return OracleSpec(name=name, k=k, func=CardinalityInfluence(), params=params)


class TestOracleSpec:
    def test_build_creates_fresh_oracle(self):
        s = spec()
        from repro.core.influence_index import AppendOnlyInfluenceIndex

        a = s.build(AppendOnlyInfluenceIndex())
        b = s.build(AppendOnlyInfluenceIndex())
        assert a is not b
        assert a.k == 2

    def test_params_forwarded(self):
        s = spec(name="sieve", beta=0.45)
        from repro.core.influence_index import AppendOnlyInfluenceIndex

        oracle = s.build(AppendOnlyInfluenceIndex())
        assert oracle._beta == pytest.approx(0.45)


class TestCheckpoint:
    def test_position_and_coverage(self):
        checkpoint = Checkpoint(
            7, spec(), VersionedInfluenceIndex().view(7), CheckpointRoster()
        )
        # Window of size 10 ending at t=16 starts at 7: position 1.
        assert checkpoint.position(now=16, window_size=10) == 1
        assert checkpoint.covers_window(16, 10)
        # At t=17 the suffix holds 11 > 10 actions: expired.
        assert checkpoint.position(17, 10) == 0
        assert not checkpoint.covers_window(17, 10)
        # A younger checkpoint covers a strict subset.
        assert checkpoint.position(12, 10) == 5


class TestReferenceCheckpoint:
    def test_rejects_non_positive_start(self):
        with pytest.raises(ValueError, match="positive"):
            ReferenceCheckpoint(0, spec().build)

    def test_rejects_older_actions(self):
        forest = DiffusionForest()
        record = forest.add(Action.root(1, 1))
        checkpoint = ReferenceCheckpoint(5, spec().build)
        with pytest.raises(ValueError, match="older action"):
            checkpoint.process_slide([record])

    def test_processes_suffix(self):
        forest = DiffusionForest()
        checkpoint = ReferenceCheckpoint(1, spec().build)
        for t in range(1, 6):
            checkpoint.process_slide([forest.add(Action.root(t, t % 3))])
        assert checkpoint.actions_processed == 5
        assert checkpoint.value >= 1.0
        assert len(checkpoint.seeds) <= 2

    def test_window_coverage(self):
        checkpoint = ReferenceCheckpoint(7, spec().build)
        # Window of size 10 ending at t=16 starts at 7: still covered.
        assert checkpoint.covers_window(16, 10)
        # At t=17 the suffix holds 11 > 10 actions: expired.
        assert not checkpoint.covers_window(17, 10)
        # A younger checkpoint covers a strict subset.
        assert checkpoint.covers_window(12, 10)

    def test_value_equals_oracle_value(self):
        forest = DiffusionForest()
        checkpoint = ReferenceCheckpoint(1, spec().build)
        for t in range(1, 10):
            checkpoint.process_slide([forest.add(Action.root(t, t % 4))])
        assert checkpoint.value == checkpoint.oracle.value
        assert checkpoint.seeds == checkpoint.oracle.seeds

    def test_index_exposed(self):
        forest = DiffusionForest()
        checkpoint = ReferenceCheckpoint(1, spec().build)
        checkpoint.process_slide([forest.add(Action.root(1, 9))])
        assert checkpoint.index.influence_set(9) == {9}
