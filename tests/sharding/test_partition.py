"""Unit tests for the shard partitioners and assignments."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sharding.partition import (
    ConstantPartitioner,
    HashPartitioner,
    ShardAssignment,
    assignment_from_state,
    partitioner_from_state,
)


class TestHashPartitioner:
    def test_range_and_determinism(self):
        part = HashPartitioner(4)
        for user in range(2000):
            shard = part.shard_of(user)
            assert 0 <= shard < 4
            assert part.shard_of(user) == shard  # stable

    def test_identical_across_instances(self):
        """The assignment must not depend on interpreter hash salting."""
        a, b = HashPartitioner(8), HashPartitioner(8)
        assert [a.shard_of(u) for u in range(500)] == [
            b.shard_of(u) for u in range(500)
        ]

    def test_spread_is_reasonable(self):
        """Dense integer ids spread within 2x of the fair share."""
        part = HashPartitioner(4)
        counts = [0] * 4
        for user in range(4000):
            counts[part.shard_of(user)] += 1
        for count in counts:
            assert 500 <= count <= 2000, counts

    def test_partition_covers_all_users_once(self):
        part = HashPartitioner(3)
        assignments = [ShardAssignment(part, s) for s in range(3)]
        for user in range(300):
            owners = [a for a in assignments if a.owns(user)]
            assert len(owners) == 1

    @given(shards=st.integers(1, 16), user=st.integers(0, 10**9))
    def test_any_user_lands_in_range(self, shards, user):
        assert 0 <= HashPartitioner(shards).shard_of(user) < shards

    def test_rejects_bad_shards(self):
        with pytest.raises(ValueError, match="got 0"):
            HashPartitioner(0)


class TestConstantPartitioner:
    def test_everything_to_target(self):
        part = ConstantPartitioner(4, target=2)
        assert {part.shard_of(u) for u in range(100)} == {2}

    def test_rejects_out_of_range_target(self):
        with pytest.raises(ValueError, match="got 4"):
            ConstantPartitioner(4, target=4)


class TestSerialization:
    def test_hash_roundtrip(self):
        part = HashPartitioner(6)
        rebuilt = partitioner_from_state(part.to_state())
        assert rebuilt == part
        assert [rebuilt.shard_of(u) for u in range(100)] == [
            part.shard_of(u) for u in range(100)
        ]

    def test_constant_roundtrip(self):
        part = ConstantPartitioner(3, target=1)
        assert partitioner_from_state(part.to_state()) == part

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown partitioner"):
            partitioner_from_state({"kind": "nope"})

    def test_retired_heat_kind_is_refused(self):
        """A stored assignment written with the removed load-aware
        partitioner is refused by name, not rebuilt as something else."""
        stored = {
            "partitioner": {"kind": "heat", "shards": 2, "heat": {"7": 3.0}},
            "shard": 0,
        }
        with pytest.raises(
            ValueError, match="unknown partitioner state kind 'heat'"
        ):
            assignment_from_state(stored)

    def test_assignment_roundtrip_and_equality(self):
        assignment = ShardAssignment(HashPartitioner(4), 3)
        rebuilt = assignment_from_state(assignment.to_state())
        assert rebuilt == assignment
        assert rebuilt.owns(7) == assignment.owns(7)
        assert rebuilt != ShardAssignment(HashPartitioner(4), 2)

    def test_assignment_rejects_bad_shard(self):
        with pytest.raises(ValueError, match="got 4"):
            ShardAssignment(HashPartitioner(4), 4)

