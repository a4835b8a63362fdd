"""Unit tests for framework memory accounting (Figure 6's space claim)."""

from repro.core.ic import InfluentialCheckpoints
from repro.core.sic import SparseInfluentialCheckpoints
from repro.experiments.memory import FrameworkFootprint, measure_footprint
from repro.reference import ReferenceIC, ReferenceSIC
from tests.conftest import random_stream


def drive(algorithm, actions):
    for action in actions:
        algorithm.process([action])
    return algorithm


class TestMeasureFootprint:
    def test_empty_framework(self):
        footprint = measure_footprint(InfluentialCheckpoints(window_size=5, k=2))
        assert footprint.checkpoints == 0
        assert footprint.total_entries == 0

    def test_counts_grow_with_stream(self):
        sic = SparseInfluentialCheckpoints(window_size=30, k=2, beta=0.3)
        drive(sic, random_stream(30, 6, seed=1))
        footprint = measure_footprint(sic)
        assert footprint.shared
        assert footprint.checkpoints == sic.checkpoint_count
        assert footprint.index_users > 0
        assert footprint.index_entries >= footprint.index_users
        assert footprint.oracle_instances > 0  # sieve oracle

    def test_swap_oracle_counts_cover_entries(self):
        sic = SparseInfluentialCheckpoints(
            window_size=30, k=2, beta=0.3, oracle="blog_watch"
        )
        drive(sic, random_stream(60, 6, seed=2))
        footprint = measure_footprint(sic)
        assert footprint.oracle_instances == 0
        assert footprint.oracle_covered_entries > 0

    def test_sic_is_smaller_than_ic_per_checkpoint(self):
        """The space side of Figure 6, on the per-checkpoint reference
        indexes the paper's analysis describes: SIC's footprint ≪ IC's."""
        actions = random_stream(300, 10, seed=3)
        ic = drive(ReferenceIC(window_size=100, k=3, beta=0.3), actions)
        sic = drive(ReferenceSIC(window_size=100, k=3, beta=0.3), actions)
        ic_footprint = measure_footprint(ic)
        sic_footprint = measure_footprint(sic)
        assert not ic_footprint.shared
        assert sic_footprint.checkpoints < ic_footprint.checkpoints
        assert sic_footprint.ratio_to(ic_footprint) < 0.5

    def test_shared_index_does_not_scale_with_checkpoints(self):
        """The tentpole's memory claim: physical index entries are the
        distinct pairs, not the sum of all suffix sizes."""
        actions = random_stream(300, 10, seed=3)
        shared = drive(
            InfluentialCheckpoints(window_size=100, k=3, beta=0.3), actions
        )
        reference = drive(
            ReferenceIC(window_size=100, k=3, beta=0.3), actions
        )
        shared_fp = measure_footprint(shared)
        reference_fp = measure_footprint(reference)
        assert shared_fp.shared
        assert shared_fp.checkpoints == reference_fp.checkpoints == 100
        # ~100 live checkpoints each duplicating a suffix: the shared map
        # must be an order of magnitude below the per-checkpoint sum.
        assert shared_fp.index_entries * 10 < reference_fp.index_entries
        # And it can never exceed twice the visible pairs (compaction's
        # amortised doubling bound) — here bounded loosely by the window's
        # worst case of one pair per (influencer, action) credit.
        assert shared_fp.index_entries <= 2 * reference_fp.index_entries / 100 + 64

    def test_larger_beta_smaller_footprint(self):
        actions = random_stream(300, 10, seed=4)
        tight = drive(ReferenceSIC(window_size=100, k=3, beta=0.1), actions)
        loose = drive(ReferenceSIC(window_size=100, k=3, beta=0.5), actions)
        assert (
            measure_footprint(loose).total_entries
            <= measure_footprint(tight).total_entries
        )

    def test_ratio_to_zero_footprint(self):
        empty = FrameworkFootprint(0, 0, 0, 0, 0)
        assert empty.ratio_to(empty) == 0.0
