"""Memory accounting for the checkpoint frameworks.

Figure 6's commentary argues SIC's sparse checkpoints buy "both space and
time efficiencies".  Throughput (time) is directly measurable; this module
makes the *space* side measurable too, without psutil: it counts the
logical footprint of a framework's state — checkpoints, influence-index
entries, and oracle instances — which is what actually scales with N, L,
and β.

The engine's shared influence index stores each distinct ``(u, v)``
influence pair once, no matter how many checkpoints view it, so
``index_entries`` does not scale with the checkpoint count: it counts the
pairs the oldest live checkpoint sees, which every plane's store holds —
the object plane's versioned map and the columnar kernel's pair store
each keep some invisible ones on top until a sweep or trim drops them, on
their own schedules, so that figure is the one both planes report alike.
For the literal per-checkpoint algorithm (:mod:`repro.reference`) the
per-suffix sums are reported, which is what the paper's Figure 6 analysis
describes.

The counts are implementation-level but deterministic, so tests can assert
e.g. that the shared index is a fraction of the per-checkpoint copies on
the same stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.core.framework import CheckpointFramework
from repro.reference import ReferenceIC, ReferenceSIC

__all__ = ["FrameworkFootprint", "measure_footprint", "sharded_work"]


@dataclass(frozen=True)
class FrameworkFootprint:
    """Logical size of a checkpoint framework's state.

    Attributes:
        checkpoints: Live checkpoint count.
        index_users: Users tracked by the influence index state.  With the
            shared index, the users with a pair the oldest live checkpoint
            sees; the reference classes sum users over checkpoint copies.
        index_entries: ``(user, influenced)`` influence-index entries.
            Engine: the distinct pairs the oldest live checkpoint sees,
            counted once.
            Reference classes: the sum of all suffix sizes — the dominant
            O(N·checkpoints) term the shared index eliminates.
        oracle_instances: Threshold-guess instances across all oracles
            (0 for swap/greedy oracles).
        oracle_covered_entries: Covered-set entries across all instances.
        shared: True when the framework runs the shared versioned index.
    """

    checkpoints: int
    index_users: int
    index_entries: int
    oracle_instances: int
    oracle_covered_entries: int
    shared: bool = False

    @property
    def total_entries(self) -> int:
        """A single comparable figure: all set entries held."""
        return self.index_entries + self.oracle_covered_entries

    def ratio_to(self, other: "FrameworkFootprint") -> float:
        """This footprint's total entries relative to ``other``'s."""
        if other.total_entries == 0:
            return 0.0
        return self.total_entries / other.total_entries


def measure_footprint(
    framework: Union[CheckpointFramework, ReferenceIC, ReferenceSIC],
) -> FrameworkFootprint:
    """Count the logical footprint of an IC or SIC instance (or reference)."""
    checkpoints = framework.checkpoints
    instances = 0
    covered = 0
    shared = isinstance(framework, CheckpointFramework)
    kernel = framework.columnar_kernel if shared else None
    if kernel is not None:
        # Columnar plane: the kernel accounts for every column at once —
        # materializing a per-checkpoint oracle object just to count its
        # instances would defeat the plane being measured.
        instances, covered = kernel.footprint()
    else:
        for checkpoint in checkpoints:
            oracle = checkpoint.oracle
            oracle_instances = getattr(oracle, "_instances", None)
            if oracle_instances:
                instances += len(oracle_instances)
                for instance in oracle_instances.values():
                    covered += len(getattr(instance, "covered", ()))
            cover_counts = getattr(oracle, "_cover_counts", None)
            if cover_counts is not None:
                covered += len(cover_counts)
    if shared:
        # One index serves every checkpoint: count its visible pairs once.
        oldest = framework.shared_index.view(checkpoints[0].start) if checkpoints else ()
        sizes = [len(oldest.influence_set(user)) for user in oldest]
        index_users, index_entries = len(sizes), sum(sizes)
    else:
        suffixes = [c.index._influence for c in checkpoints]  # noqa: SLF001
        index_users = sum(len(influence) for influence in suffixes)
        index_entries = sum(
            len(members) for influence in suffixes for members in influence.values()
        )
    return FrameworkFootprint(
        checkpoints=len(checkpoints),
        index_users=index_users,
        index_entries=index_entries,
        oracle_instances=instances,
        oracle_covered_entries=covered,
        shared=shared,
    )


def sharded_work(engine) -> dict:
    """Per-shard consumed-work accounting for a sharded engine.

    Reports what each shard *consumed* — its routed influence records, the
    same unit ``/metrics`` and the ``shard_scaling`` bench use — plus the
    replication factor: total consumed work relative to the stream length
    (typically ~1; a record is only duplicated when its influencer chain
    spans shards).

    Args:
        engine: A :class:`~repro.sharding.engine.ShardedEngine`.

    Returns:
        ``{"stream_actions", "unit", "per_shard", "total_consumed",
        "replication_factor"}``.
    """
    per_shard = engine.shard_routed_records
    stream_actions = int(engine.actions_processed)
    total = sum(per_shard)
    return {
        "stream_actions": stream_actions,
        "unit": "routed_records",
        "per_shard": per_shard,
        "total_consumed": total,
        "replication_factor": (
            round(total / stream_actions, 4) if stream_actions else 0.0
        ),
    }
