"""The resolve half of the two-phase ingest API.

The paper's per-action work splits cleanly in two:

* **resolve** — walk the diffusion forest once per arriving action and
  emit its ``(influencer, member, time)`` influence tuples (an
  :class:`~repro.core.diffusion.ActionRecord`).  This is stream-global,
  transactional work: it needs the full response-chain history and must
  happen exactly once per action.
* **apply** — feed the influence index and the checkpoint oracles from
  those pre-resolved tuples.  This is per-influencer work: a shard that
  owns a subset of influencers only needs the records (narrowed to its
  influencers) plus the slide's global boundaries.

:class:`ResolvedSlide` is the value passed between the two phases: one
window slide's worth of resolved records plus the global slide
boundaries (``start``/``last``/``count``) the apply side needs even when
its projected record list is empty — a sharded checkpoint still opens at
the slide's *global* start, and its absorption ledger still counts the
*global* ``L``, so a routed shard stays bit-identical to a standalone
shard engine fed the raw stream.

:class:`SlideResolver` is the standalone resolver the sharded facade
runs: a diffusion forest plus a stream clock, with idempotent
re-resolution of redelivered actions (at-least-once delivery after a
crash re-sends actions the resolver has already seen; those reuse the
stored record instead of corrupting the forest).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.actions import Action
from repro.core.diffusion import ActionRecord, DiffusionForest

__all__ = [
    "RESOLVED_WIRE_VERSION",
    "ResolvedSlide",
    "SlideResolver",
    "project_records",
    "partition_slide",
]

#: Version tag of the :meth:`ResolvedSlide.to_wire` encoding (shared by
#: the shard IPC payloads and the routed WAL records).
RESOLVED_WIRE_VERSION = 1


def project_records(
    records: Sequence[ActionRecord], owns: Callable[[int], bool]
) -> List[ActionRecord]:
    """Narrow resolved records to the influence pairs a shard owns.

    Each record's ``influencers`` tuple is filtered through ``owns``;
    records left with no owned influencer are dropped entirely.  Records
    whose influencers are all owned pass through unchanged (no copy), so
    projection is idempotent: projecting an already-projected record
    list is a no-op.
    """
    projected: List[ActionRecord] = []
    for record in records:
        owned = tuple(u for u in record.influencers if owns(u))
        if not owned:
            continue
        if len(owned) == len(record.influencers):
            projected.append(record)
        else:
            projected.append(
                ActionRecord(
                    time=record.time,
                    user=record.user,
                    influencers=owned,
                    depth=record.depth,
                )
            )
    return projected


class ResolvedSlide:
    """One window slide's forest-resolved influence records.

    Attributes:
        start: Timestamp of the slide's first action — *stream-global*,
            preserved across projection so every shard opens checkpoints
            at the same boundary the single engine would.
        last: Timestamp of the slide's last action (the stream clock
            after this slide).
        count: Number of actions in the slide (the paper's ``L``),
            stream-global and preserved across projection — the
            checkpoint absorption ledger counts global actions.
        records: The resolved :class:`ActionRecord` tuples.  Equal to
            one record per action for an unprojected slide; a projected
            slide keeps only the records with owned influencers.
        routed: True when this slide was narrowed per shard by
            :func:`partition_slide` — a promise that every influencer in
            ``records`` is owned by the receiving shard, letting sharded
            engines skip the defensive re-projection on the hot apply
            path.  The promise holds inside a
            :class:`~repro.sharding.engine.ShardedEngine`, whose manifest
            pins the partitioner identity; direct callers constructing
            routed slides for a mismatched partitioner would double-count
            influence pairs.
    """

    __slots__ = ("start", "last", "count", "records", "routed")

    def __init__(
        self,
        start: int,
        last: int,
        count: int,
        records: Tuple[ActionRecord, ...],
        routed: bool = False,
    ):
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count and last < start:
            raise ValueError(
                f"slide boundaries out of order: start {start} > last {last}"
            )
        self.start = start
        self.last = last
        self.count = count
        self.records = tuple(records)
        self.routed = bool(routed)

    @classmethod
    def empty(cls) -> "ResolvedSlide":
        """The zero-action slide (applying it is a no-op)."""
        return cls(start=0, last=0, count=0, records=())

    def __len__(self) -> int:
        return len(self.records)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResolvedSlide):
            return NotImplemented
        return (
            self.start == other.start
            and self.last == other.last
            and self.count == other.count
            and self.records == other.records
            and self.routed == other.routed
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResolvedSlide(start={self.start}, last={self.last}, "
            f"count={self.count}, records={len(self.records)})"
        )

    def project(self, owns: Callable[[int], bool]) -> "ResolvedSlide":
        """This slide narrowed to the influence pairs ``owns`` accepts.

        The global boundaries (``start``/``last``/``count``) are kept:
        they describe the slide, not the projection.
        """
        return ResolvedSlide(
            start=self.start,
            last=self.last,
            count=self.count,
            records=tuple(project_records(self.records, owns)),
        )

    def slice_after(self, after_time: int) -> "ResolvedSlide":
        """The sub-slide strictly beyond ``after_time``.

        Used for catch-up redelivery: a healed shard whose clock sits
        inside this slide must only apply the suffix it has not covered.
        Only meaningful on an *unprojected* slide (one record per
        action), where the suffix's global ``count`` equals its record
        count.
        """
        if after_time < self.start:
            return self
        records = tuple(r for r in self.records if r.time > after_time)
        if not records:
            return ResolvedSlide.empty()
        return ResolvedSlide(
            start=records[0].time,
            last=self.last,
            count=len(records),
            records=records,
            routed=self.routed,
        )

    # -- wire codec --------------------------------------------------------

    def to_wire(self) -> dict:
        """JSON-safe encoding shared by shard IPC and routed WAL records."""
        document = {
            "v": RESOLVED_WIRE_VERSION,
            "start": self.start,
            "last": self.last,
            "count": self.count,
            "records": [
                [r.time, r.user, list(r.influencers), r.depth]
                for r in self.records
            ],
        }
        if self.routed:
            document["routed"] = True
        return document

    @classmethod
    def from_wire(cls, document: dict) -> "ResolvedSlide":
        """Decode :meth:`to_wire` output.

        Raises:
            ValueError: on an unknown wire version or malformed document.
        """
        version = document.get("v")
        if version != RESOLVED_WIRE_VERSION:
            raise ValueError(
                f"unsupported resolved-slide wire version {version!r}; "
                f"this build reads version {RESOLVED_WIRE_VERSION}"
            )
        return cls(
            start=document["start"],
            last=document["last"],
            count=document["count"],
            records=tuple(
                ActionRecord(
                    time=time,
                    user=user,
                    influencers=tuple(influencers),
                    depth=depth,
                )
                for time, user, influencers, depth in document["records"]
            ),
            routed=document.get("routed", False),
        )


def partition_slide(resolved: ResolvedSlide, partitioner) -> List[ResolvedSlide]:
    """Split one unprojected slide into per-shard projected slides.

    One pass over every influence pair: each record's influencers are
    grouped by owning shard, and each shard receives the record narrowed
    to its influencers (the whole record, uncopied, when it owns them
    all) — exactly what :func:`project_records` would produce per shard,
    at a single-pass cost instead of one full scan per shard.

    Every per-shard slide keeps the global ``start``/``last``/``count``
    and is marked ``routed``: the receiving shard may trust the narrowing
    and skip its defensive re-projection.
    """
    shards = partitioner.shards
    shard_of = partitioner.shard_of
    parts: List[List[ActionRecord]] = [[] for _ in range(shards)]
    for record in resolved.records:
        influencers = record.influencers
        by_shard: dict = {}
        for user in influencers:
            by_shard.setdefault(shard_of(user), []).append(user)
        for shard, owned in by_shard.items():
            if len(owned) == len(influencers):
                parts[shard].append(record)
            else:
                parts[shard].append(
                    ActionRecord(
                        time=record.time,
                        user=record.user,
                        influencers=tuple(owned),
                        depth=record.depth,
                    )
                )
    return [
        ResolvedSlide(
            start=resolved.start,
            last=resolved.last,
            count=resolved.count,
            records=tuple(part),
            routed=True,
        )
        for part in parts
    ]


class SlideResolver:
    """A standalone resolve-phase engine: diffusion forest + stream clock.

    The sharded facade owns one of these and runs it exactly once per
    slide; shards then apply the routed records without ever seeing a
    raw action.  Redelivered actions (at-least-once delivery after a
    crash) are re-resolved *idempotently*: an action at or below the
    resolver clock reuses its stored forest record instead of being
    re-added, so replaying a stream suffix through the resolver yields
    the same records the original pass produced.
    """

    def __init__(self, retention: Optional[int] = None):
        self._forest = DiffusionForest(retention=retention)
        self._last_time = 0
        self._actions_processed = 0

    @property
    def now(self) -> int:
        """Timestamp of the newest action ever resolved (0 before any)."""
        return self._last_time

    @property
    def actions_processed(self) -> int:
        """Distinct actions resolved (redelivered actions not recounted)."""
        return self._actions_processed

    @property
    def forest(self) -> DiffusionForest:
        """The underlying diffusion forest."""
        return self._forest

    def resolve(self, batch: Sequence[Action]) -> ResolvedSlide:
        """Resolve one slide; returns the unprojected resolved slide.

        The batch must be strictly ascending in time.  Actions at or
        below the resolver clock are redeliveries: their stored records
        are reused (or, when a retention horizon already pruned them,
        re-resolved as roots: their parents are older still, so pruned
        too).
        """
        if not batch:
            return ResolvedSlide.empty()
        records: List[ActionRecord] = []
        previous = 0
        for action in batch:
            if action.time <= previous:
                raise ValueError(
                    f"resolver received out-of-order action {action.time} "
                    f"after {previous}"
                )
            previous = action.time
            if action.time <= self._last_time:
                try:
                    records.append(self._forest.record(action.time))
                    continue
                except KeyError:
                    # Redelivered but already pruned by retention: the
                    # forest resolves it as a root and does not store it.
                    records.append(self._forest.add(action))
                    continue
            records.append(self._forest.add(action))
            self._last_time = action.time
            self._actions_processed += 1
        return ResolvedSlide(
            start=batch[0].time,
            last=batch[-1].time,
            count=len(batch),
            records=tuple(records),
        )

    # -- persistence -------------------------------------------------------

    def to_state(self) -> dict:
        """Explicit JSON-safe state (forest + clock + accounting)."""
        return {
            "forest": self._forest.to_state(),
            "last_time": self._last_time,
            "actions_processed": self._actions_processed,
        }

    @classmethod
    def from_state(cls, state: dict) -> "SlideResolver":
        """Rebuild a resolver from :meth:`to_state` output."""
        resolver = cls()
        resolver._forest = DiffusionForest.from_state(state["forest"])
        resolver._last_time = state["last_time"]
        resolver._actions_processed = state["actions_processed"]
        return resolver
