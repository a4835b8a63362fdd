"""The facade's slide resolver and its durable state.

:class:`~repro.sharding.engine.ShardedEngine` resolves every slide
exactly once, here, before routing each shard its owned records.  The
resolver has its own snapshot+WAL store under ``<root>/resolver/``,
logged *before* routing, so its clock always covers every shard's clock
and redelivery re-resolves idempotently.
"""

from __future__ import annotations

import pathlib
from typing import Optional, Sequence

from repro.core.actions import Action, ActionBatch
from repro.core.resolve import ResolvedSlide, SlideResolver
from repro.persistence.engine import StateStore
from repro.persistence.serialize import PersistenceError

#: Directory under a sharded state root holding the facade resolver's
#: snapshot+WAL state.
RESOLVER_DIR_NAME = "resolver"

#: Snapshot document format of the facade resolver state.
RESOLVER_SNAPSHOT_FORMAT = 1


class _FacadeResolver:
    """The facade's slide resolver plus its optional durable state.

    Routed ingest resolves every slide exactly once, at the facade; this
    wrapper gives that resolver the same snapshot+WAL recipe a shard
    engine gets, under ``<root>/resolver/``.  The WAL logs the *raw
    action slides* (appended before routing), so after a crash the
    resolver replays its tail and its clock always covers every shard's
    clock — a redelivered suffix then re-resolves idempotently and the
    routed records a lagging shard receives are identical to the
    originals.
    """

    def __init__(
        self,
        resolver: SlideResolver,
        store: Optional[StateStore],
        slide_seq: int,
        replayed: int,
        snapshot_every: int,
    ):
        self._resolver = resolver
        self._store = store
        self._slide_seq = slide_seq
        self._replayed = replayed
        self._snapshot_every = snapshot_every
        self._last_snapshot_seq = slide_seq if replayed == 0 else None

    @classmethod
    def open(
        cls,
        state_root: Optional[pathlib.Path],
        retention: Optional[int],
        snapshot_every: int,
        keep_snapshots: int,
        segment_records: int,
        fsync: bool,
    ) -> "_FacadeResolver":
        """Restore (or freshly build) the facade resolver."""
        if state_root is None:
            return cls(SlideResolver(retention=retention), None, 0, 0, snapshot_every)
        store = StateStore(
            state_root / RESOLVER_DIR_NAME,
            keep_snapshots=keep_snapshots,
            segment_records=segment_records,
            fsync=fsync,
        )
        latest = store.snapshots.load_latest()
        if latest is not None:
            seq, document = latest
            version = document.get("format")
            if version != RESOLVER_SNAPSHOT_FORMAT:
                raise PersistenceError(
                    f"unsupported resolver snapshot format {version!r}; "
                    f"this build reads version {RESOLVER_SNAPSHOT_FORMAT}"
                )
            resolver = SlideResolver.from_state(document["resolver"])
        else:
            seq = 0
            resolver = SlideResolver(retention=retention)
        replayed = 0
        for wal_seq, payload in store.wal.replay(after=seq):
            if isinstance(payload, ResolvedSlide):
                raise PersistenceError(
                    "the facade resolver WAL logs raw action slides, but "
                    f"seq {wal_seq} holds a routed record; the state dir "
                    "is corrupt or mislaid"
                )
            if replayed == 0 and latest is None and wal_seq != 1:
                raise PersistenceError(
                    f"no resolver snapshot and its WAL starts at slide "
                    f"{wal_seq}; cannot recover the stream prefix"
                )
            if replayed or latest is not None:
                if wal_seq != seq + 1:
                    raise PersistenceError(
                        f"resolver WAL gap: expected slide {seq + 1}, "
                        f"found {wal_seq}"
                    )
            resolver.resolve(payload)
            replayed += 1
            seq = wal_seq
        return cls(resolver, store, seq, replayed, snapshot_every)

    @property
    def now(self) -> int:
        """The resolver's stream clock."""
        return self._resolver.now

    @property
    def actions_processed(self) -> int:
        """Distinct stream actions resolved (global, not per shard)."""
        return self._resolver.actions_processed

    @property
    def replayed_slides(self) -> int:
        """WAL slides replayed by :meth:`open`."""
        return self._replayed

    @property
    def slides_processed(self) -> int:
        """Resolver slide sequence (== resolved slides in its lifetime)."""
        return self._slide_seq

    def log_and_resolve(self, batch: Sequence[Action]) -> ResolvedSlide:
        """Validate, write-ahead-log, then resolve one slide.

        The batch is validated (fields the int64 columns can hold, when
        the :class:`~repro.core.actions.ActionBatch` is built, and
        strictly ascending) *before* it reaches the WAL, so a poisoned
        slide is never logged; actions at or below the resolver clock
        (redelivery) resolve idempotently.
        """
        batch = ActionBatch.of(batch)
        batch.check_after(0, "resolver")
        seq = self._slide_seq + 1
        if self._store is not None:
            self._store.wal.append(seq, batch)
        resolved = self._resolver.resolve(batch)
        self._slide_seq = seq
        if (
            self._store is not None
            and self._snapshot_every
            and seq % self._snapshot_every == 0
        ):
            self.snapshot()
        return resolved

    def snapshot(self) -> None:
        """Write a resolver snapshot and prune the covered WAL tail."""
        if self._store is None:
            return
        self._store.snapshots.save(
            self._slide_seq,
            {
                "format": RESOLVER_SNAPSHOT_FORMAT,
                "slide_seq": self._slide_seq,
                "resolver": self._resolver.to_state(),
            },
        )
        self._last_snapshot_seq = self._slide_seq
        retained = self._store.snapshots.sequences()
        if retained:
            self._store.wal.prune_through(min(retained))

    def close(self, snapshot: bool = True) -> None:
        """Seal (final snapshot by default) and release file handles."""
        if self._store is not None:
            if snapshot and self._slide_seq != self._last_snapshot_seq:
                self.snapshot()
            self._store.close()
