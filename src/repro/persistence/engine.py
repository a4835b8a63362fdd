"""Crash-recoverable streaming: StateStore layout + RecoverableEngine.

``RecoverableEngine`` wraps any serializable SIM framework (IC, SIC,
``WindowedGreedy``) with the classic snapshot + write-ahead-log recipe:

1. every arriving slide is appended to the action WAL *before* it is
   processed (write-ahead: a slide the engine acknowledged is on disk);
2. every ``snapshot_every`` slides the full framework state — explicit
   ``to_state()`` schemas with numpy arrays at the leaves, no pickle — is
   written atomically to the snapshot store as one container, and WAL
   segments older than the oldest retained snapshot are pruned;
3. :meth:`RecoverableEngine.open` restores the newest valid snapshot and
   replays only the WAL records behind it, so a warm restart costs
   O(tail) work instead of re-streaming from t = 0 — with answers
   *identical* to an uninterrupted run (the restore-equivalence property
   tests pin this per oracle and framework).

The state directory layout is owned by :class:`StateStore`::

    <state_dir>/
      snapshots/snapshot-<slideseq>.snap   sectioned binary container (JSON
                                           header + raw array sections, a
                                           CRC32 each); atomic write-rename,
                                           last M kept
      wal/wal-<firstseq>.jsonl             fsync-on-slide, segment rotation

A *sharded* engine (:mod:`repro.sharding`) nests one full ``StateStore``
per shard under the same root — ``shard-0/``, ``shard-1/``, ... — plus a
``sharding.json`` manifest; :func:`shard_state_dir` and
:func:`list_shard_state_dirs` own that naming so the CLI, the sharded
facade and the tests agree on it.

Passing ``state_dir=None`` (or constructing with ``store=None``) makes the
engine a zero-overhead passthrough — the hot path is untouched when
persistence is off.
"""

from __future__ import annotations

import pathlib
import time
from typing import Callable, Optional

from repro.core.actions import ActionBatch
from repro.core.base import SIMAlgorithm, SIMResult
from repro.core.resolve import ResolvedSlide
from repro.persistence.serialize import (
    SNAPSHOT_FORMAT_VERSION,
    PersistenceError,
    algorithm_from_state,
    algorithm_to_state,
)
from repro.persistence.snapshots import SnapshotStore
from repro.persistence.wal import ActionWAL
from repro.telemetry.metrics import Histogram
from repro.telemetry.trace import record_stage

__all__ = [
    "StateStore",
    "RecoverableEngine",
    "shard_state_dir",
    "list_shard_state_dirs",
]

#: Name template of one shard's state directory under a sharded root.
_SHARD_DIR_FORMAT = "shard-{shard}"


def shard_state_dir(root, shard: int) -> pathlib.Path:
    """The state directory of shard ``shard`` under a sharded root."""
    if shard < 0:
        raise ValueError(f"shard must be >= 0, got {shard}")
    return pathlib.Path(root) / _SHARD_DIR_FORMAT.format(shard=shard)


def list_shard_state_dirs(root) -> list:
    """Existing ``shard-<i>/`` directories under ``root``, ordered by shard.

    Returns an empty list for unsharded (or nonexistent) state dirs, which
    is how callers distinguish the two layouts.
    """
    root = pathlib.Path(root)
    found = []
    for path in root.glob("shard-*"):
        if not path.is_dir():
            continue
        suffix = path.name.split("-", 1)[1]
        if suffix.isdigit():
            found.append((int(suffix), path))
    return [path for _shard, path in sorted(found)]


class StateStore:
    """One durable state directory: snapshots plus the action WAL."""

    def __init__(
        self,
        root,
        keep_snapshots: int = 3,
        segment_records: int = 256,
        fsync: bool = True,
    ):
        """
        Args:
            root: State directory (created if missing).
            keep_snapshots: Snapshot retention (>= 1).
            segment_records: WAL records per segment before rotation.
            fsync: Force WAL appends and snapshots to stable storage.
        """
        self.root = pathlib.Path(root)
        self.snapshots = SnapshotStore(
            self.root / "snapshots", keep=keep_snapshots
        )
        self.wal = ActionWAL(
            self.root / "wal", segment_records=segment_records, fsync=fsync
        )

    def close(self) -> None:
        """Release file handles (the WAL's active segment)."""
        self.wal.close()


class RecoverableEngine:
    """Snapshot + WAL wrapper making a SIM framework crash-recoverable."""

    def __init__(
        self,
        algorithm: SIMAlgorithm,
        store: Optional[StateStore] = None,
        snapshot_every: int = 16,
        _slide_seq: int = 0,
        _replayed: int = 0,
    ):
        """Wrap ``algorithm``; prefer :meth:`open` for directory handling.

        Args:
            algorithm: The framework to drive (fresh or restored).
            store: The durable state plane, or ``None`` for a passthrough
                engine with zero persistence overhead.
            snapshot_every: Auto-snapshot cadence in slides; ``0`` disables
                automatic snapshots (manual :meth:`snapshot` / final
                :meth:`close` snapshot only).
        """
        if snapshot_every < 0:
            raise ValueError(
                f"snapshot_every must be >= 0, got {snapshot_every}"
            )
        self._algorithm = algorithm
        self._store = store
        self._snapshot_every = snapshot_every
        self._slide_seq = _slide_seq
        self._replayed = _replayed
        self._snapshots_written = 0
        self._last_snapshot_seq = _slide_seq if _replayed == 0 else None
        # Durability latency distributions (observed once per slide /
        # snapshot — negligible cost; scraped by the telemetry plane).
        self.fsync_hist = Histogram()
        self.snapshot_hist = Histogram()

    @classmethod
    def open(
        cls,
        state_dir,
        factory: Optional[Callable[[], SIMAlgorithm]] = None,
        snapshot_every: int = 16,
        keep_snapshots: int = 3,
        segment_records: int = 256,
        fsync: bool = True,
    ) -> "RecoverableEngine":
        """Open a state directory: restore + replay, or start fresh.

        When the directory holds a snapshot, the newest valid one is
        restored and the WAL records behind it are replayed
        (:attr:`replayed_slides` counts them — the O(tail) recovery
        witness).  Otherwise ``factory()`` builds a fresh framework.

        Args:
            state_dir: Durable state directory, or ``None`` for a
                passthrough engine (requires ``factory``).
            factory: Zero-argument framework constructor for the fresh
                start; optional when resuming existing state.
            snapshot_every: Auto-snapshot cadence in slides (0 disables).
            keep_snapshots: Snapshot retention (>= 1).
            segment_records: WAL records per segment before rotation.
            fsync: Force WAL appends and snapshots to stable storage.

        Raises:
            PersistenceError: when there is no usable state and no
                ``factory``, or the stored state is corrupt/gapped.
        """
        if state_dir is None:
            if factory is None:
                raise PersistenceError(
                    "state_dir is None and no factory was provided"
                )
            return cls(factory(), None, snapshot_every)
        store = StateStore(
            state_dir,
            keep_snapshots=keep_snapshots,
            segment_records=segment_records,
            fsync=fsync,
        )
        latest = store.snapshots.load_latest()
        if latest is not None:
            seq, document = latest
            algorithm = algorithm_from_state(document["algorithm"])
        else:
            seq = 0
            algorithm = None
        replayed = 0
        for wal_seq, payload in store.wal.replay(after=seq):
            if algorithm is None:
                # No snapshot: the WAL must cover the stream from slide 1.
                if wal_seq != 1 and replayed == 0:
                    raise PersistenceError(
                        f"no snapshot and WAL starts at slide {wal_seq}; "
                        "cannot recover the stream prefix"
                    )
                if factory is None:
                    raise PersistenceError(
                        f"no snapshot in {store.root} and no factory "
                        "was provided"
                    )
                algorithm = factory()
            elif wal_seq != seq + 1:
                raise PersistenceError(
                    f"WAL gap after snapshot: expected slide {seq + 1}, "
                    f"found {wal_seq}"
                )
            # Dispatch on record kind: raw action batches replay through
            # process(), routed-slide records through apply_resolved() —
            # a shard log migrated from broadcast to routed ingest holds
            # both, in sequence order.
            if isinstance(payload, ResolvedSlide):
                algorithm.apply_resolved(payload)
            else:
                algorithm.process(payload)
            replayed += 1
            seq = wal_seq
        if algorithm is None:
            if factory is None:
                raise PersistenceError(
                    f"no recoverable state in {store.root} and no factory "
                    "was provided"
                )
            algorithm = factory()
        return cls(
            algorithm,
            store,
            snapshot_every,
            _slide_seq=seq,
            _replayed=replayed,
        )

    # -- streaming ---------------------------------------------------------

    def process(self, batch) -> None:
        """Log one slide ahead, then process it (write-ahead ordering).

        The slide is validated against the stream contract *before* it is
        logged — fields the int64 columns can hold, checked when the
        :class:`~repro.core.actions.ActionBatch` is built, and times
        increasing beyond the engine clock — so a rejected batch never
        reaches the WAL and recovery never replays a poisoned record.
        """
        batch = ActionBatch.of(batch)
        if not batch:
            return
        batch.check_after(self._algorithm.now, "engine")
        seq = self._slide_seq + 1
        if self._store is not None:
            wal_started = time.perf_counter()
            self._store.wal.append(seq, batch)
            wal_elapsed = time.perf_counter() - wal_started
            self.fsync_hist.observe(wal_elapsed)
            record_stage("wal_fsync", wal_elapsed, len(batch))
        self._algorithm.process(batch)
        self._slide_seq = seq
        if (
            self._store is not None
            and self._snapshot_every
            and seq % self._snapshot_every == 0
        ):
            self.snapshot()

    def apply_resolved(self, resolved: ResolvedSlide) -> None:
        """Log one routed slide ahead, then apply it (write-ahead ordering).

        The routed-shard counterpart of :meth:`process`: the facade
        resolved the slide once and routed this shard its influence
        records; the WAL record carries the routed tuples, not raw
        actions, so recovery replays exactly what this shard consumed.
        Same validate-before-log contract as :meth:`process`.
        """
        if resolved.count == 0:
            return
        now = self._algorithm.now
        if resolved.start <= now:
            raise ValueError(
                f"engine received out-of-order slide starting "
                f"{resolved.start} at clock {now}"
            )
        seq = self._slide_seq + 1
        if self._store is not None:
            wal_started = time.perf_counter()
            self._store.wal.append_resolved(seq, resolved)
            wal_elapsed = time.perf_counter() - wal_started
            self.fsync_hist.observe(wal_elapsed)
            record_stage("wal_fsync", wal_elapsed, len(resolved))
        self._algorithm.apply_resolved(resolved)
        self._slide_seq = seq
        if (
            self._store is not None
            and self._snapshot_every
            and seq % self._snapshot_every == 0
        ):
            self.snapshot()

    def query(self) -> SIMResult:
        """Answer the SIM query for the current window."""
        return self._algorithm.query()

    # -- durability --------------------------------------------------------

    def snapshot(self) -> None:
        """Write a full-state snapshot now and prune the covered WAL tail."""
        if self._store is None:
            raise PersistenceError("engine has no state store to snapshot to")
        snapshot_started = time.perf_counter()
        document = {
            "format": SNAPSHOT_FORMAT_VERSION,
            "slide_seq": self._slide_seq,
            "algorithm": algorithm_to_state(self._algorithm),
        }
        self._store.snapshots.save(self._slide_seq, document)
        self._snapshots_written += 1
        self._last_snapshot_seq = self._slide_seq
        retained = self._store.snapshots.sequences()
        if retained:
            self._store.wal.prune_through(min(retained))
        snapshot_elapsed = time.perf_counter() - snapshot_started
        self.snapshot_hist.observe(snapshot_elapsed)
        record_stage("snapshot", snapshot_elapsed, 1)

    def close(self, snapshot: bool = True) -> None:
        """Release the store; by default seal state with a final snapshot.

        A clean shutdown snapshot makes the next :meth:`open` replay zero
        slides.  Pass ``snapshot=False`` when the in-memory state must
        not be trusted (e.g. closing after an exception) — recovery then
        falls back to the last good snapshot plus the WAL tail.
        """
        if self._store is not None:
            if snapshot and self._slide_seq != self._last_snapshot_seq:
                self.snapshot()
            self._store.close()

    def __enter__(self) -> "RecoverableEngine":
        """Context-manager entry: the engine itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close on exit; skip the final snapshot after an exception."""
        self.close(snapshot=exc_type is None)

    # -- introspection -----------------------------------------------------

    @property
    def algorithm(self) -> SIMAlgorithm:
        """The wrapped framework."""
        return self._algorithm

    @property
    def now(self) -> int:
        """Stream clock of the wrapped framework (0 before any action).

        The serving plane's ingest loop uses this to drop already-covered
        actions on at-least-once redelivery (a client replaying its stream
        after a crash) instead of rejecting the whole connection.
        """
        return self._algorithm.now

    @property
    def store(self) -> Optional[StateStore]:
        """The durable state plane (``None`` for passthrough engines)."""
        return self._store

    @property
    def slides_processed(self) -> int:
        """Total slides in the engine's lifetime, including pre-crash ones."""
        return self._slide_seq

    @property
    def replayed_slides(self) -> int:
        """WAL-tail slides re-processed by :meth:`open` — the O(tail) witness."""
        return self._replayed

    @property
    def snapshots_written(self) -> int:
        """Snapshots written by this engine instance."""
        return self._snapshots_written
