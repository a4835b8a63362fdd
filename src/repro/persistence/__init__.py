"""Durable state plane: snapshots + action WAL for resumable streaming.

The frameworks in :mod:`repro.core` are long-running stream processors,
but their state used to live only in process memory — a restart meant
replaying the whole stream.  This package adds the missing database-style
durability subsystem:

* :mod:`repro.persistence.serialize` — shared codecs, the
  algorithm-state dispatch (explicit schemas, no pickle) and the snapshot
  container codec (JSON header + raw array sections);
* :mod:`repro.persistence.wal` — the append-only action log (JSONL
  segments, fsync-on-slide, rotation, torn-tail truncation);
* :mod:`repro.persistence.snapshots` — atomic write-rename snapshot
  containers with bounded retention;
* :mod:`repro.persistence.engine` — :class:`RecoverableEngine`, which
  logs ahead, snapshots every S slides, and on
  :meth:`~repro.persistence.engine.RecoverableEngine.open` restores the
  newest snapshot then replays only the WAL tail — O(tail) recovery with
  answers identical to an uninterrupted run.

Persistence is strictly opt-in: with no state store the engine is a
passthrough and the hot path is untouched.
"""

from repro.persistence.engine import RecoverableEngine, StateStore
from repro.persistence.serialize import (
    SNAPSHOT_FORMAT_VERSION,
    PersistenceError,
    algorithm_from_state,
    algorithm_to_state,
    decode_action,
    encode_action,
)
from repro.persistence.snapshots import SnapshotStore
from repro.persistence.wal import ActionWAL

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "ActionWAL",
    "PersistenceError",
    "RecoverableEngine",
    "SnapshotStore",
    "StateStore",
    "algorithm_from_state",
    "algorithm_to_state",
    "decode_action",
    "encode_action",
]
