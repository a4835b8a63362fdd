"""Append-only action WAL: JSONL segments with fsync and rotation.

The write-ahead log is the cheap half of the durability plane: every
window slide is appended — *before* the engine processes it — as one JSON
line.  Recovery then replays the records newer than the latest snapshot,
so a crash costs O(WAL tail) work instead of O(stream).

Two record kinds share a log:

* **Action records** ``{"seq": n, "actions": [[t, u, p], ...]}`` — raw
  slide batches, written by single-engine ingest and the sharded
  facade's resolver (:meth:`ActionWAL.append`).
* **Routed-slide records** ``{"seq": n, "slide": <ResolvedSlide wire>}``
  — pre-resolved influence tuples routed to one shard, written by
  sharded ingest (:meth:`ActionWAL.append_resolved`).  The wire document
  is format-versioned (:data:`~repro.core.resolve.RESOLVED_WIRE_VERSION`);
  replay refuses an unknown version instead of guessing.

One :class:`~repro.persistence.engine.RecoverableEngine` replays either
kind — action records for the single engine and the sharded resolver,
routed records for shards; :meth:`ActionWAL.replay`
yields ``(seq, ActionBatch)`` for the former and
``(seq, ResolvedSlide)`` for the latter, and consumers dispatch on type.
An action record is written from the batch's columns, and each record's
JSON is encoded once: its checksum covers the payload's bytes, and the
line is those bytes with ``,"crc":N`` spliced in before the closing brace
— the same bytes as encoding the record with its ``crc`` key last.

Design points, all standard WAL practice:

* **Sequenced records.**  Slide sequence numbers are contiguous and
  strictly increasing; :meth:`ActionWAL.replay` verifies contiguity and
  raises :class:`~repro.persistence.serialize.PersistenceError` on gaps
  or mid-log corruption — silent data loss is never an option.
* **fsync per append** (default on): a record that :meth:`ActionWAL.append`
  returned from survives power loss.  ``fsync=False`` trades that for
  throughput when the OS page cache is trusted.
* **Segment rotation.**  Records go to ``wal-<firstseq>.jsonl`` files of
  at most ``segment_records`` records, so retention is cheap: a segment
  whose records are all covered by the oldest retained snapshot is
  deleted whole (:meth:`ActionWAL.prune_through`).
* **Torn-tail tolerance.**  A crash mid-write can leave a partial final
  line.  On open, the tail segment is scanned and truncated back to its
  last complete, parseable record; replay likewise stops cleanly at a
  torn tail.  Only the *final* line of the *final* segment may be torn —
  anywhere else it is corruption and raises.  A final line that starts
  with a whole, checksum-valid record and goes on past it is not torn
  either: its newline was damaged, and it raises too.
* **Per-record CRC32.**  Every record carries a ``crc`` checksum of its
  payload, so bit rot that still parses as JSON is caught: a checksum
  mismatch mid-segment raises a :class:`PersistenceError` naming the
  segment and sequence number, while a mismatch on the final line of the
  final segment is treated as a torn tail (truncated, healed by
  redelivery).  Records written before checksums existed carry no ``crc``
  field and replay unchanged.
"""

from __future__ import annotations

import json
import os
import pathlib
import zlib
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.actions import Action, ActionBatch
from repro.core.resolve import ResolvedSlide
from repro.persistence.serialize import PersistenceError

__all__ = ["ActionWAL"]


def _record_payload(record: dict) -> dict:
    """A record's canonical CRC payload (everything but ``crc``).

    Action records keep the exact legacy key order (``seq``, ``actions``)
    so checksums written before routed records existed still verify;
    routed records checksum ``seq`` + the slide wire document.

    Raises:
        KeyError: when the record carries neither payload key (callers
            surface this as a corrupt/torn record).
    """
    if "actions" in record:
        return {"seq": record["seq"], "actions": record["actions"]}
    return {"seq": record["seq"], "slide": record["slide"]}


def _record_crc(payload: dict) -> int:
    """CRC32 of one canonical record payload."""
    return _crc_of(json.dumps(payload, separators=(",", ":")))


def _crc_of(encoded: str) -> int:
    """CRC32 of a payload's compact JSON text."""
    return zlib.crc32(encoded.encode("utf-8")) & 0xFFFFFFFF


def _record_line(payload: dict) -> str:
    """The WAL line of ``payload``: its JSON, encoded once, with the
    checksum of those bytes added as the record's last key."""
    encoded = json.dumps(payload, separators=(",", ":"))
    return f'{encoded[:-1]},"crc":{_crc_of(encoded)}}}\n'


def _crc_mismatch(record: dict) -> Optional[int]:
    """The stored-but-wrong ``crc`` of a parsed record, or ``None`` if ok.

    Records without a ``crc`` field (written before checksums existed)
    always verify.
    """
    stored = record.get("crc")
    if stored is None:
        return None
    if stored == _record_crc(_record_payload(record)):
        return None
    return stored


def _refuse_merged_record(path: pathlib.Path, raw: bytes) -> None:
    """Raise unless the unparseable final line ``raw`` can be a torn append.

    A torn append only cuts the last record short; a whole, checksummed
    record with more bytes behind it on its line is a damaged newline, and
    that record is durable.  Unchecksummed (legacy) lines stay torn-ok.

    Raises:
        PersistenceError: naming the segment and the record's seq.
    """
    text = raw.decode("utf-8", "replace")
    try:
        record, end = json.JSONDecoder().raw_decode(text)
        whole = (
            isinstance(record, dict)
            and record.get("crc") is not None
            and _crc_mismatch(record) is None
        )
    except (ValueError, KeyError, TypeError):
        return
    if whole and end < len(text):
        raise PersistenceError(
            f"WAL segment {path.name}: record seq {record['seq']} is "
            "followed by more bytes on its line; its newline is damaged, "
            "which a torn append cannot do"
        )


def _decode_record_payload(record: dict):
    """Decode a record's payload: an :class:`ActionBatch` or a
    :class:`ResolvedSlide`.

    Raises:
        ValueError: on a malformed payload or an unsupported routed-slide
            wire version (the latter must NOT be swallowed as a torn tail
            — see :meth:`ActionWAL.replay`).
    """
    if "actions" in record:
        triples = record["actions"]
        if any(len(fields) != 3 for fields in triples):
            raise ValueError("an action record holds a triple of other length")
        return ActionBatch(*zip(*triples)) if triples else ActionBatch((), (), ())
    return ResolvedSlide.from_wire(record["slide"])


class ActionWAL:
    """Segmented append-only log of window slides."""

    _PREFIX = "wal-"
    _SUFFIX = ".jsonl"

    def __init__(
        self,
        directory,
        segment_records: int = 256,
        fsync: bool = True,
    ):
        """
        Args:
            directory: Segment directory (created if missing).
            segment_records: Records per segment before rotation (>= 1).
            fsync: Force every append to stable storage before returning.
        """
        if segment_records < 1:
            raise ValueError(
                f"segment_records must be >= 1, got {segment_records}"
            )
        self._dir = pathlib.Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._segment_records = segment_records
        self._fsync = fsync
        self._handle = None
        self._active_path: pathlib.Path = None
        self._active_records = 0
        self._last_seq = 0
        self._recover_append_position()

    # -- introspection -----------------------------------------------------

    def segments(self) -> List[pathlib.Path]:
        """Segment files, oldest first."""
        return sorted(self._dir.glob(f"{self._PREFIX}*{self._SUFFIX}"))

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest durable record (0 when empty)."""
        return self._last_seq

    # -- writing -----------------------------------------------------------

    def append(self, seq: int, actions: Sequence[Action]) -> None:
        """Durably log one slide; returns only after it is on disk.

        ``actions`` is an :class:`~repro.core.actions.ActionBatch` or a
        sequence of actions; the record lists its ``[time, user, parent]``
        triples, read off the batch's columns.  ``seq`` must continue the
        log (``last_seq + 1``); an empty log accepts any positive start
        (the tail below a snapshot may have been pruned).
        """
        batch = ActionBatch.of(actions)
        triples = list(zip(batch.time, batch.user, batch.parent))
        self._append_record(seq, {"seq": seq, "actions": triples})

    def append_resolved(self, seq: int, slide: ResolvedSlide) -> None:
        """Durably log one routed (pre-resolved) slide.

        The routed-shard counterpart of :meth:`append`: the record carries
        the slide's format-versioned wire document instead of raw actions.
        Same sequencing contract as :meth:`append`.
        """
        self._append_record(seq, {"seq": seq, "slide": slide.to_wire()})

    def _append_record(self, seq: int, payload: dict) -> None:
        """Sequence-check, checksum, write and fsync one record."""
        if seq <= 0:
            raise PersistenceError(f"slide seq must be positive, got {seq}")
        if self._last_seq and seq != self._last_seq + 1:
            raise PersistenceError(
                f"WAL append out of order: got seq {seq} after {self._last_seq}"
            )
        if self._handle is None or self._active_records >= self._segment_records:
            self._open_segment(seq)
        self._handle.write(_record_line(payload))
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())
        self._active_records += 1
        self._last_seq = seq

    def close(self) -> None:
        """Release the active segment's file handle."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- reading -----------------------------------------------------------

    def replay(self, after: int = 0) -> Iterator[Tuple[int, object]]:
        """Yield ``(seq, payload)`` for every record with ``seq > after``.

        The payload is an ``ActionBatch`` for action records and a
        :class:`~repro.core.resolve.ResolvedSlide` for routed-slide
        records; consumers dispatch on type.  Verifies record contiguity
        across segment boundaries.  A torn final line (crash mid-append)
        ends the replay cleanly; corruption anywhere else — including a
        checksum-valid routed record whose wire version this build does
        not read — raises
        :class:`~repro.persistence.serialize.PersistenceError`.
        """
        segments = self.segments()
        expected = None
        for index, path in enumerate(segments):
            is_tail_segment = index == len(segments) - 1
            lines = path.read_bytes().split(b"\n")
            for line_number, raw in enumerate(lines, start=1):
                if not raw.strip():
                    continue
                torn_ok = is_tail_segment and line_number == len(lines)
                try:
                    record = json.loads(raw.decode("utf-8"))
                    seq = record["seq"]
                    bad_crc = _crc_mismatch(record)
                except (ValueError, KeyError, TypeError) as exc:
                    if torn_ok:
                        _refuse_merged_record(path, raw)
                        return
                    raise PersistenceError(
                        f"corrupt WAL record {path.name}:{line_number} ({exc})"
                    ) from exc
                if bad_crc is not None:
                    if torn_ok:
                        return
                    raise PersistenceError(
                        f"WAL checksum mismatch in segment {path.name} at "
                        f"record seq {seq} (line {line_number}): stored crc "
                        f"{bad_crc} does not match the record payload"
                    )
                try:
                    payload = _decode_record_payload(record)
                except (ValueError, KeyError, TypeError) as exc:
                    # A checksum-verified record decoded its exact written
                    # bytes, so a decode failure there is a format problem
                    # (e.g. a newer routed wire version), never a torn
                    # append; only unchecksummed legacy tails stay torn-ok.
                    if torn_ok and record.get("crc") is None:
                        return
                    raise PersistenceError(
                        f"unreadable WAL record {path.name}:{line_number} "
                        f"at seq {seq} ({exc})"
                    ) from exc
                if expected is not None and seq != expected:
                    raise PersistenceError(
                        f"WAL gap at {path.name}:{line_number}: "
                        f"expected seq {expected}, found {seq}"
                    )
                expected = seq + 1
                if seq > after:
                    yield seq, payload

    # -- retention ---------------------------------------------------------

    def prune_through(self, seq: int) -> int:
        """Delete segments fully covered by slide ``seq``; return the count.

        A segment is deletable when every record in it has sequence at
        most ``seq`` — i.e. the *next* segment starts at or below
        ``seq + 1``.  The newest segment is always kept (it is the append
        target).
        """
        segments = self.segments()
        firsts = [self._first_seq_of(path) for path in segments]
        removed = 0
        for i, path in enumerate(segments[:-1]):
            if firsts[i + 1] <= seq + 1:
                path.unlink()
                removed += 1
            else:
                break
        return removed

    # -- internals ---------------------------------------------------------

    def _first_seq_of(self, path: pathlib.Path) -> int:
        """The first record seq a segment holds, from its file name."""
        stem = path.name[len(self._PREFIX) : -len(self._SUFFIX)]
        try:
            return int(stem)
        except ValueError as exc:
            raise PersistenceError(
                f"malformed WAL segment name {path.name!r}"
            ) from exc

    def _open_segment(self, first_seq: int) -> None:
        """Rotate to (or reopen) the segment starting at ``first_seq``."""
        self.close()
        if self._active_path is not None and self._active_records < self._segment_records:
            path = self._active_path
        else:
            path = self._dir / f"{self._PREFIX}{first_seq:010d}{self._SUFFIX}"
            self._active_records = 0
        self._handle = open(path, "a", encoding="utf-8")
        self._active_path = path

    def _recover_append_position(self) -> None:
        """Scan existing segments; truncate a torn tail; set the append seq."""
        segments = self.segments()
        for index, path in enumerate(segments):
            is_tail_segment = index == len(segments) - 1
            size = path.stat().st_size
            good_bytes = 0
            records = 0
            torn = False
            with open(path, "rb") as handle:
                for raw in handle:
                    complete = raw.endswith(b"\n")
                    # Only the *final* line of the *final* segment may be
                    # torn; a bad record anywhere else is corruption and
                    # must raise, not silently truncate durable records
                    # behind it.
                    torn_ok = (
                        is_tail_segment and good_bytes + len(raw) >= size
                    )
                    try:
                        record = json.loads(raw.decode("utf-8"))
                        seq = record["seq"]
                        # Either payload kind must be present (KeyError
                        # from _record_payload flags a payload-less line).
                        _record_payload(record)
                        bad_crc = _crc_mismatch(record)
                    except (ValueError, KeyError, TypeError) as exc:
                        if torn_ok:
                            _refuse_merged_record(path, raw)
                            torn = True
                            break
                        raise PersistenceError(
                            f"corrupt WAL record in {path.name} ({exc})"
                        ) from exc
                    if bad_crc is not None:
                        if torn_ok:
                            # A damaged final record is indistinguishable
                            # from a torn append: truncate and heal through
                            # redelivery.
                            torn = True
                            break
                        raise PersistenceError(
                            f"WAL checksum mismatch in segment {path.name} "
                            f"at record seq {seq}: stored crc {bad_crc} "
                            "does not match the record payload"
                        )
                    if not complete:
                        # Parsed but unterminated: treat as torn — a
                        # completed append always ends with a newline.
                        if torn_ok:
                            torn = True
                            break
                        raise PersistenceError(
                            f"unterminated WAL record in non-tail "
                            f"segment {path.name}"
                        )
                    records += 1
                    good_bytes += len(raw)
                    self._last_seq = seq
            if is_tail_segment:
                if torn or good_bytes < size:
                    with open(path, "rb+") as handle:
                        handle.truncate(good_bytes)
                self._active_path = path
                self._active_records = records
