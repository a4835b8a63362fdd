"""Atomic snapshot files with bounded retention.

A snapshot is one document — the envelope written by
:class:`~repro.persistence.engine.RecoverableEngine` around a framework's
``to_state()`` — stored as ``snapshot-<slideseq>.snap``: one sectioned
binary container (:func:`~repro.persistence.serialize.pack_container`)
whose JSON header keeps the scalars and whose raw little-endian sections
are the document's numpy arrays, each with its own CRC32.  Two guarantees:

* **Atomicity.**  Documents are written to a temporary file, fsynced, and
  ``os.replace``d into place, so a crash mid-snapshot leaves either the
  previous snapshot set or the new one — never a half-written file that
  recovery could mistake for state.  (The orphaned ``*.tmp`` of a writer
  killed mid-save is swept the next time the store is opened.)
* **Retention.**  Only the newest ``keep`` snapshots are kept.  Loading
  prefers the newest parseable file and falls back to older ones when
  the newest is torn (truncated, header failing its CRC), which is why
  more than one is retained at all; a whole file with a damaged section
  is refused by name instead.

A directory still holding an all-JSON ``snapshot-<slideseq>.json`` file,
as builds before the container wrote, is refused when the store opens.
"""

from __future__ import annotations

import math
import os
import pathlib
from typing import List, Optional, Tuple

from repro.persistence.serialize import (
    CONTAINER_VERSION,
    SNAPSHOT_FORMAT_VERSION,
    PersistenceError,
    pack_container,
    unpack_container,
)

__all__ = ["SnapshotStore"]


class SnapshotStore:
    """Directory of atomic, retained snapshot documents."""

    _PREFIX = "snapshot-"
    _SUFFIX = ".snap"

    def __init__(self, directory, keep: int = 3):
        """
        Args:
            directory: Snapshot directory (created if missing).
            keep: Newest snapshots retained after each save (>= 1).

        Raises:
            PersistenceError: when the directory holds an all-JSON
                snapshot, which this build does not read.
        """
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self._dir = pathlib.Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._keep = keep
        # A writer SIGKILLed inside save() leaves its temp file behind; no
        # reader ever matches it, so the store's next owner removes it.
        for stale in self._dir.glob(f"{self._PREFIX}*.tmp"):
            stale.unlink(missing_ok=True)
        legacy = sorted(self._dir.glob(f"{self._PREFIX}*.json"))
        if legacy:
            raise PersistenceError(
                f"snapshot {legacy[0]} is an all-JSON snapshot, which this "
                "build does not read; start from a fresh state dir (JSON "
                "snapshots predate the snapshot container: to convert the "
                "dir, run `snapshot save` with an older build that reads "
                "them, then delete the *.json files)"
            )

    def path_for(self, seq: int) -> pathlib.Path:
        """The file a snapshot of slide ``seq`` lives in."""
        return self._dir / f"{self._PREFIX}{seq:010d}{self._SUFFIX}"

    def sequences(self) -> List[int]:
        """Slide sequence numbers of stored snapshots, oldest first."""
        out = []
        for path in self._dir.glob(f"{self._PREFIX}*{self._SUFFIX}"):
            try:
                out.append(int(path.name[len(self._PREFIX) : -len(self._SUFFIX)]))
            except ValueError:
                continue
        return sorted(out)

    def save(self, seq: int, document: dict) -> pathlib.Path:
        """Atomically write a snapshot document; prune beyond retention."""
        target = self.path_for(seq)
        tmp = target.with_name(target.name + ".tmp")
        with open(tmp, "wb") as handle:
            handle.writelines(pack_container(document))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
        self._fsync_dir()
        self.prune(self._keep)
        return target

    def prune(self, keep: int) -> List[int]:
        """Drop all but the newest ``keep`` snapshots; return dropped seqs.

        Explicit retention tightening for ``snapshot prune`` — unlike the
        automatic retention applied on :meth:`save`, this runs without
        writing a new snapshot, so an operator can reclaim space from a
        sealed state dir.

        Raises:
            ValueError: when ``keep`` is below 1 (at least one snapshot
                must survive or the WAL prefix becomes unrecoverable).
        """
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        dropped = self.sequences()[:-keep]
        for seq in dropped:
            self.path_for(seq).unlink(missing_ok=True)
        return dropped

    def load(self, seq: int) -> dict:
        """Load and validate one snapshot document.

        Raises:
            PersistenceError: on unparseable content, a damaged section, or
                a container or envelope format this build does not read.
        """
        document = self._parse(seq)
        if document is None:
            raise PersistenceError(f"unreadable snapshot {self.path_for(seq).name}")
        return document

    def load_latest(self) -> Optional[Tuple[int, dict]]:
        """The newest loadable snapshot as ``(seq, document)``, else ``None``.

        Torn or unparseable files are skipped in favour of older retained
        snapshots (recovery then re-derives the difference from the WAL);
        a format-version mismatch is systemic and raises instead, as does a
        whole container with a damaged section.
        """
        for seq in reversed(self.sequences()):
            document = self._parse(seq)
            if document is not None:
                return seq, document
        return None

    def describe(self, seq: int) -> Tuple[str, int, List[tuple]]:
        """``(format, total bytes, [(name, dtype, count, bytes), ...])`` of
        one stored snapshot, a row per section — what ``snapshot info``
        prints."""
        path = self.path_for(seq)
        raw = path.read_bytes()
        unpacked = unpack_container(raw, path.name)
        if unpacked is None:
            raise PersistenceError(f"unreadable snapshot {path.name}")
        rows = []
        for section in unpacked[1]:
            count = math.prod(section["shape"])
            width = int(section["dtype"][2:])
            rows.append((section["name"], section["dtype"], count, count * width))
        return f"container v{CONTAINER_VERSION}", len(raw), rows

    def _parse(self, seq: int) -> Optional[dict]:
        """Snapshot ``seq``'s document, or ``None`` when torn/missing."""
        path = self.path_for(seq)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        unpacked = unpack_container(raw, path.name)
        document = unpacked[0] if unpacked is not None else None
        if not isinstance(document, dict):
            return None
        self._check_version(path, document)
        return document

    @staticmethod
    def _check_version(path: pathlib.Path, document: dict) -> None:
        """Reject envelope formats this build does not read."""
        version = document.get("format")
        if version != SNAPSHOT_FORMAT_VERSION:
            raise PersistenceError(
                f"snapshot {path.name} has format version {version!r}; "
                f"this build reads version {SNAPSHOT_FORMAT_VERSION}"
            )

    def _fsync_dir(self) -> None:
        """Best-effort directory fsync so the rename itself is durable."""
        try:
            fd = os.open(self._dir, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(fd)
