"""Fault injectors: the hooks that replay a plan's scripted failures.

Two halves, matching where each fault kind can physically happen:

* :class:`WorkerFaultInjector` runs *inside* a shard worker and fires the
  worker kinds (``kill``/``hang``/``drop_reply``) just before the worker
  handles a ``process`` command, keyed on the slide sequence number it is
  about to process.  Restarted workers are built with ``disarm_through``
  set to the incident slide so the retried slide cannot re-kill them.
* :class:`FacadeFaultInjector` runs in the supervising facade and fires
  the storage kinds (``corrupt_wal_tail``) on a shard's durable state
  while its worker is down — the window in which real-world torn writes
  and bit rot surface.

Both injectors are pure bookkeeping when the plan is empty, and each
fault fires at most once.
"""

from __future__ import annotations

import pathlib
import time
from typing import List, Optional, Sequence

from repro.faults.plan import Fault

__all__ = ["FacadeFaultInjector", "WorkerFaultInjector", "WorkerKilled"]


class WorkerKilled(BaseException):
    """A scripted worker death.

    A ``BaseException`` on purpose: worker loops must treat it as the
    sudden-death signal it simulates, and ordinary ``except Exception``
    error reporting inside engine code must not be able to swallow it.
    """


def _as_faults(faults: Sequence) -> List[Fault]:
    return [
        fault if isinstance(fault, Fault) else Fault.from_state(fault)
        for fault in faults
    ]


class WorkerFaultInjector:
    """Worker-side fault trigger, keyed on the next slide's sequence number."""

    def __init__(self, faults: Sequence, disarm_through: int = 0):
        """
        Args:
            faults: Worker-kind :class:`~repro.faults.plan.Fault` entries
                (or their ``to_state()`` documents) targeting this shard.
            disarm_through: Faults with ``at_slide`` at or below this are
                never fired — the supervisor sets it to the incident slide
                when restarting a worker, so a healed shard survives the
                retried slide.
        """
        self._faults = _as_faults(faults)
        self._disarm_through = disarm_through
        self._spent = [False] * len(self._faults)

    @property
    def armed(self) -> bool:
        """Whether any fault can still fire."""
        return any(
            not spent and fault.at_slide > self._disarm_through
            for spent, fault in zip(self._spent, self._faults)
        )

    def before_slide(self, target_seq: int) -> bool:
        """Fire the faults scheduled for ``target_seq``.

        Args:
            target_seq: The slide sequence number the worker is about to
                process.

        Returns:
            ``True`` when a ``drop_reply`` fault fired: the worker should
            handle the command but never answer it.

        Raises:
            WorkerKilled: a ``kill`` fault fired.
        """
        drop = False
        for index, fault in enumerate(self._faults):
            if self._spent[index]:
                continue
            if fault.at_slide != target_seq or fault.at_slide <= self._disarm_through:
                continue
            self._spent[index] = True
            if fault.kind == "hang":
                time.sleep(fault.seconds)
            elif fault.kind == "kill":
                raise WorkerKilled(f"scripted kill at slide {target_seq}")
            elif fault.kind == "drop_reply":
                drop = True
        return drop


class FacadeFaultInjector:
    """Facade-side storage faults, applied while a shard worker is down."""

    def __init__(self, faults: Sequence):
        """``faults``: facade-kind entries (``corrupt_wal_tail``)."""
        self._faults = _as_faults(faults)
        self._spent = [False] * len(self._faults)

    def before_restart(
        self, shard: int, incident_slide: int, state_dir
    ) -> List[str]:
        """Apply this shard's pending storage faults; return descriptions.

        A ``corrupt_wal_tail`` fault applies when the incident happened at
        or after its ``at_slide`` (``at_slide`` 0 matches any incident).
        """
        applied: List[str] = []
        for index, fault in enumerate(self._faults):
            if self._spent[index] or fault.shard != shard:
                continue
            if fault.at_slide and incident_slide < fault.at_slide:
                continue
            self._spent[index] = True
            if state_dir is None:
                continue
            note = _corrupt_wal_tail(state_dir, fault.nbytes)
            if note:
                applied.append(note)
        return applied


def _corrupt_wal_tail(state_dir, nbytes: int) -> Optional[str]:
    """Flip the last ``nbytes`` payload bytes of the newest WAL segment.

    Mimics a torn or bit-rotted final append: recovery must either treat
    the damaged record as a torn tail (truncate, then heal the lost slide
    through at-least-once redelivery) or fail loudly on its checksum —
    never replay garbage.
    """
    wal_dir = pathlib.Path(state_dir) / "wal"
    segments = sorted(wal_dir.glob("wal-*.jsonl"))
    if not segments:
        return None
    path = segments[-1]
    data = path.read_bytes()
    stripped = data.rstrip(b"\n")
    if not stripped:
        return None
    last_line_start = stripped.rfind(b"\n") + 1
    line_length = len(stripped) - last_line_start
    count = min(nbytes, line_length)
    mutated = bytearray(data)
    for i in range(len(stripped) - count, len(stripped)):
        mutated[i] ^= 0xA5
    path.write_bytes(bytes(mutated))
    return f"flipped {count} tail bytes of {path.name}"
