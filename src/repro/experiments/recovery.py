"""Crash/recovery scenario: kill a streaming engine mid-run and resume.

The durability plane's promise is behavioural, so it gets a first-class
experiment scenario rather than only unit tests: :func:`crash_recovery_run`
drives an algorithm through a :class:`~repro.persistence.engine.RecoverableEngine`,
"kills" it at a chosen slide (dropping every in-memory structure — exactly
the state a SIGKILL leaves behind, since slides are WAL-fsynced before
processing), restores from the state directory, finishes the stream, and
scores the outcome:

* **identical** — does every post-recovery ``query()`` answer (time,
  seeds, exact value) match an uninterrupted run?
* **bounded recovery** — how many WAL-tail slides did the restore replay
  (vs. the whole stream), and how long did restore + replay take?

Exercised by ``tests/experiments/test_recovery.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional

from repro.core.actions import Action
from repro.core.base import SIMAlgorithm
from repro.core.stream import batched
from repro.persistence.engine import RecoverableEngine

__all__ = ["CrashRecoveryReport", "crash_recovery_run"]


@dataclass(frozen=True)
class CrashRecoveryReport:
    """Outcome of one kill-and-resume scenario.

    Attributes:
        name: Algorithm label.
        slides_total: Slides in the full stream.
        kill_at_slide: Slide after which the crash was simulated.
        replayed_slides: WAL-tail slides the restore re-processed (the
            bounded-recovery witness: equals the distance to the last
            snapshot, not the stream length).
        snapshot_count: Snapshots present at recovery time.
        restore_seconds: Wall time of restore + WAL-tail replay.
        identical: True when every post-recovery answer matched the
            uninterrupted run exactly.
        first_divergence: Slide index of the first mismatch (None when
            identical).
    """

    name: str
    slides_total: int
    kill_at_slide: int
    replayed_slides: int
    snapshot_count: int
    restore_seconds: float
    identical: bool
    first_divergence: Optional[int]


def crash_recovery_run(
    factory: Callable[[], SIMAlgorithm],
    stream: Iterable[Action],
    slide: int,
    kill_at_slide: int,
    state_dir,
    snapshot_every: int = 8,
    fsync: bool = True,
    name: str = "",
) -> CrashRecoveryReport:
    """Kill an engine at slide ``kill_at_slide``, resume, and compare.

    Args:
        factory: Zero-argument constructor of the algorithm under test
            (called for the uninterrupted reference run, the doomed run,
            and — on a cold state directory — never again).
        stream: The action stream (consumed once, materialised).
        slide: Actions per window slide.
        kill_at_slide: Slides processed before the simulated crash
            (must be in ``[1, slides_total)``).
        state_dir: Durable state directory for the doomed + resumed runs.
        snapshot_every: Snapshot cadence of the doomed run.
        fsync: Force WAL appends to stable storage (disable to time the
            pure software path).
        name: Report label (defaults to the algorithm class name).

    Returns:
        A :class:`CrashRecoveryReport`; ``identical`` is the scenario's
        pass/fail verdict.
    """
    batches: List[List[Action]] = [list(b) for b in batched(stream, slide)]
    if not 1 <= kill_at_slide < len(batches):
        raise ValueError(
            f"kill_at_slide must be in [1, {len(batches) - 1}], "
            f"got {kill_at_slide}"
        )
    reference = factory()
    expected = []
    for batch in batches:
        reference.process(batch)
        expected.append(reference.query())

    doomed = RecoverableEngine.open(
        state_dir, factory, snapshot_every=snapshot_every, fsync=fsync
    )
    for batch in batches[:kill_at_slide]:
        doomed.process(batch)
    # Simulated SIGKILL: drop all in-memory state without a final snapshot.
    doomed.close(snapshot=False)

    started = time.perf_counter()
    restored = RecoverableEngine.open(
        state_dir, factory, snapshot_every=snapshot_every, fsync=fsync
    )
    restore_seconds = time.perf_counter() - started
    snapshot_count = len(restored.store.snapshots.sequences())

    first_divergence: Optional[int] = None
    for index, batch in enumerate(batches[kill_at_slide:], start=kill_at_slide):
        restored.process(batch)
        if restored.query() != expected[index] and first_divergence is None:
            first_divergence = index
    restored.close(snapshot=False)

    return CrashRecoveryReport(
        name=name or type(reference).__name__,
        slides_total=len(batches),
        kill_at_slide=kill_at_slide,
        replayed_slides=restored.replayed_slides,
        snapshot_count=snapshot_count,
        restore_seconds=restore_seconds,
        identical=first_divergence is None,
        first_divergence=first_divergence,
    )
