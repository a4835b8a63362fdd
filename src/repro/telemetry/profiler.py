"""Continuous wall-clock sampling profiler (collapsed stacks, bounded).

A daemon thread wakes every ``1 / hz`` seconds, snapshots
``sys._current_frames()``, and folds each thread's stack into a
collapsed-stack counter — the ``semicolon;separated;frames count``
format flamegraph tooling consumes directly.  Stacks are prefixed with a
*thread tag* derived from the thread's name (``repro-ingest`` executor
threads → ``ingest``, the service event loop → ``server``, the sampler
itself is skipped), so a profile answers "where does the ingest loop
spend its wall time" without symbol archaeology.  Shard workers are
separate processes, which an in-process sampler cannot see.

Memory is bounded: at most ``max_stacks`` distinct collapsed stacks are
retained; further novel stacks fold into a per-tag ``<other>`` bucket
(counted, never silently dropped).  Frames deeper than ``max_depth``
truncate with a ``<truncated>`` marker.

Wall-clock sampling observes *all* threads every tick — including ones
blocked on locks, sockets, or the GIL — which is exactly what a latency
investigation wants; it is not a CPU profiler.  Overhead at the default
100 Hz is one ``sys._current_frames()`` sweep plus a few dict updates
per tick.

``window(seconds)`` profiles a fresh interval by snapshot-diffing the
counters — the ``GET /debug/profile?seconds=N`` endpoint and the
``repro-stream profile`` CLI both read this.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["SamplingProfiler", "DEFAULT_THREAD_TAGS", "collapse_counts"]

#: thread-name prefix -> tag, first match wins (checked in order).
DEFAULT_THREAD_TAGS: Tuple[Tuple[str, str], ...] = (
    ("repro-ingest", "ingest"),
    ("repro-service", "server"),
    ("repro-flight-recorder", "recorder"),
    ("MainThread", "main"),
    ("asyncio", "executor"),
)

_SELF_THREAD = "repro-profiler"


def collapse_counts(counts: Dict[str, int]) -> str:
    """Render a counts dict as collapsed-stack text, most samples first."""
    lines = [
        f"{stack} {count}"
        for stack, count in sorted(
            counts.items(), key=lambda kv: (-kv[1], kv[0])
        )
    ]
    return "\n".join(lines) + ("\n" if lines else "")


class SamplingProfiler:
    """Bounded collapsed-stack aggregation over ``sys._current_frames()``.

    Single writer (the sampler thread, or a test calling
    :meth:`sample_once`); readers snapshot-copy the counts dict.

    Args:
        hz: Target samples per second.
        max_stacks: Distinct collapsed stacks retained before novel ones
            fold into ``<tag>;<other>``.
        max_depth: Frames kept per stack (deepest-first truncation).
        tags: ``(thread-name-prefix, tag)`` pairs.  Unmatched threads tag
            as ``other``.
        clock: Monotonic clock (injectable for tests).
    """

    def __init__(
        self,
        hz: float = 100.0,
        max_stacks: int = 10_000,
        max_depth: int = 64,
        tags: Tuple[Tuple[str, str], ...] = DEFAULT_THREAD_TAGS,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if hz <= 0:
            raise ValueError(f"hz must be positive, got {hz}")
        if max_stacks < 1:
            raise ValueError(f"max_stacks must be >= 1, got {max_stacks}")
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.hz = float(hz)
        self.max_stacks = max_stacks
        self.max_depth = max_depth
        self.tags = tuple(tags)
        self._clock = clock
        self._counts: Dict[str, int] = {}
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.samples = 0  # sweeps taken
        self.stack_samples = 0  # thread-stacks folded in
        self.overflow_samples = 0  # samples folded into <other>
        self.started_monotonic: Optional[float] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the sampler daemon thread is live."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Start the sampler daemon (idempotent)."""
        if self.running:
            return
        self._stop.clear()
        if self.started_monotonic is None:
            self.started_monotonic = self._clock()
        self._thread = threading.Thread(
            target=self._run, name=_SELF_THREAD, daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop and join the sampler daemon (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout)
        self._thread = None

    def _run(self) -> None:
        period = 1.0 / self.hz
        next_due = self._clock() + period
        while not self._stop.wait(max(next_due - self._clock(), 0.0)):
            try:
                self.sample_once()
            except Exception:  # a dying thread mid-walk must not stop us
                pass
            next_due += period
            if next_due < self._clock():
                # Behind schedule (GIL contention, suspend): skip the
                # missed ticks instead of burst-sampling the same instant.
                next_due = self._clock() + period

    # -- sampling ----------------------------------------------------------

    def _tag_for(self, name: str) -> str:
        for prefix, tag in self.tags:
            if name.startswith(prefix):
                return tag
        return "other"

    def sample_once(self) -> int:
        """Take one sweep over every live thread; returns stacks folded."""
        # Thread names, resolved per sweep: threads can be born or die
        # between sweeps, and a missing entry (died mid-sample) is skipped.
        names = {t.ident: t.name for t in threading.enumerate()}
        frames = sys._current_frames()
        folded = 0
        for ident, frame in frames.items():
            name = names.get(ident)
            if name is None or name == _SELF_THREAD:
                continue
            tag = self._tag_for(name)
            parts: List[str] = []
            depth = 0
            while frame is not None:
                if depth >= self.max_depth:
                    parts.append("<truncated>")
                    break
                code = frame.f_code
                parts.append(f"{code.co_name} ({code.co_filename.rsplit('/', 1)[-1]})")
                frame = frame.f_back
                depth += 1
            parts.append(tag)
            stack = ";".join(reversed(parts))
            if stack in self._counts:
                self._counts[stack] += 1
            elif len(self._counts) < self.max_stacks:
                self._counts[stack] = 1
            else:
                overflow = f"{tag};<other>"
                self._counts[overflow] = self._counts.get(overflow, 0) + 1
                self.overflow_samples += 1
            folded += 1
        self.samples += 1
        self.stack_samples += folded
        return folded

    # -- read path ---------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """A point-in-time copy of the collapsed-stack counters."""
        return dict(self._counts)

    def collapsed(self) -> str:
        """All retained stacks as collapsed text (whole profiler lifetime)."""
        return collapse_counts(self._counts)

    def window(self, seconds: float) -> str:
        """Collapsed stacks of a fresh ``seconds``-long window (blocking).

        Snapshot-diffs the counters around a sleep; the sampler keeps
        running throughout, so concurrent whole-lifetime readers are
        unaffected.  With the sampler stopped, the window is sampled
        inline at the configured rate so the call still returns data.
        """
        if seconds <= 0:
            raise ValueError(f"seconds must be positive, got {seconds}")
        before = self.counts()
        if self.running:
            time.sleep(seconds)
        else:
            deadline = self._clock() + seconds
            period = 1.0 / self.hz
            while self._clock() < deadline:
                self.sample_once()
                time.sleep(period)
        after = self.counts()
        delta = {
            stack: count - before.get(stack, 0)
            for stack, count in after.items()
            if count - before.get(stack, 0) > 0
        }
        return collapse_counts(delta)

    def stats(self) -> Dict[str, object]:
        """Profiler health counters for ``/metrics``."""
        elapsed = (
            self._clock() - self.started_monotonic
            if self.started_monotonic is not None
            else 0.0
        )
        return {
            "running": self.running,
            "hz": self.hz,
            "samples": self.samples,
            "stack_samples": self.stack_samples,
            "distinct_stacks": len(self._counts),
            "max_stacks": self.max_stacks,
            "overflow_samples": self.overflow_samples,
            "effective_hz": round(self.samples / elapsed, 1) if elapsed else 0.0,
        }
