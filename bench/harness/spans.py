"""In-memory span ledger for the traced run.

A span is ``(name, start, end, parent, slide)``; spans of one slide
share the slide number.  Spans are recorded only from ``bench/`` files,
around calls into each layer's public entry point, kept in memory and
written once when the workload ends.

A span's *self time* is its duration minus the part of its interval
that its child spans cover (children are clipped to the parent and
overlapping children are counted once), so self times are never
negative and the self times of a tree sum to its root's duration.
"""

from __future__ import annotations

import json
import pathlib
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["SpanLedger", "covered_length"]


def covered_length(
    intervals: Iterable[Tuple[float, float]], low: float, high: float
) -> float:
    """Length of ``[low, high]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, low), min(end, high))
        for start, end in intervals
        if min(end, high) > max(start, low)
    )
    covered = 0.0
    cursor = low
    for start, end in clipped:
        if end <= cursor:
            continue
        covered += end - max(start, cursor)
        cursor = end
    return covered


class SpanLedger:
    """Append-only list of spans with parent links."""

    def __init__(self) -> None:
        # One row per span: [name, start, end, parent id or None, slide].
        self._rows: List[list] = []

    def __len__(self) -> int:
        return len(self._rows)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        slide: Optional[int] = None,
    ) -> int:
        """Record one finished span; returns its id (for child links)."""
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts")
        if parent is not None and not 0 <= parent < len(self._rows):
            raise ValueError(f"span {name!r} names unknown parent {parent}")
        self._rows.append([name, start, end, parent, slide])
        return len(self._rows) - 1

    @contextmanager
    def span(
        self,
        name: str,
        parent: Optional[int] = None,
        slide: Optional[int] = None,
    ) -> Iterator[int]:
        """Time the ``with`` body as one span; yields the span's id.

        The id is reserved up front so spans opened inside the body can
        name this one as their parent.
        """
        row = [name, time.perf_counter(), None, parent, slide]
        self._rows.append(row)
        try:
            yield len(self._rows) - 1
        finally:
            row[2] = time.perf_counter()

    def duration(self, span: int) -> float:
        """Seconds between a finished span's start and end."""
        _, start, end, _, _ = self._rows[span]
        return end - start

    def lay_out(
        self,
        parent: int,
        stages: Iterable[Tuple[str, float]],
        slide: Optional[int] = None,
    ) -> Dict[str, int]:
        """Place stage durations back to back from ``parent``'s start.

        The program reports a stage as a duration, not an interval; the
        stages of one slide run in the order given, so consecutive
        placement reproduces their intervals up to the gaps between
        them.  A stage that would run past the parent is clipped to it.
        Returns ``{stage name: span id}``.
        """
        _, cursor, limit, _, _ = self._rows[parent]
        placed: Dict[str, int] = {}
        for name, seconds in stages:
            start = min(cursor, limit)
            end = min(start + max(seconds, 0.0), limit)
            placed[name] = self.add(name, start, end, parent, slide)
            cursor = end
        return placed

    def self_times(self) -> List[float]:
        """Self time of every span, indexed by span id."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for _, start, end, parent, _ in self._rows:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = []
        for span_id, (_, start, end, _, _) in enumerate(self._rows):
            covered = covered_length(children.get(span_id, ()), start, end)
            out.append((end - start) - covered)
        return out

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, ``total_s`` and ``self_s``."""
        selfs = self.self_times()
        out: Dict[str, Dict[str, float]] = {}
        for (name, start, end, _, _), own in zip(self._rows, selfs):
            entry = out.setdefault(
                name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += own
        return out

    def write(self, path: pathlib.Path, meta: dict) -> None:
        """Write the ledger as one JSON document (spans + per-name totals)."""
        selfs = self.self_times()
        document = {
            "meta": meta,
            "totals": self.totals(),
            "columns": ["id", "name", "start", "end", "parent", "slide", "self_s"],
            "spans": [
                [span_id, name, start, end, parent, slide, own]
                for span_id, ((name, start, end, parent, slide), own) in enumerate(
                    zip(self._rows, selfs)
                )
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, separators=(",", ":")))
