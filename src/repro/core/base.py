"""Shared plumbing for continuous SIM query processors.

Every algorithm in this library (IC, SIC, windowed greedy, and the adapted
graph baselines) consumes the same inputs: batches of arriving actions that
slide a sequence-based window of size ``N`` by ``L = len(batch)`` positions.
:class:`SIMAlgorithm` centralises the bookkeeping each of them needs —
sliding window, diffusion-forest ancestor resolution, and the parallel
record queue used to report expiries — so that concrete algorithms only
implement :meth:`SIMAlgorithm._on_slide` and :meth:`SIMAlgorithm.query`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Deque, FrozenSet, List, Optional, Sequence

from repro.core.actions import Action
from repro.core.diffusion import (
    ActionRecord,
    DiffusionForest,
    records_from_columns,
    records_to_columns,
)
from repro.core.resolve import ResolvedSlide
from repro.core.window import SlidingWindow
from repro.telemetry.trace import active_trace

__all__ = [
    "SIMResult",
    "SIMAlgorithm",
    "STATE_FORMAT_VERSION",
    "check_state_header",
    "state_field",
]

#: Version tag carried by every serialized algorithm state.  Bump when a
#: state schema changes shape; readers refuse mismatched documents instead
#: of guessing.
STATE_FORMAT_VERSION = 1


def check_state_header(state, algorithm: str) -> None:
    """Validate the format version and algorithm tag of a state document.

    Raises:
        ValueError: when the document's ``format`` is not
            :data:`STATE_FORMAT_VERSION` or its ``algorithm`` tag is not
            ``algorithm``.
    """
    version = state.get("format")
    if version != STATE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported state format version {version!r}; "
            f"this build reads version {STATE_FORMAT_VERSION}"
        )
    kind = state.get("algorithm")
    if kind != algorithm:
        raise ValueError(
            f"state document is for algorithm {kind!r}, expected {algorithm!r}"
        )


#: JSON names of the Python types :func:`state_field` checks for.
_JSON_KINDS = {dict: "an object", int: "an integer", str: "a string"}


def state_field(document, key: str, kind: type, where: str = ""):
    """Return ``document[key]``, insisting it is a ``kind``.

    ``from_state`` constructors read the fields they dispatch on through
    this accessor, so a structurally damaged document fails naming the
    field instead of with a bare ``KeyError``/``TypeError``.

    Args:
        document: The (sub-)document to read from.
        key: The field to read.
        kind: The Python type the JSON value must decode to.
        where: Dotted path of ``document`` inside the state document
            (e.g. ``"config."``), for the error message.

    Raises:
        ValueError: when ``document`` lacks ``key`` or holds a value of
            another type there.
    """
    if key not in document:
        raise ValueError(f"state document has no field {where + key!r}")
    value = document[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(
            f"state field {where + key!r} must be {_JSON_KINDS[kind]}, "
            f"got {type(value).__name__}"
        )
    return value


@dataclass(frozen=True, slots=True)
class SIMResult:
    """Answer of one SIM query.

    Attributes:
        time: The window end time ``t`` the answer refers to.
        seeds: Selected seed users (at most ``k``).
        value: The algorithm's (approximate) influence value for the seeds.
    """

    time: int
    seeds: FrozenSet[int]
    value: float


class SIMAlgorithm(ABC):
    """Base class for continuous SIM processors over sliding windows."""

    def __init__(
        self,
        window_size: int,
        k: int,
        retention: Optional[int] = None,
    ):
        """
        Args:
            window_size: The paper's ``N``.
            k: Seed-set cardinality constraint.
            retention: Diffusion-forest retention horizon.  Must be at least
                ``window_size`` when provided (expiring actions must still be
                resolvable); defaults to unbounded.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if retention is not None and retention < window_size:
            raise ValueError(
                f"retention ({retention}) must be >= window size ({window_size})"
            )
        self._k = k
        self._window = SlidingWindow(window_size)
        self._forest = DiffusionForest(retention=retention)
        self._window_records: Deque[ActionRecord] = deque()
        self._actions_processed = 0

    # -- public interface ---------------------------------------------------

    @property
    def k(self) -> int:
        """The cardinality constraint."""
        return self._k

    @property
    def window_size(self) -> int:
        """The window capacity ``N``."""
        return self._window.size

    @property
    def now(self) -> int:
        """Timestamp of the latest processed action (0 before any)."""
        return self._window.end_time

    @property
    def actions_processed(self) -> int:
        """Total number of actions consumed."""
        return self._actions_processed

    @property
    def window(self) -> SlidingWindow:
        """The underlying sliding window."""
        return self._window

    @property
    def forest(self) -> DiffusionForest:
        """The shared diffusion forest."""
        return self._forest

    def resolve_slide(self, batch: Sequence[Action]) -> ResolvedSlide:
        """Phase 1 of the two-phase ingest API: forest resolution only.

        Validates stream order against the engine clock, feeds the
        diffusion forest exactly once, and returns the slide's resolved
        influence records — without advancing the window or touching the
        oracles.  Pair each ``resolve_slide`` with exactly one
        :meth:`process`-style application; :meth:`process` composes the
        two for the single-engine path, while the sharded facade
        resolves once and routes the records to :meth:`apply_resolved`
        on each shard.
        """
        batch = list(batch)
        if not batch:
            return ResolvedSlide.empty()
        previous = self.now
        for action in batch:
            if action.time <= previous:
                raise ValueError(
                    f"window received out-of-order action {action.time} "
                    f"after {previous}"
                )
            previous = action.time
        records = tuple(self._forest.add(a) for a in batch)
        return ResolvedSlide(
            start=batch[0].time,
            last=batch[-1].time,
            count=len(batch),
            records=records,
        )

    def apply_resolved(self, resolved: ResolvedSlide) -> None:
        """Phase 2 of the two-phase ingest API: apply pre-resolved records.

        Advances the stream clock to ``resolved.last`` and feeds the
        influence index + oracles from ``resolved.records`` — no raw
        actions needed, no forest walk.  This is the routed-shard entry
        point: the records were resolved elsewhere (the facade's
        :class:`~repro.core.resolve.SlideResolver`) and, for a sharded
        algorithm, must already be narrowed to this shard's influencers
        (projection is idempotent, so sharded subclasses re-project
        defensively).

        Unlike :meth:`process`, the window stores no actions — only the
        clock advances — so ``active_users``/``start_time`` reflect an
        empty window and expiry records are not reported.  IC/SIC never
        consume either; algorithms that do (e.g. the windowed greedy
        baseline) do not support pre-resolved slides.
        """
        if resolved.count == 0:
            return
        if resolved.start <= self.now:
            raise ValueError(
                f"engine received out-of-order slide starting "
                f"{resolved.start} at clock {self.now}"
            )
        trace = active_trace()
        started = perf_counter() if trace is not None else 0.0
        self._window.advance_clock(resolved.last, resolved.count)
        # Drain broadcast-era window records (a shard dir migrated from
        # broadcast ingest restores a populated deque) at slide rate.
        for _ in range(min(resolved.count, len(self._window_records))):
            self._window_records.popleft()
        self._actions_processed += len(resolved.records)
        if trace is not None:
            self._on_slide_resolved(resolved)
            trace.add_stage(
                "oracle", perf_counter() - started, len(resolved.records)
            )
        else:
            self._on_slide_resolved(resolved)

    def process(self, batch: Sequence[Action]) -> None:
        """Slide the window by ``len(batch)`` actions (Section 5.3's ``L``).

        The composed single-engine path of the two-phase ingest API:
        :meth:`resolve_slide` (forest) followed by window bookkeeping and
        the oracle application — with the window keeping the raw actions
        for full state fidelity, which the routed :meth:`apply_resolved`
        path skips.

        When a :class:`~repro.telemetry.SlideTrace` is active on this
        thread (the serving plane's writer), the slide splits into two
        recorded stages: ``forest_index`` (ancestor resolution + window
        bookkeeping) and ``oracle`` (the algorithm's ``_on_slide``).
        Without an active trace the cost is one thread-local lookup.
        """
        if not batch:
            return
        trace = active_trace()
        started = perf_counter() if trace is not None else 0.0
        resolved = self.resolve_slide(batch)
        arrived: List[ActionRecord] = list(resolved.records)
        self._window.slide(batch)
        self._window_records.extend(arrived)
        expired: List[ActionRecord] = []
        while len(self._window_records) > self._window.size:
            expired.append(self._window_records.popleft())
        self._actions_processed += len(batch)
        if trace is not None:
            indexed = perf_counter()
            trace.add_stage("forest_index", indexed - started, len(batch))
            self._on_slide(arrived, expired)
            trace.add_stage("oracle", perf_counter() - indexed, len(batch))
        else:
            self._on_slide(arrived, expired)

    def process_stream(self, batches) -> None:
        """Consume an iterable of batches (see :func:`repro.core.stream.batched`)."""
        for batch in batches:
            self.process(batch)

    @abstractmethod
    def query(self) -> SIMResult:
        """Answer the SIM query for the current window."""

    def query_candidates(self):
        """Seed-merge hook for the sharded read plane (optional).

        Algorithms that can ship exact per-seed coverage return a list of
        ``(user, coverage_frozenset)`` pairs for their current answer —
        the sharded engine's merge-on-read combines those lists across
        shards with exact cross-shard overlap handling (see
        :mod:`repro.sharding.merge`).  The default returns ``None``:
        "no coverage available", which makes the merge fall back to the
        best single shard's answer.
        """
        return None

    # -- persistence ---------------------------------------------------------

    def _base_state(self) -> dict:
        """State of the bookkeeping every SIM algorithm shares.

        Concrete algorithms embed this under ``"base"`` in their
        ``to_state`` document and restore it with :meth:`_restore_base`.
        ``window_records`` are serialized in full (as record columns, not
        as references into the forest) because a retention horizon may
        already have pruned them from the forest.  They are the forest's
        newest rows, copied as columns, unless such a horizon has pruned
        one; only then are the records themselves walked.
        """
        records = self._window_records
        window_records = self._forest.columns(newest=len(records))
        times = window_records["time"]
        if records and (len(times) < len(records) or times[0] != records[0].time):
            window_records = records_to_columns(records)
        return {
            "window": self._window.to_state(),
            "forest": self._forest.to_state(),
            "window_records": window_records,
            "actions_processed": self._actions_processed,
        }

    def _restore_base(self, state: dict) -> None:
        """Restore the shared bookkeeping from :meth:`_base_state` output."""
        self._window = SlidingWindow.from_state(state["window"])
        self._forest = DiffusionForest.from_state(state["forest"])
        self._window_records = deque(
            records_from_columns(state["window_records"])
        )
        self._actions_processed = state["actions_processed"]

    # -- to implement --------------------------------------------------------

    @abstractmethod
    def _on_slide(
        self,
        arrived: Sequence[ActionRecord],
        expired: Sequence[ActionRecord],
    ) -> None:
        """React to one window slide (records are already resolved)."""

    def _on_slide_resolved(self, resolved: ResolvedSlide) -> None:
        """React to one pre-resolved slide (the routed apply path).

        Subclasses that can absorb a slide from resolved records alone —
        IC and SIC, whose checkpoints never look at raw actions — override
        this; the default refuses, so algorithms needing raw actions
        (windowed greedy, graph baselines) fail loudly instead of
        silently diverging.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support pre-resolved slides; "
            "use process() (the composed resolve+apply path)"
        )
