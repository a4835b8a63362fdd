"""Shared plumbing for continuous SIM query processors.

Every algorithm in this library (IC, SIC, windowed greedy, and the adapted
graph baselines) consumes the same inputs: batches of arriving actions that
slide the window ``W_t`` forward.  :class:`SIMAlgorithm` centralises the
bookkeeping each of them needs — the window size ``N``, the stream clock
``t`` and diffusion-forest ancestor resolution — so that concrete
algorithms only implement :meth:`SIMAlgorithm._on_slide` and
:meth:`SIMAlgorithm.query`.

The window is a clock: ``W_t`` holds the actions with
``time ≥ t − N + 1``, where ``t`` is the latest action's time.  A
checkpoint expires when its start falls below ``t − N + 1``, and the
algorithms that read the window whole (windowed greedy, the graph
baselines) expire records by the same rule in
:class:`~repro.core.influence_index.InfluenceWindow`.  Streams need only
strictly increasing times; on a dense stream (times 1, 2, 3, …) the window
is exactly the last ``N`` actions, the paper's
``W_t = {a_{t−N+1}, …, a_t}``, and a slide of ``L`` actions moves it by
``L``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from time import perf_counter
from typing import FrozenSet, Optional, Sequence

from repro.core.actions import Action, ActionBatch
from repro.core.diffusion import ActionRecord, DiffusionForest
from repro.core.resolve import ResolvedSlide
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
        if window_size <= 0:
            raise ValueError(f"window size must be positive, got {window_size}")
        self._k = k
        #: The window capacity ``N``.
        self.window_size = window_size
        #: Timestamp of the latest processed action (0 before any).
        self.now = 0
        #: Total number of actions consumed.
        self.actions_processed = 0
        self._forest = DiffusionForest(retention=retention)

    # -- public interface ---------------------------------------------------

    @property
    def k(self) -> int:
        """The cardinality constraint."""
        return self._k

    @property
    def forest(self) -> DiffusionForest:
        """The shared diffusion forest."""
        return self._forest

    def resolve_slide(self, batch: Sequence[Action]) -> ResolvedSlide:
        """Phase 1 of the two-phase ingest API: forest resolution only.

        Validates stream order against the engine clock, feeds the
        diffusion forest exactly once (one compiled call for the slide,
        :meth:`~repro.core.diffusion.DiffusionForest.resolve`), and
        returns the slide's resolved influence records as columns —
        without advancing the clock or touching the oracles.  Pair each
        ``resolve_slide`` with exactly one :meth:`process`-style
        application; :meth:`process` composes the two for the
        single-engine path, while the sharded facade resolves once and
        routes the records to :meth:`apply_resolved` on each shard.
        """
        batch = ActionBatch.of(batch)
        if not batch.time:
            return ResolvedSlide.empty()
        batch.check_after(self.now, "window")
        return ResolvedSlide(
            start=batch.time[0],
            last=batch.time[-1],
            count=len(batch),
            columns=self._forest.resolve(batch),
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
        self.now = resolved.last
        self.actions_processed += len(resolved)
        if trace is not None:
            self._on_slide_resolved(resolved)
            trace.add_stage("oracle", perf_counter() - started, len(resolved))
        else:
            self._on_slide_resolved(resolved)

    def process(self, batch: Sequence[Action]) -> None:
        """Slide the window by ``len(batch)`` actions (Section 5.3's ``L``).

        The composed single-engine path of the two-phase ingest API:
        :meth:`resolve_slide` (forest), the clock advance, then the
        algorithm's :meth:`_feed` hook with the resolved slide.

        When a :class:`~repro.telemetry.SlideTrace` is active on this
        thread (the serving plane's writer), the slide splits into two
        recorded stages: ``forest_index`` (ancestor resolution) and
        ``oracle`` (the algorithm's ``_on_slide``).  Without an active
        trace the cost is one thread-local lookup.
        """
        if not batch:
            return
        trace = active_trace()
        started = perf_counter() if trace is not None else 0.0
        resolved = self.resolve_slide(batch)
        self.now = resolved.last
        self.actions_processed += resolved.count
        if trace is not None:
            indexed = perf_counter()
            trace.add_stage("forest_index", indexed - started, resolved.count)
            self._feed(resolved)
            trace.add_stage("oracle", perf_counter() - indexed, resolved.count)
        else:
            self._feed(resolved)

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
        """
        return {
            "window": {"size": self.window_size, "last_time": self.now},
            "forest": self._forest.to_state(),
            "actions_processed": self.actions_processed,
        }

    def _restore_base(self, state: dict) -> None:
        """Restore the shared bookkeeping from :meth:`_base_state` output.

        Documents written while the base kept the window's actions and
        records carry ``window.actions`` and ``window_records`` entries
        too; nothing reads them.
        """
        self.window_size = state["window"]["size"]
        self.now = state["window"]["last_time"]
        self._forest = DiffusionForest.from_state(state["forest"])
        self.actions_processed = state["actions_processed"]

    # -- to implement --------------------------------------------------------

    @abstractmethod
    def _on_slide(self, arrived: Sequence[ActionRecord]) -> None:
        """React to one window slide (the arriving records, resolved)."""

    def _feed(self, resolved: ResolvedSlide) -> None:
        """Feed one slide :meth:`process` resolved: :meth:`_on_slide` over
        its records, unless a subclass reads the slide whole."""
        self._on_slide(resolved.records)

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
