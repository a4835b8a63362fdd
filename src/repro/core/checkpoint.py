"""Influential checkpoint: one append-only oracle over an action suffix.

A checkpoint ``Λ_t[i]`` (Section 4.1) maintains an ε-approximate SIM
solution for the contiguous actions ``{W_t[i], ..., W_t[N]}`` — i.e. for the
suffix of the stream starting at the checkpoint's *start time*.  It bundles

* a :class:`~repro.core.influence_index.SuffixView` of the framework's
  single :class:`~repro.core.influence_index.VersionedInfluenceIndex`,
  serving ``I_t[i](u)`` for every user observed in the suffix, and
* a :class:`~repro.core.oracles.base.CheckpointOracle` fed through the SSM
  steps: the framework indexes each action once and :func:`feed_shared`
  dispatches oracle feeds to exactly the checkpoints whose suffix set
  grew.

**Slide semantics.**  A slide of ``L`` actions is one SSM event: all ``L``
records are applied to the index *first*, then each checkpoint's oracle
receives one merged delta ``(user, new_members)`` per updated user, in
first-update order, as a single
:meth:`~repro.core.oracles.base.CheckpointOracle.process_batch` call.  With
``L = 1`` this degenerates to the per-action model of Algorithm 1.  The
literal per-checkpoint form of the same semantics (a private index per
checkpoint, fed one delta at a time) is :mod:`repro.reference`, which
``tests/core/test_shared_index_equivalence`` holds this module against.

Checkpoints never see expiries: deletion of whole checkpoints is the IC/SIC
frameworks' job.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Sequence

from repro.core.diffusion import ActionRecord
from repro.core.influence_index import VersionedInfluenceIndex
from repro.core.oracles.base import CheckpointOracle, make_oracle

from repro.influence.functions import InfluenceFunction

__all__ = [
    "Checkpoint",
    "CheckpointRoster",
    "OracleSpec",
    "SuffixCheckpoint",
    "feed_shared",
    "make_columnar_kernel",
]


def make_columnar_kernel(spec, columnar):
    """Resolve an engine's oracle-plane choice to a kernel (or ``None``).

    Args:
        spec: The engine's :class:`OracleSpec`.
        columnar: The engine's plane flag — ``False`` forces the object
            plane; anything else auto-selects the columnar kernel wherever
            ``ColumnarThresholdKernel.for_spec`` supports the spec and the
            compiled event loads.

    Returns:
        A ``ColumnarThresholdKernel`` when the columnar plane is active,
        else ``None`` (object-oracle plane).
    """
    if columnar is False:
        return None
    try:
        # Imported here: the kernel module needs numpy, which the rest of
        # the core treats as optional (and it imports this module).
        from repro.core.oracles.columnar import ColumnarThresholdKernel
    except ImportError:
        return None
    return ColumnarThresholdKernel.for_spec(spec)


@dataclass(frozen=True)
class OracleSpec:
    """Recipe for building one checkpoint oracle.

    Attributes:
        name: Registered oracle name (``"sieve"``, ``"threshold"``, ...).
        k: Cardinality constraint of the SIM query.
        func: The influence function ``f``.
        params: Extra keyword arguments (e.g. ``{"beta": 0.2}`` for the
            threshold-guessing oracles).
    """

    name: str
    k: int
    func: InfluenceFunction
    params: dict = field(default_factory=dict)

    def build(self, index) -> CheckpointOracle:
        """Instantiate the oracle against a checkpoint index or suffix view."""
        return make_oracle(
            self.name, k=self.k, func=self.func, index=index, **self.params
        )


class SuffixCheckpoint:
    """What every representation of ``Λ_t[i]`` shares.

    The start time, the ledger-derived action count and the window
    arithmetic.  :class:`Checkpoint` adds an object oracle over a suffix
    view; the columnar plane's ``ColumnarCheckpoint`` a handle into the
    kernel's column.
    """

    __slots__ = ("start", "_ledger", "_absorbed_base", "_actions_processed")

    def __init__(self, start: int, ledger: "CheckpointRoster"):
        """
        Args:
            start: Timestamp of the first action this checkpoint covers.
            ledger: The :class:`CheckpointRoster` whose ``absorbed``
                counter tracks the slide stream.  Every live checkpoint
                absorbs every slide, so :attr:`actions_processed` is read
                off the shared counter instead of being incremented per
                checkpoint per slide.
        """
        if start <= 0:
            raise ValueError(f"checkpoint start must be positive, got {start}")
        self.start = start
        self._ledger = ledger
        self._absorbed_base = ledger.absorbed
        self._actions_processed = 0

    @property
    def actions_processed(self) -> int:
        """How many actions this checkpoint has absorbed (roster ledger)."""
        return (
            self._ledger.absorbed
            - self._absorbed_base
            + self._actions_processed
        )

    def position(self, now: int, window_size: int) -> int:
        """The paper's relative index ``x_i`` within ``W_now``.

        ``1`` means the checkpoint covers the whole window; ``<= 0`` means it
        has expired (covers more actions than the window holds).
        """
        return self.start - (now - window_size)

    def covers_window(self, now: int, window_size: int) -> bool:
        """True while the checkpoint covers at most the window's actions."""
        return self.position(now, window_size) >= 1

    def to_state(self) -> dict:
        """Explicit JSON-safe state: start, action count and oracle state.

        One schema for both representations, so either plane opens either
        document.  ``index`` is always ``None``: the suffix sets live in
        the framework's
        :class:`~repro.core.influence_index.VersionedInfluenceIndex`,
        which the framework serializes once for all checkpoints.
        """
        return {
            "start": self.start,
            "actions_processed": self.actions_processed,
            "oracle": self.oracle_state(),
            "index": None,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(start={self.start}, "
            f"value={self.value:.1f}, seeds={sorted(self.seeds)})"
        )


class Checkpoint(SuffixCheckpoint):
    """``Λ_t[i]``: oracle + suffix influence index for one suffix."""

    __slots__ = ("_index", "_oracle")

    def __init__(self, start: int, spec: OracleSpec, index, ledger):
        """
        Args:
            start: Timestamp of the first action this checkpoint covers.
            spec: Oracle recipe shared by all checkpoints of a framework.
            index: This suffix's
                :class:`~repro.core.influence_index.SuffixView` of the
                framework's shared index.
            ledger: The framework's :class:`CheckpointRoster`.
        """
        super().__init__(start, ledger)
        self._index = index
        self._oracle = spec.build(index)

    def feed(self, user: int, new_member: int) -> None:
        """SSM steps (2)–(3): the oracle learns ``user`` gained ``new_member``.

        The suffix index already reflects the update — the framework's
        :class:`~repro.core.influence_index.VersionedInfluenceIndex`
        applied it before dispatching.
        """
        self._oracle.process(user, new_member)

    def feed_batch(self, deltas) -> None:
        """A whole slide's merged deltas in one oracle call."""
        self._oracle.process_batch(deltas)

    @property
    def value(self) -> float:
        """The checkpoint's influence value Λ (monotone non-decreasing)."""
        return self._oracle.value

    @property
    def seeds(self) -> FrozenSet[int]:
        """The maintained seed users."""
        return self._oracle.seeds

    @property
    def oracle(self) -> CheckpointOracle:
        """The underlying oracle (for introspection/ablation)."""
        return self._oracle

    @property
    def index(self):
        """The suffix influence index ``I_t[i](·)`` (a shared-index view)."""
        return self._index

    # -- persistence -------------------------------------------------------

    def oracle_state(self) -> dict:
        """The oracle's ``state_dict`` (the ``"oracle"`` field of ``to_state``)."""
        return self._oracle.state_dict()

    @classmethod
    def from_state(
        cls, state: dict, spec: OracleSpec, index, ledger
    ) -> "Checkpoint":
        """Rebuild a checkpoint from :meth:`to_state` output.

        Args:
            state: A :meth:`to_state` document.
            spec: The framework's shared oracle recipe.
            index: The checkpoint's fresh view of the restored shared index.
            ledger: The roster whose ``absorbed`` counter must already be
                restored — the checkpoint's action accounting is rebased
                on its current value.
        """
        checkpoint = cls(state["start"], spec, index, ledger)
        checkpoint._oracle.load_state(state["oracle"])
        # actions_processed is derived from the ledger: the constructor
        # based it on the restored counter, so the serialized total is the
        # checkpoint's own offset.
        checkpoint._actions_processed = state["actions_processed"]
        return checkpoint


class CheckpointRoster:
    """Live checkpoints plus the parallel lists the dispatch plane reads.

    :func:`feed_shared` needs the sorted start times (for the bisect) and
    the bound ``feed`` methods (for the L=1 fast path) of every live
    checkpoint.  Rebuilding those lists from scratch each slide costs
    O(⌈N/L⌉) pointer work per slide, which showed up at ~2-3% for IC at
    L=1; the roster instead maintains them incrementally — appends touch
    the tail, expiry shifts are single C-level list pops, and only SIC's
    pruning (which already walks the population) rebuilds.  The
    ``absorbed`` slide counter likewise replaces a per-checkpoint
    accounting loop: every live checkpoint absorbs every slide, so one
    shared counter plus a per-checkpoint baseline recorded at append time
    yields each checkpoint's ``actions_processed``.
    """

    __slots__ = ("checkpoints", "starts", "feeds", "absorbed")

    def __init__(self) -> None:
        self.checkpoints: List[Checkpoint] = []
        self.starts: List[int] = []
        self.feeds: List[Callable[[int, int], None]] = []
        #: Total actions dispatched to this roster (the checkpoint ledger).
        self.absorbed: int = 0

    def append(self, checkpoint: Checkpoint) -> None:
        """Register the slide's newcomer (starts stay sorted by contract)."""
        self.checkpoints.append(checkpoint)
        self.starts.append(checkpoint.start)
        self.feeds.append(checkpoint.feed)

    def pop_oldest(self) -> Checkpoint:
        """Expire the head checkpoint."""
        self.starts.pop(0)
        self.feeds.pop(0)
        return self.checkpoints.pop(0)

    def replace(self, keep: List[Checkpoint]) -> None:
        """Swap in a pruned population (SIC's Algorithm 2 lines 9-20)."""
        self.checkpoints = keep
        self.starts = [checkpoint.start for checkpoint in keep]
        self.feeds = [checkpoint.feed for checkpoint in keep]

    def __len__(self) -> int:
        return len(self.checkpoints)

    def __getitem__(self, i: int) -> Checkpoint:
        return self.checkpoints[i]

    def __iter__(self):
        return iter(self.checkpoints)

    # -- persistence -------------------------------------------------------

    def to_state(self) -> dict:
        """Explicit state of the object plane's roster: the ledger and one
        ``checkpoints`` document per oracle (the columnar plane writes the
        kernel's ``columns`` instead, see
        ``ColumnarThresholdKernel.to_state``)."""
        return {
            "absorbed": self.absorbed,
            "checkpoints": [c.to_state() for c in self.checkpoints],
        }

    @classmethod
    def from_state(
        cls, state: dict, spec: OracleSpec, shared
    ) -> "CheckpointRoster":
        """Rebuild an object-plane roster from a roster document written
        by either plane: kernel ``columns`` decode into per-oracle
        documents with numpy alone (the columnar plane restores through
        ``ColumnarThresholdKernel.load_state``).

        Args:
            state: A roster document.
            spec: The framework's shared oracle recipe.
            shared: The framework's restored
                :class:`~repro.core.influence_index.VersionedInfluenceIndex`
                (checkpoints get fresh views of it).
        """
        from repro.core.oracles.columnar import oracle_documents

        roster = cls()
        roster.absorbed = state["absorbed"]
        columns = state.get("columns")
        documents = state["checkpoints"] if columns is None else oracle_documents(columns)
        for document in documents:
            roster.append(
                Checkpoint.from_state(
                    document, spec, shared.view(document["start"]), roster
                )
            )
        return roster


def feed_shared(
    shared: VersionedInfluenceIndex,
    roster: CheckpointRoster,
    arrived: Sequence[ActionRecord],
    absorbed: int,
) -> None:
    """Index ``arrived`` once and dispatch oracle feeds to the roster.

    This is the shared-index hot path replacing the per-checkpoint loop:
    one :meth:`VersionedInfluenceIndex.add` per record (O(d) dict writes),
    then for each updated pair a ``bisect`` over the sorted checkpoint
    starts locates the first checkpoint whose suffix actually gained a
    member — only those are fed.

    For a single-record slide the feeds go straight to the oracles (the
    merged deltas would all be singletons).  For ``L > 1`` the slide's
    updates are first grouped into one ``{user: [new_members]}`` delta map
    per checkpoint — merging multiple new members per user — and each
    checkpoint receives its whole slide in one
    :meth:`Checkpoint.feed_batch` call, amortising per-slide oracle
    bookkeeping.

    Per-action index and oracle work is O(d + feeds) instead of
    O(d · checkpoints) set probes.  Remaining per-slide overheads: one add
    to the roster's absorbed ledger (replacing the old O(checkpoints)
    per-checkpoint accounting loop), and — on the L>1 path only — one
    delta map per checkpoint, whose population is bounded by the feeds the
    oracles receive anyway.

    ``roster`` must hold checkpoints sorted by ascending start, every start
    at most the earliest arrived record's time (both invariants hold for
    IC's and SIC's rosters after appending the slide's newcomer).

    ``absorbed`` is the amount added to the roster's slide ledger: the
    *unprojected* slide size, so checkpoint action accounting stays
    stream-global even when :func:`~repro.core.resolve.project_records`
    dropped pair-less records for a shard.
    """
    starts = roster.starts
    count = len(starts)
    if not count:
        return
    first_start = starts[0]
    if not arrived:
        roster.absorbed += absorbed
        return
    if len(arrived) == 1:
        record = arrived[0]
        performer = record.user
        feeds = roster.feeds
        for user, previous in shared.add(record):
            lo = 0 if previous < first_start else bisect_right(starts, previous)
            for i in range(lo, count):
                feeds[i](user, performer)
    else:
        # Sparse: only checkpoints that actually receive a feed get a delta
        # map, so per-slide overhead is O(checkpoints fed), not O(count).
        deltas: Dict[int, dict] = {}
        for performer, user, previous in shared.add_batch(arrived):
            lo = 0 if previous < first_start else bisect_right(starts, previous)
            for i in range(lo, count):
                delta = deltas.get(i)
                if delta is None:
                    deltas[i] = delta = {}
                members = delta.get(user)
                if members is None:
                    delta[user] = [performer]
                else:
                    members.append(performer)
        checkpoints = roster.checkpoints
        # Deliver oldest-first, matching repro.reference's checkpoint
        # order (oracles are independent, but deterministic order keeps
        # the event logs comparable).
        for i in sorted(deltas):
            checkpoints[i].feed_batch(deltas[i].items())
    roster.absorbed += absorbed
