"""IC — the Influential Checkpoints framework (Section 4, Algorithm 1).

IC sidesteps action expiry by maintaining one checkpoint per window slide:
checkpoint ``Λ_t[i]`` runs an append-only oracle over the suffix starting at
slide ``i``.  When the window moves, the oldest checkpoint (whose suffix has
grown beyond the window) is discarded, a fresh checkpoint is created for the
newest slide, and every live checkpoint absorbs the arriving actions.  The
query answer is the solution of the oldest live checkpoint, which covers
exactly the current window, so IC inherits the oracle's ε ratio (Theorem 2).

With slide batches of ``L`` actions, IC maintains ``⌈N/L⌉`` checkpoints
(Section 5.3); with ``L = 1`` that is the full ``N`` of Algorithm 1.
``checkpoint_interval=c`` additionally opens a checkpoint only every
``c``-th slide, trading the answering suffix's tightness (it may cover up
to ``N + c·L − 1`` actions, like a misaligned slide) for ``c×`` fewer
checkpoints — the same lever Section 5.3 pulls with larger ``L``, without
delaying arrivals.

**Shared-index data plane.**  The paper's per-action cost is dominated by
updating ``d`` influence sets in *every* live checkpoint — O(d · N/L) set
probes per action when each checkpoint owns an
:class:`~repro.core.influence_index.AppendOnlyInfluenceIndex`.  By default
IC instead keeps one
:class:`~repro.core.influence_index.VersionedInfluenceIndex` shared by all
checkpoints: each action is indexed once (O(d) latest-credit dict writes)
and the previous credit time of each pair locates — via ``bisect`` over the
sorted checkpoint starts — exactly the checkpoints whose suffix gained a
new member.  A slide's updates are grouped into per-checkpoint
``(user, new_members)`` deltas and handed to each oracle in one batch
(:func:`~repro.core.checkpoint.feed_shared`), so per-slide oracle
bookkeeping is amortised; ``batch_feeds=False`` delivers the same deltas
one ``process_delta`` call at a time (the equivalence reference for the
batch path).  Pass ``shared_index=False`` for the literal per-checkpoint
reference implementation (used by the equivalence tests, which prove all
modes produce identical feeds, values, and seeds).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.base import (
    STATE_FORMAT_VERSION,
    SIMAlgorithm,
    SIMResult,
    check_state_header,
)
from repro.core.checkpoint import (
    Checkpoint,
    CheckpointRoster,
    OracleSpec,
    feed_shared,
    make_columnar_kernel,
    project_records,
)
from repro.core.diffusion import ActionRecord
from repro.core.influence_index import VersionedInfluenceIndex
from repro.influence.functions import (
    CardinalityInfluence,
    InfluenceFunction,
    function_from_state,
)

__all__ = ["InfluentialCheckpoints"]


class InfluentialCheckpoints(SIMAlgorithm):
    """Continuous SIM processing with one checkpoint per window slide."""

    def __init__(
        self,
        window_size: int,
        k: int,
        beta: float = 0.1,
        oracle: str = "sieve",
        func: Optional[InfluenceFunction] = None,
        retention: Optional[int] = None,
        shared_index: bool = True,
        batch_feeds: bool = True,
        checkpoint_interval: int = 1,
        shard=None,
        columnar: Optional[bool] = None,
    ):
        """
        Args:
            window_size: The paper's ``N`` (must be >= 1).
            k: Seed-set cardinality constraint (must be >= 1).
            beta: Guess-granularity parameter of the threshold oracles.
            oracle: Registered oracle name (default the paper's case study,
                SieveStreaming).
            func: Influence function; defaults to cardinality.
            retention: Diffusion-forest retention horizon.
            shared_index: Share one versioned influence index across all
                checkpoints (the fast data plane).  ``False`` restores the
                per-checkpoint reference indexes.
            batch_feeds: Deliver each checkpoint's slide as one merged
                oracle batch (shared-index mode only).  ``False`` feeds the
                same per-user deltas one call at a time — result-identical,
                kept as the batched path's equivalence reference.
            checkpoint_interval: Open a new checkpoint only every this many
                slides (must be >= 1).  Values above 1 keep ``c×`` fewer
                checkpoints at the cost of the answer covering up to
                ``c·L − 1`` extra actions.
            shard: Optional
                :class:`~repro.sharding.partition.ShardAssignment`.  The
                engine still consumes the full stream (ancestor chains stay
                exact) but indexes and offers to its oracles only the
                influence pairs whose influencer the assignment owns — one
                shard of the partitioned ingest plane
                (:mod:`repro.sharding`).
            columnar: Oracle-plane selection.  ``None`` (default) enables
                the vectorized columnar kernel
                (:mod:`repro.core.oracles.columnar`) whenever the
                configuration supports it — shared index, batched feeds,
                modular influence function, sieve/threshold oracle —
                falling back to per-checkpoint object oracles otherwise.
                ``True`` requires it (raising on unsupported configs or a
                missing numpy); ``False`` forces the object-oracle plane,
                kept as the columnar kernel's equivalence reference exactly
                like ``shared_index=False`` is for the shared data plane.
        """
        # window_size and k are validated (with the offending value in the
        # message) by SIMAlgorithm/SlidingWindow in super().__init__;
        # tests/core/test_ic.py pins that contract.
        if checkpoint_interval < 1:
            raise ValueError(
                "checkpoint_interval must be a positive number of slides, "
                f"got {checkpoint_interval}"
            )
        super().__init__(window_size=window_size, k=k, retention=retention)
        func = func if func is not None else CardinalityInfluence()
        params = {"beta": beta} if oracle in ("sieve", "threshold") else {}
        self._spec = OracleSpec(name=oracle, k=k, func=func, params=params)
        self._roster = CheckpointRoster()
        self._batch_feeds = batch_feeds
        self._interval = checkpoint_interval
        self._slide_index = 0
        self._shard = shard
        self._shared: Optional[VersionedInfluenceIndex] = (
            VersionedInfluenceIndex() if shared_index else None
        )
        self._columnar_requested = columnar
        self._kernel = make_columnar_kernel(
            self._spec, self._shared, columnar, batch_feeds
        )

    @property
    def checkpoint_count(self) -> int:
        """Number of live checkpoints (``⌈N/(L·c)⌉`` in steady state)."""
        return len(self._roster)

    @property
    def checkpoints(self) -> Sequence[Checkpoint]:
        """Live checkpoints, oldest first (read-only view)."""
        return tuple(self._roster.checkpoints)

    @property
    def checkpoint_interval(self) -> int:
        """Slides between consecutive checkpoint openings."""
        return self._interval

    @property
    def shared_index(self) -> Optional[VersionedInfluenceIndex]:
        """The shared versioned index (``None`` in reference mode)."""
        return self._shared

    @property
    def shard(self):
        """This engine's shard assignment (``None`` when unsharded)."""
        return self._shard

    @property
    def columnar(self) -> bool:
        """Whether the columnar oracle kernel is active."""
        return self._kernel is not None

    @property
    def columnar_kernel(self):
        """The active ``ColumnarThresholdKernel`` (``None`` = object plane)."""
        return self._kernel

    @property
    def influence_function(self) -> InfluenceFunction:
        """The influence function ``f`` the checkpoint oracles maximise."""
        return self._spec.func

    def _on_slide(
        self,
        arrived: Sequence[ActionRecord],
        expired: Sequence[ActionRecord],
    ) -> None:
        records = (
            arrived
            if self._shard is None
            else project_records(arrived, self._shard.owns)
        )
        self._absorb_slide(
            records, start=arrived[0].time, absorbed=len(arrived)
        )

    def _on_slide_resolved(self, resolved) -> None:
        # The routed apply path: records were resolved (and routed) at the
        # facade; the slide's global boundaries ride along so checkpoints
        # open at the same starts and the absorption ledger counts the
        # same global L a raw-stream engine would.  A ``routed`` slide
        # promises facade-side narrowing (the sharded manifest pins the
        # partitioner identity), so re-projection — idempotent but paid
        # per influence pair — only guards direct unrouted callers.
        records = (
            list(resolved.records)
            if self._shard is None or resolved.routed
            else project_records(resolved.records, self._shard.owns)
        )
        self._absorb_slide(
            records, start=resolved.start, absorbed=resolved.count
        )

    def _absorb_slide(self, records, start: int, absorbed: int) -> None:
        """Absorb one slide's (possibly projected) records into the roster.

        Algorithm 1 lines 2-5: retire the checkpoint that no longer covers
        a window suffix, then open one for the arriving slide.  ``start``
        and ``absorbed`` are the slide's *global* first timestamp and
        action count — a sharded engine may own none of the slide's
        records yet must still open the checkpoint and advance the
        ledger exactly like the single engine.
        """
        roster = self._roster
        open_checkpoint = self._slide_index % self._interval == 0
        self._slide_index += 1
        shared = self._shared
        kernel = self._kernel
        if kernel is not None:
            if open_checkpoint:
                roster.append(kernel.new_checkpoint(start, roster))
            kernel.absorb_slide(roster, records, absorbed=absorbed)
        elif shared is not None:
            if open_checkpoint:
                roster.append(
                    Checkpoint(
                        start,
                        self._spec,
                        index=shared.view(start),
                        ledger=roster,
                    )
                )
            feed_shared(
                shared,
                roster,
                records,
                batch=self._batch_feeds,
                absorbed=absorbed,
            )
        else:
            if open_checkpoint:
                roster.append(Checkpoint(start, self._spec))
            if len(records) == 1:
                record = records[0]
                for checkpoint in roster.checkpoints:
                    checkpoint.process(record)
            elif records:
                for checkpoint in roster.checkpoints:
                    checkpoint.process_slide(records)
        now = self.now
        size = self.window_size
        while roster and not roster[0].covers_window(now, size):
            # The oldest checkpoint covers more than N actions.  Drop it
            # unless it is the only one still covering the whole window
            # (start-up/misaligned-slide corner: the next checkpoint would
            # cover strictly less than the window).
            second = roster[1] if len(roster) > 1 else None
            if second is not None and second.start <= max(1, now - size + 1):
                popped = roster.pop_oldest()
                if kernel is not None:
                    kernel.retire_checkpoint(popped)
            else:
                break
        if shared is not None and roster:
            shared.compact(roster[0].start, now=now)

    def query(self) -> SIMResult:
        """Return the solution of ``Λ_t[1]`` (Algorithm 1 lines 9-10)."""
        if not self._roster:
            return SIMResult(time=self.now, seeds=frozenset(), value=0.0)
        answer = self._roster[0]
        return SIMResult(time=self.now, seeds=answer.seeds, value=answer.value)

    def query_candidates(self):
        """Per-seed coverage of the answering checkpoint (seed-merge hook).

        Returns ``[(user, coverage_frozenset), ...]`` for the current
        answer's seeds, coverage taken from the answering checkpoint's
        suffix index — exactly what the sharded merge needs to deduct
        cross-shard overlap (see :mod:`repro.sharding.merge`).
        """
        if not self._roster:
            return []
        checkpoint = self._roster[0]
        index = checkpoint.index
        return [
            (user, frozenset(index.influence_set(user)))
            for user in sorted(checkpoint.seeds)
        ]

    # -- persistence -------------------------------------------------------

    def to_state(self) -> dict:
        """Explicit JSON-safe state of the whole framework (no pickle).

        The document carries a format-version header, the construction
        config (including the influence function's own state schema), the
        shared :class:`~repro.core.base.SIMAlgorithm` bookkeeping, the
        versioned index (shared mode), and every live checkpoint's oracle
        state.  :meth:`from_state` rebuilds an engine that continues the
        stream with answers identical to an uninterrupted run.
        """
        spec = self._spec
        return {
            "format": STATE_FORMAT_VERSION,
            "algorithm": "ic",
            "config": {
                "window_size": self.window_size,
                "k": self._k,
                "oracle": spec.name,
                "oracle_params": dict(spec.params),
                "func": spec.func.to_state(),
                "retention": self._forest._retention,
                "shared_index": self._shared is not None,
                "batch_feeds": self._batch_feeds,
                "checkpoint_interval": self._interval,
                "shard": self._shard.to_state() if self._shard is not None else None,
            },
            "base": self._base_state(),
            "slide_index": self._slide_index,
            # The oracle plane is a runtime choice, not part of the engine
            # config: object-plane and columnar snapshots stay
            # config-compatible and open into either plane.
            "columnar": self._columnar_requested,
            "shared": self._shared.to_state() if self._shared is not None else None,
            "roster": self._roster.to_state(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "InfluentialCheckpoints":
        """Rebuild a framework from :meth:`to_state` output."""
        check_state_header(state, "ic")
        config = state["config"]
        func = function_from_state(config["func"])
        params = config["oracle_params"]
        shard = None
        if config.get("shard") is not None:
            # Lazy import: core never depends on the sharding plane unless
            # a sharded state document actually needs it.
            from repro.sharding.partition import assignment_from_state

            shard = assignment_from_state(config["shard"])
        algorithm = cls(
            window_size=config["window_size"],
            k=config["k"],
            beta=params.get("beta", 0.1),
            oracle=config["oracle"],
            func=func,
            retention=config["retention"],
            shared_index=config["shared_index"],
            batch_feeds=config["batch_feeds"],
            checkpoint_interval=config["checkpoint_interval"],
            shard=shard,
            columnar=False,
        )
        # The spec's params are authoritative (the ctor only wires beta for
        # the threshold-guessing oracles); restore them verbatim.
        algorithm._spec = OracleSpec(
            name=config["oracle"], k=config["k"], func=func, params=dict(params)
        )
        algorithm._restore_base(state["base"])
        algorithm._slide_index = state["slide_index"]
        if algorithm._shared is not None:
            algorithm._shared = VersionedInfluenceIndex.from_state(state["shared"])
        # Plane selection re-runs against the *restored* spec and index
        # (the ctor's were placeholders); documents without the key (older
        # snapshots) auto-select, so old object-plane snapshots open
        # straight into the columnar kernel.
        algorithm._columnar_requested = state.get("columnar")
        algorithm._kernel = make_columnar_kernel(
            algorithm._spec,
            algorithm._shared,
            algorithm._columnar_requested,
            config["batch_feeds"],
        )
        algorithm._roster = CheckpointRoster.from_state(
            state["roster"],
            algorithm._spec,
            shared=algorithm._shared,
            kernel=algorithm._kernel,
        )
        return algorithm
