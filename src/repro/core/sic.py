"""SIC — the Sparse Influential Checkpoints framework (Section 5).

SIC keeps only ``O(log N / β)`` of IC's checkpoints.  After every slide it
prunes checkpoints that are well-approximated by their successors
(Algorithm 2 lines 9-20): scanning from each retained checkpoint ``x_i``,
any checkpoint ``x_j`` is deleted while **both** ``Λ[x_j]`` and
``Λ[x_{j+1}]`` are still within a ``(1−β)`` factor of ``Λ[x_i]`` — the
successor then approximates the deleted ones forever after (Lemma 2), so the
answer stays ``ε(1−β)/2``-approximate (Theorem 3), i.e. ``1/4 − β`` with
SieveStreaming (Theorem 4).

One *expired* checkpoint ``Λ_t[x_0]`` — covering slightly more than the
window — is retained (lines 21-23) so the optimum of the full window remains
upper-bounded; it is discarded once its successor expires too.  The query
answer is the oldest non-expired checkpoint ``Λ_t[x_1]`` (line 25).

**Shared-index data plane.**  Like IC, SIC by default keeps one
:class:`~repro.core.influence_index.VersionedInfluenceIndex` for all its
checkpoints instead of one append-only copy each: an arriving action is
indexed once in O(d), and a ``bisect`` over the retained checkpoints'
starts dispatches oracle feeds to exactly those whose suffix set gained a
new member (the pair's previous credit time tells which).  A slide's
updates are merged into per-checkpoint ``(user, new_members)`` deltas and
delivered as one oracle batch per checkpoint
(:func:`~repro.core.checkpoint.feed_shared`; ``batch_feeds=False`` keeps
the per-delta reference delivery).  Combined with the logarithmic
checkpoint population this makes SIC's per-action cost O(d + feeds) with
index memory equal to the distinct visible pairs — pruned checkpoints cost
nothing because views hold no per-checkpoint state.
``shared_index=False`` restores the reference per-checkpoint indexes
proven equivalent by the property tests.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

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

__all__ = ["SparseInfluentialCheckpoints"]


class SparseInfluentialCheckpoints(SIMAlgorithm):
    """Continuous SIM with logarithmically many checkpoints (Algorithm 2)."""

    def __init__(
        self,
        window_size: int,
        k: int,
        beta: float = 0.1,
        oracle: str = "sieve",
        func: Optional[InfluenceFunction] = None,
        retention: Optional[int] = None,
        oracle_beta: Optional[float] = None,
        shared_index: bool = True,
        batch_feeds: bool = True,
        shard=None,
        columnar: Optional[bool] = None,
    ):
        """
        Args:
            window_size: The paper's ``N`` (must be >= 1).
            k: Seed-set cardinality constraint (must be >= 1).
            beta: SIC's pruning parameter β ∈ (0, 1) — the quality/efficiency
                trade-off of Section 6.2.  Also reused as the oracle's guess
                granularity unless ``oracle_beta`` overrides it (the paper
                uses a single β for both).
            oracle: Registered checkpoint-oracle name.
            func: Influence function; defaults to cardinality.
            retention: Diffusion-forest retention horizon.
            oracle_beta: Optional separate β for the oracle's OPT guessing.
            shared_index: Share one versioned influence index across all
                checkpoints (the fast data plane).  ``False`` restores the
                per-checkpoint reference indexes.
            batch_feeds: Deliver each checkpoint's slide as one merged
                oracle batch (shared-index mode only).  ``False`` feeds the
                same per-user deltas one call at a time — result-identical,
                kept as the batched path's equivalence reference.
            shard: Optional
                :class:`~repro.sharding.partition.ShardAssignment`.  The
                engine still consumes the full stream (ancestor chains stay
                exact) but indexes and offers to its oracles only the
                influence pairs whose influencer the assignment owns — one
                shard of the partitioned ingest plane
                (:mod:`repro.sharding`).
            columnar: Oracle-plane selection — see
                :class:`~repro.core.ic.InfluentialCheckpoints`.  ``None``
                auto-enables the vectorized columnar kernel when supported,
                ``True`` requires it, ``False`` keeps the object-oracle
                equivalence reference.
        """
        # window_size and k are validated (with the offending value in the
        # message) by SIMAlgorithm/SlidingWindow in super().__init__;
        # tests/core/test_sic.py pins that contract.
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {beta}")
        super().__init__(window_size=window_size, k=k, retention=retention)
        self._beta = beta
        func = func if func is not None else CardinalityInfluence()
        guess_beta = oracle_beta if oracle_beta is not None else beta
        params = {"beta": guess_beta} if oracle in ("sieve", "threshold") else {}
        self._spec = OracleSpec(name=oracle, k=k, func=func, params=params)
        self._roster = CheckpointRoster()
        self._batch_feeds = batch_feeds
        self._pruned_total = 0
        self._shard = shard
        self._shared: Optional[VersionedInfluenceIndex] = (
            VersionedInfluenceIndex() if shared_index else None
        )
        self._columnar_requested = columnar
        self._kernel = make_columnar_kernel(
            self._spec, self._shared, columnar, batch_feeds
        )

    @property
    def beta(self) -> float:
        """The pruning parameter β."""
        return self._beta

    @property
    def checkpoint_count(self) -> int:
        """Number of live checkpoints (``O(log N / β)``, Theorem 5)."""
        return len(self._roster)

    @property
    def checkpoints(self) -> Sequence[Checkpoint]:
        """Live checkpoints, oldest first (read-only view)."""
        return tuple(self._roster.checkpoints)

    @property
    def pruned_total(self) -> int:
        """Checkpoints deleted by the pruning rule since construction."""
        return self._pruned_total

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
        # The routed apply path: see InfluentialCheckpoints; checkpoints
        # open at the slide's global start and the ledger counts the
        # global L, so routed ≡ raw-stream holds per slide.  ``routed``
        # slides were already narrowed at the facade — skip the per-pair
        # defensive re-projection.
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

        Lines 2-8: new checkpoint for the arriving slide, then feed all.
        ``start``/``absorbed`` are the slide's global first timestamp and
        action count (see :class:`~repro.core.resolve.ResolvedSlide`).
        """
        roster = self._roster
        shared = self._shared
        kernel = self._kernel
        if kernel is not None:
            roster.append(kernel.new_checkpoint(start, roster))
            kernel.absorb_slide(roster, records, absorbed=absorbed)
        elif shared is not None:
            roster.append(
                Checkpoint(
                    start, self._spec, index=shared.view(start), ledger=roster
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
            roster.append(Checkpoint(start, self._spec))
            if len(records) == 1:
                record = records[0]
                for checkpoint in roster.checkpoints:
                    checkpoint.process(record)
            elif records:
                for checkpoint in roster.checkpoints:
                    checkpoint.process_slide(records)
        self._prune()
        self._retire_expired_head()
        if shared is not None and roster:
            shared.compact(roster[0].start, now=self.now)

    # -- Algorithm 2 lines 9-20 -------------------------------------------

    def _prune(self) -> None:
        """Delete checkpoints approximated by their successors."""
        cps = self._roster.checkpoints
        if len(cps) <= 2:
            return
        keep: List[Checkpoint] = []
        i = 0
        while i < len(cps):
            keep.append(cps[i])
            bar = (1.0 - self._beta) * cps[i].value
            j = i + 1
            # Delete cps[j] while both it and its successor still clear the
            # (1-β) bar relative to cps[i]; the successor will answer for
            # the deleted ones (Lemma 2).  j+1 <= s keeps the newest alive.
            while j + 1 < len(cps) and cps[j].value >= bar and cps[j + 1].value >= bar:
                j += 1
            self._pruned_total += j - (i + 1)
            if self._kernel is not None:
                for removed in cps[i + 1 : j]:
                    self._kernel.retire_checkpoint(removed)
            i = j
        if len(keep) < len(cps):
            self._roster.replace(keep)

    # -- Algorithm 2 lines 21-23 --------------------------------------------

    def _retire_expired_head(self) -> None:
        """Keep exactly one expired checkpoint (the paper's ``Λ_t[x_0]``)."""
        now = self.now
        size = self.window_size
        roster = self._roster
        while len(roster) > 1 and not roster[1].covers_window(now, size):
            popped = roster.pop_oldest()
            if self._kernel is not None:
                self._kernel.retire_checkpoint(popped)

    def query(self) -> SIMResult:
        """Return the solution of ``Λ_t[x_1]`` (Algorithm 2 line 25)."""
        if not self._roster:
            return SIMResult(time=self.now, seeds=frozenset(), value=0.0)
        now, size = self.now, self.window_size
        for checkpoint in self._roster.checkpoints:
            if checkpoint.covers_window(now, size):
                return SIMResult(
                    time=now, seeds=checkpoint.seeds, value=checkpoint.value
                )
        # All checkpoints expired (cannot happen after a slide, as the newest
        # always covers the window); fall back to the newest.
        newest = self._roster.checkpoints[-1]
        return SIMResult(time=now, seeds=newest.seeds, value=newest.value)

    def query_candidates(self):
        """Per-seed coverage of the answering checkpoint (seed-merge hook).

        Returns ``[(user, coverage_frozenset), ...]`` for the answering
        checkpoint ``Λ_t[x_1]``'s seeds (the same checkpoint
        :meth:`query` reads), coverage taken from its suffix index.  The
        suffix covers at most the window, so a sharded merge built from
        these sets never overestimates the window value.
        """
        if not self._roster:
            return []
        now, size = self.now, self.window_size
        answering = None
        for checkpoint in self._roster.checkpoints:
            if checkpoint.covers_window(now, size):
                answering = checkpoint
                break
        if answering is None:
            answering = self._roster.checkpoints[-1]
        index = answering.index
        return [
            (user, frozenset(index.influence_set(user)))
            for user in sorted(answering.seeds)
        ]

    # -- persistence -------------------------------------------------------

    def to_state(self) -> dict:
        """Explicit JSON-safe state of the whole framework (no pickle).

        Same layout as
        :meth:`~repro.core.ic.InfluentialCheckpoints.to_state`, with SIC's
        pruning parameter and counter instead of IC's checkpoint interval.
        """
        spec = self._spec
        return {
            "format": STATE_FORMAT_VERSION,
            "algorithm": "sic",
            "config": {
                "window_size": self.window_size,
                "k": self._k,
                "beta": self._beta,
                "oracle": spec.name,
                "oracle_params": dict(spec.params),
                "func": spec.func.to_state(),
                "retention": self._forest._retention,
                "shared_index": self._shared is not None,
                "batch_feeds": self._batch_feeds,
                "shard": self._shard.to_state() if self._shard is not None else None,
            },
            "base": self._base_state(),
            "pruned_total": self._pruned_total,
            # Runtime plane choice, deliberately outside config (snapshots
            # from either plane stay config-compatible).
            "columnar": self._columnar_requested,
            "shared": self._shared.to_state() if self._shared is not None else None,
            "roster": self._roster.to_state(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "SparseInfluentialCheckpoints":
        """Rebuild a framework from :meth:`to_state` output."""
        check_state_header(state, "sic")
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
            beta=config["beta"],
            oracle=config["oracle"],
            func=func,
            retention=config["retention"],
            oracle_beta=params.get("beta"),
            shared_index=config["shared_index"],
            batch_feeds=config["batch_feeds"],
            shard=shard,
            columnar=False,
        )
        algorithm._spec = OracleSpec(
            name=config["oracle"], k=config["k"], func=func, params=dict(params)
        )
        algorithm._restore_base(state["base"])
        algorithm._pruned_total = state["pruned_total"]
        if algorithm._shared is not None:
            algorithm._shared = VersionedInfluenceIndex.from_state(state["shared"])
        # Re-run plane selection against the restored spec and index; older
        # documents without the key auto-select (old snapshots open into
        # the columnar kernel).
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
