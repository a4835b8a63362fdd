"""The checkpoint framework IC and SIC share (Algorithms 1 and 2).

The paper's two frameworks run the same loop — open a checkpoint for the
arriving slide, feed every live checkpoint, drop the checkpoints no longer
needed, answer from one of the survivors — and differ only in *which
checkpoints stay alive* and *which one answers*.
:class:`CheckpointFramework` owns the loop and everything it runs on — the
oracle spec, the roster, shard projection, persistence, and the one data
plane: every checkpoint is a view over a single shared influence index,
and a slide reaches the checkpoints whose suffix grew as one merged batch.
When the spec supports it and its compiled event loads, the
:mod:`~repro.core.oracles.columnar` kernel runs the slide and its pair
store is that index; otherwise object oracles are fed
(:func:`~repro.core.checkpoint.feed_shared`) over a
:class:`~repro.core.influence_index.VersionedInfluenceIndex`.  Subclasses supply
the policy hooks (DESIGN.md tabulates what IC and SIC put in each); the
literal per-checkpoint algorithm the plane is tested against lives in
:mod:`repro.reference`.
"""

from __future__ import annotations

from abc import abstractmethod
from dataclasses import replace
from typing import Optional, Sequence, Tuple

from repro.core.base import (
    STATE_FORMAT_VERSION,
    SIMAlgorithm,
    SIMResult,
    check_state_header,
    state_field,
)
from repro.core.checkpoint import (
    Checkpoint,
    CheckpointRoster,
    OracleSpec,
    feed_shared,
    make_columnar_kernel,
)
from repro.core.diffusion import ActionRecord
from repro.core.influence_index import VersionedInfluenceIndex
from repro.core.resolve import ResolvedSlide
from repro.influence.functions import (
    CardinalityInfluence,
    InfluenceFunction,
    function_from_state,
)

__all__ = ["CheckpointFramework"]


class CheckpointFramework(SIMAlgorithm):
    """Continuous SIM over a roster of suffix checkpoints."""

    #: The ``"algorithm"`` tag of this framework's state documents.
    algorithm: str

    def __init__(
        self,
        window_size: int,
        k: int,
        oracle: str,
        oracle_beta: float,
        func: Optional[InfluenceFunction],
        retention: Optional[int],
        shared_index: bool,
        shard,
        columnar: Optional[bool],
    ):
        """
        Args:
            window_size: The paper's ``N`` (must be >= 1).
            k: Seed-set cardinality constraint (must be >= 1).
            oracle: Registered checkpoint-oracle name.
            oracle_beta: Guess granularity of the threshold oracles
                (ignored by the others).
            func: Influence function; defaults to cardinality.
            retention: Diffusion-forest retention horizon.
            shared_index: Accepted for callers that still pass ``True``;
                the shared index is the only data plane, ``False`` raises.
            shard: Optional
                :class:`~repro.sharding.partition.ShardAssignment`: the
                engine indexes and offers to its oracles only the influence
                pairs whose influencer the assignment owns — one shard of
                the partitioned ingest plane (:mod:`repro.sharding`).
            columnar: Oracle-plane selection
                (:func:`~repro.core.checkpoint.make_columnar_kernel`).
                ``None`` (default) takes the columnar kernel whenever the
                spec supports it and the compiled event loads, and
                per-checkpoint object oracles otherwise; ``False`` forces
                object oracles (the kernel's equivalence reference).
        """
        # window_size and k are validated (with the offending value in the
        # message) by SIMAlgorithm; tests/core/test_ic.py and
        # test_sic.py pin that contract.
        if shared_index is not True:
            raise ValueError(
                "the production engine has one data plane (the shared "
                "index); the per-checkpoint algorithm is repro.reference"
            )
        super().__init__(window_size=window_size, k=k, retention=retention)
        func = func if func is not None else CardinalityInfluence()
        params = {"beta": oracle_beta} if oracle in ("sieve", "threshold") else {}
        self._spec = OracleSpec(name=oracle, k=k, func=func, params=params)
        self._roster = CheckpointRoster()
        self._shard = shard
        self._columnar_requested = columnar
        self._kernel = make_columnar_kernel(self._spec, columnar)
        # The object plane's index; the kernel's pair store replaces it.
        self._shared = VersionedInfluenceIndex() if self._kernel is None else None

    @property
    def checkpoint_count(self) -> int:
        """Number of live checkpoints."""
        return len(self._roster)

    @property
    def checkpoints(self) -> Sequence[Checkpoint]:
        """Live checkpoints, oldest first (read-only view)."""
        return tuple(self._roster.checkpoints)

    @property
    def shared_index(self):
        """The influence index every checkpoint views: the
        :class:`~repro.core.influence_index.VersionedInfluenceIndex`, or on
        the columnar plane a ``StoreView`` of the kernel's pair store."""
        if self._kernel is not None:
            from repro.core.oracles.columnar import StoreView

            return StoreView(self._kernel, 1)
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

    # -- the policy a framework supplies ------------------------------------

    def _opens_checkpoint(self) -> bool:
        """Whether the arriving slide opens a checkpoint (asked once per slide)."""
        return True

    @abstractmethod
    def _retire(self) -> None:
        """Drop the checkpoints the framework no longer needs (after the feed)."""

    @abstractmethod
    def _answering(self):
        """The checkpoint whose solution answers the query (roster non-empty)."""

    @abstractmethod
    def _policy_to_state(self) -> Tuple[dict, dict]:
        """``(config fields, document fields)`` the policy adds to :meth:`to_state`."""

    @classmethod
    @abstractmethod
    def _policy_from_state(cls, config: dict, state: dict, **common):
        """Construct from ``common`` plus the fields :meth:`_policy_to_state` wrote."""

    # -- the slide loop ------------------------------------------------------

    def _on_slide(self, arrived: Sequence[ActionRecord]) -> None:
        self._absorb_slide(
            ResolvedSlide(arrived[0].time, arrived[-1].time, len(arrived), arrived)
        )

    def _feed(self, resolved) -> None:
        self._absorb_slide(resolved)

    def _on_slide_resolved(self, resolved) -> None:
        # The routed apply path: records were resolved (and routed) at the
        # facade; the slide's global boundaries ride along so checkpoints
        # open at the same starts and the absorption ledger counts the
        # same global L a raw-stream engine would.
        self._absorb_slide(resolved)

    def _absorb_slide(self, resolved) -> None:
        """Open, feed, retire: one slide's records.

        The slide's ``start`` and ``count`` are its *global* first
        timestamp and action count — a sharded engine may own none of the
        slide's records yet must still open the checkpoint and advance the
        ledger exactly like the single engine.  A ``routed`` slide
        promises facade-side narrowing (the sharded manifest pins the
        partitioner identity), so projection — idempotent but paid per
        influence pair — runs only for slides that were not.  The kernel
        reads the slide's record columns; the object plane its records.
        """
        if self._shard is not None and not resolved.routed:
            resolved = resolved.project(self._shard.owns)
        roster = self._roster
        shared = self._shared
        kernel = self._kernel
        opens = self._opens_checkpoint()
        if kernel is not None:
            if opens:
                roster.append(kernel.new_checkpoint(resolved.start, roster))
            kernel.absorb_slide(roster, resolved, absorbed=resolved.count)
        else:
            if opens:
                roster.append(
                    Checkpoint(resolved.start, self._spec, shared.view(resolved.start), roster)
                )
            feed_shared(shared, roster, resolved.records, absorbed=resolved.count)
        self._retire()
        if shared is not None and roster:
            shared.compact(roster[0].start)

    def _pop_oldest(self) -> None:
        """Drop the head checkpoint (and its kernel column)."""
        popped = self._roster.pop_oldest()
        if self._kernel is not None:
            self._kernel.retire_checkpoint(popped)

    # -- answers -------------------------------------------------------------

    def query(self) -> SIMResult:
        """The answering checkpoint's solution (empty before any slide)."""
        if not self._roster:
            return SIMResult(time=self.now, seeds=frozenset(), value=0.0)
        answer = self._answering()
        return SIMResult(time=self.now, seeds=answer.seeds, value=answer.value)

    def query_candidates(self):
        """Per-seed coverage of the answering checkpoint (seed-merge hook).

        Returns ``[(user, coverage_frozenset), ...]`` for the seeds
        :meth:`query` reports, coverage taken from the answering
        checkpoint's suffix index — exactly what the sharded merge needs to
        deduct cross-shard overlap (see :mod:`repro.sharding.merge`).
        """
        if not self._roster:
            return []
        answer = self._answering()
        index = answer.index
        return [
            (user, frozenset(index.influence_set(user)))
            for user in sorted(answer.seeds)
        ]

    # -- persistence ---------------------------------------------------------

    def config_state(self) -> dict:
        """The ``algorithm`` tag and construction ``config`` (including the
        influence function's own state schema) :meth:`to_state` embeds —
        cheap, so a resume compares two engines without serializing them."""
        spec = self._spec
        return {
            "algorithm": self.algorithm,
            "config": {
                "window_size": self.window_size,
                "k": self._k,
                "oracle": spec.name,
                "oracle_params": dict(spec.params),
                "func": spec.func.to_state(),
                "retention": self._forest._retention,
                "shard": self._shard.to_state() if self._shard is not None else None,
                **self._policy_to_state()[0],
            },
        }

    def to_state(self) -> dict:
        """Explicit state of the whole framework (no pickle).

        The document carries a format-version header, :meth:`config_state`,
        the :class:`~repro.core.base.SIMAlgorithm` bookkeeping, the shared
        index's pairs, every live checkpoint's oracle state, and the
        policy's own fields — scalars plus numpy arrays at the leaves (the
        snapshot container's sections).  :meth:`from_state` rebuilds an
        engine that continues the stream with answers identical to an
        uninterrupted run.
        """
        if self._kernel is not None:
            shared, columns = self._kernel.to_state(self._roster.checkpoints)
            roster = {"absorbed": self._roster.absorbed, "columns": columns}
        else:
            shared, roster = self._shared.to_state(), self._roster.to_state()
        return {
            "format": STATE_FORMAT_VERSION,
            **self.config_state(),
            "base": self._base_state(),
            # The oracle plane is a runtime choice, not part of the engine
            # config: object-plane and columnar snapshots stay
            # config-compatible and open into either plane.
            "columnar": self._columnar_requested,
            "shared": shared,
            "roster": roster,
            **self._policy_to_state()[1],
        }

    @classmethod
    def from_state(cls, state: dict) -> "CheckpointFramework":
        """Rebuild a framework from :meth:`to_state` output.

        Raises:
            ValueError: on a wrong header, a missing or ill-typed field
                (named in the message), or a document of the retired
                per-checkpoint mode (``"shared_index": false``).
        """
        check_state_header(state, cls.algorithm)
        config = state_field(state, "config", dict)
        if config.get("shared_index", True) is not True:
            raise ValueError(
                "state document was written by the retired per-checkpoint "
                "mode (shared_index=false); the production engine cannot "
                "continue it — that algorithm now lives in repro.reference"
            )
        params = state_field(config, "oracle_params", dict, "config.")
        shard = None
        if config.get("shard") is not None:
            # Lazy import: core never depends on the sharding plane unless
            # a sharded state document actually needs it.
            from repro.sharding.partition import assignment_from_state

            shard = assignment_from_state(config["shard"])
        algorithm = cls._policy_from_state(
            config,
            state,
            window_size=state_field(config, "window_size", int, "config."),
            k=state_field(config, "k", int, "config."),
            oracle=state_field(config, "oracle", str, "config."),
            func=function_from_state(state_field(config, "func", dict, "config.")),
            retention=config["retention"],
            shard=shard,
            columnar=False,
        )
        # The spec's params are authoritative (the constructors only wire
        # beta for the threshold-guessing oracles); restore them verbatim.
        algorithm._spec = replace(algorithm._spec, params=dict(params))
        algorithm._restore_base(state_field(state, "base", dict))
        shared = state_field(state, "shared", dict)
        roster = state_field(state, "roster", dict)
        # Plane selection re-runs against the *restored* spec (the
        # constructor's was a placeholder).  Only a stored ``false`` pins
        # the object plane: documents without the key, or with the retired
        # ``true``, auto-select, so object-plane snapshots open straight
        # into the kernel and kernel snapshots open without one.
        algorithm._columnar_requested = state.get("columnar")
        kernel = make_columnar_kernel(algorithm._spec, algorithm._columnar_requested)
        algorithm._kernel = kernel
        if kernel is not None:
            algorithm._shared = None
            algorithm._roster = kernel.load_state(shared, roster)
        else:
            algorithm._shared = VersionedInfluenceIndex.from_state(shared)
            algorithm._roster = CheckpointRoster.from_state(
                roster, algorithm._spec, algorithm._shared
            )
        return algorithm
