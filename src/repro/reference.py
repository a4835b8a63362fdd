"""The literal IC and SIC of the paper — the reference the engine is tested against.

:mod:`repro.core.ic` / :mod:`repro.core.sic` run every checkpoint as a view
over one shared versioned index and dispatch each slide in merged batches
(optionally through a vectorized kernel).  This module is what they must
stay indistinguishable from: Algorithms 1 and 2 written the way the paper
states them.  Every checkpoint owns a private
:class:`~repro.core.influence_index.AppendOnlyInfluenceIndex` and an object
oracle; every live checkpoint is handed every slide; the retire and prune
loops follow the pseudo-code line by line.  Per-action cost is therefore
O(d · checkpoints) and index memory the sum of all suffix sizes — the
costs Figure 6's space analysis describes and the production data plane
removes.

There is nothing to configure beyond the paper's own parameters: no
persistence, no sharding, no kernel, no plane switches.  Use it like the
engine::

    from repro.reference import ReferenceSIC
    sic = ReferenceSIC(window_size=1000, k=5, beta=0.3)
    sic.process(batch); sic.query()

**Slide semantics.**  A slide of ``L`` actions is one SSM event (Section
4.2): a checkpoint first applies all ``L`` records to its index, then
feeds its oracle one merged delta ``(user, new_members)`` per updated
user, in first-update order.  With ``L = 1`` this is the per-action model
of Algorithm 1.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, List, Optional, Sequence

from repro.core.base import SIMAlgorithm, SIMResult
from repro.core.diffusion import ActionRecord
from repro.core.influence_index import AppendOnlyInfluenceIndex
from repro.core.oracles import CheckpointOracle, make_oracle
from repro.influence.functions import CardinalityInfluence, InfluenceFunction

__all__ = ["ReferenceCheckpoint", "ReferenceIC", "ReferenceSIC"]


class ReferenceCheckpoint:
    """``Λ_t[i]`` (Section 4.1): a private suffix index and its oracle."""

    def __init__(self, start: int, build_oracle: Callable[..., CheckpointOracle]):
        if start <= 0:
            raise ValueError(f"checkpoint start must be positive, got {start}")
        self.start = start
        self.index = AppendOnlyInfluenceIndex()
        self.oracle = build_oracle(self.index)
        self.actions_processed = 0

    def process_slide(self, records: Sequence[ActionRecord]) -> None:
        """SSM steps (1)-(3) for one slide: index all, then feed merged."""
        deltas: dict = {}
        for record in records:
            if record.time < self.start:
                raise ValueError(
                    f"checkpoint starting at {self.start} received "
                    f"older action {record.time}"
                )
            for user in self.index.add(record):
                deltas.setdefault(user, []).append(record.user)
        self.actions_processed += len(records)
        for user, new_members in deltas.items():
            self.feed(user, new_members)

    def feed(self, user: int, new_members: Sequence[int]) -> None:
        """The oracle learns ``user``'s suffix set gained ``new_members``."""
        self.oracle.process_delta(user, new_members)

    @property
    def value(self) -> float:
        """The checkpoint's influence value Λ."""
        return self.oracle.value

    @property
    def seeds(self) -> FrozenSet[int]:
        """The maintained seed users."""
        return self.oracle.seeds

    def covers_window(self, now: int, window_size: int) -> bool:
        """True while the suffix holds at most the window's ``N`` actions."""
        return self.start >= now - window_size + 1


class _ReferenceFramework(SIMAlgorithm):
    """What Algorithms 1 and 2 share: the checkpoint list and how it is fed."""

    def __init__(self, window_size, k, oracle, oracle_beta, func, retention):
        super().__init__(window_size=window_size, k=k, retention=retention)
        self._oracle = oracle
        self._func = func if func is not None else CardinalityInfluence()
        self._params = {"beta": oracle_beta} if oracle in ("sieve", "threshold") else {}
        self._checkpoints: List[ReferenceCheckpoint] = []

    @property
    def checkpoints(self) -> Sequence[ReferenceCheckpoint]:
        """Live checkpoints, oldest first (read-only view)."""
        return tuple(self._checkpoints)

    def _build_oracle(self, index) -> CheckpointOracle:
        return make_oracle(
            self._oracle, k=self.k, func=self._func, index=index, **self._params
        )

    def _open_and_feed(self, arrived, opens: bool) -> None:
        """Open ``Λ`` for the arriving slide, then every checkpoint absorbs it."""
        if opens:
            self._checkpoints.append(
                ReferenceCheckpoint(arrived[0].time, self._build_oracle)
            )
        for checkpoint in self._checkpoints:
            checkpoint.process_slide(arrived)

    def query(self) -> SIMResult:
        """The answering checkpoint's solution (empty before any slide)."""
        if not self._checkpoints:
            return SIMResult(time=self.now, seeds=frozenset(), value=0.0)
        answer = self._answering()
        return SIMResult(time=self.now, seeds=answer.seeds, value=answer.value)


class ReferenceIC(_ReferenceFramework):
    """Algorithm 1: one checkpoint per slide, the oldest answers."""

    def __init__(
        self,
        window_size: int,
        k: int,
        beta: float = 0.1,
        oracle: str = "sieve",
        func: Optional[InfluenceFunction] = None,
        retention: Optional[int] = None,
        checkpoint_interval: int = 1,
    ):
        if checkpoint_interval < 1:
            raise ValueError(
                "checkpoint_interval must be a positive number of slides, "
                f"got {checkpoint_interval}"
            )
        super().__init__(window_size, k, oracle, beta, func, retention)
        self._interval = checkpoint_interval
        self._slides = 0

    def _on_slide(self, arrived) -> None:
        # Lines 2-3 and 6-8: a checkpoint for the arriving slide (every
        # ``checkpoint_interval``-th one), then all checkpoints absorb it.
        self._open_and_feed(arrived, opens=self._slides % self._interval == 0)
        self._slides += 1
        # Lines 4-5: Λ[1] outgrew the window once it starts before it; it
        # goes as soon as its successor covers the whole window (at
        # start-up, on misaligned slides or with a checkpoint interval the
        # successor may not yet — then the head keeps answering).
        checkpoints = self._checkpoints
        window_start = max(1, self.now - self.window_size + 1)
        while (
            len(checkpoints) > 1
            and checkpoints[0].start < window_start
            and checkpoints[1].start <= window_start
        ):
            del checkpoints[0]

    def _answering(self) -> ReferenceCheckpoint:
        """``Λ_t[1]`` (lines 9-10)."""
        return self._checkpoints[0]


class ReferenceSIC(_ReferenceFramework):
    """Algorithm 2: prune by the ``(1−β)`` rule, keep one expired checkpoint."""

    def __init__(
        self,
        window_size: int,
        k: int,
        beta: float = 0.1,
        oracle: str = "sieve",
        func: Optional[InfluenceFunction] = None,
        retention: Optional[int] = None,
        oracle_beta: Optional[float] = None,
    ):
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {beta}")
        guess_beta = oracle_beta if oracle_beta is not None else beta
        super().__init__(window_size, k, oracle, guess_beta, func, retention)
        self._beta = beta
        self.pruned_total = 0

    def _on_slide(self, arrived) -> None:
        # Lines 2-8: a checkpoint for the arriving slide, then feed all.
        self._open_and_feed(arrived, opens=True)
        checkpoints = self._checkpoints
        # Lines 9-20: from each retained x_i, delete x_{i+1} while both it
        # and its successor are within (1-β) of Λ[x_i] — the successor
        # approximates the deleted ones from then on (Lemma 2).
        i = 0
        while i < len(checkpoints):
            bar = (1.0 - self._beta) * checkpoints[i].value
            while (
                i + 2 < len(checkpoints)
                and checkpoints[i + 1].value >= bar
                and checkpoints[i + 2].value >= bar
            ):
                del checkpoints[i + 1]
                self.pruned_total += 1
            i += 1
        # Lines 21-23: keep exactly one expired checkpoint, Λ_t[x_0].
        now, size = self.now, self.window_size
        while len(checkpoints) > 1 and not checkpoints[1].covers_window(now, size):
            del checkpoints[0]

    def _answering(self) -> ReferenceCheckpoint:
        """``Λ_t[x_1]``, the oldest non-expired checkpoint (line 25)."""
        now, size = self.now, self.window_size
        for checkpoint in self._checkpoints:
            if checkpoint.covers_window(now, size):
                return checkpoint
        return self._checkpoints[-1]
