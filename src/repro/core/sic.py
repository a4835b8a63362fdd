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

The slide loop, the shared-index data plane and persistence live in
:class:`~repro.core.framework.CheckpointFramework`; this module is SIC's
policy — the prune, the retained expired head, and which checkpoint
answers.  On the shared index a pruned checkpoint costs nothing afterwards
(views hold no per-checkpoint state), so SIC's per-action cost is
O(d + feeds) with index memory equal to the distinct visible pairs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.checkpoint import Checkpoint
from repro.core.framework import CheckpointFramework
from repro.influence.functions import InfluenceFunction

__all__ = ["SparseInfluentialCheckpoints"]


class SparseInfluentialCheckpoints(CheckpointFramework):
    """Continuous SIM with logarithmically many checkpoints (Algorithm 2)."""

    algorithm = "sic"

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
        shard=None,
        columnar: Optional[bool] = None,
    ):
        """
        Args:
            beta: SIC's pruning parameter β ∈ (0, 1) — the quality/efficiency
                trade-off of Section 6.2.  Also reused as the oracle's guess
                granularity unless ``oracle_beta`` overrides it (the paper
                uses a single β for both).
            oracle: Registered checkpoint-oracle name.
            oracle_beta: Optional separate β for the oracle's OPT guessing.

        The remaining arguments are
        :class:`~repro.core.framework.CheckpointFramework`'s.
        """
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {beta}")
        super().__init__(
            window_size, k, oracle=oracle, func=func, retention=retention,
            oracle_beta=oracle_beta if oracle_beta is not None else beta,
            shared_index=shared_index, shard=shard, columnar=columnar,
        )
        self._beta = beta
        self._pruned_total = 0

    @property
    def beta(self) -> float:
        """The pruning parameter β."""
        return self._beta

    @property
    def pruned_total(self) -> int:
        """Checkpoints deleted by the pruning rule since construction."""
        return self._pruned_total

    def _retire(self) -> None:
        """Algorithm 2 lines 9-23: prune, then keep one expired checkpoint."""
        self._prune()
        # Lines 21-23: exactly one expired checkpoint (the paper's
        # ``Λ_t[x_0]``) stays, to upper-bound the full window's optimum.
        now, size = self.now, self.window_size
        roster = self._roster
        while len(roster) > 1 and not roster[1].covers_window(now, size):
            self._pop_oldest()

    def _prune(self) -> None:
        """Lines 9-20: delete checkpoints approximated by their successors."""
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

    def _answering(self):
        """``Λ_t[x_1]`` (Algorithm 2 line 25)."""
        now, size = self.now, self.window_size
        for checkpoint in self._roster.checkpoints:
            if checkpoint.covers_window(now, size):
                return checkpoint
        # All checkpoints expired (cannot happen after a slide, as the newest
        # always covers the window); fall back to the newest.
        return self._roster.checkpoints[-1]

    def _policy_to_state(self) -> Tuple[dict, dict]:
        return {"beta": self._beta}, {"pruned_total": self._pruned_total}

    @classmethod
    def _policy_from_state(cls, config: dict, state: dict, **common):
        algorithm = cls(beta=config["beta"], **common)
        algorithm._pruned_total = state["pruned_total"]
        return algorithm
