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

The slide loop, the shared-index data plane and persistence live in
:class:`~repro.core.framework.CheckpointFramework`; this module is IC's
policy — when a checkpoint opens, when the head retires, and which
checkpoint answers.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.framework import CheckpointFramework
from repro.influence.functions import InfluenceFunction

__all__ = ["InfluentialCheckpoints"]


class InfluentialCheckpoints(CheckpointFramework):
    """Continuous SIM processing with one checkpoint per window slide."""

    algorithm = "ic"

    def __init__(
        self,
        window_size: int,
        k: int,
        beta: float = 0.1,
        oracle: str = "sieve",
        func: Optional[InfluenceFunction] = None,
        retention: Optional[int] = None,
        shared_index: bool = True,
        checkpoint_interval: int = 1,
        shard=None,
        columnar: Optional[bool] = None,
    ):
        """
        Args:
            beta: Guess-granularity parameter of the threshold oracles.
            oracle: Registered oracle name (default the paper's case study,
                SieveStreaming).
            checkpoint_interval: Open a new checkpoint only every this many
                slides (must be >= 1).  Values above 1 keep ``c×`` fewer
                checkpoints at the cost of the answer covering up to
                ``c·L − 1`` extra actions.

        The remaining arguments are
        :class:`~repro.core.framework.CheckpointFramework`'s.
        """
        if checkpoint_interval < 1:
            raise ValueError(
                "checkpoint_interval must be a positive number of slides, "
                f"got {checkpoint_interval}"
            )
        super().__init__(
            window_size, k, oracle=oracle, oracle_beta=beta, func=func,
            retention=retention, shared_index=shared_index, shard=shard,
            columnar=columnar,
        )
        self._interval = checkpoint_interval
        self._slide_index = 0

    @property
    def checkpoint_interval(self) -> int:
        """Slides between consecutive checkpoint openings."""
        return self._interval

    def _opens_checkpoint(self) -> bool:
        """Every ``checkpoint_interval``-th slide opens one (and counts the slide)."""
        index = self._slide_index
        self._slide_index = index + 1
        return index % self._interval == 0

    def _retire(self) -> None:
        """Algorithm 1 lines 2-5: retire the head that outgrew the window."""
        roster = self._roster
        now, size = self.now, self.window_size
        while roster and not roster[0].covers_window(now, size):
            # The oldest checkpoint covers more than N actions.  Drop it
            # unless it is the only one still covering the whole window
            # (start-up/misaligned-slide corner: the next checkpoint would
            # cover strictly less than the window).
            if len(roster) > 1 and roster[1].start <= max(1, now - size + 1):
                self._pop_oldest()
            else:
                break

    def _answering(self):
        """``Λ_t[1]`` (Algorithm 1 lines 9-10)."""
        return self._roster[0]

    def _policy_to_state(self) -> Tuple[dict, dict]:
        return (
            {"checkpoint_interval": self._interval},
            {"slide_index": self._slide_index},
        )

    @classmethod
    def _policy_from_state(cls, config: dict, state: dict, **common):
        algorithm = cls(
            checkpoint_interval=config["checkpoint_interval"], **common
        )
        algorithm._slide_index = state["slide_index"]
        return algorithm
