"""Exact optima and empirical approximation ratios for small streams.

The paper's guarantees are worst-case; reviewers (and users picking β)
want to know the *empirical* ratio.  This module provides:

* :func:`exact_optimum` — brute-force ``OPT_t`` over an influence index
  with branch-and-bound pruning (feasible up to a few dozen candidates);
* :class:`RatioTracker` — drive any SIM algorithm and the exact optimum
  side by side over a stream, recording the per-window ratio
  ``f(I_t(S_algo)) / OPT_t``.

Used by the EXPERIMENTS.md quality analysis and by the theory tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.actions import Action
from repro.core.base import SIMAlgorithm
from repro.core.stream import batched
from repro.experiments.metrics import StreamEvaluator
from repro.influence.functions import CardinalityInfluence, InfluenceFunction

__all__ = ["exact_optimum", "RatioTracker", "RatioReport"]

#: Refuse brute force beyond this candidate count (combinatorial blow-up).
MAX_CANDIDATES = 40


def exact_optimum(
    index,
    k: int,
    func: Optional[InfluenceFunction] = None,
) -> Tuple[frozenset, float]:
    """Exhaustively find the best ≤k seed set on an influence index.

    Candidates are the users the index iterates, pre-pruned: a user whose
    influence set is a subset of another user's can never be needed
    alongside it, but for correctness we only drop exact duplicates.

    Raises:
        TypeError: when ``index`` cannot be iterated (its candidates are
            unknown, so no optimum can be claimed).
        ValueError: beyond :data:`MAX_CANDIDATES` distinct candidates.
    """
    func = func if func is not None else CardinalityInfluence()
    try:
        users = iter(index)
    except TypeError:
        raise TypeError(
            f"exact_optimum needs an index that iterates its influencers; "
            f"{type(index).__name__} does not"
        ) from None
    # Deduplicate users with identical influence sets.
    seen = {}
    for user in users:
        key = frozenset(index.influence_set(user))
        if key and key not in seen:
            seen[key] = user
    candidates = sorted(seen.values())
    if len(candidates) > MAX_CANDIDATES:
        raise ValueError(
            f"{len(candidates)} candidates exceed the brute-force limit "
            f"({MAX_CANDIDATES}); use a smaller window"
        )
    best_value = 0.0
    best_set: frozenset = frozenset()
    for size in range(1, min(k, len(candidates)) + 1):
        for combo in itertools.combinations(candidates, size):
            value = func.evaluate(combo, index)
            if value > best_value:
                best_value = value
                best_set = frozenset(combo)
    return best_set, best_value


@dataclass(frozen=True)
class RatioReport:
    """Summary of an empirical-ratio run.

    Attributes:
        ratios: Per-measured-window ``achieved / OPT`` values (1.0 when the
            optimum is 0).
        worst: The minimum ratio.
        mean: The average ratio.
        windows: Number of measured windows.
    """

    ratios: Tuple[float, ...]

    @property
    def worst(self) -> float:
        """The minimum observed ratio (1.0 for an empty report)."""
        return min(self.ratios) if self.ratios else 1.0

    @property
    def mean(self) -> float:
        """The average observed ratio (1.0 for an empty report)."""
        if not self.ratios:
            return 1.0
        return sum(self.ratios) / len(self.ratios)

    @property
    def windows(self) -> int:
        """Number of measured windows."""
        return len(self.ratios)


class RatioTracker:
    """Measure an algorithm's per-window ratio against the exact optimum."""

    def __init__(self, algorithm: SIMAlgorithm, func: Optional[InfluenceFunction] = None):
        self._algorithm = algorithm
        self._func = func if func is not None else CardinalityInfluence()
        self._evaluator = StreamEvaluator(algorithm.window_size)

    def run(
        self,
        actions: Sequence[Action],
        slide: int = 1,
        warmup_windows: int = 0,
    ) -> RatioReport:
        """Drive the algorithm over ``actions`` and collect ratios."""
        ratios: List[float] = []
        for i, batch in enumerate(batched(actions, slide)):
            self._evaluator.feed(batch)
            self._algorithm.process(batch)
            if i < warmup_windows:
                continue
            answer = self._algorithm.query()
            achieved = self._func.evaluate(answer.seeds, self._evaluator.index)
            _, optimum = exact_optimum(
                self._evaluator.index, self._algorithm.k, self._func
            )
            ratios.append(achieved / optimum if optimum > 0 else 1.0)
        return RatioReport(ratios=tuple(ratios))
