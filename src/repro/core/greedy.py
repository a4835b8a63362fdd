"""Windowed greedy baseline for SIM (Section 4's naive scheme).

The classic greedy of Nemhauser et al. applied directly to the current
window: start from ``S = ∅`` and repeatedly add the user maximising the
marginal influence gain, giving the best-possible ``(1 − 1/e)`` ratio for
monotone submodular maximisation under a cardinality constraint.  As in the
paper, no intermediate state is kept across windows — every query recomputes
from the window's exact influence sets, which is why greedy cannot keep up
with fast streams (the motivating observation of Section 1).

The implementation uses CELF lazy evaluation (Leskovec et al. 2007): cached
marginal gains are re-evaluated only when they surface at the top of a
max-heap, which is admissible because submodularity makes stale gains upper
bounds.  This only speeds greedy up: both the heap and the naive
``O(k·|U|)`` loop pick the maximum gain, then the lowest user id, so they
select identical seeds whatever order the candidates come in.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.base import (
    STATE_FORMAT_VERSION,
    SIMAlgorithm,
    SIMResult,
    check_state_header,
)
from repro.core.diffusion import ActionRecord
from repro.core.influence_index import InfluenceWindow, SuffixView
from repro.influence.functions import (
    CardinalityInfluence,
    InfluenceFunction,
    function_from_state,
)

__all__ = ["WindowedGreedy", "greedy_seed_selection"]


def greedy_seed_selection(
    index,
    candidates,
    k: int,
    func: InfluenceFunction,
    lazy: bool = True,
) -> Tuple[Set[int], float]:
    """Greedy on an influence index; returns ``(seeds, value)``.

    Args:
        index: Any influence index exposing ``influence_set``/``coverage``.
        candidates: Iterable of candidate seed users (any order).
        k: Maximum number of seeds.
        func: Monotone submodular influence function.
        lazy: Use CELF lazy evaluation (identical seeds, faster).  The
            paper's baseline is the naive ``O(k·|U|)`` loop — pass False to
            reproduce its cost profile in benchmarks.
    """
    if not lazy:
        return _naive_greedy(index, candidates, k, func)
    modular = func.modular
    covered: Set[int] = set()
    seeds: Set[int] = set()
    value = 0.0

    def gain_of(user: int) -> float:
        if modular:
            weight = func.weight
            return sum(
                weight(v) for v in index.influence_set(user) if v not in covered
            )
        return func.evaluate(list(seeds) + [user], index) - value

    # Max-heap of (-cached_gain, user, round_stamp): the top is the maximum
    # gain, then the lowest user id.  Stale stamps trigger re-evaluation
    # (CELF).
    heap: List[Tuple[float, int, int]] = []
    for user in candidates:
        gain = gain_of(user)
        if gain > 0.0:
            heap.append((-gain, user, 0))
    heapq.heapify(heap)

    round_stamp = 0
    while heap and len(seeds) < k:
        neg_gain, user, stamp = heapq.heappop(heap)
        if user in seeds:
            continue
        if stamp != round_stamp:
            fresh = gain_of(user)
            if fresh > 0.0:
                heapq.heappush(heap, (-fresh, user, round_stamp))
            continue
        if -neg_gain <= 0.0:
            break
        seeds.add(user)
        if modular:
            covered.update(index.influence_set(user))
            value += -neg_gain
        else:
            value = func.evaluate(seeds, index)
        round_stamp += 1

    return seeds, value


def _naive_greedy(
    index, candidates, k: int, func: InfluenceFunction
) -> Tuple[Set[int], float]:
    """The paper's plain greedy: re-scan every candidate per iteration.

    The scan runs in ascending user id, so the first maximum it keeps is
    the key CELF's heap orders by: maximum gain, then lowest user id.
    """
    pool = [(user, index.influence_set(user)) for user in sorted(candidates)]
    modular = func.modular
    covered: Set[int] = set()
    seeds: Set[int] = set()
    value = 0.0
    weight = func.weight if modular else None
    for _ in range(k):
        best_user = None
        best_gain = 0.0
        for user, members in pool:
            if user in seeds:
                continue
            if modular:
                gain = sum(weight(v) for v in members if v not in covered)
            else:
                gain = func.evaluate(list(seeds) + [user], index) - value
            if gain > best_gain:
                best_user, best_gain = user, gain
        if best_user is None:
            break
        seeds.add(best_user)
        if modular:
            covered.update(index.influence_set(best_user))
            value += best_gain
        else:
            value = func.evaluate(seeds, index)
    return seeds, value


class WindowedGreedy(SIMAlgorithm):
    """``(1 − 1/e)``-approximate SIM by per-query greedy recomputation."""

    def __init__(
        self,
        window_size: int,
        k: int,
        func: Optional[InfluenceFunction] = None,
        retention: Optional[int] = None,
        lazy: bool = True,
    ):
        """``lazy=False`` reproduces the paper's naive greedy baseline."""
        super().__init__(window_size=window_size, k=k, retention=retention)
        self._func = func if func is not None else CardinalityInfluence()
        self._window = InfluenceWindow(window_size)
        self._lazy = lazy

    @property
    def index(self) -> SuffixView:
        """The window's exact influence sets (a read-only suffix view)."""
        return self._window.view()

    def _on_slide(self, arrived: Sequence[ActionRecord]) -> None:
        self._window.slide(arrived)

    def query(self) -> SIMResult:
        """Run greedy over the current window from scratch."""
        index = self._window.view()
        seeds, value = greedy_seed_selection(
            index, index, self._k, self._func, lazy=self._lazy
        )
        return SIMResult(time=self.now, seeds=frozenset(seeds), value=value)

    # -- persistence -------------------------------------------------------

    def config_state(self) -> dict:
        """The ``algorithm`` tag and construction ``config`` of :meth:`to_state`."""
        return {
            "algorithm": "greedy",
            "config": {
                "window_size": self.window_size,
                "k": self._k,
                "func": self._func.to_state(),
                "retention": self._forest._retention,
                "lazy": self._lazy,
            },
        }

    def to_state(self) -> dict:
        """Explicit state: config, base bookkeeping, and the window's
        records (under ``index``; restore replays them)."""
        return {
            "format": STATE_FORMAT_VERSION,
            **self.config_state(),
            "base": self._base_state(),
            "index": self._window.to_state(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "WindowedGreedy":
        """Rebuild a windowed greedy from :meth:`to_state` output."""
        check_state_header(state, "greedy")
        config = state["config"]
        algorithm = cls(
            window_size=config["window_size"],
            k=config["k"],
            func=function_from_state(config["func"]),
            retention=config["retention"],
            lazy=config["lazy"],
        )
        algorithm._restore_base(state["base"])
        algorithm._window = InfluenceWindow.from_state(
            state["index"], algorithm.window_size
        )
        return algorithm
