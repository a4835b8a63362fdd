"""Adapters exposing the graph baselines as continuous SIM processors.

Section 6.1's protocol: at each window slide the influence graph ``G_t`` is
rebuilt from the window's influence relationships (WC probabilities), then

* **IMM** is re-run from scratch on ``G_t`` (a static method: every update
  requires a complete rerun — the cost the paper's Figures 9-12 expose);
* **UBI** absorbs ``G_t`` as the next graph of its chronological sequence
  and interchanges seeds incrementally.

Both adapters reuse :class:`~repro.core.base.SIMAlgorithm`'s clock/forest
plumbing plus the window every algorithm answers over
(:class:`~repro.core.influence_index.InfluenceWindow`), so graph
construction is shared and identical across baselines.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.baselines.imm import imm_select
from repro.baselines.ubi import UpperBoundInterchange
from repro.core.base import SIMAlgorithm, SIMResult
from repro.core.diffusion import ActionRecord
from repro.core.influence_index import InfluenceWindow, SuffixView
from repro.graphs.influence_graph import build_influence_graph

__all__ = ["IMMAlgorithm", "UBIAlgorithm"]


class IMMAlgorithm(SIMAlgorithm):
    """Static IMM re-run on every query (the paper's static baseline)."""

    def __init__(
        self,
        window_size: int,
        k: int,
        epsilon: float = 0.5,
        ell: float = 1.0,
        seed: Optional[int] = None,
        max_rr_sets: int = 50_000,
        retention: Optional[int] = None,
    ):
        super().__init__(window_size=window_size, k=k, retention=retention)
        self._epsilon = epsilon
        self._ell = ell
        self._seed = seed
        self._max_rr_sets = max_rr_sets
        self._window = InfluenceWindow(window_size)

    @property
    def index(self) -> SuffixView:
        """The window's exact influence sets the graph is built from."""
        return self._window.view()

    def _on_slide(self, arrived: Sequence[ActionRecord]) -> None:
        self._window.slide(arrived)

    def query(self) -> SIMResult:
        """Rebuild ``G_t`` and run IMM from scratch."""
        graph = build_influence_graph(self._window.view())
        result = imm_select(
            graph,
            self._k,
            epsilon=self._epsilon,
            ell=self._ell,
            seed=self._seed,
            max_rr_sets=self._max_rr_sets,
        )
        return SIMResult(
            time=self.now,
            seeds=frozenset(result.seeds),
            value=result.spread_estimate,
        )


class UBIAlgorithm(SIMAlgorithm):
    """UBI fed the chronological sequence of window influence graphs."""

    def __init__(
        self,
        window_size: int,
        k: int,
        gamma: float = 0.01,
        rr_samples: int = 2_000,
        seed: Optional[int] = None,
        retention: Optional[int] = None,
    ):
        super().__init__(window_size=window_size, k=k, retention=retention)
        self._window = InfluenceWindow(window_size)
        self._ubi = UpperBoundInterchange(
            k=k, gamma=gamma, rr_samples=rr_samples, seed=seed
        )
        self._last_spread = 0.0

    @property
    def index(self) -> SuffixView:
        """The window's exact influence sets the graphs are built from."""
        return self._window.view()

    @property
    def tracker(self) -> UpperBoundInterchange:
        """The underlying UBI state (for diagnostics)."""
        return self._ubi

    def _on_slide(self, arrived: Sequence[ActionRecord]) -> None:
        self._window.slide(arrived)
        graph = build_influence_graph(self._window.view())
        self._ubi.update(graph)
        self._last_spread = self._ubi.spread_estimate(graph)

    def query(self) -> SIMResult:
        """Return the incrementally maintained seeds."""
        return SIMResult(
            time=self.now,
            seeds=self._ubi.seeds,
            value=self._last_spread,
        )
