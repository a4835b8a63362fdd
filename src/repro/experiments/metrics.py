"""Measurement utilities: throughput, exact influence value, MC quality.

The paper's two metrics (Section 6.1):

* **Throughput** — actions per second of wall-clock time
  (``time.perf_counter``) spent maintaining (and, for the recompute-on-query
  baselines, answering) each approach, measured per window slide of ``L``
  actions.
* **Quality** — the expected IC-model spread of the returned seeds on the
  window's influence graph under WC probabilities, by Monte-Carlo
  simulation.

:class:`StreamEvaluator` maintains the *exact* window influence index
independently of the algorithm under test, so influence values and quality
are computed from ground truth rather than the algorithm's own caches, and
the evaluator's cost never pollutes throughput numbers.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.core.actions import Action
from repro.core.diffusion import DiffusionForest
from repro.core.influence_index import InfluenceWindow, SuffixView
from repro.diffusion.monte_carlo import estimate_spread
from repro.graphs.influence_graph import build_influence_graph

__all__ = ["ThroughputMeter", "RateEstimator", "StreamEvaluator"]


class ThroughputMeter:
    """Accumulates timed work and reports actions/second."""

    def __init__(self) -> None:
        self._elapsed = 0.0
        self._actions = 0
        self._started: Optional[float] = None

    def start(self) -> None:
        """Begin timing one slide."""
        if self._started is not None:
            raise RuntimeError("meter already started")
        self._started = time.perf_counter()

    def stop(self, actions: int) -> float:
        """End timing; credit ``actions`` processed.  Returns the interval."""
        if self._started is None:
            raise RuntimeError("meter was not started")
        interval = time.perf_counter() - self._started
        self._started = None
        self._elapsed += interval
        self._actions += actions
        return interval

    @property
    def elapsed(self) -> float:
        """Total timed seconds."""
        return self._elapsed

    @property
    def actions(self) -> int:
        """Total credited actions."""
        return self._actions

    @property
    def throughput(self) -> float:
        """Actions per second (0.0 before any measurement)."""
        if self._elapsed <= 0.0:
            return 0.0
        return self._actions / self._elapsed


class RateEstimator:
    """Exponentially-decayed event rate (events/second).

    Unlike :class:`ThroughputMeter`, which reports a lifetime average over
    explicitly timed work, this estimator answers "how fast *right now*":
    each recorded count and the elapsed time behind it decay with a
    half-life, so the reported rate tracks the recent past.  The serving
    plane uses it for the ``/metrics`` ingest rate.
    """

    def __init__(self, halflife: float = 10.0, clock=time.monotonic):
        """
        Args:
            halflife: Seconds after which a recorded count weighs half.
            clock: Monotonic time source (injectable for tests).
        """
        if halflife <= 0:
            raise ValueError(f"halflife must be positive, got {halflife}")
        self._halflife = halflife
        self._clock = clock
        self._count = 0.0
        self._elapsed = 0.0
        self._last: Optional[float] = None
        self._total = 0
        self._first: Optional[float] = None

    def record(self, count: int = 1) -> None:
        """Credit ``count`` events at the current clock reading."""
        now = self._clock()
        self._total += count
        if self._first is None:
            self._first = now
        if self._last is not None:
            interval = max(now - self._last, 0.0)
            weight = 0.5 ** (interval / self._halflife)
            self._count = self._count * weight + count
            self._elapsed = self._elapsed * weight + interval
        else:
            self._count = float(count)
        self._last = now

    @property
    def rate(self) -> float:
        """Decayed events/second (0.0 until two recordings exist)."""
        last = self._last
        if last is None or self._elapsed <= 0.0:
            return 0.0
        # Decay up to the present so an idle stream's rate falls off.
        interval = max(self._clock() - last, 0.0)
        weight = 0.5 ** (interval / self._halflife)
        count = self._count * weight
        elapsed = self._elapsed * weight + interval
        if elapsed <= 0.0:
            return 0.0
        return count / elapsed

    @property
    def total(self) -> int:
        """Undecayed lifetime event count."""
        return self._total

    @property
    def lifetime_rate(self) -> float:
        """Lifetime events/second since the first recording (undecayed)."""
        first = self._first
        if first is None:
            return 0.0
        elapsed = max(self._clock() - first, 0.0)
        if elapsed <= 0.0:
            return 0.0
        return self._total / elapsed


class StreamEvaluator:
    """Ground-truth window state for influence values and MC quality."""

    def __init__(self, window_size: int):
        self._forest = DiffusionForest()
        self._window = InfluenceWindow(window_size)

    @property
    def index(self) -> SuffixView:
        """The window's exact influence sets (a read-only suffix view)."""
        return self._window.view()

    def feed(self, batch: Sequence[Action]) -> None:
        """Advance the ground-truth window by one slide."""
        self._window.slide([self._forest.add(action) for action in batch])

    def influence_value(self, seeds) -> float:
        """Exact ``|I_t(seeds)|`` for the current window."""
        return float(len(self._window.view().coverage(seeds)))

    def quality(
        self,
        seeds,
        mc_rounds: int = 200,
        seed: Optional[int] = None,
    ) -> float:
        """Expected WC-model spread of ``seeds`` on the window's ``G_t``."""
        graph = build_influence_graph(self._window.view())
        return estimate_spread(graph, seeds, rounds=mc_rounds, seed=seed)
