"""The continuous-query loop driving any SIM algorithm over a stream.

One :func:`run_algorithm` call reproduces the paper's measurement protocol
(Section 6.1): stream the dataset in slides of ``L`` actions; per slide,
time the approach's maintenance *and* answer retrieval (the recompute-on-
query baselines do their work at query time), then score the returned seeds
against ground truth — the exact window influence value always, the
Monte-Carlo WC spread when requested.

Results are averaged over all measured windows, matching "the average
influence spread of all windows" quality metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.actions import Action
from repro.core.base import SIMAlgorithm
from repro.core.stream import batched
from repro.experiments.metrics import StreamEvaluator, ThroughputMeter

__all__ = ["RunResult", "run_algorithm", "build_algorithm", "make_stream"]


@dataclass(frozen=True)
class RunResult:
    """Aggregated measurements of one (algorithm, stream) run.

    Attributes:
        name: Algorithm label.
        throughput: Actions/second over all timed slides.
        mean_influence_value: Average exact ``|I_t(S)|`` of returned seeds.
        mean_quality: Average MC spread (None unless quality evaluation on).
        mean_checkpoints: Average live checkpoints (None for baselines).
        queries: Number of measured windows.
        elapsed: Total timed seconds.
    """

    name: str
    throughput: float
    mean_influence_value: float
    mean_quality: Optional[float]
    mean_checkpoints: Optional[float]
    queries: int
    elapsed: float


def run_algorithm(
    algorithm: SIMAlgorithm,
    stream: Iterable[Action],
    slide: int,
    name: str = "",
    evaluate_quality: bool = False,
    mc_rounds: int = 200,
    quality_every: int = 1,
    warmup_fraction: float = 0.25,
    mc_seed: int = 97,
) -> RunResult:
    """Drive ``algorithm`` over ``stream`` and measure it.

    Args:
        algorithm: The SIM processor under test.
        stream: The action stream.
        slide: Actions per window slide (``L``).
        name: Label for reporting (defaults to the class name).
        evaluate_quality: Also compute the Monte-Carlo WC spread.
        mc_rounds: MC rounds per quality evaluation.
        quality_every: Evaluate quality every this many slides (MC is the
            expensive part; the paper evaluates per window — keep 1 for
            fidelity, raise for speed).
        warmup_fraction: Fraction of the stream consumed before measurement
            starts, so windows are full and checkpoint populations are in
            steady state.
        mc_seed: RNG seed for the quality simulations.
    """
    if slide <= 0:
        raise ValueError(f"slide must be positive, got {slide}")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup fraction must be in [0, 1), got {warmup_fraction}")
    label = name or type(algorithm).__name__
    evaluator = StreamEvaluator(algorithm.window_size)
    meter = ThroughputMeter()
    value_sum = 0.0
    quality_sum = 0.0
    quality_count = 0
    checkpoint_sum = 0.0
    checkpoint_count = 0
    queries = 0

    batches = list(batched(stream, slide))
    warmup = int(len(batches) * warmup_fraction)
    for i, batch in enumerate(batches):
        evaluator.feed(batch)
        measuring = i >= warmup
        if measuring:
            meter.start()
        algorithm.process(batch)
        answer = algorithm.query()
        if measuring:
            meter.stop(len(batch))
            queries += 1
            value_sum += evaluator.influence_value(answer.seeds)
            if evaluate_quality and queries % quality_every == 0:
                quality_sum += evaluator.quality(
                    answer.seeds, mc_rounds=mc_rounds, seed=mc_seed + i
                )
                quality_count += 1
            count = getattr(algorithm, "checkpoint_count", None)
            if count is not None:
                checkpoint_sum += count
                checkpoint_count += 1

    return RunResult(
        name=label,
        throughput=meter.throughput,
        mean_influence_value=(value_sum / queries) if queries else 0.0,
        mean_quality=(quality_sum / quality_count) if quality_count else None,
        mean_checkpoints=(
            checkpoint_sum / checkpoint_count if checkpoint_count else None
        ),
        queries=queries,
        elapsed=meter.elapsed,
    )


def build_algorithm(name: str, config) -> SIMAlgorithm:
    """Instantiate one of the paper's five approaches from a config.

    Accepted names: ``sic``, ``ic``, ``greedy``, ``imm``, ``ubi``.
    """
    from repro.baselines.adapters import IMMAlgorithm, UBIAlgorithm
    from repro.core.greedy import WindowedGreedy
    from repro.core.ic import InfluentialCheckpoints
    from repro.core.sic import SparseInfluentialCheckpoints

    key = name.lower()
    # columnar=False: the figure regenerators reproduce the *paper's*
    # IC-vs-SIC comparison, whose time/space tradeoff lives in the
    # per-checkpoint oracle plane (Fig. 7's "SIC faster than IC" follows
    # from SIC maintaining fewer checkpoints).  The columnar kernel
    # collapses per-checkpoint oracle cost and, at experiment scales,
    # erases that ordering — its own cost is measured separately by
    # bench/'s engine_ic_l1 workload.
    if key == "sic":
        return SparseInfluentialCheckpoints(
            window_size=config.window_size,
            k=config.k,
            beta=config.beta,
            oracle=config.oracle,
            columnar=False,
        )
    if key == "ic":
        return InfluentialCheckpoints(
            window_size=config.window_size,
            k=config.k,
            beta=config.beta,
            oracle=config.oracle,
            columnar=False,
        )
    if key == "greedy":
        # lazy=False: the paper's baseline is the naive O(k·|U|) greedy.
        return WindowedGreedy(
            window_size=config.window_size, k=config.k, lazy=False
        )
    if key == "imm":
        return IMMAlgorithm(
            window_size=config.window_size,
            k=config.k,
            seed=config.seed,
            max_rr_sets=5_000,
        )
    if key == "ubi":
        return UBIAlgorithm(
            window_size=config.window_size,
            k=config.k,
            rr_samples=1_000,
            seed=config.seed,
        )
    raise KeyError(f"unknown algorithm {name!r}")


def make_stream(config) -> Iterable[Action]:
    """Instantiate the dataset named by ``config.dataset`` at config size."""
    from repro.datasets.surrogates import reddit_like, twitter_like
    from repro.datasets.synthetic import syn_n, syn_o

    makers: dict = {
        "reddit": reddit_like,
        "twitter": twitter_like,
        "syn-o": syn_o,
        "syn-n": syn_n,
    }
    maker = makers[config.dataset]
    return maker(
        n_users=config.n_users, n_actions=config.n_actions, seed=config.seed
    )
