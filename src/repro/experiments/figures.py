"""The paper's figures and tables: one registry entry per artefact.

Every figure and table of Section 6 is one :class:`Artefact` in
:data:`REGISTRY`: its name, the paper's claim in one sentence, the sweep
that generates it, the datasets it is defined on, and the claims its check
reads off the generated table as PASS/FAIL lines.  The experiments CLI,
the tests and the committed ``RESULTS.md`` all iterate this one list.

Each sweep takes the datasets to run, the
:class:`~repro.experiments.config.Scale` and the stream seed, plus its own
grid (default: Table 4 relative to the scale), and returns
``{artefact name: ExperimentTable}``; artefacts that share a sweep share
one call.  Claim tolerances are the ones the figure benchmarks used; a
claim that does not hold at a scale is reported FAIL there, not loosened.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.ic import InfluentialCheckpoints
from repro.experiments.config import (
    BETA_GRID,
    DATASETS,
    K_GRID,
    L_FRACTIONS,
    N_FACTORS,
    U_FACTORS,
    ExperimentConfig,
    Scale,
    make_config,
)
from repro.experiments.reporting import ExperimentTable
from repro.experiments.runner import build_algorithm, make_stream, run_algorithm

__all__ = [
    "Claim",
    "Artefact",
    "REGISTRY",
    "fig5_6_7",
    "fig8_9",
    "fig10",
    "fig11",
    "fig12",
    "table2",
    "table3",
]

#: The five compared approaches of Section 6.1, fastest first.
ALL_ALGORITHMS: Tuple[str, ...] = ("sic", "ic", "greedy", "imm", "ubi")

#: Table 3's average cascade depth per dataset.
PAPER_DEPTH: Dict[str, float] = {
    "reddit": 4.58, "twitter": 1.87, "syn-o": 2.5, "syn-n": 2.59,
}


def _run(config: ExperimentConfig, algorithm_name: str, **kwargs):
    algorithm = build_algorithm(algorithm_name, config)
    stream = make_stream(config)
    return run_algorithm(
        algorithm,
        stream,
        slide=config.slide,
        name=algorithm_name.upper(),
        **kwargs,
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def fig5_6_7(
    datasets: Sequence[str],
    scale: Scale = Scale.SMALL,
    seed: int = 7,
    betas: Sequence[float] = BETA_GRID,
) -> Dict[str, ExperimentTable]:
    """One β sweep yielding Figures 5 (value), 6 (checkpoints), 7 (rate).

    Figures 5 and 6 also carry IC-THIN: IC opening a checkpoint only every
    ``j``-th slide, ``j`` chosen so its population matches SIC's — the
    naive thinning SIC's two-sided pruning rule is measured against.
    """
    value = ExperimentTable(
        "Figure 5: influence value vs beta (IC vs SIC; IC-THIN = IC "
        "thinned to SIC's checkpoint count)",
        ["dataset", "beta", "algorithm", "influence_value"],
    )
    checkpoints = ExperimentTable(
        "Figure 6: number of checkpoints vs beta (IC vs SIC; IC-THIN as in Figure 5)",
        ["dataset", "beta", "algorithm", "checkpoints"],
    )
    throughput = ExperimentTable(
        "Figure 7: throughput vs beta (IC vs SIC)",
        ["dataset", "beta", "algorithm", "throughput"],
    )
    for dataset in datasets:
        for beta in betas:
            config = make_config(dataset, scale, beta=beta, seed=seed)
            results = {algorithm: _run(config, algorithm) for algorithm in ("ic", "sic")}
            interval = max(1, round(
                results["ic"].mean_checkpoints / results["sic"].mean_checkpoints
            ))
            results["ic-thin"] = run_algorithm(
                InfluentialCheckpoints(
                    window_size=config.window_size,
                    k=config.k,
                    beta=beta,
                    oracle=config.oracle,
                    checkpoint_interval=interval,
                    columnar=False,
                ),
                make_stream(config),
                slide=config.slide,
            )
            for algorithm, result in results.items():
                label = algorithm.upper()
                value.add_row(dataset, beta, label, result.mean_influence_value)
                checkpoints.add_row(dataset, beta, label, result.mean_checkpoints)
                if algorithm != "ic-thin":
                    throughput.add_row(dataset, beta, label, result.throughput)
    return {"fig5": value, "fig6": checkpoints, "fig7": throughput}


def fig8_9(
    datasets: Sequence[str],
    scale: Scale = Scale.SMALL,
    seed: int = 7,
    ks: Sequence[int] = K_GRID,
    algorithms: Sequence[str] = ALL_ALGORITHMS,
    mc_rounds: int = 100,
    quality_every: int = 4,
) -> Dict[str, ExperimentTable]:
    """One k sweep yielding Figures 8 (MC quality) and 9 (throughput)."""
    quality = ExperimentTable(
        "Figure 8: solution quality (MC spread under WC) vs k",
        ["dataset", "k", "algorithm", "spread"],
    )
    throughput = ExperimentTable(
        "Figure 9: throughput vs k",
        ["dataset", "k", "algorithm", "throughput"],
    )
    for dataset in datasets:
        for k in ks:
            config = make_config(dataset, scale, k=k, seed=seed)
            for algorithm in algorithms:
                result = _run(
                    config,
                    algorithm,
                    evaluate_quality=True,
                    mc_rounds=mc_rounds,
                    quality_every=quality_every,
                )
                label = algorithm.upper()
                quality.add_row(dataset, k, label, result.mean_quality)
                throughput.add_row(dataset, k, label, result.throughput)
    return {"fig8": quality, "fig9": throughput}


def _throughput_sweep(
    name, title, field, datasets, scale, seed, algorithms, values
) -> Dict[str, ExperimentTable]:
    """Each algorithm's throughput as config ``field`` takes ``values(base)``."""
    table = ExperimentTable(title, ["dataset", field, "algorithm", "throughput"])
    for dataset in datasets:
        base = make_config(dataset, scale, seed=seed)
        for value in values(base):
            config = base.with_overrides(**{field: value})
            for algorithm in algorithms:
                result = _run(config, algorithm)
                table.add_row(dataset, value, algorithm.upper(), result.throughput)
    return {name: table}


def fig10(
    datasets: Sequence[str],
    scale: Scale = Scale.SMALL,
    seed: int = 7,
    factors: Sequence[float] = N_FACTORS,
    algorithms: Sequence[str] = ALL_ALGORITHMS,
) -> Dict[str, ExperimentTable]:
    """Figure 10: throughput with varying window size N.

    Table 4 varies N with L held at its default, so IC's checkpoint
    population ceil(N/L) grows with the window.
    """
    return _throughput_sweep(
        "fig10", "Figure 10: throughput vs window size N", "window_size",
        datasets, scale, seed, algorithms,
        lambda base: [max(base.slide, int(base.window_size * f)) for f in factors],
    )


def fig11(
    datasets: Sequence[str],
    scale: Scale = Scale.SMALL,
    seed: int = 7,
    fractions: Sequence[float] = L_FRACTIONS,
    algorithms: Sequence[str] = ALL_ALGORITHMS,
) -> Dict[str, ExperimentTable]:
    """Figure 11: throughput with varying slide length L.

    Grid points whose slide rounds to one action are dropped: there
    greedy, IMM and UBI recompute after every action and the point costs
    more than the rest of the sweep (at TINY, the paper's 0.002·N).
    """
    return _throughput_sweep(
        "fig11", "Figure 11: throughput vs slide length L", "slide",
        datasets, scale, seed, algorithms,
        lambda base: [s for s in (int(base.window_size * f) for f in fractions) if s > 1],
    )


def fig12(
    datasets: Sequence[str],
    scale: Scale = Scale.SMALL,
    seed: int = 7,
    factors: Sequence[float] = U_FACTORS,
    algorithms: Sequence[str] = ALL_ALGORITHMS,
) -> Dict[str, ExperimentTable]:
    """Figure 12: throughput with varying user-universe size |U|."""
    return _throughput_sweep(
        "fig12", "Figure 12: throughput vs number of users |U|", "n_users",
        datasets, scale, seed, algorithms,
        lambda base: [max(100, int(base.n_users * f)) for f in factors],
    )


def table2(
    datasets: Sequence[str],
    scale: Scale = Scale.SMALL,
    seed: int = 7,
    oracles: Sequence[str] = ("sieve", "threshold", "blog_watch", "mkc"),
) -> Dict[str, ExperimentTable]:
    """Table 2 ablation: the four checkpoint oracles inside SIC."""
    table = ExperimentTable(
        "Table 2 (ablation): checkpoint oracles inside SIC",
        ["dataset", "oracle", "influence_value", "throughput", "checkpoints"],
    )
    for dataset in datasets:
        for oracle in oracles:
            config = make_config(dataset, scale, seed=seed, oracle=oracle)
            result = _run(config, "sic")
            table.add_row(
                dataset,
                oracle,
                result.mean_influence_value,
                result.throughput,
                result.mean_checkpoints,
            )
    return {"table2": table}


def table3(
    datasets: Sequence[str],
    scale: Scale = Scale.SMALL,
    seed: int = 7,
) -> Dict[str, ExperimentTable]:
    """Table 3: dataset statistics (scaled surrogates)."""
    from repro.datasets.stats import stream_statistics

    table = ExperimentTable(
        "Table 3: statistics on datasets",
        ["dataset", "users", "actions", "resp_dist", "avg_depth"],
    )
    for dataset in datasets:
        config = make_config(dataset, scale, seed=seed)
        stats = stream_statistics(make_stream(config))
        table.add_row(
            dataset,
            stats.users,
            stats.actions,
            stats.mean_response_distance,
            stats.mean_depth,
        )
    return {"table3": table}


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    """One checkable reading of a paper claim, with its tolerance.

    Attributes:
        sentence: The claim as printed next to its PASS/FAIL verdict.
        holds: ``(table, dataset) -> bool`` on one dataset's rows.
        timed: The claim reads wall-clock throughput cells, so its verdict
            can change from run to run.
    """

    sentence: str
    holds: Callable[[ExperimentTable, str], bool]
    timed: bool = False


@dataclass(frozen=True)
class Artefact:
    """One figure or table of the paper's Section 6.

    Attributes:
        name: Registry key and CLI command (``fig5`` … ``table3``).
        paper: The paper's claim for the artefact, in one sentence.
        sweep: The generator; returns this artefact's table under ``name``
            (shared with the artefacts it is generated alongside).
        datasets: The datasets the artefact is defined on.
        claims: What the check reads off the table.
    """

    name: str
    paper: str
    sweep: Callable[..., Dict[str, ExperimentTable]]
    datasets: Tuple[str, ...]
    claims: Tuple[Claim, ...]

    def check(self, table: ExperimentTable) -> List[Tuple[Claim, List[str]]]:
        """Each claim with the datasets of ``table`` it fails on (PASS = none)."""
        datasets = [d for d in DATASETS if d in set(table.column("dataset"))]
        return [
            (claim, [d for d in datasets if not claim.holds(table, d)])
            for claim in self.claims
        ]


def _series(table: ExperimentTable, dataset: str, algorithm: str, y: str) -> list:
    """One algorithm's ``y`` values on ``dataset``, in sweep order."""
    return table.series({"dataset": dataset, "algorithm": algorithm}, y)


def _pointwise(sentence, y, lefts, rights, test) -> Claim:
    """``test(left, right)`` at every grid point, for every pair of algorithms."""
    def holds(table, dataset):
        return all(
            test(a, b)
            for left in lefts
            for right in rights
            for a, b in zip(
                _series(table, dataset, left, y), _series(table, dataset, right, y)
            )
        )
    return Claim(sentence, holds, timed=y == "throughput")


def _endpoints(sentence, y, algorithms, test) -> Claim:
    """``test(first, last)`` over each algorithm's series (vacuous below 2 points)."""
    def holds(table, dataset):
        return all(
            len(values) < 2 or test(values[0], values[-1])
            for values in (_series(table, dataset, a, y) for a in algorithms)
        )
    return Claim(sentence, holds, timed=y == "throughput")


def _lead_widens(table: ExperimentTable, dataset: str) -> bool:
    sic = _series(table, dataset, "SIC", "throughput")
    ic = _series(table, dataset, "IC", "throughput")
    return len(ic) < 2 or sic[-1] / ic[-1] >= 0.8 * (sic[0] / ic[0])


def _threshold_oracles_hold(table: ExperimentTable, dataset: str) -> bool:
    oracles = table.series({"dataset": dataset}, "oracle")
    values = dict(zip(oracles, table.series({"dataset": dataset}, "influence_value")))
    best_swap = max(values["blog_watch"], values["mkc"])
    return min(values["sieve"], values["threshold"]) >= 0.8 * best_swap


def _depth_matches_paper(table: ExperimentTable, dataset: str) -> bool:
    depth = table.series({"dataset": dataset}, "avg_depth")[0]
    return abs(depth - PAPER_DEPTH[dataset]) <= 0.3 * PAPER_DEPTH[dataset]


#: The approaches SIC is compared against where the paper has it fastest.
_OTHERS = ("IC", "GREEDY", "IMM", "UBI")

#: Every figure and table of the paper, by name, in the paper's order.
REGISTRY: Dict[str, Artefact] = {artefact.name: artefact for artefact in (
    Artefact(
        "fig5",
        "SIC's influence value stays within about 5% of IC's at every β.",
        fig5_6_7,
        DATASETS,
        (
            _pointwise(
                "SIC's influence value is at least 0.7x IC's at every β.",
                "influence_value", ("SIC",), ("IC",), lambda s, i: s >= 0.7 * i,
            ),
            _pointwise(
                "SIC's two-sided pruning keeps at least 0.8x the influence value "
                "of IC thinned uniformly to SIC's checkpoint count, at every β.",
                "influence_value", ("SIC",), ("IC-THIN",), lambda s, t: s >= 0.8 * t,
            ),
        ),
    ),
    Artefact(
        "fig6",
        "IC keeps ⌈N/L⌉ checkpoints at every β while SIC keeps O(log N / β), "
        "far fewer and fewer still as β grows.",
        fig5_6_7,
        DATASETS,
        (
            Claim(
                "IC's checkpoint count is the same at every β.",
                lambda t, d: len(set(_series(t, d, "IC", "checkpoints"))) <= 1,
            ),
            _pointwise(
                "SIC keeps fewer checkpoints than IC at every β.",
                "checkpoints", ("SIC",), ("IC",), lambda s, i: s < i,
            ),
            _endpoints(
                "SIC keeps no more checkpoints at the largest β than at the smallest.",
                "checkpoints", ("SIC",), lambda first, last: last <= first,
            ),
        ),
    ),
    Artefact(
        "fig7",
        "SIC's throughput exceeds IC's at every β, and both grow with β.",
        fig5_6_7,
        DATASETS,
        (
            _pointwise(
                "SIC's throughput exceeds IC's at every β.",
                "throughput", ("SIC",), ("IC",), lambda s, i: s > i,
            ),
            _endpoints(
                "IC's and SIC's throughputs are higher at the largest β than at "
                "the smallest.",
                "throughput", ("IC", "SIC"), lambda first, last: last > first,
            ),
        ),
    ),
    Artefact(
        "fig8",
        "Greedy, IC and SIC return seeds whose Monte-Carlo spread is within "
        "about 10% of IMM's at every k, while UBI degrades as k grows.",
        fig8_9,
        DATASETS,
        (
            _pointwise(
                "IC's and SIC's MC spreads are each at least 0.5x Greedy's at every k.",
                "spread", ("IC", "SIC"), ("GREEDY",), lambda x, g: x >= 0.5 * g,
            ),
        ),
    ),
    Artefact(
        "fig9",
        "SIC has the highest throughput of all approaches at every k, and "
        "throughput falls as k grows.",
        fig8_9,
        DATASETS,
        (
            _pointwise(
                "SIC's throughput exceeds every other approach's at every k.",
                "throughput", ("SIC",), _OTHERS, lambda s, o: s > o,
            ),
            _endpoints(
                "SIC's throughput at the largest k is at most 1.5x its "
                "throughput at the smallest.",
                "throughput", ("SIC",), lambda first, last: last <= 1.5 * first,
            ),
        ),
    ),
    Artefact(
        "fig10",
        "Every approach slows down as the window N grows, SIC only "
        "logarithmically, so its lead over IC widens with N.",
        fig10,
        DATASETS,
        (
            _endpoints(
                "IC's throughput is lower at the largest N than at the smallest.",
                "throughput", ("IC",), lambda first, last: last < first,
            ),
            _pointwise(
                "SIC's throughput exceeds every other approach's at every N.",
                "throughput", ("SIC",), _OTHERS, lambda s, o: s > o,
            ),
            Claim(
                "SIC's lead over IC at the largest N is at least 0.8x its lead "
                "at the smallest.",
                _lead_widens,
                timed=True,
            ),
        ),
    ),
    Artefact(
        "fig11",
        "IC's throughput grows roughly linearly with the slide length L, and "
        "SIC stays above IC throughout.",
        fig11,
        DATASETS,
        (
            _endpoints(
                "IC's throughput is higher at the largest L than at the smallest.",
                "throughput", ("IC",), lambda first, last: last > first,
            ),
            _pointwise(
                "SIC's throughput exceeds 0.9x IC's at every L.",
                "throughput", ("SIC",), ("IC",), lambda s, i: s > 0.9 * i,
            ),
        ),
    ),
    Artefact(
        "fig12",
        "SIC, IC and UBI get faster on larger user universes (sparser "
        "windows) while Greedy and IMM slow down.",
        fig12,
        ("syn-o", "syn-n"),
        (
            _pointwise(
                "SIC's throughput exceeds IC's at every |U|.",
                "throughput", ("SIC",), ("IC",), lambda s, i: s > i,
            ),
            _endpoints(
                "SIC's throughput at the largest |U| is at least 0.6x its "
                "throughput at the smallest.",
                "throughput", ("SIC",), lambda first, last: last >= 0.6 * first,
            ),
        ),
    ),
    Artefact(
        "table2",
        "The (1/2 - β)-approximate threshold oracles (SieveStreaming, "
        "ThresholdStream) match or beat the 1/4-approximate swap oracles "
        "(Blog-Watch, MkC).",
        table2,
        ("syn-n",),
        (
            Claim(
                "SieveStreaming's and ThresholdStream's influence values are each "
                "at least 0.8x the better swap oracle's.",
                _threshold_oracles_hold,
            ),
        ),
    ),
    Artefact(
        "table3",
        "The datasets' cascades have the average depths of Table 3 "
        "(Reddit 4.58, Twitter 1.87, SYN-O 2.5, SYN-N 2.59).",
        table3,
        DATASETS,
        (
            Claim(
                "Each dataset's mean cascade depth is within 30% of the paper's.",
                _depth_matches_paper,
            ),
        ),
    ),
)}
