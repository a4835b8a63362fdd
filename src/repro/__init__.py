"""repro — reproduction of *Real-Time Influence Maximization on Dynamic
Social Streams* (Wang, Fan, Li, Tan; VLDB 2017).

The library implements the paper's Stream Influence Maximization (SIM)
query, the Influential Checkpoints (IC) and Sparse Influential Checkpoints
(SIC) frameworks with the four checkpoint oracles of Table 2, the windowed
greedy / IMM / UBI comparison baselines, synthetic dataset generators, and a
full experiment harness regenerating every figure and table of Section 6.

Quickstart::

    from repro import Action, SparseInfluentialCheckpoints, batched

    sic = SparseInfluentialCheckpoints(window_size=1000, k=10, beta=0.2)
    for batch in batched(my_stream, size=100):
        sic.process(batch)
        answer = sic.query()
        print(answer.time, sorted(answer.seeds), answer.value)
"""

from repro.core import (
    ROOT,
    MultiQueryEngine,
    Action,
    ActionRecord,
    AppendOnlyInfluenceIndex,
    SuffixView,
    VersionedInfluenceIndex,
    Checkpoint,
    DiffusionForest,
    InfluentialCheckpoints,
    ListStream,
    OracleSpec,
    SIMAlgorithm,
    SIMResult,
    SparseInfluentialCheckpoints,
    WindowedGreedy,
    batched,
    greedy_seed_selection,
    renumber,
    validate_stream,
)
from repro.influence import (
    CardinalityInfluence,
    ConformityAwareInfluence,
    FilteredSIM,
    InfluenceFunction,
    LocationAwareSIM,
    Region,
    TopicAwareSIM,
    WeightedCardinalityInfluence,
    filter_stream,
    region_filter,
    topic_filter,
)

__version__ = "1.0.0"

__all__ = [
    "ROOT",
    "Action",
    "ActionRecord",
    "AppendOnlyInfluenceIndex",
    "SuffixView",
    "VersionedInfluenceIndex",
    "CardinalityInfluence",
    "Checkpoint",
    "ConformityAwareInfluence",
    "DiffusionForest",
    "InfluenceFunction",
    "InfluentialCheckpoints",
    "FilteredSIM",
    "ListStream",
    "LocationAwareSIM",
    "MultiQueryEngine",
    "OracleSpec",
    "Region",
    "SIMAlgorithm",
    "SIMResult",
    "SparseInfluentialCheckpoints",
    "TopicAwareSIM",
    "WeightedCardinalityInfluence",
    "WindowedGreedy",
    "batched",
    "filter_stream",
    "greedy_seed_selection",
    "region_filter",
    "renumber",
    "topic_filter",
    "validate_stream",
]
