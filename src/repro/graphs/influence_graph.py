"""Building the influence graph ``G_t`` from a window of actions.

Section 6.1: "we construct an influence graph ``G_t`` by treating users as
vertices and the influence relationships between users wrt. ``W_t`` as
directed edges.  The edge probabilities between users are assigned by the
weighted cascade (WC) model."  This graph is the common substrate of the
IMM/UBI baselines and of the Monte-Carlo quality metric.

The influence relationships are the pairs of the window every algorithm
answers over (:class:`~repro.core.influence_index.InfluenceWindow`: the
actions with ``time ≥ t − N + 1``); self-influence pairs ``(u, u)`` are
skipped because cascade models have no self-loops.  Edges go in in sorted
``(u, v)`` order, so the graph — and every seeded draw over its nodes —
depends on the window's pairs alone, not on how the index stored them.
"""

from __future__ import annotations

from collections import Counter

from repro.graphs.graph import DiGraph
from repro.graphs.wc_model import weighted_cascade_probability

__all__ = ["build_influence_graph"]


def build_influence_graph(index) -> DiGraph:
    """Materialise ``G_t`` from the current window's influence pairs.

    Args:
        index: The window's influence sets: any index that iterates its
            influencers and answers ``influence_set``.

    Returns:
        A :class:`~repro.graphs.graph.DiGraph` whose edge ``u → v`` means
        ``u`` influences ``v`` in the window, with WC probabilities
        ``p(u, v) = 1 / indegree(v)``.
    """
    edges = [
        (u, v)
        for u in sorted(index)
        for v in sorted(index.influence_set(u))
        if u != v
    ]
    # In-degrees first, so each edge goes in once with its WC probability.
    indegree = Counter(v for _, v in edges)
    graph = DiGraph()
    for u, v in edges:
        graph.add_edge(u, v, weighted_cascade_probability(indegree[v]))
    return graph
