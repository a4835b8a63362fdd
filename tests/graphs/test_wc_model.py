"""Unit tests for the weighted cascade model and influence-graph builder."""

import pytest

from repro.core.influence_index import InfluenceWindow
from repro.graphs.graph import DiGraph
from repro.graphs.influence_graph import build_influence_graph
from repro.graphs.wc_model import (
    assign_weighted_cascade,
    weighted_cascade_probability,
)
from tests.conftest import make_paper_stream, random_stream, window_index


class TestWCModel:
    def test_probability_formula(self):
        assert weighted_cascade_probability(4) == 0.25
        assert weighted_cascade_probability(1) == 1.0
        with pytest.raises(ValueError, match="positive"):
            weighted_cascade_probability(0)

    def test_assignment(self):
        graph = DiGraph()
        graph.add_edge(1, 3, 0.9)
        graph.add_edge(2, 3, 0.9)
        graph.add_edge(1, 2, 0.9)
        assign_weighted_cascade(graph)
        assert graph.probability(1, 3) == 0.5
        assert graph.probability(2, 3) == 0.5
        assert graph.probability(1, 2) == 1.0

    def test_incoming_probabilities_sum_to_one(self):
        graph = DiGraph()
        for s in range(5):
            for t in range(5):
                if s != t and (s + t) % 2:
                    graph.add_edge(s, t, 1.0)
        assign_weighted_cascade(graph)
        for node in graph.nodes():
            preds = graph.predecessors(node)
            if preds:
                assert sum(preds.values()) == pytest.approx(1.0)


class TestInfluenceGraph:
    def test_paper_example_graph(self):
        index = window_index(make_paper_stream()[:8], 8)
        graph = build_influence_graph(index)
        # Influence pairs at t=8 minus self-loops.
        assert graph.has_edge(1, 2)
        assert graph.has_edge(1, 3)
        assert graph.has_edge(3, 1)
        assert graph.has_edge(3, 4)
        assert graph.has_edge(3, 5)
        assert graph.has_edge(5, 4)
        assert not graph.has_edge(2, 2)  # no self-loops

    def test_wc_probabilities(self):
        index = window_index(make_paper_stream()[:8], 8)
        graph = build_influence_graph(index)
        # u4 is influenced by u3 and u5: each edge gets 1/2.
        assert graph.probability(3, 4) == pytest.approx(0.5)
        assert graph.probability(5, 4) == pytest.approx(0.5)
        # u2 is influenced only by u1.
        assert graph.probability(1, 2) == pytest.approx(1.0)

    def test_empty_index(self):
        graph = build_influence_graph(InfluenceWindow(1).view())
        assert graph.node_count == 0

    def test_no_self_loops_ever(self):
        index = window_index(random_stream(80, 6, seed=3), 40)
        graph = build_influence_graph(index)
        for s, t, _ in graph.edges():
            assert s != t
