"""Unit and statistical tests for the R-MAT generator."""

import numpy as np
import pytest

from repro.graphs.rmat import rmat_adjacency, rmat_edges


class TestBasics:
    def test_edge_count_and_validity(self):
        edges = rmat_edges(64, 200, seed=1)
        assert len(edges) == 200
        assert len(set(edges)) == 200  # distinct
        for s, t in edges:
            assert 0 <= s < 64
            assert 0 <= t < 64
            assert s != t

    def test_deterministic_under_seed(self):
        assert rmat_edges(32, 100, seed=5) == rmat_edges(32, 100, seed=5)
        assert rmat_edges(32, 100, seed=5) != rmat_edges(32, 100, seed=6)

    def test_non_power_of_two_universe(self):
        edges = rmat_edges(100, 300, seed=2)
        assert all(0 <= s < 100 and 0 <= t < 100 for s, t in edges)

    def test_zero_edges(self):
        assert rmat_edges(10, 0, seed=1) == []

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            rmat_edges(1, 5)
        with pytest.raises(ValueError, match="non-negative"):
            rmat_edges(10, -1)
        with pytest.raises(ValueError, match="quadrant"):
            rmat_edges(10, 5, a=0.9, b=0.2, c=0.2)

    def test_adjacency_form(self):
        adjacency = rmat_adjacency(32, 100, seed=3)
        total = sum(len(targets) for targets in adjacency.values())
        assert total == 100


class TestSkew:
    def test_degree_distribution_is_skewed(self):
        """R-MAT with a=0.57 concentrates edges on low-id quadrants: the
        max out-degree should far exceed the mean (power-law behaviour)."""
        edges = rmat_edges(256, 2000, seed=7)
        out_degree = np.zeros(256)
        for s, _ in edges:
            out_degree[s] += 1
        mean = out_degree[out_degree > 0].mean()
        assert out_degree.max() >= 4 * mean

    def test_uniform_quadrants_are_not_skewed(self):
        edges = rmat_edges(256, 2000, a=0.25, b=0.25, c=0.25, seed=7)
        out_degree = np.zeros(256)
        for s, _ in edges:
            out_degree[s] += 1
        mean = out_degree[out_degree > 0].mean()
        # Uniform R-MAT is an Erdos-Renyi-like graph: much flatter.
        assert out_degree.max() <= 6 * mean


def frozen_rmat_edges(n_nodes, n_edges, a=0.57, b=0.19, c=0.19, seed=None):
    """``rmat_edges`` as it was before it drew its batches in chunks (one
    ``(batch, levels)`` draw per batch), validation left out: the pin the
    chunked generator must reproduce edge for edge."""
    import math

    rng = np.random.default_rng(seed)
    levels = max(1, math.ceil(math.log2(n_nodes)))
    edges = set()
    attempts = 0
    max_attempts = max(20 * n_edges, 1000)
    batch = max(1024, n_edges)
    thresholds = np.cumsum([a, b, c])
    while len(edges) < n_edges and attempts < max_attempts:
        draws = rng.random((batch, levels))
        quadrant = np.searchsorted(thresholds, draws)
        row_bits = (quadrant >> 1) & 1
        col_bits = quadrant & 1
        weights = 1 << np.arange(levels - 1, -1, -1)
        sources = (row_bits * weights).sum(axis=1) % n_nodes
        targets = (col_bits * weights).sum(axis=1) % n_nodes
        for s, t in zip(sources.tolist(), targets.tolist()):
            attempts += 1
            if s != t:
                edges.add((s, t))
                if len(edges) == n_edges:
                    break
    return sorted(edges)


class TestChunkedDraws:
    """Batches are drawn in row chunks; the same seed gives the same edges."""

    CASES = [
        # n_edges reached mid-batch (200 of a 1024-edge batch).
        (64, 200, {}, 1),
        (100, 300, {}, 2),
        (1000, 2500, {"a": 0.45, "b": 0.25, "c": 0.15}, 3),
        # Only 12 distinct edges exist: max_attempts ends it after 20 batches.
        (4, 3000, {}, 4),
        (2, 5, {}, 5),
        (10, 0, {}, 6),
    ]

    @pytest.mark.parametrize("chunk", [1, 7, 1024, 1 << 15])
    @pytest.mark.parametrize("n_nodes, n_edges, probabilities, seed", CASES)
    def test_matches_the_unchunked_generator(
        self, monkeypatch, chunk, n_nodes, n_edges, probabilities, seed
    ):
        import repro.graphs.rmat as rmat

        monkeypatch.setattr(rmat, "_CHUNK_ROWS", chunk)
        expected = frozen_rmat_edges(n_nodes, n_edges, seed=seed, **probabilities)
        assert rmat_edges(n_nodes, n_edges, seed=seed, **probabilities) == expected

    def test_hits_max_attempts_short_of_the_request(self):
        assert rmat_edges(4, 3000, seed=4) == frozen_rmat_edges(4, 3000, seed=4)
        assert len(rmat_edges(4, 3000, seed=4)) == 12
