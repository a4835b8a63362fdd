"""R-MAT recursive graph generator (Chakrabarti, Zhan, Faloutsos; SDM 2004).

Section 6.1 synthesises power-law *follow* graphs with R-MAT: each edge
lands in one of the four quadrants of the (recursively subdivided) adjacency
matrix with probabilities ``(a, b, c, d)``.  The classic skewed setting
``a=0.57, b=0.19, c=0.19, d=0.05`` produces the heavy-tailed in/out-degree
distributions typical of social networks.

The generator returns plain ``(source, target)`` pairs over node ids
``0..n-1`` (``n`` rounded up to a power of two internally, ids taken modulo
``n`` so callers always see the requested universe).  Self-loops and
duplicate edges are dropped, matching common R-MAT usage.
"""

from __future__ import annotations

import math
from typing import List, Optional, Set, Tuple

import numpy as np

__all__ = ["rmat_edges", "rmat_adjacency"]

#: Edges drawn per chunk of a batch (``levels`` float64 draws each).
_CHUNK_ROWS = 1 << 15


def rmat_edges(
    n_nodes: int,
    n_edges: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: Optional[int] = None,
) -> List[Tuple[int, int]]:
    """Generate distinct directed R-MAT edges.

    Args:
        n_nodes: Size of the node universe (ids ``0..n_nodes-1``).
        n_edges: Number of *distinct* edges requested; fewer may be returned
            if the quadrant probabilities make duplicates dominate (the
            generator gives up after ``20 × n_edges`` attempts).
        a, b, c: Quadrant probabilities (``d = 1 - a - b - c``).
        seed: RNG seed for reproducibility.

    Returns:
        A list of ``(source, target)`` pairs without self-loops/duplicates.
    """
    if n_nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {n_nodes}")
    if n_edges < 0:
        raise ValueError(f"edge count must be non-negative, got {n_edges}")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0 or max(a, b, c, d) > 1:
        raise ValueError(f"invalid quadrant probabilities a={a} b={b} c={c} d={d}")
    rng = np.random.default_rng(seed)
    levels = max(1, math.ceil(math.log2(n_nodes)))
    edges: Set[Tuple[int, int]] = set()
    attempts = 0
    max_attempts = max(20 * n_edges, 1000)
    # Vectorised batches: each edge needs `levels` quadrant draws.  A batch
    # is drawn and reduced in chunks of at most _CHUNK_ROWS edges: the
    # generator yields the same numbers in the same order either way, and
    # the temporaries stay a few MiB instead of n_edges x levels words.
    batch = max(1024, n_edges)
    thresholds = np.cumsum([a, b, c])
    weights = 1 << np.arange(levels - 1, -1, -1)
    while len(edges) < n_edges and attempts < max_attempts:
        for first in range(0, batch, _CHUNK_ROWS):
            draws = rng.random((min(_CHUNK_ROWS, batch - first), levels))
            quadrant = np.searchsorted(thresholds, draws)  # 0..3 per level
            row_bits = (quadrant >> 1) & 1  # quadrants 2,3 pick the lower half
            col_bits = quadrant & 1  # quadrants 1,3 pick the right half
            sources = (row_bits * weights).sum(axis=1) % n_nodes
            targets = (col_bits * weights).sum(axis=1) % n_nodes
            for s, t in zip(sources.tolist(), targets.tolist()):
                attempts += 1
                if s != t:
                    edges.add((s, t))
                    if len(edges) == n_edges:
                        return sorted(edges)
    return sorted(edges)


def rmat_adjacency(
    n_nodes: int,
    n_edges: int,
    seed: Optional[int] = None,
    **kwargs,
) -> dict:
    """R-MAT as an adjacency dict ``{source: [targets...]}`` (sorted)."""
    adjacency: dict = {}
    for source, target in rmat_edges(n_nodes, n_edges, seed=seed, **kwargs):
        adjacency.setdefault(source, []).append(target)
    return adjacency
