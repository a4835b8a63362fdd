"""Property-based validation of the paper's theoretical claims.

* Theorem 2 — IC preserves the oracle's approximation ratio on windows.
* Theorem 3/4 — SIC maintains an ε(1−β)/2 approximation (= 1/4 − β with
  SieveStreaming).
* Theorem 5 — SIC keeps O(log N / β) checkpoints.
* Lemma 1 — the optimal oracle is monotone and subadditive.
* Checkpoint monotonicity (required by Lemma 2).
"""

import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diffusion import DiffusionForest
from repro.core.ic import InfluentialCheckpoints
from repro.core.influence_index import AppendOnlyInfluenceIndex
from repro.core.sic import SparseInfluentialCheckpoints
from tests.conftest import random_stream, window_index

N_USERS = 6


def window_optimum(actions, window_size, k):
    """Brute-force OPT_t for the final window."""
    index = window_index(actions, window_size)
    users = list(index)
    best = 0
    for size in range(1, min(k, len(users)) + 1):
        for combo in itertools.combinations(users, size):
            best = max(best, len(index.coverage(combo)))
    return best, index


def segment_optimum(actions, start, end, k):
    """Brute-force OPT over the contiguous actions [start, end] (1-based)."""
    forest = DiffusionForest()
    for action in actions:  # resolve chains against the full history
        forest.add(action)
    index = AppendOnlyInfluenceIndex()
    for t in range(start, end + 1):
        index.add(forest.record(t))
    users = [u for u in range(N_USERS) if u in index]
    best = 0
    for size in range(1, min(k, len(users)) + 1):
        for combo in itertools.combinations(users, size):
            best = max(best, len(index.coverage(combo)))
    return best


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), window=st.integers(4, 20))
def test_theorem2_ic_ratio(seed, window):
    """IC with SieveStreaming is (1/2 − β)-approximate on every window."""
    beta = 0.2
    actions = random_stream(45, N_USERS, seed=seed)
    ic = InfluentialCheckpoints(window_size=window, k=2, beta=beta)
    for action in actions:
        ic.process([action])
    opt, index = window_optimum(actions, window, k=2)
    answer = ic.query()
    achieved = len(index.coverage(answer.seeds))
    assert achieved >= (0.5 - beta) * opt - 1e-9


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), window=st.integers(4, 20))
def test_theorem3_sic_ratio(seed, window):
    """SIC with SieveStreaming is (1/4 − β)-approximate on every window."""
    beta = 0.2
    actions = random_stream(45, N_USERS, seed=seed)
    sic = SparseInfluentialCheckpoints(window_size=window, k=2, beta=beta)
    for action in actions:
        sic.process([action])
    opt, index = window_optimum(actions, window, k=2)
    answer = sic.query()
    achieved = len(index.coverage(answer.seeds))
    assert achieved >= (0.25 - beta) * opt - 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_theorem5_checkpoint_bound(seed):
    """SIC never exceeds 2·log N / log(1/(1−β)) + O(1) checkpoints."""
    beta = 0.3
    window = 64
    sic = SparseInfluentialCheckpoints(window_size=window, k=2, beta=beta)
    bound = 2 * math.log(window) / math.log(1.0 / (1.0 - beta)) + 3
    for action in random_stream(200, N_USERS, seed=seed):
        sic.process([action])
        assert sic.checkpoint_count <= bound


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    boundaries=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12)),
)
def test_lemma1_monotone_and_subadditive(seed, boundaries):
    """OPT over segments: monotone in extension, subadditive in splits."""
    actions = random_stream(36, N_USERS, seed=seed)
    a, b, c = sorted(boundaries)
    t1, t2, t3 = a, a + b, min(36, a + b + c)
    k = 2
    opt_13 = segment_optimum(actions, t1, t3, k)
    opt_12 = segment_optimum(actions, t1, t2, k)
    opt_23 = segment_optimum(actions, t2, t3, k)
    assert opt_13 >= opt_12  # monotone
    assert opt_13 >= opt_23  # monotone (prefix extension)
    assert opt_13 <= opt_12 + opt_23  # subadditive


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_checkpoint_values_are_monotone(seed):
    """Every live checkpoint's Λ value is non-decreasing over time."""
    sic = SparseInfluentialCheckpoints(window_size=30, k=2, beta=0.3)
    previous = {}
    for action in random_stream(90, N_USERS, seed=seed):
        sic.process([action])
        for checkpoint in sic.checkpoints:
            if checkpoint.start in previous:
                assert checkpoint.value >= previous[checkpoint.start]
            previous[checkpoint.start] = checkpoint.value
