"""End-to-end reproduction of the paper's running examples (Figures 1-4).

These tests pin the library to the worked examples of Sections 3-5:
Example 1 (influence sets), Example 2 (SIM optima), Example 3 (IC
checkpoint maintenance), and Example 5's qualitative SIC behaviour.
"""

import itertools

from repro.core.greedy import WindowedGreedy
from repro.core.ic import InfluentialCheckpoints
from repro.core.sic import SparseInfluentialCheckpoints
from tests.conftest import make_paper_stream, window_index


def exact_optimum(index, k):
    users = list(index)
    best_value, best_set = 0, frozenset()
    for size in range(1, min(k, len(users)) + 1):
        for combo in itertools.combinations(users, size):
            value = len(index.coverage(combo))
            if value > best_value:
                best_value, best_set = value, frozenset(combo)
    return best_set, best_value


class TestExample1:
    """Figure 1(b)/(c): influence sets at t=8 and t=10 over N=8."""

    def test_influence_sets_w8(self):
        index = window_index(make_paper_stream()[:8], 8)
        expected = {
            1: {1, 2, 3},
            2: {2},
            3: {1, 3, 4, 5},
            4: {4},
            5: {4, 5},
        }
        for user, members in expected.items():
            assert index.influence_set(user) == members
        assert index.influence_set(6) == frozenset()

    def test_influence_sets_w10(self):
        index = window_index(make_paper_stream(), 8)
        expected = {
            1: {1, 3},
            2: {2, 6},
            3: {1, 3, 4, 5},
            4: {4},
            5: {4, 5},
            6: {6},
        }
        for user, members in expected.items():
            assert index.influence_set(user) == members


class TestExample2:
    """SIM optima: S*_8 = {u1,u3} (f=5) and S*_10 = {u2,u3} (f=6)."""

    def test_optimum_at_8(self):
        index = window_index(make_paper_stream()[:8], 8)
        seeds, value = exact_optimum(index, k=2)
        assert value == 5
        assert seeds == {1, 3}

    def test_optimum_at_10(self):
        index = window_index(make_paper_stream(), 8)
        seeds, value = exact_optimum(index, k=2)
        assert value == 6
        assert seeds == {2, 3}

    def test_old_optimum_degrades_to_4(self):
        index = window_index(make_paper_stream(), 8)
        assert len(index.coverage({1, 3})) == 4

    def test_greedy_finds_both_optima(self):
        greedy = WindowedGreedy(window_size=8, k=2)
        for action in make_paper_stream()[:8]:
            greedy.process([action])
        assert greedy.query().seeds == {1, 3}
        for action in make_paper_stream()[8:]:
            greedy.process([action])
        assert greedy.query().seeds == {2, 3}


class TestExample3:
    """Figure 2: IC keeps N checkpoints and answers from the oldest."""

    def test_checkpoint_count_equals_window(self):
        ic = InfluentialCheckpoints(window_size=8, k=2, beta=0.3)
        for action in make_paper_stream()[:8]:
            ic.process([action])
        assert ic.checkpoint_count == 8

    def test_answer_at_8_matches_figure2(self):
        ic = InfluentialCheckpoints(window_size=8, k=2, beta=0.3)
        for action in make_paper_stream()[:8]:
            ic.process([action])
        result = ic.query()
        assert result.seeds == {1, 3}
        assert result.value == 5.0

    def test_answer_at_10_matches_figure2(self):
        ic = InfluentialCheckpoints(window_size=8, k=2, beta=0.3)
        for action in make_paper_stream():
            ic.process([action])
        result = ic.query()
        assert result.seeds == {2, 3}
        assert result.value == 6.0

    def test_checkpoint_values_decrease_with_position(self):
        """Figure 2: later checkpoints cover fewer actions, so their values
        are non-increasing from oldest to newest."""
        ic = InfluentialCheckpoints(window_size=8, k=2, beta=0.3)
        for action in make_paper_stream()[:8]:
            ic.process([action])
        values = [c.value for c in ic.checkpoints]
        assert values == sorted(values, reverse=True)
        assert values[-1] == 1.0  # the newest covers a single action


class TestExample5:
    """Figure 4: SIC prunes checkpoints yet answers near-optimally."""

    def test_sic_keeps_fewer_checkpoints_than_ic(self):
        sic = SparseInfluentialCheckpoints(window_size=8, k=2, beta=0.3)
        for action in make_paper_stream()[:8]:
            sic.process([action])
        assert sic.checkpoint_count < 8

    def test_sic_answer_at_8(self):
        sic = SparseInfluentialCheckpoints(window_size=8, k=2, beta=0.3)
        for action in make_paper_stream()[:8]:
            sic.process([action])
        result = sic.query()
        assert result.seeds == {1, 3}
        assert result.value == 5.0

    def test_sic_answer_at_10_within_bound(self):
        """Theorem 4: value >= (1/4 - beta) * OPT; seeds match the paper."""
        sic = SparseInfluentialCheckpoints(window_size=8, k=2, beta=0.3)
        for action in make_paper_stream():
            sic.process([action])
        result = sic.query()
        assert result.seeds == {2, 3}
        index = window_index(make_paper_stream(), 8)
        _, opt = exact_optimum(index, k=2)
        assert len(index.coverage(result.seeds)) >= (0.25 - 0.3) * opt
        assert len(index.coverage(result.seeds)) == 6  # actually optimal
