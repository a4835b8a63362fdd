"""Micro-benchmarks for the hot core operations.

These bound the per-action costs that the complexity analysis talks about:
window slides, diffusion-forest resolution, window-index add/remove cycles,
and a single checkpoint's SSM update.
"""

from repro.core.checkpoint import OracleSpec
from repro.core.diffusion import DiffusionForest
from repro.core.influence_index import WindowInfluenceIndex
from repro.core.window import SlidingWindow
from repro.influence.functions import CardinalityInfluence
from repro.reference import ReferenceCheckpoint


def test_window_slide_per_action(benchmark, tiny_stream, tiny_config):
    """Deque bookkeeping for the full stream."""

    def run():
        window = SlidingWindow(tiny_config.window_size)
        for action in tiny_stream:
            window.slide([action])
        return len(window)

    assert benchmark.pedantic(run, rounds=5, iterations=1) > 0


def test_forest_resolution_per_action(benchmark, tiny_stream):
    """Ancestor resolution for the full stream."""

    def run():
        forest = DiffusionForest()
        for action in tiny_stream:
            forest.add(action)
        return forest.actions_seen

    assert benchmark.pedantic(run, rounds=5, iterations=1) > 0


def test_window_index_add_remove_cycle(benchmark, tiny_stream, tiny_config):
    """Exact influence index maintenance over the full stream."""

    def run():
        forest = DiffusionForest()
        index = WindowInfluenceIndex()
        records = []
        for action in tiny_stream:
            record = forest.add(action)
            records.append(record)
            index.add(record)
            if len(records) > tiny_config.window_size:
                index.remove(records.pop(0))
        return index.pair_count()

    assert benchmark.pedantic(run, rounds=3, iterations=1) > 0


def test_single_checkpoint_ssm_update(benchmark, tiny_stream):
    """SieveStreaming checkpoint absorbing 800 actions via SSM."""
    prefix = tiny_stream[:800]

    def run():
        forest = DiffusionForest()
        spec = OracleSpec(
            name="sieve", k=5, func=CardinalityInfluence(),
            params={"beta": 0.3},
        )
        checkpoint = ReferenceCheckpoint(1, spec.build)
        for action in prefix:
            checkpoint.process_slide([forest.add(action)])
        return checkpoint.value

    assert benchmark.pedantic(run, rounds=3, iterations=1) > 0


def test_ic_processing_n1000_l1_shared(benchmark, tiny_stream):
    """IC over the shared versioned index at N=1000, L=1 (the headline)."""
    from repro.core.ic import InfluentialCheckpoints

    prefix = tiny_stream[:1500]

    def run():
        ic = InfluentialCheckpoints(window_size=1000, k=5, beta=0.3)
        for action in prefix:
            ic.process([action])
        return ic.query().value

    assert benchmark.pedantic(run, rounds=2, iterations=1) > 0


def test_ic_processing_n1000_l1_reference(benchmark, tiny_stream):
    """The same workload on the literal per-checkpoint algorithm."""
    from repro.reference import ReferenceIC

    prefix = tiny_stream[:1500]

    def run():
        ic = ReferenceIC(window_size=1000, k=5, beta=0.3)
        for action in prefix:
            ic.process([action])
        return ic.query().value

    assert benchmark.pedantic(run, rounds=2, iterations=1) > 0
