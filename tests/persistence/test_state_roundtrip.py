"""to_state()/from_state() roundtrips: explicit schemas, versioning, fidelity.

Every framework state must survive a save/load cycle through the snapshot
container (the snapshot medium) and rebuild an engine whose observable
state — query answers, counters, checkpoint populations — matches the
original exactly.
"""

import pytest

from repro.core.base import STATE_FORMAT_VERSION
from repro.core.greedy import WindowedGreedy
from repro.core.ic import InfluentialCheckpoints
from repro.core.influence_index import VersionedInfluenceIndex
from repro.core.sic import SparseInfluentialCheckpoints
from repro.core.stream import batched
from repro.influence.functions import (
    ConformityAwareInfluence,
    InfluenceFunction,
    WeightedCardinalityInfluence,
    function_from_state,
)
from repro.persistence.serialize import (
    PersistenceError,
    algorithm_from_state,
    algorithm_to_state,
)
from tests.conftest import (
    random_stream,
    states_equal,
    store_roundtrip,
    window_pairs,
)


def drive(algorithm, actions, slide):
    for batch in batched(actions, slide):
        algorithm.process(batch)
    return algorithm


FRAMEWORKS = {
    "ic": lambda **kw: InfluentialCheckpoints(
        window_size=40, k=3, beta=0.25, **kw
    ),
    "sic": lambda **kw: SparseInfluentialCheckpoints(
        window_size=40, k=3, beta=0.25, **kw
    ),
}


class TestFrameworkRoundtrip:
    @pytest.mark.parametrize("framework", ["ic", "sic"])
    @pytest.mark.parametrize(
        "oracle", ["sieve", "threshold", "blog_watch", "mkc", "greedy"]
    )
    def test_restored_state_is_observably_identical(self, framework, oracle):
        original = drive(
            FRAMEWORKS[framework](oracle=oracle), random_stream(90, 8, seed=1), 3
        )
        restored = algorithm_from_state(store_roundtrip(original.to_state()))
        assert restored.query() == original.query()
        assert restored.actions_processed == original.actions_processed
        assert restored.checkpoint_count == original.checkpoint_count
        assert [c.start for c in restored.checkpoints] == [
            c.start for c in original.checkpoints
        ]
        assert [c.actions_processed for c in restored.checkpoints] == [
            c.actions_processed for c in original.checkpoints
        ]
        assert [(c.value, c.seeds) for c in restored.checkpoints] == [
            (c.value, c.seeds) for c in original.checkpoints
        ]

    @pytest.mark.parametrize("framework", ["ic", "sic"])
    def test_serialization_is_stable(self, framework):
        """to_state -> from_state -> to_state is a fixed point."""
        original = drive(
            FRAMEWORKS[framework](), random_stream(90, 8, seed=2), 1
        )
        state = store_roundtrip(original.to_state())
        again = store_roundtrip(algorithm_from_state(state).to_state())
        assert states_equal(again, state)

    @pytest.mark.parametrize("framework", ["ic", "sic"])
    def test_parent_written_document_continues_identically(self, framework):
        """Documents written before the plane switches were retired carry
        ``shared_index``/``batch_feeds`` in ``config``; the keys are
        ignored (batched ≡ unbatched was the proven property), so the
        engine continues to the answers of an uninterrupted run."""
        batches = list(batched(random_stream(120, 8, seed=3), 5))
        uninterrupted = FRAMEWORKS[framework]()
        expected = []
        for batch in batches:
            uninterrupted.process(batch)
            expected.append(uninterrupted.query())
        state = store_roundtrip(
            drive(FRAMEWORKS[framework](), random_stream(120, 8, seed=3)[:60], 5)
            .to_state()
        )
        state["config"].update({"shared_index": True, "batch_feeds": False})
        restored = algorithm_from_state(state)
        answers = []
        for batch in batches[12:]:
            restored.process(batch)
            answers.append(restored.query())
        assert answers == expected[12:]

    @pytest.mark.parametrize("framework", ["ic", "sic"])
    def test_per_checkpoint_mode_document_refused(self, framework):
        """A ``shared_index=False`` document (owned per-checkpoint indexes,
        no shared index) is refused whole, not half-loaded."""
        state = store_roundtrip(
            drive(
                FRAMEWORKS[framework](columnar=False),
                random_stream(60, 8, seed=3),
                3,
            ).to_state()
        )
        state["config"].update({"shared_index": False, "batch_feeds": False})
        state["shared"] = None
        for checkpoint in state["roster"]["checkpoints"]:
            checkpoint["index"] = {"influence": [[1, [1, 2]]]}
        with pytest.raises(PersistenceError, match=r"repro\.reference"):
            algorithm_from_state(state)

    def test_checkpoint_interval_roundtrip(self):
        original = drive(
            FRAMEWORKS["ic"](checkpoint_interval=3),
            random_stream(90, 8, seed=4),
            2,
        )
        restored = algorithm_from_state(store_roundtrip(original.to_state()))
        assert restored.checkpoint_interval == 3
        assert restored.checkpoint_count == original.checkpoint_count
        assert restored.query() == original.query()

    def test_sic_counters_roundtrip(self):
        original = drive(FRAMEWORKS["sic"](), random_stream(120, 8, seed=5), 1)
        assert original.pruned_total > 0
        restored = algorithm_from_state(store_roundtrip(original.to_state()))
        assert restored.pruned_total == original.pruned_total
        assert restored.beta == original.beta

    def test_sic_oracle_beta_roundtrip(self):
        original = drive(
            SparseInfluentialCheckpoints(
                window_size=40, k=3, beta=0.25, oracle_beta=0.4
            ),
            random_stream(60, 8, seed=6),
            2,
        )
        restored = algorithm_from_state(store_roundtrip(original.to_state()))
        assert restored._spec.params == {"beta": 0.4}
        assert restored.beta == 0.25
        assert restored.query() == original.query()

    @pytest.mark.parametrize("lazy", [True, False])
    def test_windowed_greedy_roundtrip(self, lazy):
        actions = random_stream(150, 8, seed=7)
        original = drive(
            WindowedGreedy(window_size=40, k=3, lazy=lazy), actions[:90], 3
        )
        restored = algorithm_from_state(store_roundtrip(original.to_state()))
        assert restored.query() == original.query()
        # The window's records ride in the state, so the restored window
        # expires them like the live one and the next slides answer alike.
        for batch in [[]] + list(batched(actions[90:], 3)):
            original.process(batch)
            restored.process(batch)
            assert window_pairs(restored.index) == window_pairs(original.index)
            assert restored.query() == original.query()

    def test_greedy_document_without_window_records_is_refused(self):
        """A greedy document written before the index kept the window's
        records cannot continue (it would never expire them); the refusal
        names the missing field."""
        state = store_roundtrip(
            drive(WindowedGreedy(window_size=40, k=3), random_stream(60, 8, seed=7), 3)
            .to_state()
        )
        del state["index"]["records"]
        with pytest.raises(PersistenceError, match="no field 'records'"):
            algorithm_from_state(state)


class TestInfluenceFunctionStates:
    def test_weighted_function_roundtrip(self):
        func = WeightedCardinalityInfluence({1: 2.0, 4: 0.5}, default=1.5)
        original = drive(
            InfluentialCheckpoints(window_size=40, k=3, func=func),
            random_stream(80, 8, seed=8),
            2,
        )
        restored = algorithm_from_state(store_roundtrip(original.to_state()))
        assert restored.query() == original.query()

    def test_conformity_function_roundtrip(self):
        func = ConformityAwareInfluence({1: 0.9, 2: 0.3}, {3: 0.8, 4: 0.2})
        original = drive(
            InfluentialCheckpoints(window_size=40, k=3, func=func),
            random_stream(80, 8, seed=9),
            2,
        )
        restored = algorithm_from_state(store_roundtrip(original.to_state()))
        assert restored.query() == original.query()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            function_from_state({"kind": "no-such-function"})

    def test_unserializable_function_fails_loudly(self):
        class Custom(InfluenceFunction):
            def evaluate(self, seeds, index):
                return 0.0

        algorithm = InfluentialCheckpoints(window_size=10, k=2, func=Custom())
        with pytest.raises(NotImplementedError):
            algorithm.to_state()


class TestVersioning:
    def test_format_version_mismatch_rejected(self):
        state = drive(
            FRAMEWORKS["ic"](), random_stream(30, 6, seed=0), 1
        ).to_state()
        state["format"] = STATE_FORMAT_VERSION + 1
        with pytest.raises(ValueError):
            InfluentialCheckpoints.from_state(state)

    def test_wrong_algorithm_tag_rejected(self):
        state = drive(
            FRAMEWORKS["ic"](), random_stream(30, 6, seed=0), 1
        ).to_state()
        with pytest.raises(ValueError):
            SparseInfluentialCheckpoints.from_state(state)

    def test_unknown_algorithm_kind_rejected(self):
        with pytest.raises(PersistenceError):
            algorithm_from_state({"algorithm": "martian", "format": 1})

    @pytest.mark.parametrize(
        "damage, phrase",
        [
            (
                lambda doc: {k: v for k, v in doc.items() if k != "roster"},
                "no field 'roster'",
            ),
            (
                lambda doc: {**doc, "roster": [1, 2]},
                "'roster' must be an object, got list",
            ),
            (lambda doc: [1], "must be a JSON object, got list"),
            (
                lambda doc: {
                    **doc,
                    "config": {
                        k: v for k, v in doc["config"].items() if k != "k"
                    },
                },
                "no field 'config.k'",
            ),
        ],
        ids=["roster-dropped", "roster-a-list", "document-a-list", "k-dropped"],
    )
    @pytest.mark.parametrize("framework", ["ic", "sic"])
    def test_damaged_document_names_the_field(self, framework, damage, phrase):
        """A whole container, right ``format``, damaged structure: one
        ``PersistenceError`` naming the field, never a raw
        ``KeyError``/``TypeError``/``AttributeError``."""
        state = store_roundtrip(
            drive(FRAMEWORKS[framework](), random_stream(30, 6, seed=0), 1)
            .to_state()
        )
        with pytest.raises(PersistenceError, match=phrase):
            algorithm_from_state(damage(state))

    def test_algorithm_without_hook_rejected(self):
        class Opaque:
            pass

        with pytest.raises(PersistenceError):
            algorithm_to_state(Opaque())


class TestIndexRoundtrip:
    def test_versioned_index_preserves_iteration_order_and_floor(self):
        index = VersionedInfluenceIndex()
        # The versioned index is the object plane's (the kernel plane's
        # pairs live in its compiled store).
        original = drive(
            FRAMEWORKS["ic"](columnar=False), random_stream(120, 8, seed=11), 1
        ).shared_index
        del index
        state = store_roundtrip(original.to_state())
        restored = VersionedInfluenceIndex.from_state(state)
        assert restored.floor == original.floor
        assert restored.pair_count == original.pair_count
        assert restored._latest == original._latest
        # Iteration order is part of the state (float-sum determinism).
        assert list(restored._latest) == list(original._latest)
        for user in original._latest:
            assert list(restored._latest[user]) == list(original._latest[user])
