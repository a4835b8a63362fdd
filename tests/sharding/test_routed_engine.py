"""Routed ingest: the facade resolves once, shards apply owned records.

Covers:

* **Routed ≡ literal reference** — identical per-slide top-k values/seeds
  between :class:`ShardedEngine` and S *standalone* shard engines
  (``IC/SIC(shard=ShardAssignment(p, i))``, each fed the raw stream, each
  resolving its own forest) combined with ``merge_shard_answers``: IC +
  SIC at L ∈ {1, 5}, S ∈ {1, 2, 4}, hash partitioner, across
  the serial/process backends;
* **Accounting** — per-shard stats report routed records consumed (not
  the stream-global action count) and the facade resolver position;
* **Crash recovery on the routed WAL format** — unsealed crash + reopen
  + refeed converges, kill-at-every-slide heals in place, and a deleted
  resolver dir is refused (shards can never outrun the resolver);
* **Refusals** — a root in a foreign manifest format is refused by name,
  and a board holding a filtered query is told to run unsharded.
"""

import json

import pytest

from repro.core.ic import InfluentialCheckpoints
from repro.core.multi import MultiQueryEngine
from repro.core.sic import SparseInfluentialCheckpoints
from repro.core.stream import batched
from repro.experiments.memory import sharded_work
from repro.faults import Fault, FaultPlan
from repro.persistence.serialize import PersistenceError
from repro.sharding.engine import ShardedEngine, ShardingError
from repro.sharding.merge import SeedCandidate, ShardAnswer, merge_shard_answers
from repro.sharding.partition import HashPartitioner, ShardAssignment
from tests.conftest import random_stream

MAKERS = {
    "ic": lambda shard=None: InfluentialCheckpoints(
        window_size=40, k=3, beta=0.3, shard=shard
    ),
    "sic": lambda shard=None: SparseInfluentialCheckpoints(
        window_size=40, k=3, beta=0.3, shard=shard
    ),
}

ACTIONS = random_stream(150, 15, seed=71)


def run_sharded(make, actions, slide, shards, **open_kwargs):
    """Drive one ShardedEngine; returns the per-slide merged answers."""
    open_kwargs.setdefault("backend", "serial")
    answers = []
    with ShardedEngine.open(
        lambda assignment=None: make(shard=assignment), shards, **open_kwargs
    ) as engine:
        for batch in batched(actions, slide):
            engine.process(list(batch))
            answers.append(engine.query())
    return answers


def run_reference(make, actions, slide, partitioner):
    """The literal reference: S standalone shard engines, merged per slide.

    Every engine consumes the *raw* stream, resolves its own diffusion
    forest and projects to its owned influencers — no facade, no routing.
    """
    engines = [
        make(shard=ShardAssignment(partitioner, shard))
        for shard in range(partitioner.shards)
    ]
    answers = []
    for batch in batched(actions, slide):
        per_shard = []
        for shard, engine in enumerate(engines):
            engine.process(list(batch))
            local = engine.query()
            per_shard.append(
                ShardAnswer(
                    shard=shard,
                    time=local.time,
                    seeds=frozenset(local.seeds),
                    value=local.value,
                    candidates=tuple(
                        SeedCandidate(user, frozenset(coverage))
                        for user, coverage in engine.query_candidates()
                    ),
                )
            )
        answers.append(
            merge_shard_answers(
                per_shard,
                k=engines[0].k,
                func=engines[0].influence_function,
                time=batch[-1].time,
            )
        )
    return answers


class TestRoutedReferenceEquivalence:
    @pytest.mark.parametrize("algorithm", ["ic", "sic"])
    @pytest.mark.parametrize("slide", [1, 5])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_hash_partitioner_matrix(self, algorithm, slide, shards):
        """Identical per-slide values/seeds on every matrix cell."""
        make = MAKERS[algorithm]
        reference = run_reference(make, ACTIONS, slide, HashPartitioner(shards))
        assert run_sharded(make, ACTIONS, slide, shards) == reference

    @pytest.mark.parametrize("backend", ["process"])
    def test_backends_agree_with_serial(self, backend):
        serial = run_sharded(MAKERS["ic"], ACTIONS, 5, 3)
        assert run_sharded(MAKERS["ic"], ACTIONS, 5, 3, backend=backend) == serial

    def test_multi_board_matches_reference_per_query(self):
        def factory(assignment=None):
            return (
                MultiQueryEngine()
                .add("fast", MAKERS["ic"](shard=assignment))
                .add("sparse", MAKERS["sic"](shard=assignment))
            )

        with ShardedEngine.open(factory, 2, backend="serial") as engine:
            for batch in batched(ACTIONS, 5):
                engine.process(list(batch))
            board = engine.query_all()
        for name, algorithm in (("fast", "ic"), ("sparse", "sic")):
            reference = run_reference(
                MAKERS[algorithm], ACTIONS, 5, HashPartitioner(2)
            )
            assert board[name] == reference[-1]


class TestAccounting:
    def test_per_shard_stats_report_routed_records(self):
        factory = lambda a=None: MAKERS["sic"](shard=a)
        with ShardedEngine.open(factory, 3, backend="serial") as engine:
            for batch in batched(ACTIONS, 5):
                engine.process(list(batch))
            stats = engine.supervision_stats()
            assert stats["resolver"]["actions_processed"] == len(ACTIONS)
            assert stats["resolver"]["now"] == 150
            per_shard = [s["routed_records"] for s in stats["shards"]]
            assert all("actions" not in s for s in stats["shards"])
            # The stream is resolved once; shards split the records (a
            # record is duplicated only when its influencer chain spans
            # shards), so total routed work stays well under S× stream.
            assert sum(per_shard) < 3 * len(ACTIONS)
            assert engine.actions_processed == len(ACTIONS)
            assert engine.shard_routed_records == per_shard
            assert engine.last_routed_records > 0

            work = sharded_work(engine)
            assert work["unit"] == "routed_records"
            assert work["per_shard"] == per_shard
            assert work["stream_actions"] == len(ACTIONS)
            assert work["replication_factor"] < 3


class TestRoutedRecovery:
    def _feed(self, engine, batches):
        resume = engine.now
        for batch in batches:
            if batch[-1].time <= resume:
                continue
            engine.process([a for a in batch if a.time > resume])

    def test_unsealed_crash_reopen_refeed_converges(self, tmp_path):
        actions = random_stream(200, 20, seed=72)
        batches = [list(b) for b in batched(actions, 5)]
        factory = lambda a=None: MAKERS["ic"](shard=a)
        expected = run_reference(MAKERS["ic"], actions, 5, HashPartitioner(2))

        state = tmp_path / "state"
        engine = ShardedEngine.open(
            factory, 2, state_dir=state, backend="serial",
            snapshot_every=7, fsync=False,
        )
        for batch in batches[:23]:
            engine.process(batch)
        engine._backend.stop()  # crash: no seal, WAL tails remain

        recovered = ShardedEngine.open(
            factory, 2, state_dir=state, backend="serial",
            snapshot_every=7, fsync=False,
        )
        assert recovered.slides_processed == 23
        self._feed(recovered, batches)
        assert recovered.query() == expected[-1]
        recovered.close()

        sealed = ShardedEngine.open(
            factory, 2, state_dir=state, backend="serial", fsync=False
        )
        assert sealed.shard_replayed_slides == [0, 0]
        assert sealed.query() == expected[-1]
        sealed.close()

    @pytest.mark.parametrize("algo", ["ic", "sic"])
    def test_kill_at_every_slide_heals_on_routed_path(self, algo, tmp_path):
        """The supervisor kill matrix rerun on the routed WAL format."""
        actions = random_stream(200, 25, seed=73)
        batches = [list(b) for b in batched(actions, 25)]
        factory = lambda a=None: MAKERS[algo](shard=a)
        expected = run_sharded(MAKERS[algo], actions, 25, 2)
        plan = FaultPlan(
            [
                Fault(kind="kill", shard=(s - 1) % 2, at_slide=s)
                for s in range(1, len(batches) + 1)
            ],
            seed=73,
        )
        engine = ShardedEngine.open(
            factory, 2, state_dir=tmp_path / "state", backend="process",
            snapshot_every=3, fsync=False, fault_plan=plan,
        )
        try:
            for batch in batches:
                engine.process(batch)
            assert engine.query() == expected[-1]
            stats = engine.supervision_stats()
            assert stats["restarts"] == len(batches)
            assert stats["escalations"] == 0
            assert not stats["degraded"]
        finally:
            engine.close()

    def test_missing_resolver_state_is_refused(self, tmp_path):
        import shutil

        factory = lambda a=None: MAKERS["ic"](shard=a)
        state = tmp_path / "state"
        engine = ShardedEngine.open(
            factory, 2, state_dir=state, backend="serial", fsync=False
        )
        engine.process([a for a in random_stream(20, 5, seed=74)])
        engine.close()
        shutil.rmtree(state / "resolver")
        with pytest.raises(PersistenceError, match="resolver"):
            ShardedEngine.open(
                factory, 2, state_dir=state, backend="serial", fsync=False
            )


class TestManifestAndRefusals:
    def test_manifest_is_format_2(self, tmp_path):
        state = tmp_path / "state"
        factory = lambda a=None: MAKERS["ic"](shard=a)
        with ShardedEngine.open(
            factory, 2, state_dir=state, backend="serial", fsync=False
        ) as engine:
            engine.process([a for a in random_stream(20, 5, seed=75)])
        manifest = json.loads((state / "sharding.json").read_text())
        assert manifest["format"] == 2
        assert manifest["ingest"] == "routed"
        assert (state / "resolver").is_dir()

    @pytest.mark.parametrize("found", [1, 3])
    def test_foreign_format_root_is_refused_by_name(self, tmp_path, found):
        (tmp_path / "sharding.json").write_text(
            json.dumps(
                {
                    "format": found,
                    "shards": 2,
                    "partitioner": HashPartitioner(2).to_state(),
                    "ingest": "routed",
                }
            )
        )
        with pytest.raises(PersistenceError) as refusal:
            ShardedEngine.open(
                lambda a=None: MAKERS["ic"](shard=a), 2,
                state_dir=tmp_path, backend="serial", fsync=False,
            )
        message = str(refusal.value)
        assert "\n" not in message
        assert str(tmp_path / "sharding.json") in message
        assert f"has format {found}, but this build reads format 2" in message

    def test_filtered_board_is_refused_at_open(self):
        from repro.influence.queries import TopicAwareSIM

        def factory(assignment=None):
            return MultiQueryEngine().add(
                "topic", TopicAwareSIM({"x"}, {}, window_size=20, k=2)
            )

        with pytest.raises(ShardingError, match="run this board unsharded"):
            ShardedEngine.open(factory, 2, backend="serial")
