"""Property and integration tests for the sharded ingest plane.

Covers the PR's acceptance criteria:

* **Shard-merge equivalence** — with a degenerate partitioner (all
  influencers on one shard) ``ShardedEngine(S)`` answers *identically* to
  the single engine for IC + SIC at L ∈ {1, 5} and S ∈ {1, 2, 4}, across
  every shard id and backend; S=1 hash partitioning is likewise exact.
* **Merge soundness under real partitioning** — the merged value of a
  hash-partitioned board is an exact evaluation (never an overestimate)
  of the merged seeds against the true window index, is at least the best
  single shard's answer, and clears the ``(1/2 − β)/S`` fraction of the
  brute-force window optimum (the documented worst-case bound) for both
  modular and non-modular influence functions.
* **Crash recovery** — per-shard WAL/snapshot dirs recover independently:
  abandoning mid-stream and re-feeding converges to the uninterrupted
  run (both backends), and ``kill -9`` of a single worker process
  (process backend) surfaces as ``ShardingError``, after which reopening
  the whole engine heals the lagging shard on redelivery.
"""

import itertools
import json
import multiprocessing
import os
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import Action
from repro.core.ic import InfluentialCheckpoints
from repro.core.multi import MultiQueryEngine
from repro.core.sic import SparseInfluentialCheckpoints
from repro.core.stream import batched
from repro.influence.functions import ConformityAwareInfluence
from repro.persistence.serialize import PersistenceError
from repro.sharding.engine import ShardedEngine, ShardingError
from repro.sharding.partition import ConstantPartitioner, HashPartitioner
from tests.conftest import random_stream, window_index

MAKERS = {
    "ic": lambda shard=None, **kw: InfluentialCheckpoints(
        window_size=40, k=3, beta=0.3, shard=shard, **kw
    ),
    "sic": lambda shard=None, **kw: SparseInfluentialCheckpoints(
        window_size=40, k=3, beta=0.3, shard=shard, **kw
    ),
}


def run_single(make, actions, slide):
    framework = make()
    for batch in batched(actions, slide):
        framework.process(batch)
    return framework.query()


def run_sharded(make, actions, slide, shards, **open_kwargs):
    open_kwargs.setdefault("backend", "serial")
    with ShardedEngine.open(
        lambda assignment=None: make(shard=assignment), shards, **open_kwargs
    ) as engine:
        for batch in batched(actions, slide):
            engine.process(list(batch))
        return engine.query()


class TestDegenerateEquivalence:
    """ShardedEngine(S) ≡ single engine when one shard owns everything."""

    @pytest.mark.parametrize("algorithm", ["ic", "sic"])
    @pytest.mark.parametrize("slide", [1, 5])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_constant_partitioner_matches_single(
        self, algorithm, slide, shards
    ):
        actions = random_stream(120, 12, seed=21)
        make = MAKERS[algorithm]
        expected = run_single(make, actions, slide)
        for target in range(shards):
            merged = run_sharded(
                make,
                actions,
                slide,
                shards,
                partitioner=ConstantPartitioner(shards, target),
            )
            assert merged == expected

    @pytest.mark.parametrize("algorithm", ["ic", "sic"])
    @pytest.mark.parametrize("slide", [1, 5])
    def test_single_shard_hash_matches_single(self, algorithm, slide):
        actions = random_stream(120, 12, seed=22)
        make = MAKERS[algorithm]
        assert run_sharded(make, actions, slide, 1) == run_single(
            make, actions, slide
        )

    def test_backends_agree(self):
        actions = random_stream(150, 15, seed=23)
        make = MAKERS["ic"]
        answers = {
            backend: run_sharded(make, actions, 5, 3, backend=backend)
            for backend in ("serial", "process")
        }
        assert answers["serial"] == answers["process"]


class TestMergeSoundness:
    """Hash-partitioned merges are exact evaluations within the bound."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), slide=st.sampled_from([1, 4]))
    def test_ic_merged_value_is_exact_window_evaluation(self, seed, slide):
        """Modular merge: claimed value == |coverage(seeds)| in the window.

        At aligned times IC's answering checkpoint covers exactly the
        window, so the candidates' coverage sets are the true window
        influence sets and the merged value must equal the ground truth
        evaluation of the merged seeds — overlap deducted exactly.
        """
        window = 12  # both slide values divide it
        actions = random_stream(48, 6, seed=seed)
        make = lambda shard=None: InfluentialCheckpoints(
            window_size=window, k=2, beta=0.2, shard=shard
        )
        merged = run_sharded(make, actions, slide, 3)
        truth = window_index(actions, window)
        assert merged.value == float(len(truth.coverage(merged.seeds)))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), slide=st.sampled_from([1, 4]))
    def test_sic_merged_value_never_overestimates(self, seed, slide):
        """SIC suffixes cover at most the window: values stay conservative."""
        window = 12
        actions = random_stream(48, 6, seed=seed)
        make = lambda shard=None: SparseInfluentialCheckpoints(
            window_size=window, k=2, beta=0.2, shard=shard
        )
        merged = run_sharded(make, actions, slide, 3)
        truth = window_index(actions, window)
        assert merged.value <= float(len(truth.coverage(merged.seeds))) + 1e-9

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000), shards=st.sampled_from([2, 4]))
    def test_modular_ratio_bound(self, seed, shards):
        """merged >= (1/2 − β)/S × OPT for the modular sieve oracle."""
        window, k, beta = 12, 2, 0.2
        actions = random_stream(48, 6, seed=seed)
        make = lambda shard=None: InfluentialCheckpoints(
            window_size=window, k=k, beta=beta, shard=shard
        )
        merged = run_sharded(make, actions, 1, shards)
        truth = window_index(actions, window)
        users = list(truth)
        opt = 0.0
        for combo in itertools.combinations(users, min(k, len(users))):
            opt = max(opt, float(len(truth.coverage(combo))))
        assert merged.value >= (0.5 - beta) / shards * opt - 1e-9

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_non_modular_ratio_bound(self, seed):
        """The best-shard fallback clears (1/2 − β)/S × OPT for the
        conformity-aware (submodular, non-modular) function too."""
        window, k, beta, shards = 12, 2, 0.2, 3
        actions = random_stream(48, 6, seed=seed)
        func = ConformityAwareInfluence(
            {u: 0.3 + 0.1 * (u % 5) for u in range(6)},
            {u: 0.4 + 0.1 * (u % 4) for u in range(6)},
        )
        make = lambda shard=None: SparseInfluentialCheckpoints(
            window_size=window, k=k, beta=beta, func=func, shard=shard
        )
        merged = run_sharded(make, actions, 1, shards)
        truth = window_index(actions, window)
        users = list(truth)
        opt = 0.0
        for combo in itertools.combinations(users, min(k, len(users))):
            opt = max(opt, func.evaluate(combo, truth))
        assert merged.value >= (0.5 - beta) / shards * opt - 1e-9

    def test_multi_query_board_merges_each_query(self):
        actions = random_stream(150, 15, seed=24)

        def factory(assignment=None):
            board = MultiQueryEngine()
            board.add("fast", MAKERS["ic"](shard=assignment))
            board.add("sparse", MAKERS["sic"](shard=assignment))
            return board

        with ShardedEngine.open(factory, 3, backend="serial") as engine:
            for batch in batched(actions, 5):
                engine.process(list(batch))
            answers = engine.query_all()
            assert set(answers) == {"fast", "sparse"}
            truth = window_index(actions, 40)
            for name, answer in answers.items():
                assert answer.time == 150
                assert answer.value <= len(truth.coverage(answer.seeds)) + 1e-9

    def test_deterministic_across_runs(self):
        actions = random_stream(150, 15, seed=25)
        first = run_sharded(MAKERS["ic"], actions, 5, 4)
        second = run_sharded(MAKERS["ic"], actions, 5, 4)
        assert first == second


class TestRecovery:
    def _feed(self, engine, batches):
        resume = engine.now
        for batch in batches:
            if batch[-1].time <= resume:
                continue
            engine.process([a for a in batch if a.time > resume])

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_abandon_reopen_refeed_matches_uninterrupted(
        self, tmp_path, backend
    ):
        """Per-shard snapshot + WAL recovery converges to the clean run."""
        actions = random_stream(200, 20, seed=26)
        batches = [list(b) for b in batched(actions, 5)]
        make = MAKERS["ic"]
        factory = lambda assignment=None: make(shard=assignment)
        expected = run_sharded(make, actions, 5, 2)

        state = tmp_path / "state"
        engine = ShardedEngine.open(
            factory, 2, state_dir=state, backend=backend,
            snapshot_every=7, fsync=False,
        )
        for batch in batches[:23]:
            engine.process(batch)
        # Crash: drop the engine without sealing (workers just stop, and
        # the facade's WAL handle goes as a dead process's would).
        engine._backend.stop()
        engine._resolver.close(snapshot=False)

        recovered = ShardedEngine.open(
            factory, 2, state_dir=state, backend=backend,
            snapshot_every=7, fsync=False,
        )
        assert recovered.slides_processed == 23
        assert max(recovered.shard_replayed_slides) >= 1  # WAL tail replayed
        self._feed(recovered, batches)
        assert recovered.query() == expected
        recovered.close()

        # A sealed close leaves nothing to replay.
        reopened = ShardedEngine.open(
            factory, 2, state_dir=state, backend=backend, fsync=False
        )
        assert reopened.shard_replayed_slides == [0, 0]
        assert reopened.query() == expected
        reopened.close()

    def test_sigkill_one_worker_is_healed_in_place(self, tmp_path):
        """kill -9 of one shard worker: the supervisor restarts it from
        its snapshot + WAL mid-stream and the caller never sees an error."""
        actions = random_stream(200, 20, seed=27)
        batches = [list(b) for b in batched(actions, 5)]
        factory = lambda assignment=None: MAKERS["ic"](shard=assignment)
        expected = run_sharded(MAKERS["ic"], actions, 5, 2)

        state = tmp_path / "state"
        engine = ShardedEngine.open(
            factory, 2, state_dir=state, backend="process",
            snapshot_every=4, fsync=False,
        )
        for batch in batches[:20]:
            engine.process(batch)
        victim = engine.worker_pids[0]
        os.kill(victim, signal.SIGKILL)
        for batch in batches[20:]:
            engine.process(batch)
        assert engine.query() == expected
        assert all(now == 200 for now in engine._shard_nows)
        stats = engine.supervision_stats()
        assert stats["restarts"] == 1
        assert stats["degraded_windows"] == 1
        assert not stats["degraded"]
        survivors = list(engine.worker_pids)
        engine.close()
        # No stray workers: the killed pid and every later worker are gone.
        for pid in [victim] + [p for p in survivors if p is not None]:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_sigkill_with_retries_zero_fails_fast_then_reopen_heals(
        self, tmp_path
    ):
        """retries=0 restores the old fail-fast contract: the error is
        surfaced, and a manual reopen + redelivery heals."""
        actions = random_stream(200, 20, seed=27)
        batches = [list(b) for b in batched(actions, 5)]
        factory = lambda assignment=None: MAKERS["ic"](shard=assignment)
        expected = run_sharded(MAKERS["ic"], actions, 5, 2)

        state = tmp_path / "state"
        engine = ShardedEngine.open(
            factory, 2, state_dir=state, backend="process",
            snapshot_every=4, fsync=False, retries=0,
        )
        for batch in batches[:20]:
            engine.process(batch)
        os.kill(engine.worker_pids[0], signal.SIGKILL)
        with pytest.raises(ShardingError, match="shard 0"):
            for batch in batches[20:]:
                engine.process(batch)
        assert engine.degraded and engine.degraded_shards == [0]
        pids = [p for p in engine.worker_pids if p is not None]
        engine.close(snapshot=False)
        # The mid-run escalation must not leave zombie workers behind.
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

        recovered = ShardedEngine.open(
            factory, 2, state_dir=state, backend="process",
            snapshot_every=4, fsync=False,
        )
        # The killed shard recovered from snapshot + WAL; the facade clock
        # is the minimum, so re-feeding from there heals both shards even
        # if the survivor had advanced further.
        self._feed(recovered, batches)
        assert recovered.query() == expected
        assert all(now == 200 for now in recovered._shard_nows)
        recovered.close()

    def test_sigkill_of_the_facade_does_not_orphan_its_workers(self, tmp_path):
        """kill -9 of the process holding the engine (the default ``serve
        --shards`` after a crash): its workers see EOF and exit, instead of
        blocking in ``recv`` forever behind their own inherited copy of the
        facade's pipe end — including a worker restarted after a heal."""
        context = multiprocessing.get_context("fork")
        report, child_report = context.Pipe(duplex=False)
        facade = context.Process(
            target=_open_heal_report_and_hang,
            args=(child_report, tmp_path / "state"),
        )
        facade.start()
        child_report.close()
        assert report.poll(60), "facade never reported its workers"
        workers = report.recv()
        assert len(workers) == 2 and all(_running(pid) for pid in workers)
        facade.kill()
        facade.join(timeout=30)
        deadline = time.monotonic() + 30
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        orphans = [pid for pid in workers if _running(pid)]
        for pid in orphans:  # a failure must not leak them into the suite
            os.kill(pid, signal.SIGKILL)
        assert not orphans


def _open_heal_report_and_hang(report, state):
    engine = ShardedEngine.open(
        lambda assignment=None: MAKERS["ic"](shard=assignment), 2,
        state_dir=state, backend="process", fsync=False,
    )
    batches = [list(b) for b in batched(random_stream(40, 8, seed=28), 5)]
    engine.process(batches[0])
    os.kill(engine.worker_pids[0], signal.SIGKILL)
    for batch in batches[1:]:
        engine.process(batch)  # heals shard 0 in place
    report.send(list(engine.worker_pids))
    signal.pause()


def _running(pid):
    """Whether ``pid`` is still executing (a zombie awaiting its reaper,
    or a pid that is gone, is not)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


#: Any JSON value, small.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_manifests(draw):
    """The manifest a 2-shard hash root holds, with one key — at the top
    or inside the partitioner — replaced by any JSON value or deleted."""
    manifest = {
        "format": 2,
        "shards": 2,
        "partitioner": HashPartitioner(2).to_state(),
        "ingest": "routed",
    }
    target = draw(st.sampled_from([manifest, manifest["partitioner"]]))
    key = draw(st.sampled_from([*target, "extra"]))
    if draw(st.booleans()):
        target.pop(key, None)
    else:
        target[key] = draw(JSON_VALUES)
    return json.dumps(manifest).encode()


class TestRefusals:
    def test_manifest_mismatch_is_rejected(self, tmp_path):
        factory = lambda assignment=None: MAKERS["ic"](shard=assignment)
        state = tmp_path / "state"
        engine = ShardedEngine.open(
            factory, 2, state_dir=state, fsync=False, backend="serial"
        )
        engine.process([a for a in random_stream(10, 5, seed=1)])
        engine.close()
        with pytest.raises(PersistenceError, match="2 shards"):
            ShardedEngine.open(
                factory, 4, state_dir=state, fsync=False, backend="serial"
            )
        with pytest.raises(PersistenceError, match="partitioner"):
            ShardedEngine.open(
                factory, 2, state_dir=state, fsync=False, backend="serial",
                partitioner=ConstantPartitioner(2, 0),
            )

    @pytest.mark.parametrize("document,phrase", [
        ('{"format": 2, "shards"', "not valid JSON"),
        ("[1, 2]", "malformed"),
        ('{"shards": 2, "partitioner": {"kind": "hash"}}', "malformed"),
        ('{"format": "2", "shards": 2, "partitioner": {}}', "malformed"),
        ('{"format": 2, "shards": "two", "partitioner": {}}', "malformed"),
        ('{"format": 2, "shards": 2, "partitioner": "hash"}', "malformed"),
        pytest.param("[" * 100_000, "not valid JSON", id="nested"),
        ('{"format": true, "shards": 2, "partitioner": {}}', "malformed"),
        ('{"format": 2, "shards": true, "partitioner": {}}', "malformed"),
    ])
    def test_garbage_manifest_is_refused_naming_the_file(
        self, tmp_path, document, phrase
    ):
        (tmp_path / "sharding.json").write_text(document)
        with pytest.raises(PersistenceError, match=phrase) as refusal:
            ShardedEngine.open(
                lambda a=None: MAKERS["ic"](shard=a), 2,
                state_dir=tmp_path, fsync=False, backend="serial",
            )
        assert str(tmp_path / "sharding.json") in str(refusal.value)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(document=st.one_of(st.binary(max_size=64), mutated_manifests()))
    def test_any_manifest_opens_or_is_refused_naming_the_file(
        self, tmp_path_factory, document
    ):
        root = tmp_path_factory.mktemp("manifest")
        (root / "sharding.json").write_bytes(document)
        try:
            engine = ShardedEngine.open(
                lambda a=None: MAKERS["ic"](shard=a), 2,
                state_dir=root, fsync=False, backend="serial",
            )
        except PersistenceError as refusal:
            assert str(root / "sharding.json") in str(refusal)
        else:
            engine.close()

    def test_per_shard_config_mismatch_is_rejected(self, tmp_path):
        state = tmp_path / "state"
        engine = ShardedEngine.open(
            lambda a=None: InfluentialCheckpoints(
                window_size=40, k=3, beta=0.3, shard=a
            ),
            2,
            state_dir=state,
            fsync=False,
            backend="serial",
        )
        engine.process([a for a in random_stream(10, 5, seed=1)])
        engine.close()
        with pytest.raises(ShardingError, match="different engine settings"):
            ShardedEngine.open(
                lambda a=None: InfluentialCheckpoints(
                    window_size=40, k=5, beta=0.3, shard=a
                ),
                2,
                state_dir=state,
                fsync=False,
                backend="serial",
            )

    def test_bad_knobs_are_rejected(self):
        factory = lambda a=None: MAKERS["ic"](shard=a)
        with pytest.raises(ShardingError, match="got 0"):
            ShardedEngine.open(factory, 0, backend="serial")
        # The retired thread backend is as unknown as any other name, and
        # the refusal lists the two that remain.
        for name in ("carrier-pigeon", "thread"):
            with pytest.raises(
                ShardingError,
                match=rf"unknown backend '{name}'.*\('serial', 'process'\)",
            ):
                ShardedEngine.open(factory, 2, backend=name)
        with pytest.raises(ShardingError, match="4 shards"):
            ShardedEngine.open(
                factory, 2, backend="serial", partitioner=HashPartitioner(4)
            )

    def test_out_of_order_batch_is_rejected(self):
        factory = lambda a=None: MAKERS["ic"](shard=a)
        with ShardedEngine.open(factory, 2, backend="serial") as engine:
            engine.process([a for a in random_stream(10, 5, seed=2)])
            with pytest.raises(ValueError, match="out-of-order"):
                engine.process([a for a in random_stream(5, 5, seed=2)])

    def test_action_outside_int64_is_refused_before_logging(self, tmp_path):
        """A field the int64 columns cannot hold is refused before the
        facade's WAL sees it: the next slide is accepted and the state dir
        reopens."""
        factory = lambda a=None: MAKERS["sic"](shard=a)
        state = tmp_path / "state"
        engine = ShardedEngine.open(factory, 2, state_dir=state, backend="serial")
        try:
            with pytest.raises(ValueError, match="user"):
                engine.process([Action(1, 2**70)])
            engine.process([Action(1, 5)])
            answer = engine.query()
        finally:
            engine.close()
        with ShardedEngine.open(factory, 2, state_dir=state, backend="serial") as reopened:
            assert reopened.now == 1
            assert reopened.query() == answer
            reopened.process([Action(2, 6, 1)])

    def test_closed_engine_refuses_work(self):
        factory = lambda a=None: MAKERS["ic"](shard=a)
        engine = ShardedEngine.open(factory, 2, backend="serial")
        engine.close()
        engine.close()  # idempotent
        with pytest.raises(ShardingError, match="closed"):
            engine.process([a for a in random_stream(5, 5, seed=3)])


class TestStatePersistenceOfShardConfig:
    def test_shard_assignment_rides_engine_state(self):
        """to_state/from_state round-trips the shard filter."""
        from repro.sharding.partition import HashPartitioner, ShardAssignment

        assignment = ShardAssignment(HashPartitioner(3), 1)
        engine = InfluentialCheckpoints(
            window_size=20, k=2, beta=0.3, shard=assignment
        )
        for batch in batched(random_stream(60, 8, seed=4), 5):
            engine.process(batch)
        rebuilt = InfluentialCheckpoints.from_state(engine.to_state())
        assert rebuilt.shard == assignment
        assert rebuilt.query() == engine.query()
        tail = random_stream(80, 8, seed=4)[60:]
        for batch in batched(tail, 5):
            engine.process(batch)
            rebuilt.process(batch)
        assert rebuilt.query() == engine.query()
