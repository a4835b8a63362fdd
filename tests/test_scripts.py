"""Smoke tests for the repository scripts."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).parent.parent / "scripts"


def load_script(name):
    """Import ``scripts/<name>.py`` as a module."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRunExperiments:
    def test_only_table3(self, tmp_path):
        completed = subprocess.run(
            [
                sys.executable,
                str(SCRIPTS / "run_experiments.py"),
                "--only", "table3",
                "--beta-scale", "tiny",
                "--sweep-scale", "tiny",
                "--out", str(tmp_path),
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr[-1500:]
        assert (tmp_path / "table3.csv").exists()
        assert (tmp_path / "table3.txt").exists()
        assert "wrote table3" in completed.stdout
        # Nothing else was produced.
        produced = {p.name for p in tmp_path.iterdir()}
        assert produced == {"table3.csv", "table3.txt"}

    def test_csv_has_all_datasets(self, tmp_path):
        subprocess.run(
            [
                sys.executable,
                str(SCRIPTS / "run_experiments.py"),
                "--only", "table3",
                "--beta-scale", "tiny",
                "--out", str(tmp_path),
            ],
            capture_output=True,
            timeout=300,
            check=True,
        )
        content = (tmp_path / "table3.csv").read_text()
        for dataset in ("reddit", "twitter", "syn-o", "syn-n"):
            assert dataset in content


class TestLoadGen:
    def test_drives_a_live_server(self):
        """The load generator pushes a stream and reports the board."""
        from repro.core.sic import SparseInfluentialCheckpoints
        from repro.persistence.engine import RecoverableEngine
        from repro.service.config import ServiceConfig
        from repro.service.runner import ServiceRunner

        load_gen = load_script("load_gen")

        engine = RecoverableEngine.open(
            None,
            lambda: SparseInfluentialCheckpoints(window_size=200, k=3, beta=0.3),
        )
        config = ServiceConfig(port=0, slide=25, flush_interval=60.0)
        with ServiceRunner(engine, config) as runner:
            report = load_gen.main([
                "--port", str(runner.port), "-n", "500", "-u", "50",
            ])
        assert report["actions"] == 500
        assert report["accepted"] == 500
        assert report["rejected"] == 0
        assert report["actions_per_sec"] > 0
        assert report["board"]["main"]["time"] == 500


class TestMigrateToRouted:
    """``scripts/migrate_to_routed.py`` converts a format-1 root in place."""

    SHARDS = 2

    @staticmethod
    def _make(assignment=None):
        from repro.core.ic import InfluentialCheckpoints

        return InfluentialCheckpoints(
            window_size=40, k=3, beta=0.3, shard=assignment
        )

    def _format_1_root(self, state, seal, slides=23):
        """A root as pre-routed builds left it: every shard engine durable
        on its own, fed the raw stream, under a hand-written manifest."""
        from repro.core.stream import batched
        from repro.persistence.engine import RecoverableEngine, shard_state_dir
        from repro.sharding.partition import HashPartitioner, ShardAssignment
        from tests.conftest import random_stream

        partitioner = HashPartitioner(self.SHARDS)
        batches = [list(b) for b in batched(random_stream(200, 20, seed=75), 5)]
        for shard in range(self.SHARDS):
            assignment = ShardAssignment(partitioner, shard)
            engine = RecoverableEngine.open(
                shard_state_dir(state, shard),
                lambda: self._make(assignment),
                snapshot_every=7,
                fsync=False,
            )
            for batch in batches[:slides]:
                engine.process(batch)
            if seal:
                engine.close()
            else:
                engine.store.close()  # crash: the WAL tail stays unsealed
        (state / "sharding.json").write_text(
            json.dumps(
                {
                    "format": 1,
                    "shards": self.SHARDS,
                    "partitioner": partitioner.to_state(),
                }
            )
        )
        return batches

    @pytest.mark.parametrize("seal", [True, False])
    def test_migrate_then_continue_converges(self, tmp_path, seal):
        """Sealed roots and crashed roots (whose WAL tail seeds the
        resolver) both convert, reopen and continue to the answers of an
        uninterrupted routed run."""
        from repro.sharding.engine import ShardedEngine

        state = tmp_path / "state"
        batches = self._format_1_root(state, seal)
        with ShardedEngine.open(
            self._make, self.SHARDS, backend="serial"
        ) as uninterrupted:
            for batch in batches:
                uninterrupted.process(batch)
            expected = uninterrupted.query()

        completed = subprocess.run(
            [sys.executable, str(SCRIPTS / "migrate_to_routed.py"), str(state)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr[-1500:]
        summary = json.loads(completed.stdout)
        assert summary["migrated"] and summary["ingest"] == "routed"
        assert summary["now"] == 115
        if not seal:
            assert summary["replayed"] > 0  # WAL tail replayed into the resolver
        # Idempotent: a second call is a no-op.
        migrate = load_script("migrate_to_routed").migrate_to_routed
        assert migrate(state)["migrated"] is False

        engine = ShardedEngine.open(
            self._make, self.SHARDS, state_dir=state, backend="serial",
            snapshot_every=7, fsync=False,
        )
        try:
            resume = engine.now
            for batch in batches:
                if batch[-1].time <= resume:
                    continue
                engine.process([a for a in batch if a.time > resume])
            assert engine.query() == expected
        finally:
            engine.close()

    def test_migrate_refuses_non_sharded_and_garbage_roots(self, tmp_path):
        from repro.persistence.serialize import PersistenceError

        migrate = load_script("migrate_to_routed").migrate_to_routed
        with pytest.raises(PersistenceError, match="no sharding manifest"):
            migrate(tmp_path)
        (tmp_path / "sharding.json").write_text("[1, 2]")
        with pytest.raises(PersistenceError, match="malformed"):
            migrate(tmp_path)
