"""The sharded serving plane: sockets, CLI, load_gen, and SIGTERM seals."""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

from repro.core.ic import InfluentialCheckpoints
from repro.core.stream import batched
from repro.faults import Fault, FaultPlan
from repro.persistence.engine import (
    RecoverableEngine,
    list_shard_state_dirs,
)
from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig
from repro.service.runner import ServiceRunner
from repro.sharding.engine import ShardedEngine
from tests.conftest import parse_prometheus, random_stream

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


def _factory(assignment=None):
    return InfluentialCheckpoints(
        window_size=60, k=3, beta=0.3, shard=assignment
    )


class TestShardedServiceInProcess:
    def test_socket_answers_match_offline_sharded_engine(self):
        """Socket ingest through a sharded engine ≡ offline sharded feed."""
        actions = random_stream(300, 20, seed=31)
        slide = 20

        offline = ShardedEngine.open(_factory, 2, backend="serial")
        answers = []
        for batch in batched(actions, slide):
            offline.process(list(batch))
            answers.append(offline.query())
        offline.close()

        engine = ShardedEngine.open(_factory, 2, backend="serial")
        config = ServiceConfig(
            port=0, slide=slide, flush_interval=60.0,
        )
        with ServiceRunner(engine, config) as runner:
            client = ServiceClient("127.0.0.1", runner.port)
            summary = client.ingest(actions)
            assert summary["accepted"] == len(actions)
            assert summary["slide"] == len(answers)
            served = client.history("main", limit=len(answers))
            status, metrics = client.http_get("/metrics")
        assert status == 200
        assert metrics["engine"]["shards"] == 2
        assert metrics["engine"]["shard_backend"] == "serial"
        assert metrics["queries"]["main"]["kind"] == "sharded"
        assert [a["time"] for a in served] == [a.time for a in answers]
        assert [a["value"] for a in served] == [a.value for a in answers]
        assert [set(a["seeds"]) for a in served] == [
            set(a.seeds) for a in answers
        ]


def _spawn_server(args, cwd):
    """Start ``repro.cli serve`` and return (process, host, port)."""
    env = dict(os.environ)
    src = str(pathlib.Path(cwd) / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        cwd=cwd,
        env=env,
    )
    line = process.stdout.readline().decode()
    assert line.startswith("listening on "), line
    address = line.split()[2]
    host, _, port = address.partition(":")
    return process, host, int(port)


def _reap(process) -> None:
    """Kill the server if it still runs and close its stdout pipe (left
    open, the pipe is a ``ResourceWarning`` under ``python -X dev``)."""
    if process.poll() is None:
        process.kill()
        process.wait()
    process.stdout.close()


class TestShardedServeSubprocess:
    def test_smoke_shards2_loadgen_sigterm_seal(self, tmp_path):
        """The CI sharded smoke: ``serve --shards 2``, 2k+ actions through
        ``scripts/load_gen.py``, a prometheus scrape + trace-log check,
        a flight-recorder/SLO check (a deliberately tight objective must
        fire under load and clear at rest), a collapsed-stack
        profile grab, a top-k read, and a SIGTERM seal leaving every
        shard's state dir replay-free."""
        state_dir = tmp_path / "state"
        report_path = tmp_path / "load_gen.json"
        trace_path = os.environ.get(
            "REPRO_SMOKE_TRACE_LOG", str(tmp_path / "trace.jsonl")
        )
        alert_path = os.environ.get(
            "REPRO_SMOKE_ALERT_LOG", str(tmp_path / "alerts.jsonl")
        )
        profile_path = os.environ.get(
            "REPRO_SMOKE_PROFILE", str(tmp_path / "profile.txt")
        )
        # Any slide at all violates threshold 0 — guaranteed to burn
        # while load_gen runs and to clear once the stream stops.
        tight_slo = (
            "smoke_tight=repro_slide_seconds:p99,threshold=0.0,"
            "objective=0.5,fast=0.5,slow=1.0,burn=1.0,severity=page,"
            "min-samples=2"
        )
        process, host, port = _spawn_server(
            [
                "--algorithm", "sic", "--window", "500", "--slide", "25",
                "-k", "5", "--beta", "0.3", "--shards", "2",
                "--shard-backend", "process", "--state-dir", str(state_dir),
                "--snapshot-every", "0", "--flush-interval", "60",
                "--trace-log", trace_path, "--slow-slide-ms", "0",
                "--sample-interval", "0.1", "--alert-log", alert_path,
                "--slo", tight_slo,
            ],
            cwd=REPO_ROOT,
        )
        try:
            env = dict(os.environ)
            env["PYTHONPATH"] = (
                str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
            )
            alert_file = pathlib.Path(alert_path)

            def alert_kinds():
                if not alert_file.exists():
                    return []
                return [
                    json.loads(line)["event"]
                    for line in alert_file.read_text().splitlines()
                    if line
                ]

            # Keep load_gen bursts flowing until the tight SLO is *seen*
            # burning.  One 2k-action burst lasts ~0.2 s and can end
            # before the 0.1 s sampler has put enough burning samples in
            # both windows, so follow-up bursts double in size (and pick
            # up where the last one stopped via --offset) instead of the
            # test betting on out-racing a single burst.
            deadline = time.time() + 30
            actions = 0
            burst = 2000
            while True:
                completed = subprocess.run(
                    [
                        sys.executable,
                        str(REPO_ROOT / "scripts" / "load_gen.py"),
                        "--port", str(port), "-n", str(burst), "-u", "200",
                        "--seed", "15", "--batch", "64",
                        "--offset", str(actions),
                        "--output", str(report_path),
                    ],
                    capture_output=True,
                    text=True,
                    timeout=240,
                    env=env,
                    cwd=REPO_ROOT,
                )
                assert completed.returncode == 0, completed.stderr[-1500:]
                report = json.loads(report_path.read_text())
                actions += burst
                assert report["actions"] == burst
                assert report["batch"] == 64  # the batched wire format
                assert report["accepted"] == actions  # server-cumulative
                assert report["rejected"] == 0
                assert report["actions_per_sec"] > 0
                burst *= 2
                if "alert_raised" in alert_kinds() or time.time() >= deadline:
                    break
            slides = actions // 25
            assert report["slides"] == slides
            client = ServiceClient(host, port)
            answer = client.topk("main")
            assert answer["time"] == actions
            assert len(answer["seeds"]) == 5
            assert answer["value"] == report["query_value"]

            # The telemetry plane under real sharded-process load: the
            # exposition parses, covers every layer, and the forced
            # slow-slide threshold traced every slide.
            samples = parse_prometheus(client.metrics_prometheus())
            assert samples["repro_ingest_accepted_total"][""] == actions
            assert samples["repro_slide_seconds_count"][""] == slides
            stage_counts = samples["repro_slide_stage_seconds_count"]
            assert stage_counts['{stage="shard_fanout"}'] == slides
            assert stage_counts['{stage="shard_merge"}'] == slides
            for shard in ("0", "1"):
                labels = f'{{shard="{shard}"}}'
                assert samples["repro_shard_busy_seconds_total"][labels] > 0
                assert samples["repro_shard_restarts_total"][labels] == 0
                assert samples["repro_shard_up"][labels] == 1
                # Each shard consumed its routed records, not the stream.
                assert samples["repro_shard_routed_records_total"][labels] > 0
            assert samples["repro_shards_degraded"][""] == 0
            assert samples["repro_resolver_actions_total"][""] == actions
            # The flight recorder's own health rides the exposition too.
            assert samples["repro_flight_samples_total"][""] >= 1
            assert "" in samples["repro_flight_sampler_lag_seconds"]
            assert '{slo="smoke_tight"}' in samples["repro_alert_active"]

            # The tight SLO burned under load and must clear now that the
            # stream has stopped (idle intervals record 0).
            kinds = alert_kinds()
            deadline = time.time() + 30
            while kinds[-1:] != ["alert_cleared"] and time.time() < deadline:
                time.sleep(0.1)
                kinds = alert_kinds()
            assert "alert_raised" in kinds, kinds
            assert kinds[-1] == "alert_cleared", kinds
            events = [
                json.loads(line)
                for line in alert_file.read_text().splitlines()
                if line
            ]
            raised = events[kinds.index("alert_raised")]
            assert raised["slo"] == "smoke_tight"
            assert raised["severity"] == "page"
            status, health = client.http_get("/healthz")
            assert status == 200, health  # back to green after clearing

            # A two-second profile window: collapsed stacks must exist
            # and attribute samples to the (parked) ingest executor.
            status, body, _ = client.http_get_raw("/debug/profile?seconds=2")
            assert status == 200
            assert body.strip(), "empty profile"
            assert "ingest;" in body, body[:2000]
            pathlib.Path(profile_path).write_text(body)

            traced = [
                json.loads(line)
                for line in pathlib.Path(trace_path)
                .read_text()
                .strip()
                .splitlines()
            ]
            assert len(traced) == slides
            stages = set(traced[-1]["stages"])
            assert {
                "queue_wait", "coalesce", "shard_fanout",
                "shard_merge", "publish",
            } <= stages

            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            _reap(process)
        # The SIGTERM seal, per shard: snapshot at the final slide, no
        # WAL tail to replay.
        shard_dirs = list_shard_state_dirs(state_dir)
        assert len(shard_dirs) == 2
        for shard_dir in shard_dirs:
            engine = RecoverableEngine.open(shard_dir, factory=None)
            try:
                assert engine.slides_processed == slides
                assert engine.replayed_slides == 0
                assert engine.now == actions
            finally:
                engine.close(snapshot=False)

    def test_sharded_resume_after_sigkill_converges(self, tmp_path):
        """kill -9 the whole sharded server; restart + replay converges."""
        state_dir = tmp_path / "state"
        actions = random_stream(600, 40, seed=32)
        server_args = [
            "--algorithm", "ic", "--window", "120", "--slide", "5",
            "-k", "3", "--beta", "0.3", "--shards", "2",
            "--shard-backend", "process", "--state-dir", str(state_dir),
            "--snapshot-every", "7", "--flush-interval", "60",
        ]

        def offline_factory(assignment=None):
            return InfluentialCheckpoints(
                window_size=120, k=3, beta=0.3, shard=assignment
            )

        reference = ShardedEngine.open(offline_factory, 2, backend="serial")
        for batch in batched(actions, 5):
            reference.process(list(batch))
        expected = reference.query()
        reference.close()

        process, host, port = _spawn_server(server_args, cwd=REPO_ROOT)
        try:
            client = ServiceClient(host, port)
            summary = client.ingest(actions[:400])
            assert summary["slide"] == 80
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)
        finally:
            _reap(process)

        process, host, port = _spawn_server(server_args, cwd=REPO_ROOT)
        try:
            client = ServiceClient(host, port)
            summary = client.ingest(actions)  # at-least-once redelivery
            assert summary["slide"] == 120
            assert summary["time"] == 600
            answer = client.topk("main")
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            _reap(process)

        assert answer["time"] == expected.time
        assert answer["value"] == expected.value
        assert set(answer["seeds"]) == set(expected.seeds)


class TestDegradedHealth:
    def test_healthz_degraded_after_shard_kill_then_clears(self, tmp_path):
        """SIGKILL one shard worker: reads degrade (503 "degraded" with
        the shard named), the next write heals it in place, and the
        service returns to 200 with the degraded window on record."""
        actions = random_stream(400, 30, seed=34)
        offline = ShardedEngine.open(_factory, 2, backend="serial")
        for batch in batched(actions, 20):
            offline.process(list(batch))
        expected = offline.query()
        offline.close()

        engine = ShardedEngine.open(
            _factory, 2, state_dir=tmp_path / "state",
            backend="process", snapshot_every=4,
        )
        config = ServiceConfig(
            port=0, slide=20, flush_interval=60.0,
        )
        with ServiceRunner(engine, config) as runner:
            client = ServiceClient("127.0.0.1", runner.port)
            client.ingest(actions[:200])
            victim = engine.worker_pids[0]
            os.kill(victim, signal.SIGKILL)
            time.sleep(0.2)
            # A merged read notices the dead worker and degrades instead
            # of failing (reads never restart workers).
            engine.query_all()
            assert runner.degraded
            status, payload = client.http_get("/healthz")
            assert status == 503
            assert payload["status"] == "degraded"
            assert payload["degraded_shards"] == [0]
            assert payload["restarts"] == 0
            degraded = client.wait_healthy(accept_degraded=True)
            assert degraded["status"] == "degraded"
            # The next write heals the shard in place and clears the flag.
            client.ingest(actions[200:])
            assert client.wait_healthy()["status"] == "ok"
            assert not runner.degraded
            answer = client.topk("main")
            status, metrics = client.http_get("/metrics")
        assert answer["time"] == expected.time
        assert answer["value"] == expected.value
        assert set(answer["seeds"]) == set(expected.seeds)
        assert status == 200
        assert metrics["engine"]["degraded"] is False
        assert metrics["engine"]["degraded_shards"] == []
        supervision = metrics["engine"]["supervision"]
        assert supervision["restarts"] == 1
        assert supervision["degraded_windows"] == 1
        assert supervision["degraded_seconds"] > 0
        assert metrics["ingest"]["writer_retries"] == 0


    def test_healing_write_gets_its_eof_inside_the_client_timeout(self, tmp_path):
        """The worker forked by a healing write inherits a copy of the
        ingest connection's socket; the server must still end the
        conversation (shutdown, not just close), or the client's drain
        thread sits in a read for its whole timeout after the sync reply."""
        actions = random_stream(400, 30, seed=34)
        engine = ShardedEngine.open(
            _factory, 2, state_dir=tmp_path / "state",
            backend="process", snapshot_every=4,
        )
        config = ServiceConfig(
            port=0, slide=20, flush_interval=60.0,
        )
        with ServiceRunner(engine, config) as runner:
            client = ServiceClient("127.0.0.1", runner.port, timeout=2.0)
            client.ingest(actions[:200])
            os.kill(engine.worker_pids[0], signal.SIGKILL)
            started = time.monotonic()
            summary = client.ingest(actions[200:])
            elapsed = time.monotonic() - started
        assert summary["slide"] == 20
        assert engine.supervision_stats()["restarts"] == 1
        assert elapsed < client.timeout, f"client waited {elapsed:.2f}s for EOF"


class TestChaosServeSubprocess:
    def test_fault_plan_serve_shards2_converges(self, tmp_path):
        """The CI chaos smoke: ``serve --shards 2 --fault-plan`` with a
        scripted SIGKILL per shard mid-stream.  The client sees zero
        errors, the final answer matches a fault-free run, and /metrics
        records the healed degraded windows."""
        state_dir = tmp_path / "state"
        plan_path = tmp_path / "plan.json"
        FaultPlan(
            [
                Fault(kind="kill", shard=0, at_slide=6),
                Fault(kind="kill", shard=1, at_slide=14),
            ],
            seed=15,
        ).save(plan_path)
        actions = random_stream(600, 40, seed=33)

        def offline_factory(assignment=None):
            return InfluentialCheckpoints(
                window_size=120, k=3, beta=0.3, shard=assignment
            )

        reference = ShardedEngine.open(offline_factory, 2, backend="serial")
        for batch in batched(actions, 5):
            reference.process(list(batch))
        expected = reference.query()
        reference.close()

        process, host, port = _spawn_server(
            [
                "--algorithm", "ic", "--window", "120", "--slide", "5",
                "-k", "3", "--beta", "0.3", "--shards", "2",
                "--shard-backend", "process", "--state-dir", str(state_dir),
                "--snapshot-every", "5", "--flush-interval", "60",
                "--fault-plan", str(plan_path),
            ],
            cwd=REPO_ROOT,
        )
        try:
            client = ServiceClient(host, port)
            summary = client.ingest(actions)  # raises on any error line
            assert summary["slide"] == 120
            assert summary["time"] == 600
            answer = client.topk("main")
            status, payload = client.http_get("/healthz")
            assert status == 200, payload
            status, metrics = client.http_get("/metrics")
            assert status == 200
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            _reap(process)
        assert answer["time"] == expected.time
        assert answer["value"] == expected.value
        assert set(answer["seeds"]) == set(expected.seeds)
        assert metrics["engine"]["degraded"] is False
        supervision = metrics["engine"]["supervision"]
        assert supervision["restarts"] == 2
        assert supervision["degraded_windows"] == 2
        assert supervision["escalations"] == 0
        assert metrics["ingest"]["writer_retries"] == 0
