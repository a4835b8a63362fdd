"""Integration tests for the serving plane.

Covers the PR's acceptance criteria:

* **Round-trip equivalence** — actions ingested over the socket yield the
  same per-checkpoint (per-slide) answers as offline processing of the
  identical stream, for IC and SIC at L ∈ {1, 5};
* **Filtered queries under coalescing** — TopicAwareSIM/LocationAwareSIM
  running inside a MultiQueryEngine behind the ingest loop answer exactly
  like a per-action offline feed (sub-stream re-timing survives slide
  coalescing);
* **Crash-recoverable serving** — ``kill -9`` of a ``--state-dir`` server
  then restart + client replay converges to the uninterrupted answers;
* **Graceful SIGTERM** — the CI smoke: ingest over the socket, answer
  top-k, exit 0 on SIGTERM with a sealed final snapshot.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.core.greedy import WindowedGreedy
from repro.core.ic import InfluentialCheckpoints
from repro.core.multi import MultiQueryEngine
from repro.core.sic import SparseInfluentialCheckpoints
from repro.core.stream import batched
from repro.influence.filters import Region
from repro.influence.queries import LocationAwareSIM, TopicAwareSIM
from repro.persistence.engine import RecoverableEngine
from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig
from repro.service.runner import ServiceRunner
from tests.conftest import parse_prometheus, random_stream


def serve(engine_factory, **config_kwargs) -> ServiceRunner:
    """An in-process server on an OS-picked port."""
    config_kwargs.setdefault("port", 0)
    config_kwargs.setdefault("flush_interval", 60.0)  # deterministic slides
    engine = RecoverableEngine.open(None, engine_factory)
    return ServiceRunner(engine, ServiceConfig(**config_kwargs))


class TestRoundTripEquivalence:
    @pytest.mark.parametrize("slide", [1, 5])
    def test_socket_ingest_matches_offline_per_slide(self, slide):
        """Socket answers ≡ offline answers at every slide (IC + SIC)."""
        actions = random_stream(150, 15, seed=11)
        makers = {
            "ic": lambda: InfluentialCheckpoints(window_size=40, k=3, beta=0.3),
            "sic": lambda: SparseInfluentialCheckpoints(
                window_size=40, k=3, beta=0.3
            ),
        }

        offline = {}
        for name, make in makers.items():
            framework = make()
            answers = []
            for batch in batched(actions, slide):
                framework.process(batch)
                answers.append(framework.query())
            offline[name] = answers

        def factory():
            engine = MultiQueryEngine()
            for name, make in makers.items():
                engine.add(name, make())
            return engine

        with serve(factory, slide=slide, history=400) as runner:
            client = ServiceClient("127.0.0.1", runner.port)
            summary = client.ingest(actions)
            assert summary["accepted"] == len(actions)
            assert summary["slide"] == len(offline["ic"])
            for name, answers in offline.items():
                history = client.history(name)
                assert len(history) == len(answers)
                for served, expected in zip(history, answers):
                    assert served["time"] == expected.time
                    assert served["value"] == expected.value
                    assert served["seeds"] == sorted(expected.seeds)

    def test_interleaved_connections_continue_one_stream(self):
        """Many short-lived ingest connections feed the same board."""
        actions = random_stream(60, 10, seed=12)
        reference = WindowedGreedy(window_size=20, k=2)
        for batch in batched(actions, 6):
            reference.process(batch)

        with serve(
            lambda: WindowedGreedy(window_size=20, k=2), slide=6
        ) as runner:
            client = ServiceClient("127.0.0.1", runner.port)
            for start in range(0, 60, 20):
                client.ingest(actions[start : start + 20])
            answer = client.topk("main")
        expected = reference.query()
        assert answer["time"] == expected.time
        assert answer["value"] == expected.value
        assert answer["seeds"] == sorted(expected.seeds)


class TestFilteredQueriesUnderIngestLoop:
    @pytest.mark.parametrize("slide", [3, 7])
    def test_topic_and_location_survive_slide_coalescing(self, slide):
        """Sub-stream re-timing is preserved through coalesced slides."""
        actions = random_stream(140, 12, seed=13)
        topics_of = {
            a.time: {"deals" if a.user % 3 else "support"} for a in actions
        }
        position_of = {a.time: (a.user % 7, a.user % 5) for a in actions}
        region = Region(0, 0, 3, 3)

        def make_queries():
            return {
                "deals": TopicAwareSIM(
                    {"deals"}, topics_of, window_size=30, k=2
                ),
                "nearby": LocationAwareSIM(
                    region, position_of, window_size=30, k=2
                ),
                "global": SparseInfluentialCheckpoints(
                    window_size=30, k=2, beta=0.3
                ),
            }

        offline = make_queries()
        for action in actions:  # per-action feed: the re-timing reference
            offline["deals"].observe(action)
            offline["nearby"].observe(action)
            offline["global"].process([action])

        def factory():
            engine = MultiQueryEngine()
            for name, query in make_queries().items():
                engine.add(name, query)
            return engine

        with serve(factory, slide=slide) as runner:
            client = ServiceClient("127.0.0.1", runner.port)
            client.ingest(actions)
            for name in ("deals", "nearby"):
                served = client.topk(name)
                expected = offline[name].query()
                assert served["time"] == expected.time
                assert served["value"] == expected.value
                assert served["seeds"] == sorted(expected.seeds)
            # Metrics carry the sub-stream selectivity.
            _, metrics = client.http_get("/metrics")
            deals = metrics["queries"]["deals"]
            assert deals["kind"] == "filtered"
            assert deals["observed"] == len(actions)
            assert deals["matched"] == offline["deals"].matched


class TestFailureShutdown:
    def test_failed_writer_does_not_seal_contaminated_state(self, tmp_path):
        """stop() after a writer death skips the final snapshot."""
        import asyncio

        from repro.service.server import ReproService

        state = tmp_path / "state"
        actions = random_stream(12, 5, seed=18)
        engine = RecoverableEngine.open(
            state,
            lambda: WindowedGreedy(window_size=10, k=2),
            snapshot_every=0,  # only a close-time seal could write one
        )

        async def body():
            service = ReproService(
                engine, ServiceConfig(port=0, slide=3, flush_interval=60.0)
            )
            await service.start()
            for action in actions[:6]:
                await service.ingest.submit(action)
            await service.ingest.sync()  # two clean WAL-logged slides

            def boom(batch):
                raise RuntimeError("mid-slide failure")

            engine.algorithm.process = boom
            for action in actions[6:9]:
                await service.ingest.submit(action)
            with pytest.raises(RuntimeError, match="mid-slide failure"):
                await service.ingest.sync()
            await service.stop()  # must not seal the poisoned state

        asyncio.run(body())
        assert list((state / "snapshots").iterdir()) == []
        # Recovery replays the WAL cleanly (slide 3 was logged ahead).
        reopened = RecoverableEngine.open(
            state, lambda: WindowedGreedy(window_size=10, k=2)
        )
        try:
            assert reopened.replayed_slides == 3
            assert reopened.now == 9
        finally:
            reopened.close(snapshot=False)


class TestWarmStart:
    def test_restarted_server_answers_before_any_new_slide(self, tmp_path):
        """Recovered state warms the answer cache: no 503 after restart."""
        actions = random_stream(60, 10, seed=17)
        state = tmp_path / "state"

        def factory():
            return MultiQueryEngine().add(
                "board", SparseInfluentialCheckpoints(window_size=20, k=2, beta=0.3)
            )

        first = RecoverableEngine.open(state, factory)
        for batch in batched(actions, 6):
            first.process(batch)
        expected = first.algorithm.query("board")
        first.close()

        engine = RecoverableEngine.open(state, factory)
        with ServiceRunner(
            engine, ServiceConfig(port=0, flush_interval=60.0, slide=6)
        ) as runner:
            client = ServiceClient("127.0.0.1", runner.port)
            answer = client.topk("board")  # no ingest has happened yet
            assert answer["time"] == expected.time
            assert answer["value"] == expected.value
            assert answer["seeds"] == sorted(expected.seeds)
            assert answer["slide"] == 10
            # Full-stream replay is dropped entirely and stays answerable.
            summary = client.ingest(actions)
            assert summary["dropped_stale"] == 60
            assert client.topk("board")["time"] == expected.time


class TestHttpReadPath:
    def test_endpoints(self):
        actions = random_stream(40, 8, seed=14)
        with serve(
            lambda: (
                MultiQueryEngine()
                .add("a", WindowedGreedy(window_size=20, k=2))
                .add("b", WindowedGreedy(window_size=20, k=1))
            ),
            slide=4,
        ) as runner:
            client = ServiceClient("127.0.0.1", runner.port)

            health = client.wait_healthy()
            assert health["queries"] == ["a", "b"]
            assert health["durable"] is False

            status, payload = client.http_get("/queries")
            assert (status, payload) == (200, {"queries": ["a", "b"]})

            # Nothing published yet.
            status, payload = client.http_get("/queries/a/topk")
            assert status == 503

            client.ingest(actions)
            status, payload = client.http_get("/queries/a/topk")
            assert status == 200
            assert payload["time"] == 40

            status, payload = client.http_get("/queries/a/history?limit=3")
            assert status == 200
            assert len(payload["answers"]) == 3

            assert client.http_get("/queries/zzz/topk")[0] == 404
            assert client.http_get("/queries/zzz/history")[0] == 404
            assert client.http_get("/nope")[0] == 404
            assert client.http_get("/queries/a/history?limit=x")[0] == 400

            status, metrics = client.http_get("/metrics")
            assert status == 200
            assert metrics["ingest"]["accepted"] == 40
            assert metrics["ingest"]["slides"] == 10
            assert metrics["engine"]["slides"] == 10
            assert metrics["queries"]["a"]["answer_lag_slides"] == 0
            assert metrics["queries"]["a"]["answer_age_seconds"] >= 0

    def test_rejected_lines_are_reported_not_fatal(self):
        import socket as socket_module

        with serve(
            lambda: WindowedGreedy(window_size=10, k=1), slide=2
        ) as runner:
            with socket_module.create_connection(
                ("127.0.0.1", runner.port), timeout=10
            ) as sock:
                sock.sendall(b'{"nonsense": true}\n')
                sock.sendall(b"[1]\n")
                sock.sendall(b'{"time":1,"user":0}\n{"time":2,"user":1,"parent":1}\n')
                sock.sendall(b'{"cmd":"sync"}\n')
                reader = sock.makefile("rb")
                lines = [json.loads(reader.readline()) for _ in range(3)]
            errors = [l for l in lines if "error" in l]
            synced = [l for l in lines if l.get("synced")]
            assert len(errors) == 2
            assert len(synced) == 1
            assert synced[0]["accepted"] == 2
            assert synced[0]["rejected"] == 2
            client = ServiceClient("127.0.0.1", runner.port)
            assert client.topk("main")["time"] == 2


class TestHttpErrorPaths:
    """Negative-path contracts of the read plane (one server, many probes)."""

    def test_unknown_query_bad_limit_and_bad_format(self):
        with serve(
            lambda: WindowedGreedy(window_size=10, k=1), slide=2
        ) as runner:
            client = ServiceClient("127.0.0.1", runner.port)
            client.wait_healthy()

            status, payload = client.http_get("/queries/ghost/topk")
            assert status == 404
            assert "ghost" in payload["error"]
            assert payload["queries"] == ["main"]  # helpful: what exists

            status, payload = client.http_get("/queries/ghost/history")
            assert status == 404
            assert payload["queries"] == ["main"]

            status, payload = client.http_get(
                "/queries/main/history?limit=five"
            )
            assert status == 400
            assert "five" in payload["error"]

            status, payload = client.http_get("/metrics?format=xml")
            assert status == 400
            assert payload["formats"] == ["json", "prometheus"]
            assert "prometheus" in payload["hint"]

            # Content negotiation errors must not poison later requests.
            assert client.http_get("/metrics")[0] == 200


class TestTelemetryPlane:
    def test_prometheus_exposition_covers_the_pipeline(self):
        actions = random_stream(40, 8, seed=14)
        with serve(
            lambda: SparseInfluentialCheckpoints(window_size=20, k=2, beta=0.3),
            slide=4,
        ) as runner:
            client = ServiceClient("127.0.0.1", runner.port)
            client.ingest(actions)

            status, body, content_type = client.http_get_raw(
                "/metrics?format=prometheus"
            )
            assert status == 200
            assert content_type.startswith("text/plain")
            assert "version=0.0.4" in content_type
            samples = parse_prometheus(body)

            assert samples["repro_ingest_accepted_total"][""] == 40
            assert samples["repro_ingest_slides_total"][""] == 10
            assert samples["repro_ingest_queue_depth"][""] == 0
            assert samples["repro_ingest_queue_capacity"][""] > 0
            assert samples["repro_slide_seconds_count"][""] == 10
            assert samples["repro_ingest_queue_wait_seconds_count"][""] == 40
            stage_counts = samples["repro_slide_stage_seconds_count"]
            for stage in ("queue_wait", "coalesce", "forest_index", "oracle"):
                assert stage_counts[f'{{stage="{stage}"}}'] == 10, stage
            assert samples["repro_answer_age_seconds"]['{query="main"}'] >= 0

            # The path alias renders the identical families.
            status, alias_body, _ = client.http_get_raw("/metrics/prometheus")
            assert status == 200
            assert set(parse_prometheus(alias_body)) == set(samples)

    def test_json_metrics_has_histogram_summaries_and_rates(self):
        actions = random_stream(30, 6, seed=3)
        with serve(
            lambda: WindowedGreedy(window_size=15, k=2), slide=3
        ) as runner:
            client = ServiceClient("127.0.0.1", runner.port)
            client.ingest(actions)
            status, metrics = client.http_get("/metrics")
            assert status == 200
            assert metrics["ingest"]["lifetime_rate_actions_per_sec"] > 0
            assert "ingest_rate_actions_per_sec" in metrics["ingest"]
            telemetry = metrics["telemetry"]
            slide_summary = telemetry["metrics"]["repro_slide_seconds"]
            assert slide_summary["count"] == 10
            assert {"p50", "p95", "p99", "max"} <= set(slide_summary)
            stage_summaries = telemetry["metrics"]["repro_slide_stage_seconds"]
            assert stage_summaries["stage=oracle"]["count"] == 10
            assert telemetry["traces"]["traced_slides"] == 10
            assert metrics["queries"]["main"]["answer_age_seconds"] >= 0

    def test_slow_slide_trace_lands_in_jsonl_and_summarizes(self, tmp_path):
        """slow_slide_ms=0 forces every slide into --trace-log; the trace
        covers the whole durable pipeline and `trace summarize` renders it."""
        from repro.cli import main as cli_main

        trace_path = tmp_path / "trace.jsonl"
        engine = RecoverableEngine.open(
            str(tmp_path / "state"),
            lambda: SparseInfluentialCheckpoints(
                window_size=20, k=2, beta=0.3
            ),
            snapshot_every=5,
        )
        runner = ServiceRunner(
            engine,
            ServiceConfig(
                port=0,
                flush_interval=60.0,
                slide=4,
                trace_log=str(trace_path),
                slow_slide_ms=0.0,
            ),
        )
        runner.start()
        try:
            client = ServiceClient("127.0.0.1", runner.port)
            client.ingest(random_stream(40, 8, seed=14))
            status, metrics = client.http_get("/metrics")
            assert metrics["telemetry"]["traces"]["slow_slides"] == 10
            assert metrics["telemetry"]["traces"]["trace_log_events"] == 10
        finally:
            runner.stop()

        events = [
            json.loads(line)
            for line in trace_path.read_text().strip().splitlines()
        ]
        assert len(events) == 10
        required = {
            "queue_wait", "coalesce", "forest_index", "oracle",
            "wal_fsync", "publish",
        }
        for event in events:
            assert event["event"] == "slow_slide"
            assert event["threshold_ms"] == 0.0
            assert required <= set(event["stages"]), event["stages"]
            for doc in event["stages"].values():
                assert doc["seconds"] >= 0
        # Cadence snapshots (every 5 slides) appear as a snapshot stage.
        assert any("snapshot" in event["stages"] for event in events)

        import io
        from contextlib import redirect_stdout

        for command in ("tail", "summarize"):
            out = io.StringIO()
            with redirect_stdout(out):
                assert cli_main(["trace", command, str(trace_path)]) == 0
            rendered = out.getvalue()
            assert "oracle" in rendered
        assert "10 traced slides" in rendered
        assert "share" in rendered  # the breakdown table header


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


REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


class TestServeSubprocess:
    def test_smoke_ingest_topk_sigterm_seal(self, tmp_path):
        """The CI smoke: 2k actions over the socket, top-k, SIGTERM seal."""
        state_dir = tmp_path / "state"
        process, host, port = _spawn_server(
            [
                "--algorithm", "sic", "--window", "500", "--slide", "25",
                "-k", "5", "--beta", "0.3", "--state-dir", str(state_dir),
                "--snapshot-every", "0", "--flush-interval", "60",
            ],
            cwd=REPO_ROOT,
        )
        try:
            client = ServiceClient(host, port)
            actions = random_stream(2000, 200, seed=15)
            summary = client.ingest(actions)
            assert summary["accepted"] == 2000
            assert summary["slide"] == 80
            answer = client.topk("main")
            assert answer["time"] == 2000
            assert len(answer["seeds"]) == 5
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            _reap(process)
        # The SIGTERM seal: a snapshot at the final slide, zero WAL tail.
        engine = RecoverableEngine.open(state_dir, factory=None)
        try:
            assert engine.slides_processed == 80
            assert engine.replayed_slides == 0
            assert engine.now == 2000
        finally:
            engine.close(snapshot=False)

    def test_sigkill_restart_replay_converges(self, tmp_path):
        """kill -9 + restart + client replay ≡ the uninterrupted run."""
        state_dir = tmp_path / "state"
        actions = random_stream(900, 40, seed=16)
        server_args = [
            "--algorithm", "ic", "--window", "120", "--slide", "5",
            "-k", "3", "--beta", "0.3", "--state-dir", str(state_dir),
            "--snapshot-every", "7", "--flush-interval", "60",
        ]

        # Uninterrupted reference (same slide semantics: L=5 batches).
        reference = InfluentialCheckpoints(window_size=120, k=3, beta=0.3)
        for batch in batched(actions, 5):
            reference.process(batch)
        expected = reference.query()

        process, host, port = _spawn_server(server_args, cwd=REPO_ROOT)
        try:
            client = ServiceClient(host, port)
            summary = client.ingest(actions[:600])
            assert summary["slide"] == 120
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)
        finally:
            _reap(process)

        process, host, port = _spawn_server(server_args, cwd=REPO_ROOT)
        try:
            client = ServiceClient(host, port)
            # At-least-once redelivery: replay the whole stream.
            summary = client.ingest(actions)
            assert summary["slide"] == 180
            assert summary["dropped_stale"] == 600
            assert summary["time"] == 900
            answer = client.topk("main")
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            _reap(process)

        assert answer["time"] == expected.time
        assert answer["value"] == expected.value
        assert answer["seeds"] == sorted(expected.seeds)


class TestBatchedWire:
    """The batched ingest wire format: one JSON array of actions per line."""

    def test_send_batch_matches_unbatched_ingest(self):
        """Batched and line-per-action clients produce identical boards."""
        actions = random_stream(150, 15, seed=41)
        offline = SparseInfluentialCheckpoints(window_size=40, k=3, beta=0.3)
        answers = []
        for batch in batched(actions, 5):
            offline.process(batch)
            answers.append(offline.query())

        make = lambda: SparseInfluentialCheckpoints(
            window_size=40, k=3, beta=0.3
        )
        with serve(make, slide=5, history=400) as runner:
            client = ServiceClient("127.0.0.1", runner.port)
            summary = client.send_batch(actions, batch=32)
            assert summary["accepted"] == len(actions)
            assert summary["slide"] == len(answers)
            history = client.history("main")
            assert len(history) == len(answers)
            for served, expected in zip(history, answers):
                assert served["time"] == expected.time
                assert served["value"] == expected.value
                assert served["seeds"] == sorted(expected.seeds)

    def test_acks_count_actions_not_lines(self):
        """A 25-action line crosses ack_every=10: the ack reports 25
        actions received, not 1 line."""
        import socket as socket_module

        from repro.service.client import encode_action

        actions = random_stream(25, 6, seed=42)
        with serve(
            lambda: WindowedGreedy(window_size=20, k=2),
            slide=5,
            ack_every=10,
        ) as runner:
            with socket_module.create_connection(
                ("127.0.0.1", runner.port), timeout=10
            ) as sock:
                payload = json.dumps(
                    [encode_action(a) for a in actions],
                    separators=(",", ":"),
                )
                sock.sendall(payload.encode("utf-8") + b"\n")
                sock.sendall(b'{"cmd":"sync"}\n')
                reader = sock.makefile("rb")
                lines = [json.loads(reader.readline()) for _ in range(2)]
            acks = [l for l in lines if "acked" in l]
            assert [a["acked"] for a in acks] == [25]
            synced = [l for l in lines if l.get("synced")]
            assert synced and synced[0]["accepted"] == 25

    def test_batch_rejection_is_atomic(self):
        """A batch with one bad action is refused whole: no prefix lands."""
        import socket as socket_module

        with serve(
            lambda: WindowedGreedy(window_size=20, k=2), slide=2
        ) as runner:
            with socket_module.create_connection(
                ("127.0.0.1", runner.port), timeout=10
            ) as sock:
                # Third element is malformed: not a triple, not an object.
                sock.sendall(b'[[1,0,-1],[2,1,1],"bogus"]\n')
                sock.sendall(b'[[1,0,-1],[2,1,1]]\n')
                sock.sendall(b'{"cmd":"sync"}\n')
                reader = sock.makefile("rb")
                lines = [json.loads(reader.readline()) for _ in range(2)]
            errors = [l for l in lines if "error" in l]
            synced = [l for l in lines if l.get("synced")]
            assert len(errors) == 1
            assert synced[0]["accepted"] == 2  # only the clean batch
            assert synced[0]["rejected"] == 1  # one rejected *line*
            client = ServiceClient("127.0.0.1", runner.port)
            assert client.topk("main")["time"] == 2

    def test_send_batch_surfaces_server_errors(self):
        actions = random_stream(10, 4, seed=43)
        stale = list(actions) + [actions[0]]  # out of order at the tail
        with serve(
            lambda: WindowedGreedy(window_size=20, k=2), slide=100
        ) as runner:
            client = ServiceClient("127.0.0.1", runner.port)
            summary = client.send_batch(stale, batch=4)
            # The stale tail batch is dropped, the clean prefix lands.
            assert summary["accepted"] == 10
