"""Integration tests for the retained-observability plane (flight
recorder, SLO alerting, sampling profiler, ops console) on a live server.

Covers the PR's acceptance criteria:

* ``GET /metrics/history`` serves downsampled series for ingest rate,
  slide p99, and per-shard busy-seconds;
* an induced latency spike trips the fast-burn SLO alert — visible as a
  ``/healthz`` 503 and structured JSONL — and clears after recovery;
* ``repro-stream profile`` against a live server emits non-empty
  collapsed stacks attributing samples to the ingest loop thread;
* ``repro-stream trace`` exits 0 with a friendly message on an
  empty/missing trace log (regression);
* the prometheus exposition carries the sampler-lag and alert-state
  gauges.
"""

import json
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.core.multi import MultiQueryEngine
from repro.core.sic import SparseInfluentialCheckpoints
from repro.persistence.engine import RecoverableEngine
from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig
from repro.service.runner import ServiceRunner
from tests.conftest import parse_prometheus, random_stream


def board_factory(assignment=None):
    board = MultiQueryEngine()
    board.add(
        "main",
        SparseInfluentialCheckpoints(
            window_size=60, k=3, beta=0.3, shard=assignment
        ),
    )
    return board


def serve(shards=1, shard_backend=None, **config_kwargs) -> ServiceRunner:
    """An in-process observable server on an OS-picked port."""
    config_kwargs.setdefault("port", 0)
    config_kwargs.setdefault("flush_interval", 60.0)
    config_kwargs.setdefault("sample_interval", 0.05)
    if shards > 1:
        from repro.sharding.engine import ShardedEngine

        engine = ShardedEngine.open(board_factory, shards, backend=shard_backend)
    else:
        engine = RecoverableEngine.open(None, board_factory)
    return ServiceRunner(engine, ServiceConfig(**config_kwargs))


def wait_until(predicate, timeout=15.0, interval=0.05):
    deadline = time.time() + timeout
    result = predicate()
    while not result and time.time() < deadline:
        time.sleep(interval)
        result = predicate()
    return result


class TestHistoryEndpoint:
    def test_serves_downsampled_core_series(self):
        """Ingest rate, slide p99, per-shard busy-seconds all retained."""
        actions = random_stream(300, 20, seed=21)
        with serve(shards=2, shard_backend="serial", slide=16) as runner:
            client = ServiceClient("127.0.0.1", runner.port)

            def samples_taken():
                return (
                    client.http_get("/metrics/history")[1]
                    .get("recorder", {})
                    .get("samples_taken", 0)
                )

            # A pre-ingest sample gives the rate derivation its baseline;
            # the post-ingest sweeps then see a positive delta.
            assert wait_until(lambda: samples_taken() >= 1)
            floor = samples_taken()
            client.ingest(actions)
            assert wait_until(lambda: samples_taken() >= floor + 2)
            status, catalog = client.http_get("/metrics/history")
            assert status == 200
            names = catalog["series"]
            assert "repro_ingest_accepted_total:rate" in names
            assert "repro_slide_seconds:p99" in names
            for shard in ("0", "1"):
                key = f'repro_shard_busy_seconds_total{{shard="{shard}"}}'
                assert key in names
                assert key + ":rate" in names

            def fetch(series, **params):
                query = "&".join(
                    [f"series={series}"]
                    + [f"{k}={v}" for k, v in params.items()]
                )
                return client.http_get(f"/metrics/history?{query}")

            status, rate = fetch("repro_ingest_accepted_total:rate")
            assert status == 200
            assert rate["resolution_seconds"] == 0.05
            assert len(rate["points"]) >= 2
            # Ingest happened, so some rate point is positive.
            assert any(v > 0 for _, v in rate["points"])

            status, p99 = fetch("repro_slide_seconds:p99")
            assert status == 200
            assert p99["agg"] == "max"
            assert any(v > 0 for _, v in p99["points"])

            status, busy = fetch(
                'repro_shard_busy_seconds_total{shard="0"}'
            )
            assert status == 200
            assert busy["points"][-1][1] >= 0.0

            # Wall-stamped timestamps are monotone (anchored export).
            times = [t for t, _ in rate["points"]]
            assert times == sorted(times)

    def test_unknown_series_404_and_bad_params_400(self):
        with serve() as runner:
            client = ServiceClient("127.0.0.1", runner.port)
            assert wait_until(
                lambda: client.http_get("/metrics/history")[1].get(
                    "recorder", {}
                ).get("samples_taken", 0)
                >= 1
            )
            status, payload = client.http_get(
                "/metrics/history?series=nonsense"
            )
            assert status == 404
            assert "unknown series" in payload["error"]
            status, payload = client.http_get(
                "/metrics/history?series=repro_uptime_seconds&window=abc"
            )
            assert status == 400

    def test_disabled_recorder_503s(self):
        with serve(flight_recorder=False) as runner:
            client = ServiceClient("127.0.0.1", runner.port)
            client.wait_healthy()
            status, payload = client.http_get("/metrics/history")
            assert status == 503
            assert "disabled" in payload["error"]
            # /metrics still works, minus the recorder block.
            _, metrics = client.http_get("/metrics")
            assert "flight_recorder" not in metrics["telemetry"]
            assert "slo" not in metrics["telemetry"]


class TestSLOAlerting:
    def test_latency_spike_raises_then_clears(self, tmp_path):
        """The acceptance spike: a deliberately tight SLO fires under
        load (healthz 503 "alerting" + JSONL) and clears at rest."""
        alert_log = tmp_path / "alerts.jsonl"
        tight = (
            "tight=repro_slide_seconds:p99,threshold=0.0,objective=0.5,"
            "fast=0.4,slow=0.8,burn=1.0,severity=page,min-samples=2"
        )
        with serve(
            slide=8,
            slo_specs=(tight,),
            slo_defaults=False,
            alert_log=str(alert_log),
        ) as runner:
            client = ServiceClient("127.0.0.1", runner.port)
            client.wait_healthy()

            # Induce the spike: keep slides flowing so every sampler
            # interval sees a positive p99 (> threshold 0.0).
            stream = random_stream(60_000, 15, seed=7)
            stop = threading.Event()

            def pump():
                for start in range(0, len(stream), 40):
                    if stop.is_set():
                        return
                    try:
                        client.ingest(stream[start : start + 40])
                    except (RuntimeError, OSError):
                        return

            pumper = threading.Thread(target=pump, daemon=True)
            pumper.start()
            try:
                raised = wait_until(
                    lambda: client.http_get("/healthz")[0] == 503
                )
                status, payload = client.http_get("/healthz")
                assert raised, payload
                assert payload["status"] == "alerting"
                assert payload["alerts"][0]["slo"] == "tight"
            finally:
                stop.set()
                pumper.join()

            # Recovery: no slides → idle intervals record p99 = 0, the
            # fast window empties of violations, the alert clears.
            assert wait_until(
                lambda: client.http_get("/healthz")[0] == 200
            ), client.http_get("/healthz")[1]

            _, metrics = client.http_get("/metrics")
            slo = metrics["telemetry"]["slo"]
            assert slo["active"] == []
            assert slo["alerts"][0]["raised_count"] >= 1

        events = [
            json.loads(line)
            for line in alert_log.read_text().splitlines()
            if line
        ]
        kinds = [e["event"] for e in events]
        assert "alert_raised" in kinds
        assert "alert_cleared" in kinds
        assert kinds.index("alert_raised") < kinds.index("alert_cleared")
        raised_event = events[kinds.index("alert_raised")]
        assert raised_event["slo"] == "tight"
        assert raised_event["severity"] == "page"
        assert raised_event["fast_burn"] >= 1.0

    def test_default_objectives_green_on_healthy_service(self):
        with serve() as runner:
            client = ServiceClient("127.0.0.1", runner.port)
            client.ingest(random_stream(100, 10, seed=3))
            assert wait_until(
                lambda: client.http_get("/metrics")[1]["telemetry"]
                .get("slo", {})
                .get("evaluations", 0)
                >= 2
            )
            _, metrics = client.http_get("/metrics")
            slo = metrics["telemetry"]["slo"]
            assert slo["active"] == []
            names = {o["name"] for o in slo["objectives"]}
            assert "slide_latency" in names
            status, _ = client.http_get("/healthz")
            assert status == 200


class TestPrometheusExposition:
    def test_sampler_lag_and_alert_state_gauges(self):
        """Satellite: the exposition carries recorder lag + alert gauges."""
        with serve() as runner:
            client = ServiceClient("127.0.0.1", runner.port)
            client.ingest(random_stream(50, 10, seed=5))
            assert wait_until(
                lambda: client.http_get("/metrics")[1]["telemetry"]
                .get("flight_recorder", {})
                .get("samples_taken", 0)
                >= 1
            )
            families = parse_prometheus(client.metrics_prometheus())
            assert "repro_flight_sampler_lag_seconds" in families
            assert "repro_flight_samples_total" in families
            samples = next(
                iter(families["repro_flight_samples_total"].values())
            )
            assert samples >= 1
            alert_children = families["repro_alert_active"]
            assert any('slo="slide_latency"' in k for k in alert_children)
            assert all(v == 0.0 for v in alert_children.values())
            burn_children = families["repro_slo_burn_rate"]
            assert any('window="fast"' in k for k in burn_children)


class TestProfileEndpoint:
    def test_profile_window_attributes_ingest_thread(self):
        with serve(slide=8) as runner:
            client = ServiceClient("127.0.0.1", runner.port, timeout=30.0)
            # One slide guarantees the named ingest executor thread exists
            # (and then parks in its worker loop, observable by sampling).
            client.ingest(random_stream(50, 10, seed=9))
            status, body, content_type = client.http_get_raw(
                "/debug/profile?seconds=0.5"
            )
            assert status == 200
            assert content_type.startswith("text/plain")
            assert body.strip()
            lines = body.strip().splitlines()
            assert all(" " in line for line in lines)  # "stack count"
            assert any(
                line.startswith("ingest;") for line in lines
            ), body[:2000]

    def test_bad_seconds_rejected(self):
        with serve() as runner:
            client = ServiceClient("127.0.0.1", runner.port)
            client.wait_healthy()
            status, _, _ = client.http_get_raw("/debug/profile?seconds=0")
            assert status == 400
            status, _, _ = client.http_get_raw("/debug/profile?seconds=abc")
            assert status == 400

    def test_continuous_profiler_config(self):
        """config.profile=True runs the sampler for the server's life."""
        with serve(profile=True, profile_hz=200.0) as runner:
            client = ServiceClient("127.0.0.1", runner.port)
            client.wait_healthy()
            assert wait_until(
                lambda: client.http_get("/metrics")[1]["telemetry"][
                    "profiler"
                ]["samples"]
                > 0
            )
            _, metrics = client.http_get("/metrics")
            profiler = metrics["telemetry"]["profiler"]
            assert profiler["running"] is True
            assert profiler["hz"] == 200.0


class TestCLI:
    def test_profile_cli_writes_collapsed_stacks(self, tmp_path, capsys):
        output = tmp_path / "profile.txt"
        with serve(slide=8) as runner:
            client = ServiceClient("127.0.0.1", runner.port)
            client.ingest(random_stream(50, 10, seed=10))
            rc = cli_main(
                [
                    "profile",
                    "--port",
                    str(runner.port),
                    "--seconds",
                    "0.4",
                    "-o",
                    str(output),
                ]
            )
        assert rc == 0
        text = output.read_text()
        assert text.strip()
        assert "ingest;" in text
        assert "collapsed stacks" in capsys.readouterr().err

    def test_top_once_renders_frame(self, capsys):
        with serve() as runner:
            client = ServiceClient("127.0.0.1", runner.port)
            client.ingest(random_stream(60, 10, seed=11))
            wait_until(
                lambda: client.http_get("/metrics/history")[1]
                .get("recorder", {})
                .get("samples_taken", 0)
                >= 2
            )
            rc = cli_main(["top", "--port", str(runner.port), "--once"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro-stream top" in out
        assert "ingest rate" in out
        assert "\x1b" not in out  # --once never clears the screen

    def test_trace_commands_survive_missing_log(self, tmp_path, capsys):
        """Satellite regression: friendly exit 0, no stack trace."""
        missing = tmp_path / "never-written.jsonl"
        for command in ("summarize", "tail"):
            rc = cli_main(["trace", command, str(missing)])
            assert rc == 0
            out = capsys.readouterr().out
            assert "no trace log" in out

    def test_trace_commands_survive_empty_log(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        for command in ("summarize", "tail"):
            rc = cli_main(["trace", command, str(empty)])
            assert rc == 0
            assert "no trace events" in capsys.readouterr().out

    def test_serve_parser_accepts_observability_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "--no-flight-recorder",
                "--sample-interval",
                "0.2",
                "--alert-log",
                "alerts.jsonl",
                "--slo",
                "a=series,threshold=1",
                "--no-slo-defaults",
                "--profile",
                "--profile-hz",
                "50",
            ]
        )
        assert args.flight_recorder is False
        assert args.sample_interval == 0.2
        assert args.alert_log == "alerts.jsonl"
        assert args.slo == ["a=series,threshold=1"]
        assert args.slo_defaults is False
        assert args.profile is True
        assert args.profile_hz == 50.0

    def test_bad_slo_spec_fails_at_config_time(self):
        with pytest.raises(ValueError, match="threshold"):
            ServiceConfig(slo_specs=("broken=series",))
