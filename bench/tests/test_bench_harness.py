"""Fast self-tests of the benchmark harness (no wall-clock assertions)."""

from __future__ import annotations

import dataclasses
import itertools
import json
import pathlib
import re

import pytest

from harness import cli, engine, specs, sut, verify
from harness.loadgen import ServiceLoad, encode_slides, send_open_loop
from harness.service import closed_loop_rate, is_overloaded, segment_seconds
from harness.spans import SpanLedger, covered_length
from harness.stats import percentile, quiet_median, split_segments, spread_share
from harness.store import TrajectoryStore
from repro.datasets.synthetic import syn_n

BENCHMARK_JSON = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def _stream(seed: int, count: int = 400):
    return list(
        itertools.islice(syn_n(n_users=200, n_actions=2000, seed=seed), count)
    )


class TestPayloads:
    def test_same_seed_gives_byte_identical_payloads(self):
        assert encode_slides(_stream(3), 50) == encode_slides(_stream(3), 50)

    def test_other_seed_gives_other_payloads(self):
        assert encode_slides(_stream(3), 50) != encode_slides(_stream(4), 50)

    def test_slide_is_fifty_action_lines_and_a_barrier(self):
        actions = _stream(3)
        payloads = encode_slides(actions, 50)
        assert len(payloads) == 8
        lines = payloads[0].split(b"\n")
        assert lines[-1] == b"" and json.loads(lines[-2]) == {"cmd": "sync"}
        assert [json.loads(line)[0] for line in lines[:50]] == list(range(1, 51))


class FakeLink:
    """Clock + socket stand-in: every send takes as long as it is told."""

    def __init__(self, send_costs):
        self.now = 100.0
        self._costs = iter(send_costs)
        self.sent = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds

    def send(self, payload):
        self.sent.append(payload)
        self.now += next(self._costs)


class TestOpenLoopSchedule:
    PAYLOADS = [bytes([i]) for i in range(6)]

    def test_due_times_are_fixed_whatever_the_sends_cost(self):
        fast = FakeLink([0.0] * 6)
        slow = FakeLink([0.0, 0.35, 0.0, 0.0, 0.0, 0.0])  # one stalled send
        due_fast, _ = send_open_loop(
            fast.send, self.PAYLOADS, 0.1, fast.clock, fast.sleep
        )
        due_slow, started_slow = send_open_loop(
            slow.send, self.PAYLOADS, 0.1, slow.clock, slow.sleep
        )
        assert due_fast == due_slow == pytest.approx(
            [100.0 + 0.1 * i for i in range(6)]
        )
        # The stall makes the next slides late; it does not re-time them.
        lag = [s - d for s, d in zip(started_slow, due_slow)]
        assert lag == pytest.approx([0.0, 0.0, 0.25, 0.15, 0.05, 0.0])
        assert slow.sent == self.PAYLOADS


class FakeServer:
    """Answers every ``sync`` with the next slide number, ``GET`` with 200."""

    def __init__(self):
        import socket
        import threading

        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._slide = 0
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        import threading

        while True:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._talk, args=(connection,), daemon=True
            ).start()

    def _talk(self, connection):
        with connection, connection.makefile("rwb") as stream:
            for line in stream:
                if line.startswith(b"GET "):
                    stream.write(b"HTTP/1.0 200 OK\r\n\r\n{}")
                    stream.flush()
                    return
                if b"sync" in line:
                    self._slide += 1
                    reply = {"synced": True, "slide": self._slide}
                    stream.write(json.dumps(reply).encode() + b"\n")
                    stream.flush()

    def close(self):
        self._listener.close()


class TestPingPong:
    def test_one_slide_in_flight_and_a_read_beside_every_other(self):
        server = FakeServer()
        load = ServiceLoad(server.port, first_slide=1)
        try:
            payloads = encode_slides(_stream(3), 50)
            load.closed_loop(payloads[:2], 2)  # the reader thread's turn
            sent_at, reads = load.ping_pong(payloads[2:6], read_every=2)
            load.closed_loop(payloads[6:], 2)  # and the reader's again
        finally:
            load.close()
            server.close()
        assert load.errors == []
        assert len(load.synced_at) == len(payloads) == 8
        assert len(sent_at) == 4 and len(reads) == 2
        # Each slide was sent only after the one before it was answered.
        answered = load.synced_at[2:6]
        assert all(sent < done for sent, done in zip(sent_at, answered))
        assert all(done < sent for done, sent in zip(answered, sent_at[1:]))


class TestStats:
    def test_percentile_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5
        assert percentile([5], 95) == 5
        assert percentile(range(101), 95) == 95
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_segments_are_equal_and_drop_the_remainder(self):
        assert split_segments(list(range(11)), 5) == [
            [0, 1], [2, 3], [4, 5], [6, 7], [8, 9]
        ]
        with pytest.raises(ValueError):
            split_segments([1, 2], 5)

    def test_spread_share_matches_the_driver_rule(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
        import statistics

        first, _, third = statistics.quantiles(values, n=4)
        assert spread_share(values) == (third - first) / statistics.median(values)

    def test_closed_block_is_cut_where_each_segment_became_visible(self):
        # Two segments: the first starts at the block's first send.
        synced = [10.0 + 0.5 * (i + 1) for i in range(2 * specs.SEGMENT)]
        assert segment_seconds(9.0, synced) == pytest.approx(
            [1.0 + 0.5 * specs.SEGMENT, 0.5 * specs.SEGMENT]
        )

    def test_closed_loop_rate_is_the_speed_of_the_fast_segments(self):
        # The host is slow for four segments in five; the rate is the
        # quiet ones', whichever blocks they fell in.
        durations = [2.0 if i % 5 == 0 else 9.0 for i in range(40)]
        assert closed_loop_rate(durations, 50) == pytest.approx(
            specs.SEGMENT * 50 / 2.0
        )

    def test_quiet_median_is_the_median_of_the_quiet_segments(self):
        # Five segments of four samples; one holds a stall, which does not
        # move its median, and the host is slow during all but two.
        stalled = [1.0, 1.0, 1.0, 50.0]
        samples = [3.0] * 4 + stalled + [3.0] * 8 + [1.0] * 4 + [9.9]  # + a remainder
        assert quiet_median(samples, 4) == pytest.approx(1.0)

    def test_overload_is_a_backlog_that_never_drains(self):
        steady = [0.01] * 50
        growing = [0.01 * (1 + i) for i in range(50)]
        # A stall late in the block: slow slides, then fast ones again.
        stalled = [0.01] * 40 + [0.5, 0.4, 0.3, 0.2, 0.1] + [0.01] * 5
        assert not is_overloaded(steady, 0.0167)
        assert is_overloaded(growing, 0.0167)
        assert not is_overloaded(stalled, 0.0167)


class TestSpans:
    def test_covered_length_merges_overlaps_and_clips(self):
        assert covered_length([(0, 2), (1, 3), (5, 9)], 0, 6) == 4

    def test_self_time_is_duration_minus_child_coverage(self):
        ledger = SpanLedger()
        root = ledger.add("slide", 0.0, 10.0, None, 7)
        child = ledger.add("oracle", 1.0, 6.0, root, 7)
        ledger.add("kernel_pass", 2.0, 4.0, child, 7)
        ledger.add("kernel_index", 3.0, 5.0, child, 7)  # overlaps its sibling
        ledger.add("publish", 8.0, 12.0, root, 7)  # runs past the parent
        assert ledger.self_times() == [3.0, 2.0, 2.0, 2.0, 4.0]
        assert all(own >= 0 for own in ledger.self_times())
        assert ledger.totals()["oracle"] == {
            "count": 1, "total_s": 5.0, "self_s": 2.0
        }

    def test_lay_out_places_stages_back_to_back_inside_the_parent(self):
        ledger = SpanLedger()
        root = ledger.add("engine.process", 10.0, 11.0)
        placed = ledger.lay_out(root, [("forest_index", 0.3), ("oracle", 0.9)])
        assert ledger.duration(placed["forest_index"]) == pytest.approx(0.3)
        assert ledger.duration(placed["oracle"]) == pytest.approx(0.7)  # clipped
        assert ledger.self_times()[root] == pytest.approx(0.0)

    def test_span_file_round_trips(self, tmp_path):
        ledger = SpanLedger()
        with ledger.span("outer") as outer:
            with ledger.span("inner", outer, 3):
                pass
        ledger.write(tmp_path / "trace.json", {"workload": "t"})
        document = json.loads((tmp_path / "trace.json").read_text())
        assert [row[1] for row in document["spans"]] == ["outer", "inner"]
        assert document["spans"][1][4] == 0 and document["spans"][1][5] == 3
        assert all(row[6] >= 0 for row in document["spans"])


class TestSizes:
    @pytest.mark.parametrize("seconds", [1, 10, 20, 60])
    def test_sizes_are_whole_segments_within_the_stream(self, seconds):
        for spec in specs.WORKLOADS.values():
            if isinstance(spec, specs.EngineSpec):
                timed = spec.timed_actions(seconds)
                assert timed % specs.ENGINE_SEGMENT == 0
                assert 0 < timed <= spec.n_actions - spec.warm_actions
                continue
            blocks = spec.block_slides(seconds)
            assert all(size % specs.SEGMENT == 0 and size > 0 for size in blocks)
            # Every segment holds the same number of snapshots and reads.
            assert specs.SEGMENT % max(spec.snapshot_every, 1) == 0
            assert specs.SEGMENT % specs.READ_EVERY == 0
            total = spec.warm_slides + specs.ROUNDS * sum(blocks)
            assert total * spec.slide <= spec.n_actions


class TestBenchmarkJson:
    DOCUMENT = json.loads(BENCHMARK_JSON.read_text())

    def test_names_are_well_formed_and_unique(self):
        names = [
            entry["name"]
            for key in ("workloads", "end_to_end", "per_layer")
            for entry in self.DOCUMENT[key]
        ]
        assert all(NAME.match(name) for name in names)
        assert len(names) == len(set(names))

    def test_catalogue_is_what_the_harness_emits(self):
        assert [w["name"] for w in self.DOCUMENT["workloads"]] == list(
            specs.WORKLOADS
        )
        assert [
            (m["name"], m["unit"], m["better"], m["bound"])
            for m in self.DOCUMENT["end_to_end"]
        ] == list(specs.END_TO_END)
        assert [
            (m["name"], m["unit"], m["better"]) for m in self.DOCUMENT["per_layer"]
        ] == list(specs.PER_LAYER)
        assert any(m["name"] == "setup_s" for m in self.DOCUMENT["end_to_end"])

    def test_command_runs_the_harness(self):
        assert self.DOCUMENT["command"] == ["python3", "bench/run.py"]
        assert self.DOCUMENT["paths"] == ["bench"]
        assert 1 <= self.DOCUMENT["run_seconds"] <= 60


class TestStore:
    def test_latest_is_materialized_per_workload_and_metric(self, tmp_path):
        store = TrajectoryStore(tmp_path / "t.sqlite")

        def result(value):
            return {
                "correct": True, "attempted": 1, "failed": 0,
                "metrics": {"kernel.busy_s": {"value": value, "unit": "s"}},
            }

        store.append("engine_ic_l1", 1, 10, True, result(2.0), {"cpus": 2})
        store.append("engine_ic_l1", 2, 10, True, result(1.5), {"cpus": 2})
        store.append("svc_single", 1, 10, True, result(0.4), {"cpus": 2})
        assert store.latest("engine_ic_l1") == {"kernel.busy_s": (1.5, "s")}
        assert [v for _, _, v in store.history("engine_ic_l1", "kernel.busy_s")] == [
            2.0, 1.5
        ]
        store.close()


class TestExpectedAnswerHelper:
    def test_the_helper_hands_back_what_the_function_returned(self):
        helper = verify.ExpectedAnswer(lambda a, b: {"sum": a + b}, 2, 3)
        assert helper.result() == {"sum": 5}
        assert helper.result() == {"sum": 5}  # kept, and safe to ask again
        helper.close()

    def test_a_failing_helper_fails_the_run(self):
        def broken():
            raise ValueError("no stream")

        helper = verify.ExpectedAnswer(broken)
        with pytest.raises(RuntimeError, match="no stream"):
            helper.result()


@pytest.fixture
def tiny_engine(tmp_path, monkeypatch):
    """``engine_ic_l1`` shrunk to a few hundred actions, writing to tmp."""
    for module in (sut, engine, cli):
        monkeypatch.setattr(module, "OUT_DIR", tmp_path)
    spec = dataclasses.replace(
        specs.WORKLOADS["engine_ic_l1"],
        n_users=100, n_actions=600, window=50, warm_actions=100, actions_per_s=40,
    )
    monkeypatch.setitem(specs.WORKLOADS, spec.name, spec)
    return spec


class TestEngineWorkloadEndToEnd:
    def test_untraced_run_emits_every_end_to_end_metric(self, tiny_engine):
        outcome = cli.run_workload(tiny_engine.name, seed=5, seconds=5, trace=False)
        result = cli.report(outcome, trace=False)
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [name for name, *_ in specs.END_TO_END]
        assert all(entry["value"] > 0 for entry in result["metrics"].values())

    def test_traced_run_emits_every_layer_metric_and_a_span_file(self, tiny_engine):
        outcome = cli.run_workload(tiny_engine.name, seed=5, seconds=5, trace=True)
        result = cli.report(outcome, trace=True)
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [name for name, *_ in specs.PER_LAYER]
        document = json.loads(pathlib.Path(outcome["info"]["span_file"]).read_text())
        assert document["spans"] and all(row[6] >= 0 for row in document["spans"])
        assert result["metrics"]["kernel.updates"]["value"] > 0

    def test_a_tampered_expected_answer_fails_the_run(self, tiny_engine, monkeypatch):
        honest = verify.expected_engine

        def tampered(spec, actions):
            answer, quality = honest(spec, actions)
            return {**answer, "value": answer["value"] + 1}, quality

        monkeypatch.setattr(verify, "expected_engine", tampered)
        assert cli.main(
            ["--workload", tiny_engine.name, "--seed", "5", "--seconds", "5"]
        ) == 1
