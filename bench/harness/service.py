"""The three ``svc_*`` workloads: a served engine driven over its socket.

One run, in order:

1. generate the stream from the seed and encode every slide's wire
   bytes (nothing is encoded once timing starts); fork the helper that
   computes the expected answer while the next step runs;
2. ``SETUP_CYCLES`` times boot a fresh server on an empty state
   directory and warm it up (median: ``setup_s``); SIGKILL the first
   one's process group and restart on its directory, timing exec ->
   first ``200`` on ``topk`` equal to the pre-kill answer; the last
   warmed server is the one measured;
3. ``ROUNDS`` times:

   * a closed-loop block — at most ``IN_FLIGHT`` un-synced slides:
     throughput;
   * a ping-pong block — one slide in flight, the reply polled, ``topk``
     read beside every ``READ_EVERY``-th slide: answer-visible latency
     and read latency with no wake-up of either side in them;
   * an open-loop block — fixed schedule, latency from each slide's
     *due* time: the latency tail (reported, not gated), whether the
     rate is sustainable, how late the generator ran;

   between the rounds, the remaining ``RECOVER_CYCLES`` - 1 restarts on
   the crashed directory (fastest of all: ``recover_s``);
4. read the final answer, kill the server, and compare the answer with
   the same engine built in-process and fed the same slides.

A traced run (``--trace 1``) skips the crash cycles and runs one round:
the closed-loop block once untraced and once with the server's own
per-slide stage trace on (the difference is the tracing overhead), then
the other two blocks, and then replays the first timed slides layer by
layer in this process.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import shutil
import statistics
import time
from typing import Dict, List, Sequence

from repro.datasets.synthetic import syn_n
from repro.service.client import ServiceClient

from harness import verify
from harness.loadgen import ServiceLoad, encode_slides, send_open_loop
from harness.replay import KERNEL_STAGES, replay_layers
from harness.spans import SpanLedger
from harness.specs import (
    FAST_PERCENT,
    IN_FLIGHT,
    PER_LAYER,
    READ_EVERY,
    RECOVER_CYCLES,
    REPLAY_SLIDES,
    ROUNDS,
    SEGMENT,
    SETUP_CYCLES,
)
from harness.stats import percentile, quiet_median, split_segments
from harness.sut import OUT_DIR, ServeProcess, serve_command

__all__ = [
    "run_service",
    "segment_seconds",
    "closed_loop_rate",
    "is_overloaded",
]

_TOPK = "/queries/main/topk"

#: Rounds after which one of the later recoveries runs: the rounds are
#: shared out evenly between them, the last recovery closing the run.
_RECOVER_AFTER_ROUND = {
    ROUNDS * (i + 1) // (RECOVER_CYCLES - 1) - 1 for i in range(RECOVER_CYCLES - 1)
}

#: Order the server runs a slide's stages in (names as it emits them).
_STAGE_ORDER = (
    "queue_wait", "coalesce", "wal_fsync", "resolve", "route",
    "forest_index", "oracle", "shard_fanout", "shard_merge",
    "publish", "snapshot",
)


def segment_seconds(first_sent: float, synced_at: Sequence[float]) -> List[float]:
    """Wall seconds of each ``SEGMENT``-slide segment of a closed block.

    A segment ends when its last slide's answer is visible and begins
    where the previous one ended (the first at the block's first send).
    """
    segments = split_segments(synced_at, len(synced_at) // SEGMENT)
    ends = [segment[-1] for segment in segments]
    return [end - start for start, end in zip([first_sent] + ends, ends)]


def closed_loop_rate(durations: Sequence[float], slide: int) -> float:
    """Actions per second the program reaches while the host is quiet.

    ``durations`` are the segment times of every closed block of the
    run; the rate is read at the ``FAST_PERCENT``-th percentile of them.
    Interference from the host only ever adds time to a segment, so the
    fast end of the distribution is the program's own speed, and it is
    the end that repeats from run to run.
    """
    return SEGMENT * slide / percentile(durations, FAST_PERCENT)


def is_overloaded(latencies: Sequence[float], period: float) -> bool:
    """Whether an open-loop block ran above the sustainable rate.

    Above that rate the queue never empties again, so even the *best*
    latency of the block's last fifth stays high: at least double the
    first fifth's median, and several slide periods deep.  A stall the
    server recovers from leaves fast slides behind it and is not
    mistaken for overload.
    """
    fifths = split_segments(latencies, 5)
    first = statistics.median(fifths[0])
    last = min(fifths[-1])
    return last > 2.0 * first and last > 4.0 * period


def http_get(port: int, path: str):
    """``GET path`` on the server -> ``(status, JSON body)`` (untimed use)."""
    return ServiceClient("127.0.0.1", port).http_get(path)


def _fresh_dir(path: pathlib.Path) -> pathlib.Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _recovered_answer(port: int) -> dict:
    """First ``200`` body of ``topk`` (the server warms its cache first)."""
    for _ in range(200):
        status, body = http_get(port, _TOPK)
        if status == 200:
            return body
        time.sleep(0.01)
    raise RuntimeError("restarted server never answered topk")


class _Run:
    """State shared by the phases of one service run."""

    def __init__(self, spec, seed: int, seconds: float, rounds: int, sut_cores):
        self.spec = spec
        self.sut_cores = sut_cores
        self.work = _fresh_dir(OUT_DIR / f"work-{spec.name}")
        self.log = OUT_DIR / f"{spec.name}-server.log"
        self.log.unlink(missing_ok=True)  # one run's stderr, not a history
        self.rounds = rounds
        self.closed_n, self.ping_n, self.open_n = spec.block_slides(seconds)
        #: Timed slides of the whole run.
        self.timed_n = rounds * (self.closed_n + self.ping_n + self.open_n)

        started = time.perf_counter()
        self.actions = list(
            itertools.islice(
                syn_n(n_users=spec.n_users, n_actions=spec.n_actions, seed=seed),
                (spec.warm_slides + self.timed_n) * spec.slide,
            )
        )
        generated = time.perf_counter()
        self.payloads = encode_slides(self.actions, spec.slide)
        self.encode_s = time.perf_counter() - generated
        self.generate_s = generated - started
        self.failures: List[str] = []
        self.servers: List[ServeProcess] = []
        # Forked now, before this process starts its reader thread.
        self.expected = verify.ExpectedAnswer(
            verify.expected_service, spec, self.actions
        )
        #: Next timed slide to send, as an index into ``payloads``.
        self.cursor = spec.warm_slides

    def boot(self, state_dir: pathlib.Path, trace_log=None) -> ServeProcess:
        server = ServeProcess(
            serve_command(self.spec, state_dir, trace_log), self.sut_cores, self.log
        )
        self.servers.append(server)
        return server

    def warm_up(self, server: ServeProcess) -> float:
        """Feed the warm-up slides to a fresh server; returns seconds."""
        load = ServiceLoad(server.port, first_slide=1)
        try:
            started = time.perf_counter()
            load.closed_loop(self.payloads[: self.spec.warm_slides], IN_FLIGHT)
            elapsed = time.perf_counter() - started
            self.note(load, self.spec.warm_slides, "warm-up")
        finally:
            load.close()
        return elapsed

    def take(self, count: int) -> Sequence[bytes]:
        """The next ``count`` timed payloads."""
        payloads = self.payloads[self.cursor : self.cursor + count]
        self.cursor += count
        return payloads

    def note(self, load: ServiceLoad, expected: int, phase: str) -> None:
        """Record a phase's error replies and unanswered slides."""
        missing = expected - len(load.synced_at)
        if missing > 0:
            self.failures.extend([f"{phase}: slide never synced"] * missing)
        self.failures.extend(f"{phase}: {error}" for error in load.errors)

    def check_final(self, final: dict) -> Dict[str, object]:
        """Compare the program's final answer with the expected one."""
        expected, quality = self.expected.result()
        correct = verify.same_answer(final, expected)
        if not correct:
            self.failures.append(
                f"final answer {final.get('time')}/{final.get('value')}/"
                f"{final.get('seeds')} != expected {expected}"
            )
        return {"correct": correct, "value_vs_greedy": quality}

    def close(self) -> None:
        for server in self.servers:
            server.kill()
        self.expected.close()
        shutil.rmtree(self.work, ignore_errors=True)


def _closed_block(run: _Run, load: ServiceLoad) -> Dict[str, object]:
    base = len(load.synced_at)
    sent_at = load.closed_loop(run.take(run.closed_n), IN_FLIGHT)
    synced = load.synced_at[base : base + run.closed_n]
    if len(synced) < run.closed_n:
        raise RuntimeError("closed loop: the server stopped answering")
    return {
        "sent_at": sent_at,
        "synced_at": synced,
        "segment_s": segment_seconds(sent_at[0], synced),
    }


def _ping_block(run: _Run, load: ServiceLoad) -> Dict[str, object]:
    base = len(load.synced_at)
    sent_at, reads = load.ping_pong(run.take(run.ping_n), READ_EVERY)
    synced = load.synced_at[base : base + run.ping_n]
    if len(synced) < run.ping_n:
        raise RuntimeError("ping-pong: the server stopped answering")
    return {
        "sent_at": sent_at,
        "synced_at": synced,
        # A slide that shared the program with a read is not a sample.
        "latencies": [
            done - sent
            for index, (done, sent) in enumerate(zip(synced, sent_at))
            if index % READ_EVERY != READ_EVERY - 1
        ],
        "reads": reads,
    }


def _open_block(run: _Run, load: ServiceLoad) -> Dict[str, object]:
    spec = run.spec
    base = len(load.synced_at)
    period = spec.slide / spec.open_rate
    due, started = send_open_loop(load.send, run.take(run.open_n), period)
    load.drain()
    synced = load.synced_at[base : base + run.open_n]
    if len(synced) < run.open_n:
        raise RuntimeError("open loop: the server stopped answering")
    latencies = [done - at for done, at in zip(synced, due)]
    return {
        "started": started,
        "synced_at": synced,
        "latencies": latencies,
        "lag": [at - planned for at, planned in zip(started, due)],
        "overloaded": is_overloaded(latencies, period),
    }


def _shard_busy(metrics: dict) -> List[float]:
    """Cumulative apply seconds per shard, from a ``/metrics`` document."""
    shards = metrics["engine"].get("supervision", {}).get("shards", ())
    return [state.get("busy_seconds", 0.0) for state in shards]


def _finish(
    run: _Run, server: ServeProcess, busy_before: Sequence[float] = ()
) -> Dict[str, object]:
    """Final answer, the server's own counters, memory; then kill it."""
    status, final = http_get(server.port, _TOPK)
    if status != 200:
        run.failures.append(f"final topk answered {status}")
    _, metrics = http_get(server.port, "/metrics")
    rss = server.peak_rss_mb()
    server.kill()
    ingest = metrics["ingest"]
    supervision = metrics["engine"].get("supervision", {})
    counters = {
        "ingest.slides": ingest["slides"],  # this server process only
        "ingest.partial_flushes": ingest["interval_flushes"],
        "ingest.dropped_stale": ingest["dropped_stale"],
        "wire.rejected_lines": ingest["rejected_lines"],
        "supervisor.restarts": supervision.get("restarts", 0),
        "supervisor.retries": ingest["writer_retries"],
    }
    for name, count in counters.items():
        if count and name != "ingest.slides":
            run.failures.append(f"{name} = {count} (must be 0)")
    busy = _shard_busy(metrics)
    return {
        "final": final,
        "rss": rss,
        "counters": counters,
        "shard_busy": [
            after - before
            for after, before in zip(busy, busy_before or [0.0] * len(busy))
        ],
    }


class _Crashed:
    """A warmed server's state directory after SIGKILL, and its recoveries.

    Each recovery restarts the program on the directory, times exec ->
    first ``200`` on ``topk`` equal to the pre-kill answer, and kills it
    again (which leaves the directory as it found it).  The recoveries
    are spread over the run — one right after the crash, the others
    between the timed rounds, while the measured server sits idle — so
    that the fastest of them does not hang on the host being quiet
    during one particular few seconds.
    """

    def __init__(self, run: _Run, state_dir: pathlib.Path, before: dict):
        self._run = run
        self._state_dir = state_dir
        self._before = before
        self.seconds: List[float] = []

    def recover(self) -> None:
        server = self._run.boot(self._state_dir)
        after = _recovered_answer(server.port)
        self.seconds.append(time.perf_counter() - server.started)
        server.kill()
        if not verify.same_answer(after, self._before):
            self._run.failures.append(
                f"recovery {len(self.seconds)}: answer differs from the pre-kill one"
            )


def _setup_cycles(run: _Run) -> Dict[str, object]:
    """``SETUP_CYCLES`` boots + warm-ups; the first one is then crashed.

    The last warmed server is never crashed and is the one measured, so
    its memory and counters owe nothing to a restore.
    """
    setup = []
    crashed = None
    for cycle in range(SETUP_CYCLES):
        first = cycle == 0
        server = run.boot(_fresh_dir(run.work / ("crashed" if first else "state")))
        setup.append(server.boot_seconds + run.warm_up(server))
        if first:
            _, before = http_get(server.port, _TOPK)
            server.kill()
            crashed = _Crashed(run, run.work / "crashed", before)
            crashed.recover()
        elif cycle < SETUP_CYCLES - 1:
            server.kill()
    return {"server": server, "setup": setup, "crashed": crashed}


def run_service(spec, seed: int, seconds: float, trace: bool, sut_cores) -> dict:
    """Run one service workload; returns metrics and the verdict."""
    wall_started = time.perf_counter()
    run = _Run(spec, seed, seconds, 1 if trace else ROUNDS, sut_cores)
    try:
        if trace:
            return _run_traced(run)
        cycles = _setup_cycles(run)
        server, crashed = cycles["server"], cycles["crashed"]
        # Nothing is timed while the helper still computes.
        verdict_ready = time.perf_counter()
        run.expected.result()
        waited_s = time.perf_counter() - verdict_ready
        load = ServiceLoad(server.port, first_slide=spec.warm_slides + 1)
        closed, pinged, opened = [], [], []
        try:
            for round_ in range(run.rounds):
                closed.append(_closed_block(run, load))
                pinged.append(_ping_block(run, load))
                opened.append(_open_block(run, load))
                if round_ in _RECOVER_AFTER_ROUND:
                    crashed.recover()
            run.note(load, run.timed_n, "timed")
        finally:
            load.close()
        end = _finish(run, server)
        verdict = run.check_final(end["final"])
        flags = []
        # A stall can fake one block's backlog; an unsustainable rate
        # shows in every block.
        if all(block["overloaded"] for block in opened):
            flags.append("overloaded")
            run.failures.append("open loop overloaded: latency kept growing")
        open_latencies = [value for block in opened for value in block["latencies"]]
        lag_p99 = percentile(
            [value for block in opened for value in block["lag"]], 99
        ) * 1000.0
        if lag_p99 > 0.25 * percentile(open_latencies, 50) * 1000.0:
            flags.append("generator-limited")
        durations = [value for block in closed for value in block["segment_s"]]
        latencies = [value for block in pinged for value in block["latencies"]]
        reads = [value for block in pinged for value in block["reads"]]
        reads_per_segment = SEGMENT // READ_EVERY
        metrics = {
            "setup_s": run.generate_s + run.encode_s + statistics.median(cycles["setup"]),
            "actions_per_s": closed_loop_rate(durations, spec.slide),
            "answer_p50_ms": quiet_median(latencies, SEGMENT - reads_per_segment) * 1000.0,
            "read_p50_ms": quiet_median(reads, reads_per_segment) * 1000.0,
            "recover_s": min(crashed.seconds),
            "peak_rss_mb": end["rss"],
            "value_vs_greedy": verdict["value_vs_greedy"],
        }
        return {
            "metrics": metrics,
            "correct": verdict["correct"],
            "attempted": run.timed_n + len(reads) + len(crashed.seconds) + 1,
            "failures": run.failures,
            "info": {
                "flags": flags,
                "gen.lag_p99_ms": lag_p99,
                "latency_samples": len(latencies),
                "read_samples": len(reads),
                # The open loop's figures: reported, gating nothing.
                "open_loop_p50_ms": percentile(open_latencies, 50) * 1000.0,
                "answer_p95_ms": percentile(open_latencies, 95) * 1000.0,
                "open_loop_samples": len(open_latencies),
                "slides": {
                    "rounds": run.rounds,
                    "closed_block": run.closed_n,
                    "ping_block": run.ping_n,
                    "open_block": run.open_n,
                },
                "setup_samples_s": cycles["setup"],
                "recover_samples_s": crashed.seconds,
                "expected_answer_wait_s": waited_s,
                "wall_s": time.perf_counter() - wall_started,
            },
        }
    finally:
        run.close()


# -- the traced run ----------------------------------------------------------


def _read_trace_log(path: pathlib.Path) -> Dict[int, dict]:
    """``{slide: event}`` from the server's ``--trace-log`` JSONL."""
    events = {}
    for line in path.read_text().splitlines():
        try:
            event = json.loads(line)
        except ValueError:
            continue  # the kill can tear the last line
        events[event["slide"]] = event
    return events


def _join_live_spans(
    ledger: SpanLedger,
    events: Dict[int, dict],
    first_slide: int,
    starts: Sequence[float],
    ends: Sequence[float],
) -> Dict[str, float]:
    """Client send->synced spans with the server's stages beneath them.

    The server reports each stage of a slide as a duration; the stages
    run in a known order and end when the barrier answers, so they are
    placed back to back ending at the client span's end.  ``queue_wait``
    is a sum over the slide's actions and is placed as its per-action
    mean.  Returns stage seconds summed over the joined slides.
    """
    sums: Dict[str, float] = {}
    for offset, (start, end) in enumerate(zip(starts, ends)):
        slide = first_slide + offset
        root = ledger.add("slide", start, end, None, slide)
        event = events.get(slide)
        if event is None:
            continue
        stages = event["stages"]
        ordered = []
        for name in _STAGE_ORDER:
            if name not in stages:
                continue
            seconds = stages[name]["seconds"]
            sums[name] = sums.get(name, 0.0) + seconds
            if name == "queue_wait":
                seconds /= max(stages[name]["items"], 1)
            ordered.append((name, seconds))
        for name in KERNEL_STAGES:
            if name in stages:
                sums[name] = sums.get(name, 0.0) + stages[name]["seconds"]
        # Shift the block so its last stage ends where the span ends.
        block = ledger.add(
            "server",
            max(end - sum(seconds for _, seconds in ordered), start),
            end,
            root,
            slide,
        )
        placed = ledger.lay_out(block, ordered, slide)
        if "oracle" in placed:
            ledger.lay_out(
                placed["oracle"],
                [(n, stages[n]["seconds"]) for n in KERNEL_STAGES if n in stages],
                slide,
            )
    return sums


def _run_traced(run: _Run) -> dict:
    spec = run.spec
    first = spec.warm_slides

    # Untraced reference: the same closed-loop slides, tracing off.
    server = run.boot(_fresh_dir(run.work / "state"))
    run.warm_up(server)
    run.expected.result()  # nothing is timed while the helper computes
    load = ServiceLoad(server.port, first_slide=first + 1)
    try:
        reference = _closed_block(run, load)
        run.note(load, run.closed_n, "reference")
    finally:
        load.close()
    server.kill()
    run.cursor = first  # the traced server is fed the same slides again

    trace_log = run.work / "trace.jsonl"
    server = run.boot(_fresh_dir(run.work / "state"), trace_log)
    run.warm_up(server)
    busy_before = _shard_busy(http_get(server.port, "/metrics")[1])
    load = ServiceLoad(server.port, first_slide=first + 1)
    try:
        closed = _closed_block(run, load)
        pinged = _ping_block(run, load)
        opened = _open_block(run, load)
        run.note(load, run.timed_n, "timed")
    finally:
        load.close()
    end = _finish(run, server, busy_before)
    end["counters"]["ingest.slides"] -= first
    verdict = run.check_final(end["final"])
    reference_rate = closed_loop_rate(reference["segment_s"], spec.slide)
    traced_rate = closed_loop_rate(closed["segment_s"], spec.slide)

    ledger = SpanLedger()
    events = _read_trace_log(trace_log)
    live_closed = _join_live_spans(
        ledger, events, first + 1, closed["sent_at"], closed["synced_at"]
    )
    live_rest = [
        _join_live_spans(ledger, events, first_slide, starts, ends)
        for first_slide, starts, ends in (
            (first + run.closed_n + 1, pinged["sent_at"], pinged["synced_at"]),
            (
                first + run.closed_n + run.ping_n + 1,
                opened["started"], opened["synced_at"],
            ),
        )
    ]

    def live(name: str) -> float:
        return live_closed.get(name, 0.0) + sum(
            sums.get(name, 0.0) for sums in live_rest
        )

    replayed = min(REPLAY_SLIDES, run.timed_n)
    slides = [
        run.actions[i * spec.slide : (i + 1) * spec.slide]
        for i in range(first + replayed)
    ]
    layers = replay_layers(
        spec,
        slides[:first],
        slides[first:],
        run.payloads[first : first + replayed],
        first + 1,
        _fresh_dir(run.work / "replay"),
        ledger,
    )

    closed_wall = closed["synced_at"][-1] - closed["sent_at"][0]
    top_level = sum(
        live_closed.get(name, 0.0) for name in _STAGE_ORDER if name != "queue_wait"
    )
    timed_payloads = run.payloads[first : first + run.timed_n]
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    metrics.update(layers)
    metrics.update(end["counters"])
    metrics.update(
        {
            "wire.lines": len(timed_payloads) * (spec.slide + 1),
            "wire.bytes_in": sum(len(payload) for payload in timed_payloads),
            "ingest.queue_wait_s": live("queue_wait"),
            "ingest.coalesce_s": live("coalesce"),
            "ingest.unattributed_s": max(closed_wall - top_level, 0.0),
            "cache.publish_s": live("publish"),
            "cache.read_p95_ms": percentile(pinged["reads"], 95) * 1000.0,
            "kernel.compiled": verify.kernel_compiled(),
            "ipc.fanout_s": live("shard_fanout"),
            "shard.apply_s_max": max(end["shard_busy"], default=0.0),
            "shard.apply_s_sum": sum(end["shard_busy"]),
            "trace.overhead_pct": (1.0 - traced_rate / reference_rate) * 100.0,
            "trace.attributed_pct": min(top_level / closed_wall, 1.0) * 100.0,
            "gen.lag_p99_ms": percentile(opened["lag"], 99) * 1000.0,
            "gen.encode_s": run.encode_s,
            "trace.spans": len(ledger),
        }
    )
    span_file = OUT_DIR / f"trace_{spec.name}.json"
    ledger.write(
        span_file,
        {
            "workload": spec.name,
            "replayed_slides": replayed,
            "timed_slides": run.timed_n,
            "live_stage_seconds": {
                name: live(name) for name in _STAGE_ORDER + KERNEL_STAGES
            },
        },
    )
    return {
        "metrics": metrics,
        "correct": verdict["correct"],
        "attempted": run.closed_n + run.timed_n + 1,
        "failures": run.failures,
        "info": {
            "flags": [],
            "gen.lag_p99_ms": metrics["gen.lag_p99_ms"],
            "span_file": str(span_file),
            "untraced_actions_per_s": reference_rate,
            "traced_actions_per_s": traced_rate,
        },
    }
