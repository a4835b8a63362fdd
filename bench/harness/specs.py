"""Workload sizes and the metric catalogue (constants, not flags).

Sizes are fixed *counts* derived from ``--seconds`` and a nominal rate
per workload, not wall-clock deadlines: the same ``(seed, seconds)``
always feeds the same slides, so the final answer, ``value_vs_greedy``
and every count-type layer metric repeat exactly, and a faster program
simply finishes sooner.  The nominal rates are what this commit measured
on the 2-core reference box, so a run measures for about ``--seconds``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "ServiceSpec",
    "EngineSpec",
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "ROUNDS",
    "SEGMENT",
    "FAST_PERCENT",
    "ENGINE_SEGMENT",
    "IN_FLIGHT",
    "READ_EVERY",
    "REPLAY_SLIDES",
    "SETUP_CYCLES",
    "RECOVER_CYCLES",
]

#: A service run goes this many times through a closed-loop, a ping-pong
#: and an open-loop block, so each figure samples the host over the whole
#: run and not over one third of it.
ROUNDS = 4
#: Slides per segment of a service block: a whole number of snapshot
#: periods (so every segment holds the same number of snapshot stalls)
#: and about a tenth of a second of work, shorter than a quiet spell.
SEGMENT = 16
#: Actions per segment of the engine loop (about a tenth of a second too).
ENGINE_SEGMENT = 400
#: Throughput is read at this percentile of the segment durations, and
#: latency at this percentile of the segments' medians — what the program
#: reaches while the host is quiet.
FAST_PERCENT = 2.0
#: Closed loop: un-synced slides in flight.
IN_FLIGHT = 8
#: Ping-pong: ``topk`` is read beside every this-many-th slide.
READ_EVERY = 4
#: Timed slides the traced run re-feeds through each layer's entry point.
REPLAY_SLIDES = 240
#: Boot + warm-up cycles per run (``setup_s`` is their median).
SETUP_CYCLES = 2
#: Restarts of a SIGKILLed program per run (``recover_s`` is the fastest):
#: for a service one after the crash and one after each round.
RECOVER_CYCLES = 5
#: Shares of ``--seconds`` the closed-loop and the ping-pong blocks are
#: sized for; the open-loop blocks take the rest.
CLOSED_SHARE = 0.35
PING_SHARE = 0.35
#: With one slide in flight the program completes about this share of
#: the slides per second it completes with ``IN_FLIGHT``.
PING_SPEED = 0.75


@dataclass(frozen=True)
class ServiceSpec:
    """One ``svc_*`` workload: shared traffic, different serve flags."""

    name: str
    why: str
    #: Flags appended to the shared ``repro.cli serve`` command line.
    serve_flags: Tuple[str, ...]
    shards: int
    snapshot_every: int
    #: Open-loop schedule in actions per second.
    open_rate: int
    #: Nominal closed-loop speed (slides/s) that sizes the closed blocks.
    closed_slides_per_s: int

    # Traffic shared by the three service workloads, so they compare.
    n_users: int = 20_000
    n_actions: int = 200_000
    window: int = 10_000
    slide: int = 50
    k: int = 5
    beta: float = 0.3
    warm_slides: int = 250

    def block_slides(self, seconds: float) -> Tuple[int, int, int]:
        """``(closed, ping, open)`` slides per block for a run of ``seconds``.

        Each is a whole number of :data:`SEGMENT`-slide segments (rounded
        up); :data:`ROUNDS` of each make the run, and the stream bounds
        them.
        """
        available = (self.n_actions // self.slide - self.warm_slides) // ROUNDS
        per_round = seconds / ROUNDS
        sizes = [
            per_round * CLOSED_SHARE * self.closed_slides_per_s,
            per_round * PING_SHARE * self.closed_slides_per_s * PING_SPEED,
            per_round * (1.0 - CLOSED_SHARE - PING_SHARE) * self.open_rate / self.slide,
        ]
        scale = min(available / sum(sizes), 1.0)
        whole = [max(math.ceil(size * scale / SEGMENT), 1) * SEGMENT for size in sizes]
        while sum(whole) > available and max(whole) > SEGMENT:
            whole[whole.index(max(whole))] -= SEGMENT
        return whole[0], whole[1], whole[2]


@dataclass(frozen=True)
class EngineSpec:
    """``engine_ic_l1``: the paper's per-action regime, engine only."""

    name: str
    why: str
    n_users: int = 2_000
    n_actions: int = 55_000
    window: int = 1_000
    k: int = 5
    beta: float = 0.3
    warm_actions: int = 5_000
    #: Nominal speed (actions/s) that sizes the timed phase.
    actions_per_s: int = 3_500
    #: Share of ``--seconds`` the timed loop is sized for (the service
    #: workloads spend the rest waiting on their open-loop schedule).
    timed_share: float = 0.6

    def timed_actions(self, seconds: float) -> int:
        """Timed action count for ``seconds``: whole ``ENGINE_SEGMENT`` s."""
        wanted = int(seconds * self.timed_share * self.actions_per_s)
        wanted = min(wanted, self.n_actions - self.warm_actions)
        return max(wanted // ENGINE_SEGMENT, 1) * ENGINE_SEGMENT


WORKLOADS: Dict[str, object] = {
    spec.name: spec
    for spec in (
        ServiceSpec(
            name="svc_single",
            why="One engine behind the socket: wire parse, coalesce, "
            "resolve, kernel and WAL fsync each hold a visible share; "
            "sharding and snapshots are off, so changes there must "
            "leave it flat.",
            serve_flags=("--snapshot-every", "0"),
            shards=1,
            snapshot_every=0,
            open_rate=3000,
            closed_slides_per_s=150,
        ),
        ServiceSpec(
            name="svc_sharded",
            why="Two process shards: facade resolve, route, pickle/IPC, "
            "shard apply and merge-on-read carry the slide; the kernel "
            "share is small, so sharding overhead shows here.",
            serve_flags=(
                "--snapshot-every", "0",
                "--shards", "2",
                "--shard-backend", "process",
            ),
            shards=2,
            snapshot_every=0,
            open_rate=2000,
            closed_slides_per_s=120,
        ),
        ServiceSpec(
            name="svc_durable",
            why="The serve defaults (snapshot every 16 slides): "
            "synchronous snapshot writes dominate ingest, and recovery "
            "reads what ingest wrote, so a codec that speeds one and "
            "slows the other shows.",
            serve_flags=("--snapshot-every", "16"),
            shards=1,
            snapshot_every=16,
            # A snapshot stalls ingest for about 0.4 s: at one every 1.6 s
            # a quarter of the slides wait behind one and the queue always
            # drains again; at twice the rate half of them do, and a slow
            # spell of the host reads as overload.
            open_rate=500,
            closed_slides_per_s=50,
        ),
        EngineSpec(
            name="engine_ic_l1",
            why="The paper's L=1 regime (IC, 1000 live checkpoints) in a "
            "bare child process: per-slide kernel cost dominates, no "
            "service layer runs; kernel and index changes show here, "
            "service-path changes must not.",
        ),
    )
}

# (name, unit, better, bound).  Every workload reports every one of
# these: the driver takes the list from BENCHMARK.json, not per workload.
# Wall-clock bounds sit at the 0.25 cap: on the reference box the host's
# own speed drifts by 20% and more within the hour, which no estimator
# removes.  Tail latency (``answer_p95_ms``) is not in the list: ten
# runs of it spread by 0.15 to 0.45 of their median there, wider than
# any bound the driver accepts, so it is printed with each run (``#
# info``) and gates nothing.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("actions_per_s", "1/s", "higher", 0.25),
    ("answer_p50_ms", "ms", "lower", 0.25),
    ("read_p50_ms", "ms", "lower", 0.25),
    ("recover_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("value_vs_greedy", "ratio", "higher", 0.15),
)

# (name, unit, better).  A layer that does not run in a workload
# reports 0 there (the driver wants every name in every traced run).
PER_LAYER = (
    # service.server
    ("wire.parse_s", "s", "lower"),
    ("wire.lines", "count", "lower"),
    ("wire.bytes_in", "count", "lower"),
    ("wire.rejected_lines", "count", "lower"),
    # service.ingest
    ("ingest.queue_wait_s", "s", "lower"),
    ("ingest.coalesce_s", "s", "lower"),
    ("ingest.slides", "count", "lower"),
    ("ingest.partial_flushes", "count", "lower"),
    ("ingest.dropped_stale", "count", "lower"),
    ("ingest.unattributed_s", "s", "lower"),
    # service.cache
    ("cache.publish_s", "s", "lower"),
    ("cache.read_p95_ms", "ms", "lower"),
    # core.resolve
    ("resolve.busy_s", "s", "lower"),
    ("resolve.records", "count", "lower"),
    ("resolve.records_per_action", "ratio", "lower"),
    # core.influence_index
    ("index.busy_s", "s", "lower"),
    ("index.entries_peak", "count", "lower"),
    # core.oracles (columnar / C kernel)
    ("kernel.busy_s", "s", "lower"),
    ("kernel.updates", "count", "lower"),
    ("kernel.compiled", "count", "higher"),
    # core.ic / core.sic
    ("oracle.busy_s", "s", "lower"),
    ("oracle.self_s", "s", "lower"),
    ("ckpt.count_mean", "count", "lower"),
    ("ckpt.count_max", "count", "lower"),
    # persistence.wal
    ("wal.append_s", "s", "lower"),
    ("wal.records", "count", "lower"),
    ("wal.bytes", "count", "lower"),
    ("wal.replay_s", "s", "lower"),
    ("wal.replayed_slides", "count", "lower"),
    # persistence.snapshots + persistence.serialize
    ("snapshot.encode_s", "s", "lower"),
    ("snapshot.write_s", "s", "lower"),
    ("snapshot.count", "count", "lower"),
    ("snapshot.bytes", "count", "lower"),
    ("snapshot.load_s", "s", "lower"),
    # sharding.partition
    ("route.busy_s", "s", "lower"),
    ("route.records_total", "count", "lower"),
    ("route.skew", "ratio", "lower"),
    ("route.replication", "ratio", "lower"),
    # sharding.engine
    ("ipc.fanout_s", "s", "lower"),
    ("ipc.codec_s", "s", "lower"),
    ("ipc.bytes", "count", "lower"),
    ("ipc.round_trips", "count", "lower"),
    ("shard.apply_s_max", "s", "lower"),
    ("shard.apply_s_sum", "s", "lower"),
    # sharding.merge
    ("merge.busy_s", "s", "lower"),
    ("merge.candidates", "count", "lower"),
    # sharding.supervisor
    ("supervisor.restarts", "count", "lower"),
    ("supervisor.retries", "count", "lower"),
    # telemetry / generator
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "higher"),
    ("trace.attributed_pct", "%", "higher"),
    ("gen.lag_p99_ms", "ms", "lower"),
    ("gen.encode_s", "s", "lower"),
)
