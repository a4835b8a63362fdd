"""Outside-in replay: one span around each layer's public entry point.

The traced run re-feeds the first timed slides of a service workload
through every layer the live server would run them through, in this
process, with a span around each call.  Nothing inside ``src/`` is
instrumented: the spans come from here, and the only program-emitted
figures used are the stage seconds the engine already records into an
active slide trace (``forest_index``, ``oracle``, ``kernel_index``,
``kernel_pass``), placed as child spans of the call that produced them.

The same stage names the live ``--trace-log`` uses are kept verbatim,
so a row here and a production trace line up.
"""

from __future__ import annotations

import json
import pathlib
import pickle
from typing import Dict, List, Sequence

from repro.core.resolve import ResolvedSlide, SlideResolver, partition_slide
from repro.persistence.serialize import (
    SNAPSHOT_FORMAT_VERSION,
    algorithm_from_state,
    algorithm_to_state,
    decode_action,
)
from repro.persistence.snapshots import SnapshotStore
from repro.persistence.wal import ActionWAL
from repro.service.cache import AnswerBoard, AnswerCache
from repro.sharding.merge import SeedCandidate, ShardAnswer, merge_shard_answers
from repro.sharding.partition import HashPartitioner, ShardAssignment
from repro.telemetry import TraceRecorder

from harness.spans import SpanLedger
from harness.verify import board_factory

__all__ = ["replay_layers", "KERNEL_STAGES"]

#: Stages an engine call records into the active slide trace, in the
#: order they run; the kernel stages run inside ``oracle``.
_ENGINE_STAGES = ("forest_index", "oracle")
KERNEL_STAGES = ("kernel_index", "kernel_pass")


class _Sums:
    """Per-metric accumulators the replay fills."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = {}

    def add(self, name: str, amount: float) -> None:
        self.values[name] = self.values.get(name, 0.0) + amount

    def peak(self, name: str, amount: float) -> None:
        self.values[name] = max(self.values.get(name, 0.0), amount)


def _traced_call(ledger, recorder, sums, name, parent, slide, items, call):
    """Run ``call`` inside a span with a slide trace active.

    The stages the program recorded become child spans and feed the
    ``resolve``/``oracle``/``index``/``kernel`` sums.
    """
    trace = recorder.begin(slide, items)
    with ledger.span(name, parent, slide) as span:
        call()
    recorder.finish(trace)
    stages = trace.stages
    placed = ledger.lay_out(
        span,
        [(s, stages[s][0]) for s in _ENGINE_STAGES if s in stages],
        slide,
    )
    if "oracle" in placed:
        ledger.lay_out(
            placed["oracle"],
            [(s, stages[s][0]) for s in KERNEL_STAGES if s in stages],
            slide,
        )
    oracle = stages.get("oracle", (0.0, 0))[0]
    index = stages.get("kernel_index", (0.0, 0))[0]
    kernel, updates = stages.get("kernel_pass", (0.0, 0))
    sums.add("oracle.busy_s", oracle)
    sums.add("index.busy_s", index)
    sums.add("kernel.busy_s", kernel)
    sums.add("kernel.updates", updates)
    sums.add("oracle.self_s", max(oracle - index - kernel, 0.0))


def _snapshot(ledger, sums, store, seq, algorithm, parent, slide) -> None:
    with ledger.span("snapshot.encode", parent, slide) as encode:
        state = algorithm_to_state(algorithm)
    with ledger.span("snapshot.write", parent, slide) as write:
        path = store.save(
            seq,
            {
                "format": SNAPSHOT_FORMAT_VERSION,
                "slide_seq": seq,
                "algorithm": state,
            },
        )
    sums.add("snapshot.encode_s", ledger.duration(encode))
    sums.add("snapshot.write_s", ledger.duration(write))
    sums.add("snapshot.count", 1)
    sums.add("snapshot.bytes", path.stat().st_size)


def _engine_counters(sums, algorithms: Sequence) -> None:
    """Checkpoint and index sizes, summed over the engines of one slide."""
    checkpoints = sum(a.checkpoint_count for a in algorithms)
    sums.add("ckpt.count_sum", checkpoints)
    sums.peak("ckpt.count_max", checkpoints)
    sums.peak(
        "index.entries_peak",
        sum(a.shared_index.pair_count for a in algorithms),
    )


def replay_layers(
    spec,
    warm: Sequence[List],
    timed: Sequence[List],
    payloads: Sequence[bytes],
    first_slide: int,
    scratch: pathlib.Path,
    ledger: SpanLedger,
) -> Dict[str, float]:
    """Replay ``timed`` slides layer by layer; returns the metric sums.

    Args:
        spec: The service workload.
        warm: Slides fed untimed first, so the engines hold the state
            the live server held when the timed slides arrived.
        timed: The slides to replay (as action lists).
        payloads: The same slides as the wire bytes the generator sent.
        first_slide: Slide number of ``timed[0]`` (the shared span id).
        scratch: Empty directory for the WAL and snapshot files.
        ledger: Span ledger to record into.
    """
    sums = _Sums()
    recorder = TraceRecorder(capacity=1)
    factory = board_factory(spec)
    resolver = SlideResolver()
    cache = AnswerCache()
    sharded = spec.shards > 1
    if sharded:
        partitioner = HashPartitioner(spec.shards)
        boards = [
            factory(ShardAssignment(partitioner, shard))
            for shard in range(spec.shards)
        ]
        shard_wals = [
            ActionWAL(scratch / f"shard-{shard}" / "wal")
            for shard in range(spec.shards)
        ]
        routed_per_shard = [0] * spec.shards
    else:
        boards = [factory()]
    algorithms = [board.get("main") for board in boards]
    func = algorithms[0].influence_function
    wal = ActionWAL(scratch / "wal")
    snapshots = SnapshotStore(scratch / "snapshots")

    for batch in warm:
        resolved = resolver.resolve(batch)
        if sharded:
            for board, part in zip(boards, partition_slide(resolved, partitioner)):
                board.apply_resolved(part)
        else:
            boards[0].process(batch)

    actions_seen = 0
    for offset, (batch, payload) in enumerate(zip(timed, payloads)):
        slide = first_slide + offset
        seq = offset + 1
        with ledger.span("replay.slide", None, slide) as root:
            with ledger.span("wire.parse", root, slide) as parse:
                lines = payload.split(b"\n")
                decoded = [
                    decode_action(json.loads(line)) for line in lines[:-2]
                ]
                json.loads(lines[-2])  # the sync barrier is a line too
            if decoded != batch:
                raise RuntimeError(f"slide {slide}: wire bytes do not decode to its actions")
            sums.add("wire.parse_s", ledger.duration(parse))

            with ledger.span("resolve", root, slide) as resolve:
                resolved = resolver.resolve(batch)
            sums.add("resolve.busy_s", ledger.duration(resolve))
            sums.add(
                "resolve.records",
                sum(len(record.influencers) for record in resolved.records),
            )
            actions_seen += len(batch)

            with ledger.span("wal.append", root, slide) as append:
                wal.append(seq, batch)
            sums.add("wal.append_s", ledger.duration(append))
            sums.add("wal.records", 1)

            if sharded:
                with ledger.span("route", root, slide) as route:
                    parts = partition_slide(resolved, partitioner)
                sums.add("route.busy_s", ledger.duration(route))
                answers = []
                for shard, (board, part) in enumerate(zip(boards, parts)):
                    routed_per_shard[shard] += len(part.records)
                    with ledger.span("ipc.codec", root, slide) as codec:
                        frame = pickle.dumps(("apply", part.to_wire()))
                        received = ResolvedSlide.from_wire(pickle.loads(frame)[1])
                    sums.add("ipc.codec_s", ledger.duration(codec))
                    sums.add("ipc.bytes", len(frame))
                    with ledger.span("wal.append", root, slide) as append:
                        shard_wals[shard].append_resolved(seq, received)
                    sums.add("wal.append_s", ledger.duration(append))
                    sums.add("wal.records", 1)
                    _traced_call(
                        ledger, recorder, sums, "shard.apply", root, slide,
                        len(received.records),
                        lambda: board.apply_resolved(received),
                    )
                    with ledger.span("shard.answers", root, slide):
                        result = board.query("main")
                        candidates = board.query_candidates("main")
                    with ledger.span("ipc.codec", root, slide) as codec:
                        frame = pickle.dumps(
                            {
                                "time": result.time,
                                "value": result.value,
                                "seeds": sorted(result.seeds),
                                "candidates": [
                                    [user, sorted(coverage)]
                                    for user, coverage in candidates
                                ],
                            }
                        )
                        entry = pickle.loads(frame)
                        answers.append(
                            ShardAnswer(
                                shard=shard,
                                time=entry["time"],
                                seeds=frozenset(entry["seeds"]),
                                value=entry["value"],
                                candidates=tuple(
                                    SeedCandidate(user, frozenset(coverage))
                                    for user, coverage in entry["candidates"]
                                ),
                            )
                        )
                    sums.add("ipc.codec_s", ledger.duration(codec))
                    sums.add("ipc.bytes", len(frame))
                    sums.add("ipc.round_trips", 2)
                    sums.add("merge.candidates", len(candidates))
                with ledger.span("merge", root, slide) as merge:
                    merged = merge_shard_answers(
                        answers, k=spec.k, func=func, time=resolved.last
                    )
                sums.add("merge.busy_s", ledger.duration(merge))
            else:
                _traced_call(
                    ledger, recorder, sums, "engine.process", root, slide,
                    len(batch), lambda: boards[0].process(batch),
                )
                with ledger.span("engine.query", root, slide):
                    merged = boards[0].query("main")
            _engine_counters(sums, algorithms)

            with ledger.span("cache.publish", root, slide):
                cache.publish(
                    AnswerBoard.from_results(
                        {"main": merged}, slide=slide, time=merged.time,
                        published_at=0.0,
                    )
                )
            with ledger.span("cache.answer", root, slide):
                cache.answer("main")

            if spec.snapshot_every and seq % spec.snapshot_every == 0:
                _snapshot(ledger, sums, snapshots, seq, boards[0], root, slide)

    wal.close()
    wals = [wal] + (shard_wals if sharded else [])
    for log in shard_wals if sharded else ():
        log.close()
    with ledger.span("wal.replay", None, None) as replay:
        replayed = sum(len(list(log.replay(after=0))) for log in wals)
    sums.add("wal.replay_s", ledger.duration(replay))
    sums.add("wal.replayed_slides", replayed)
    sums.add(
        "wal.bytes",
        sum(path.stat().st_size for log in wals for path in log.segments()),
    )
    if sums.values.get("snapshot.count"):
        with ledger.span("snapshot.load", None, None) as load:
            _, document = snapshots.load_latest()
            algorithm_from_state(document["algorithm"])
        sums.add("snapshot.load_s", ledger.duration(load))

    out = sums.values
    out["resolve.records_per_action"] = out.get("resolve.records", 0.0) / max(
        actions_seen, 1
    )
    out["ckpt.count_mean"] = out.pop("ckpt.count_sum", 0.0) / max(len(timed), 1)
    if sharded:
        total = sum(routed_per_shard)
        out["route.records_total"] = total
        out["route.skew"] = max(routed_per_shard) / max(total / spec.shards, 1e-9)
        out["route.replication"] = total / max(actions_seen, 1)
    return out
