"""Child-process program for ``engine_ic_l1``: the engine, nothing else.

Speaks JSON lines on stdin/stdout with the harness.  Each request is one
object with an ``op``; each gets one reply line:

* ``warm``   — build the engine and feed ``actions`` at slide 1, untimed;
* ``save``   — write a snapshot of the engine into ``dir``;
* ``load``   — rebuild the engine from the newest snapshot in ``dir``;
* ``run``    — feed ``actions`` one by one, timing ``process([a])`` and
  ``query()`` per action; with ``trace`` a slide trace is active around
  each action, so the stages the program already emits
  (``forest_index``, ``oracle``, ``kernel_index``, ``kernel_pass``) are
  summed and, for the first ``span_actions`` actions, returned as
  per-action rows for the span ledger.

The process exits on EOF.  It runs no socket, WAL or shard code.
"""

from __future__ import annotations

import json
import sys
import time

from repro.core.actions import Action
from repro.core.ic import InfluentialCheckpoints
from repro.persistence.serialize import (
    SNAPSHOT_FORMAT_VERSION,
    algorithm_from_state,
    algorithm_to_state,
)
from repro.persistence.snapshots import SnapshotStore
from repro.telemetry import TraceRecorder


def answer_of(engine) -> dict:
    result = engine.query()
    return {
        "time": result.time,
        "value": result.value,
        "seeds": sorted(result.seeds),
    }


def run(engine, triples, trace: bool, span_actions: int) -> dict:
    """Timed per-action loop; returns durations, stage sums and counters."""
    actions = [Action(time=t, user=u, parent=p) for t, u, p in triples]
    stamps = []
    process_s = []
    query_s = []
    influence_records = 0
    stage_seconds: dict = {}
    stage_items: dict = {}
    rows = []
    checkpoints = []
    entries_peak = 0
    recorder = TraceRecorder(capacity=1) if trace else None
    clock = time.perf_counter
    started = clock()
    for index, action in enumerate(actions):
        slide_trace = (
            recorder.begin(action.time, 1) if recorder is not None else None
        )
        t0 = clock()
        engine.process([action])
        t1 = clock()
        engine.query()
        t2 = clock()
        stamps.append(t0)
        process_s.append(t1 - t0)
        query_s.append(t2 - t1)
        if recorder is not None:
            recorder.finish(slide_trace)
            stages = slide_trace.stages
            for name, (seconds, items) in stages.items():
                stage_seconds[name] = stage_seconds.get(name, 0.0) + seconds
                stage_items[name] = stage_items.get(name, 0) + items
            influence_records += len(engine.forest.record(action.time).influencers)
            checkpoints.append(engine.checkpoint_count)
            entries_peak = max(entries_peak, engine.shared_index.pair_count)
            if index < span_actions:
                rows.append(
                    [action.time, t0, t1, t2]
                    + [
                        stages.get(name, (0.0, 0))[0]
                        for name in (
                            "forest_index",
                            "oracle",
                            "kernel_index",
                            "kernel_pass",
                        )
                    ]
                )
    finished = clock()
    kernel = engine.columnar_kernel
    return {
        "started": started,
        "finished": finished,
        "stamps": stamps,
        "process_s": process_s,
        "query_s": query_s,
        "stage_seconds": stage_seconds,
        "stage_items": stage_items,
        "rows": rows,
        "influence_records": influence_records,
        "ckpt_mean": sum(checkpoints) / len(checkpoints) if checkpoints else 0.0,
        "ckpt_max": max(checkpoints, default=0),
        "entries_peak": entries_peak,
        "kernel_compiled": int(
            kernel is not None and kernel.stats()["event_kernel"] == "c"
        ),
        "answer": answer_of(engine),
    }


def main() -> int:
    engine = None
    for line in sys.stdin:
        request = json.loads(line)
        op = request["op"]
        if op == "warm":
            engine = InfluentialCheckpoints(
                window_size=request["window"],
                k=request["k"],
                beta=request["beta"],
            )
            for t, u, p in request["actions"]:
                engine.process([Action(time=t, user=u, parent=p)])
            reply = {"answer": answer_of(engine)}
        elif op == "save":
            t0 = time.perf_counter()
            state = algorithm_to_state(engine)
            t1 = time.perf_counter()
            path = SnapshotStore(request["dir"]).save(
                engine.actions_processed,
                {
                    "format": SNAPSHOT_FORMAT_VERSION,
                    "slide_seq": engine.actions_processed,
                    "algorithm": state,
                },
            )
            t2 = time.perf_counter()
            reply = {
                "encode_s": t1 - t0,
                "write_s": t2 - t1,
                "bytes": path.stat().st_size,
            }
        elif op == "load":
            t0 = time.perf_counter()
            _, document = SnapshotStore(request["dir"]).load_latest()
            engine = algorithm_from_state(document["algorithm"])
            reply = {
                "load_s": time.perf_counter() - t0,
                "answer": answer_of(engine),
            }
        elif op == "run":
            reply = run(
                engine,
                request["actions"],
                request["trace"],
                request["span_actions"],
            )
        else:
            reply = {"error": f"unknown op {op!r}"}
        sys.stdout.write(json.dumps(reply, separators=(",", ":")) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
