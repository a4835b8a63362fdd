"""``engine_ic_l1``: IC at slide 1 in a bare child process.

The child (``engine_child.py``) holds the engine and nothing else; this
side generates the stream, hands it over a pipe, and times nothing
itself — the per-action ``process`` + ``query`` durations are taken
inside the child, around the two calls.

One run: ``SETUP_CYCLES`` times spawn a child and warm it up
(``setup_s``); snapshot the first one's engine, SIGKILL it, and
``RECOVER_CYCLES`` times time a replacement from exec to its first
answer equal to the pre-kill one (``recover_s``); the last warmed child
then runs the timed actions.  The final answer is compared with the
same engine built here and fed the same actions.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import List, Sequence

from repro.datasets.synthetic import syn_n

from harness import verify
from harness.spans import SpanLedger
from harness.specs import (
    ENGINE_SEGMENT,
    FAST_PERCENT,
    PER_LAYER,
    RECOVER_CYCLES,
    SETUP_CYCLES,
)
from harness.stats import percentile, quiet_median
from harness.sut import OUT_DIR, ChildProcess

__all__ = ["run_engine"]

_CHILD = pathlib.Path(__file__).with_name("engine_child.py")
#: Timed actions whose spans the traced run writes out (the stage sums
#: cover every timed action either way).
_SPAN_ACTIONS = 2_000


class _Child(ChildProcess):
    """An engine child speaking JSON lines over its pipes."""

    def __init__(self, cores, log: pathlib.Path):
        super().__init__(
            [sys.executable, str(_CHILD)], cores, log, stdin=subprocess.PIPE
        )

    def call(self, request: dict, timeout: float = 170.0) -> dict:
        data = json.dumps(request, separators=(",", ":")).encode("utf-8") + b"\n"
        self.process.stdin.write(data)
        self.process.stdin.flush()
        line = self.read_line(timeout)
        if not line:
            raise RuntimeError("engine child exited without a reply")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(f"engine child: {reply['error']}")
        return reply


def _triples(actions: Sequence) -> List[list]:
    return [[a.time, a.user, a.parent] for a in actions]


def _segment_seconds(stamps: Sequence[float], finished: float) -> List[float]:
    """Wall seconds of each whole ``ENGINE_SEGMENT``-action run of the loop.

    ``stamps`` are the actions' start times and ``finished`` the end of
    the last one; actions past the last whole segment are left out.
    """
    bounds = list(stamps[::ENGINE_SEGMENT])
    if len(stamps) % ENGINE_SEGMENT == 0:
        bounds.append(finished)
    return [end - start for start, end in zip(bounds, bounds[1:])]


def _reference_actions(timed_n: int) -> int:
    """Actions of the traced run's untraced reference: whole segments."""
    return max(timed_n // 5 // ENGINE_SEGMENT, 1) * ENGINE_SEGMENT


def _fast_rate(stamps: Sequence[float], finished: float) -> float:
    """Actions per second the loop reaches while the host is quiet."""
    return ENGINE_SEGMENT / percentile(
        _segment_seconds(stamps, finished), FAST_PERCENT
    )


def run_engine(spec, seed: int, seconds: float, trace: bool, sut_cores) -> dict:
    """Run the engine workload; returns metrics and the verdict."""
    wall_started = time.perf_counter()
    work = OUT_DIR / f"work-{spec.name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = OUT_DIR / f"{spec.name}-child.log"
    log.unlink(missing_ok=True)  # one run's stderr, not a history
    timed_n = spec.timed_actions(seconds)
    failures: List[str] = []
    children: List[_Child] = []

    def spawn() -> _Child:
        child = _Child(sut_cores, log)
        children.append(child)
        return child

    started = time.perf_counter()
    actions = list(
        syn_n(n_users=spec.n_users, n_actions=spec.n_actions, seed=seed)
    )[: spec.warm_actions + timed_n]
    warm = _triples(actions[: spec.warm_actions])
    timed = _triples(actions[spec.warm_actions :])
    generate_s = time.perf_counter() - started
    warm_request = {
        "op": "warm", "actions": warm,
        "window": spec.window, "k": spec.k, "beta": spec.beta,
    }

    try:
        reference_rate = None
        if trace:
            # Untraced reference over the first fifth of the same actions.
            child = spawn()
            child.call(warm_request)
            part = timed[: _reference_actions(timed_n)]
            reply = child.call(
                {"op": "run", "actions": part, "trace": False, "span_actions": 0}
            )
            reference_rate = _fast_rate(reply["stamps"], reply["finished"])
            child.kill()

        setup, recover = [], []
        saved = loaded = {}
        child = None
        for cycle in range(1 if trace else SETUP_CYCLES):
            if child is not None:
                child.kill()
            child = spawn()
            before = child.call(warm_request)["answer"]
            setup.append(time.perf_counter() - child.started)
            if cycle:
                continue
            # Crash the first warmed child; every recovery restores its
            # snapshot.  The measured child is never restored, so its
            # memory owes nothing to the snapshot codec.
            state_dir = work / "state"
            saved = child.call({"op": "save", "dir": str(state_dir)})
            if not trace:
                child.kill()
                child = None
            for attempt in range(1 if trace else RECOVER_CYCLES):
                restored = spawn()
                loaded = restored.call({"op": "load", "dir": str(state_dir)})
                recover.append(time.perf_counter() - restored.started)
                restored.kill()
                if not verify.same_answer(loaded["answer"], before):
                    failures.append(
                        f"recovery {attempt}: answer differs from the pre-kill one"
                    )

        # The expected answer is computed here, on the generator's core,
        # while the child runs its timed loop on the program's cores: this
        # process would otherwise only wait for the reply.
        with ThreadPoolExecutor(max_workers=1) as background:
            checker = background.submit(verify.expected_engine, spec, actions)
            result = child.call(
                {
                    "op": "run", "actions": timed, "trace": trace,
                    "span_actions": _SPAN_ACTIONS if trace else 0,
                }
            )
            rss = child.peak_rss_mb()
            child.kill()
            expected, quality = checker.result()
    finally:
        for spawned in children:
            spawned.kill()
        shutil.rmtree(work, ignore_errors=True)

    correct = verify.same_answer(result["answer"], expected)
    if not correct:
        failures.append(f"final answer {result['answer']} != expected {expected}")

    # Rate and latency are what the loop reaches while the host is quiet.
    rate = _fast_rate(result["stamps"], result["finished"])
    per_action = [p + q for p, q in zip(result["process_s"], result["query_s"])]
    info = {
        "flags": [],
        "gen.lag_p99_ms": 0.0,
        "latency_samples": len(per_action),
        "answer_p95_ms": percentile(per_action, 95) * 1000.0,
        "timed_actions": timed_n,
        "wall_s": time.perf_counter() - wall_started,
    }
    if not trace:
        metrics = {
            "setup_s": generate_s + statistics.median(setup),
            "actions_per_s": rate,
            "answer_p50_ms": quiet_median(per_action, ENGINE_SEGMENT) * 1000.0,
            "read_p50_ms": quiet_median(result["query_s"], ENGINE_SEGMENT) * 1000.0,
            "recover_s": min(recover),
            "peak_rss_mb": rss,
            "value_vs_greedy": quality,
        }
        info["setup_samples_s"] = setup
        info["recover_samples_s"] = recover
    else:
        metrics = _layer_metrics(
            spec, result, saved, loaded, timed_n, reference_rate, info
        )
    return {
        "metrics": metrics,
        "correct": correct,
        "attempted": timed_n + len(recover) + 1,
        "failures": failures,
        "info": info,
    }


def _layer_metrics(spec, result, saved, loaded, timed_n, reference_rate, info) -> dict:
    """Per-layer figures of the traced run, and its span file."""
    seconds = result["stage_seconds"]
    items = result["stage_items"]
    oracle = seconds.get("oracle", 0.0)
    index = seconds.get("kernel_index", 0.0)
    kernel = seconds.get("kernel_pass", 0.0)
    resolve = seconds.get("forest_index", 0.0)
    query = sum(result["query_s"])
    wall = result["finished"] - result["started"]
    # The same actions the untraced reference ran, at the same estimator.
    first_fifth = _reference_actions(timed_n)
    stamps = result["stamps"]
    traced_rate = _fast_rate(
        stamps[:first_fifth],
        stamps[first_fifth] if first_fifth < len(stamps) else result["finished"],
    )

    ledger = SpanLedger()
    for time_, t0, t1, t2, forest_s, oracle_s, index_s, kernel_s in result["rows"]:
        root = ledger.add("action", t0, t2, None, time_)
        process = ledger.add("engine.process", t0, t1, root, time_)
        ledger.add("engine.query", t1, t2, root, time_)
        placed = ledger.lay_out(
            process, [("forest_index", forest_s), ("oracle", oracle_s)], time_
        )
        ledger.lay_out(
            placed["oracle"],
            [("kernel_index", index_s), ("kernel_pass", kernel_s)],
            time_,
        )
    span_file = OUT_DIR / f"trace_{spec.name}.json"
    ledger.write(
        span_file,
        {
            "workload": spec.name,
            "timed_actions": timed_n,
            "span_actions": len(result["rows"]),
            "stage_seconds": seconds,
        },
    )
    info["span_file"] = str(span_file)
    info["untraced_actions_per_s"] = reference_rate
    info["traced_actions_per_s"] = traced_rate

    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    metrics.update(
        {
            "cache.read_p95_ms": percentile(result["query_s"], 95) * 1000.0,
            "resolve.busy_s": resolve,
            "resolve.records": result["influence_records"],
            "resolve.records_per_action": result["influence_records"] / timed_n,
            "index.busy_s": index,
            "index.entries_peak": result["entries_peak"],
            "kernel.busy_s": kernel,
            "kernel.updates": items.get("kernel_pass", 0),
            "kernel.compiled": result["kernel_compiled"],
            "oracle.busy_s": oracle,
            "oracle.self_s": max(oracle - index - kernel, 0.0),
            "ckpt.count_mean": result["ckpt_mean"],
            "ckpt.count_max": result["ckpt_max"],
            "snapshot.encode_s": saved["encode_s"],
            "snapshot.write_s": saved["write_s"],
            "snapshot.count": 1,
            "snapshot.bytes": saved["bytes"],
            "snapshot.load_s": loaded["load_s"],
            "trace.overhead_pct": (1.0 - traced_rate / reference_rate) * 100.0,
            "trace.spans": len(ledger),
            "trace.attributed_pct": (resolve + oracle + query) / wall * 100.0,
        }
    )
    return metrics
