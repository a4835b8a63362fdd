#!/usr/bin/env python
"""Smoke benchmark: track the hot-path perf trajectory PR-over-PR.

Runs the same workloads as ``benchmarks/bench_core_ops.py`` and
``benchmarks/bench_fig7_throughput_vs_beta.py`` on the TINY scale, plus the
headline shared-vs-reference comparison (IC at N=1000, L=1), and writes the
results to ``BENCH_core_ops.json`` at the repository root so successive PRs
leave a comparable perf record::

    PYTHONPATH=src python scripts/bench_smoke.py [--quick] [--output PATH]

Reported figures:

* ``ic_n1000_l1`` — actions/sec of IC (sieve, k=5, β=0.3) over a syn-n
  stream with window 1000 and slide 1, for the engine (columnar kernel and
  object oracles over the shared ``VersionedInfluenceIndex``) and the
  literal per-checkpoint algorithm (``repro.reference.ReferenceIC``), plus
  the speedup ratios;
* ``ic_n1000_l5`` — the same engine workload at slide 5 (one merged
  ``process_batch`` per checkpoint per slide);
* ``fig7_tiny`` — IC and SIC throughput at the TINY preset (β=0.3);
* ``core_ops`` — per-action costs of the window index cycle and a single
  checkpoint's SSM update;
* ``memory`` — peak index entries: shared distinct pairs vs the reference
  sum of per-checkpoint suffix sizes on the same stream;
* ``snapshot_restore`` — persistence-plane costs at N=1000: snapshot
  write, snapshot-only restore, and WAL-tail replay, so the durability
  overhead stays visible in the perf trajectory;
* ``service_ingest`` — sustained socket ingest through the serving plane
  (asyncio server + line protocol + coalescing ingest loop) on the IC
  N=1000 workload, measured client-side through a ``sync`` barrier so the
  rate covers processing, not just transport;
* ``service_ingest_sharded_routed`` — the same socket workload with the
  write plane split over 4 influencer-partitioned shard engines in forked
  worker processes (``repro.sharding``): the facade resolves each slide
  once and sends every shard only its owned influence records, so
  per-shard work shrinks with S.  Reported with the speedup over the
  single-shard rate; on single-core runners (the report records
  ``cpus``) the ratio mostly measures dispatch overhead — the parallel
  win needs >= 4 cores;
* ``shard_scaling`` — the hardware-independent scaling witness for the
  routed ingest plane.  The unsharded engine is timed against the routed
  pipeline's two stages: the facade's resolve+partition pass (stream-
  global, runs once) and each shard's apply pass over only its routed
  records.  ``implied_speedup_at_s4`` = single seconds / max(resolver
  seconds, slowest shard apply seconds) — the pipeline bottleneck an
  otherwise-idle 4-core machine would see, measurable even on 1 CPU;
* ``chaos_recovery`` — the supervision-plane cost: a scripted SIGKILL of
  one process-backend shard mid-stream, reporting the time the in-place
  heal took (restore + WAL-tail replay + suffix redelivery), the degraded
  window, and whether the final answer converged to the fault-free run.
  Reported but never gated (sub-second timings on shared runners);
* ``observability_overhead`` — the ``service_ingest`` workload with the
  flight recorder + sampling profiler fully on vs fully off, reporting
  the relative throughput cost (the DESIGN.md contract note: single-digit
  percent).  Keys deliberately avoid the gated ``_per_sec`` suffix —
  run-to-run noise on a shared runner exceeds the effect being measured.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core.diffusion import DiffusionForest  # noqa: E402
from repro.core.ic import InfluentialCheckpoints  # noqa: E402
from repro.core.influence_index import WindowInfluenceIndex  # noqa: E402
from repro.core.sic import SparseInfluentialCheckpoints  # noqa: E402
from repro.core.checkpoint import OracleSpec  # noqa: E402
from repro.core.stream import batched  # noqa: E402
from repro.experiments.config import Scale, make_config  # noqa: E402
from repro.experiments.memory import measure_footprint  # noqa: E402
from repro.experiments.runner import make_stream  # noqa: E402
from repro.influence.functions import CardinalityInfluence  # noqa: E402
from repro.reference import ReferenceCheckpoint, ReferenceIC  # noqa: E402


def time_framework(framework, batches):
    """Drive ``framework`` over ``batches``; return (elapsed, framework)."""
    started = time.perf_counter()
    for batch in batches:
        framework.process(batch)
    return time.perf_counter() - started, framework


def bench_ic_n1000_l1(stream, n_actions, repeats=2):
    """The acceptance workload: IC, window 1000, slide 1, three planes.

    ``shared`` is the default engine (shared index + columnar oracle
    kernel), ``object`` pins the shared index to per-checkpoint object
    oracles (``columnar=False``), and ``reference`` is the literal
    per-checkpoint algorithm (``repro.reference.ReferenceIC``).  Each mode
    reports its best of ``repeats`` runs
    (scheduler noise on a ~10 s single-shot run can swing throughput by
    >10%).
    """
    actions = stream[:n_actions]
    batches = [[a] for a in actions]
    results = {}
    config = dict(window_size=1000, k=5, beta=0.3)
    modes = (
        ("shared", lambda: InfluentialCheckpoints(**config)),
        ("object", lambda: InfluentialCheckpoints(columnar=False, **config)),
        ("reference", lambda: ReferenceIC(**config)),
    )
    for label, make in modes:
        best = None
        for _ in range(repeats):
            elapsed, ic = time_framework(make(), batches)
            if best is None or elapsed < best:
                best = elapsed
        elapsed = best
        footprint = measure_footprint(ic)
        results[label] = {
            "seconds": round(elapsed, 3),
            "actions_per_sec": round(len(actions) / elapsed, 1),
            "index_entries": footprint.index_entries,
            "checkpoints": footprint.checkpoints,
            "query_value": ic.query().value,
        }
    # NB: "reference" is the in-tree per-checkpoint algorithm, which already
    # benefits from the oracle fast paths; the original seed implementation
    # measured ~84 actions/s on this workload (see CHANGES.md).
    results["speedup_vs_reference_mode"] = round(
        results["shared"]["actions_per_sec"]
        / results["reference"]["actions_per_sec"],
        2,
    )
    results["speedup_vs_object_plane"] = round(
        results["shared"]["actions_per_sec"]
        / results["object"]["actions_per_sec"],
        2,
    )
    return results


def bench_ic_n1000_l5(stream, n_actions, repeats=3):
    """The batching workload: IC at slide 5 (best of ``repeats`` runs).

    The PR 1 per-event dispatch measured ~2500 actions/s on this workload
    (see CHANGES.md); the trajectory lives in this row's absolute number.
    """
    actions = stream[:n_actions]
    batches = [actions[i : i + 5] for i in range(0, len(actions), 5)]
    best = None
    for _ in range(repeats):
        elapsed, ic = time_framework(
            InfluentialCheckpoints(window_size=1000, k=5, beta=0.3), batches
        )
        if best is None or elapsed < best:
            best = elapsed
    return {
        "batched": {
            "seconds": round(best, 3),
            "actions_per_sec": round(len(actions) / best, 1),
            "query_value": ic.query().value,
        }
    }


def bench_fig7_tiny(config, batches):
    """IC and SIC maintenance throughput at the TINY preset (β = 0.3)."""
    results = {}
    for name, maker in (
        (
            "ic",
            lambda: InfluentialCheckpoints(
                window_size=config.window_size, k=config.k, beta=0.3
            ),
        ),
        (
            "sic",
            lambda: SparseInfluentialCheckpoints(
                window_size=config.window_size, k=config.k, beta=0.3
            ),
        ),
    ):
        elapsed, framework = time_framework(maker(), batches)
        total = sum(len(b) for b in batches)
        footprint = measure_footprint(framework)
        results[name] = {
            "seconds": round(elapsed, 3),
            "actions_per_sec": round(total / elapsed, 1),
            "checkpoints": footprint.checkpoints,
            "index_entries": footprint.index_entries,
            "query_value": framework.query().value,
        }
    return results


def bench_core_ops(stream, config):
    """Per-action costs of the remaining core ops (bench_core_ops.py twins)."""
    results = {}

    started = time.perf_counter()
    forest = DiffusionForest()
    index = WindowInfluenceIndex()
    records = []
    for action in stream:
        record = forest.add(action)
        records.append(record)
        index.add(record)
        if len(records) > config.window_size:
            index.remove(records.pop(0))
    elapsed = time.perf_counter() - started
    results["window_index_cycle"] = {
        "seconds": round(elapsed, 3),
        "actions_per_sec": round(len(stream) / elapsed, 1),
        "peak_pairs": index.pair_count(),
    }

    prefix = stream[:800]
    started = time.perf_counter()
    forest = DiffusionForest()
    spec = OracleSpec(
        name="sieve", k=5, func=CardinalityInfluence(), params={"beta": 0.3}
    )
    checkpoint = ReferenceCheckpoint(1, spec.build)
    for action in prefix:
        checkpoint.process_slide([forest.add(action)])
    elapsed = time.perf_counter() - started
    results["single_checkpoint_ssm"] = {
        "seconds": round(elapsed, 3),
        "actions_per_sec": round(len(prefix) / elapsed, 1),
        "value": checkpoint.value,
    }
    return results


def bench_snapshot_restore(stream, n_actions):
    """Persistence-plane costs on the N=1000 workload (IC sieve k=5 β=0.3).

    Reports, for an engine snapshotted every 500 slides:

    * ``snapshot_write`` — seconds and bytes of one full-state snapshot;
    * ``restore_snapshot_only`` — reopening right after a snapshot
      (zero-replay warm restart);
    * ``restore_with_wal_tail`` — reopening after a simulated crash with a
      WAL tail behind the last snapshot, plus the per-slide replay rate.

    fsync is disabled so the figures measure the software path, not the
    test machine's disk sync latency.
    """
    import shutil
    import tempfile

    from repro.persistence.engine import RecoverableEngine

    actions = stream[:n_actions]
    batches = [[a] for a in actions]

    def factory():
        return InfluentialCheckpoints(window_size=1000, k=5, beta=0.3)

    results = {}
    root = pathlib.Path(tempfile.mkdtemp(prefix="bench-snapshot-"))
    try:
        state_dir = root / "state"
        engine = RecoverableEngine.open(
            state_dir, factory, snapshot_every=500, fsync=False
        )
        for batch in batches:
            engine.process(batch)
        started = time.perf_counter()
        engine.snapshot()
        write_elapsed = time.perf_counter() - started
        snapshot_path = engine.store.snapshots.path_for(len(batches))
        results["snapshot_write"] = {
            "seconds": round(write_elapsed, 4),
            "bytes": snapshot_path.stat().st_size,
        }
        engine.close(snapshot=False)

        started = time.perf_counter()
        warm = RecoverableEngine.open(state_dir, factory, fsync=False)
        restore_elapsed = time.perf_counter() - started
        results["restore_snapshot_only"] = {
            "seconds": round(restore_elapsed, 4),
            "replayed_slides": warm.replayed_slides,
        }
        warm.close(snapshot=False)

        # Crash with a WAL tail: snapshot exactly at len - 500, then a
        # snapshot-free tail of 500 slides (the cadence equals the split
        # point, so no later slide hits it again within the stream).
        tail_dir = root / "tail"
        split = max(len(batches) - 500, 1)
        doomed = RecoverableEngine.open(
            tail_dir, factory, snapshot_every=split, fsync=False
        )
        for batch in batches:
            doomed.process(batch)
        doomed.close(snapshot=False)
        started = time.perf_counter()
        recovered = RecoverableEngine.open(tail_dir, factory, fsync=False)
        tail_elapsed = time.perf_counter() - started
        results["restore_with_wal_tail"] = {
            "seconds": round(tail_elapsed, 4),
            "replayed_slides": recovered.replayed_slides,
            "replay_slides_per_sec": round(
                recovered.replayed_slides / tail_elapsed, 1
            ),
        }
        recovered.close(snapshot=False)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return results


def bench_service_ingest(stream, n_actions):
    """Sustained socket ingest on the N=1000 IC workload (sieve k=5 β=0.3).

    Runs a full in-process server (thread-hosted event loop), streams the
    actions over a real TCP connection with a final ``sync`` barrier, and
    reports end-to-end actions/second plus the slide count and published
    answer — the serving-plane counterpart of ``ic_n1000_l1``.  The ingest
    loop coalesces slides of 50, so the engine runs in its batched regime.
    """
    from repro.persistence.engine import RecoverableEngine
    from repro.service.client import ServiceClient
    from repro.service.config import ServiceConfig
    from repro.service.runner import ServiceRunner

    actions = stream[:n_actions]
    engine = RecoverableEngine.open(
        None, lambda: InfluentialCheckpoints(window_size=1000, k=5, beta=0.3)
    )
    config = ServiceConfig(
        port=0, slide=50, flush_interval=60.0, queue_capacity=8192
    )
    with ServiceRunner(engine, config) as runner:
        client = ServiceClient("127.0.0.1", runner.port, timeout=300.0)
        client.wait_healthy()
        started = time.perf_counter()
        summary = client.ingest(actions, sync=True)
        elapsed = time.perf_counter() - started
        answer = client.topk("main")
        _, metrics = client.http_get("/metrics")
    slide_seconds = metrics["telemetry"]["metrics"]["repro_slide_seconds"]
    return {
        "actions": len(actions),
        "slide": 50,
        "seconds": round(elapsed, 3),
        "actions_per_sec": round(len(actions) / elapsed, 1),
        "slides": summary["slide"],
        "query_value": answer["value"],
        # Informational (not gated): per-slide latency digest from the
        # telemetry plane's own histogram.
        "slide_p50_ms": round(slide_seconds["p50"] * 1000.0, 3),
        "slide_p99_ms": round(slide_seconds["p99"] * 1000.0, 3),
    }


def bench_service_ingest_sharded(stream, n_actions, shards=4):
    """Socket ingest with the write plane sharded over worker processes.

    Identical client workload to :func:`bench_service_ingest`, but the
    served engine is a ``ShardedEngine``: the facade resolves each slide
    once and ships every forked worker only its owned influence records.
    Every slide publishes a merge-on-read answer board.
    """
    from repro.service.client import ServiceClient
    from repro.service.config import ServiceConfig
    from repro.service.runner import ServiceRunner
    from repro.sharding.engine import ShardedEngine

    actions = stream[:n_actions]
    engine = ShardedEngine.open(
        lambda assignment=None: InfluentialCheckpoints(
            window_size=1000, k=5, beta=0.3, shard=assignment
        ),
        shards,
        backend="process",
    )
    config = ServiceConfig(
        port=0, slide=50, flush_interval=60.0, queue_capacity=8192,
        shards=shards, shard_backend="process",
    )
    with ServiceRunner(engine, config) as runner:
        client = ServiceClient("127.0.0.1", runner.port, timeout=300.0)
        client.wait_healthy()
        started = time.perf_counter()
        summary = client.ingest(actions, sync=True)
        elapsed = time.perf_counter() - started
        answer = client.topk("main")
    return {
        "actions": len(actions),
        "slide": 50,
        "shards": shards,
        "backend": "process",
        "seconds": round(elapsed, 3),
        "actions_per_sec": round(len(actions) / elapsed, 1),
        "slides": summary["slide"],
        "query_value": answer["value"],
    }


def bench_shard_scaling(stream, n_actions, shards=4):
    """Per-shard work reduction: the scaling witness that needs no cores.

    Runs the unsharded IC engine over the stream, then the sharded
    ingest pipeline's two stages on the same batches: one facade pass
    resolves each slide through the diffusion forest and partitions the
    influence records by influencer owner, then each shard applies only
    its routed share.  Resolver and shards pipeline, so the bottleneck is
    ``max(resolver seconds, slowest shard apply seconds)`` and
    ``implied_speedup_at_s4 = single seconds / bottleneck`` — the ingest
    speedup S parallel workers would reach on idle cores, honest on any
    machine, including single-CPU CI runners.

    The shards run the load-aware :class:`HeatPartitioner` (warmed on
    the measured stream's influence pairs) — per-shard work, not just the
    stream, is what must balance for the bottleneck to shrink with S.

    Two regimes are reported: the per-slide-overhead-bound ``l1`` (one
    checkpoint opened per action — the kernel's fixed slide cost is
    replicated on every shard and caps the ratio) and the service plane's
    coalesced ``l50`` (20 checkpoints, where the oracle work dominates
    and partitions well).  The section's *top-level*
    ``implied_speedup_at_s4`` is the ``l50`` figure — the regime the
    serving plane actually runs — and is the gated witness.
    """
    from repro.core.resolve import SlideResolver, partition_slide
    from repro.sharding.partition import (
        HeatPartitioner,
        ShardAssignment,
        influencer_heat,
    )

    def build(assignment=None):
        return InfluentialCheckpoints(
            window_size=1000, k=5, beta=0.3, shard=assignment
        )

    def measure(batches, repeats):
        def best_of(make):
            best = None
            for _ in range(repeats):
                elapsed, framework = time_framework(make(), batches)
                if best is None or elapsed < best[0]:
                    best = (elapsed, framework)
            return best

        total = sum(len(b) for b in batches)
        single_elapsed, single = best_of(build)
        partitioner = HeatPartitioner(
            shards, influencer_heat(a for batch in batches for a in batch)
        )

        # Stage 1: the facade's resolve+partition pass.
        resolver_elapsed = None
        routed_parts = None
        for _ in range(repeats):
            resolver = SlideResolver()
            started = time.perf_counter()
            parts = [
                partition_slide(resolver.resolve(batch), partitioner)
                for batch in batches
            ]
            elapsed = time.perf_counter() - started
            if resolver_elapsed is None or elapsed < resolver_elapsed:
                resolver_elapsed, routed_parts = elapsed, parts

        # Stage 2: each shard applies only its routed records.
        apply_seconds = []
        for shard in range(shards):
            best = None
            for _ in range(repeats):
                framework = build(ShardAssignment(partitioner, shard))
                started = time.perf_counter()
                for slide_parts in routed_parts:
                    framework.apply_resolved(slide_parts[shard])
                elapsed = time.perf_counter() - started
                if best is None or elapsed < best:
                    best = elapsed
            apply_seconds.append(round(best, 4))
        routed_bottleneck = max(resolver_elapsed, max(apply_seconds))

        return {
            "shards": shards,
            "single_seconds": round(single_elapsed, 4),
            "single_actions_per_sec": round(total / single_elapsed, 1),
            "resolver_seconds": round(resolver_elapsed, 4),
            "shard_apply_seconds": apply_seconds,
            "max_shard_apply_seconds": round(max(apply_seconds), 4),
            "routed_bottleneck_seconds": round(routed_bottleneck, 4),
            "implied_speedup_at_s4": round(
                single_elapsed / routed_bottleneck, 2
            ),
            "query_value": single.query().value,
        }

    actions = stream[:n_actions]
    # L=1 is slow per action; half the stream keeps the section bounded
    # while still covering a full window plus steady-state slides.
    # best-of-N: the gated implied-speedup ratio divides two timings, so
    # single-shot scheduler noise on a shared runner hits it twice.
    l1_actions = actions[: max(len(actions) // 2, 1)]
    report = {
        "l1": measure([[a] for a in l1_actions], repeats=2),
        "l50": measure(
            [actions[i : i + 50] for i in range(0, len(actions), 50)],
            repeats=4,
        ),
    }
    # The canonical gated witness: the serving plane's coalesced regime.
    report["implied_speedup_at_s4"] = report["l50"]["implied_speedup_at_s4"]
    return report


def bench_observability_overhead(stream, n_actions):
    """Recorder + profiler cost on the service ingest path (never gated).

    Runs the :func:`bench_service_ingest` workload twice — observability
    fully off (no flight recorder, no profiler) and fully on (recorder at
    4x the default cadence plus the 100 Hz continuous profiler) — and
    reports the relative throughput cost.  ``overhead_pct`` can go
    slightly negative under scheduler noise; the contract target is
    single-digit percent, checked by eye in the perf trajectory rather
    than gated.
    """
    from repro.persistence.engine import RecoverableEngine
    from repro.service.client import ServiceClient
    from repro.service.config import ServiceConfig
    from repro.service.runner import ServiceRunner

    actions = stream[:n_actions]

    def run(**overrides):
        engine = RecoverableEngine.open(
            None,
            lambda: InfluentialCheckpoints(window_size=1000, k=5, beta=0.3),
        )
        config = ServiceConfig(
            port=0,
            slide=50,
            flush_interval=60.0,
            queue_capacity=8192,
            **overrides,
        )
        with ServiceRunner(engine, config) as runner:
            client = ServiceClient("127.0.0.1", runner.port, timeout=300.0)
            client.wait_healthy()
            started = time.perf_counter()
            client.ingest(actions, sync=True)
            return len(actions) / (time.perf_counter() - started)

    base = run(flight_recorder=False)
    full = run(flight_recorder=True, sample_interval=0.25, profile=True)
    return {
        "actions": len(actions),
        "base_aps": round(base, 1),
        "full_aps": round(full, 1),
        "sample_interval": 0.25,
        "profile_hz": 100.0,
        "overhead_pct": round((base - full) / base * 100.0, 2),
    }


def bench_chaos_recovery(stream, n_actions, shards=2):
    """Time-to-heal a SIGKILLed process-backend shard mid-stream.

    Runs :func:`repro.experiments.chaos.chaos_run` with a one-kill
    :class:`~repro.faults.FaultPlan` on the IC N=1000 workload at the
    service plane's slide of 50.  The scenario's correctness verdict
    (``identical`` + zero caller errors) is asserted — a bench run that
    failed to converge would otherwise record a meaningless timing.
    """
    import shutil
    import tempfile

    from repro.experiments.chaos import chaos_run
    from repro.faults import Fault, FaultPlan

    actions = stream[:n_actions]
    slides_total = max(len(actions) // 50, 2)
    plan = FaultPlan(
        [Fault(kind="kill", shard=0, at_slide=max(slides_total // 2, 2))],
        seed=7,
    )
    root = pathlib.Path(tempfile.mkdtemp(prefix="bench-chaos-"))
    try:
        report = chaos_run(
            lambda assignment=None: InfluentialCheckpoints(
                window_size=1000, k=5, beta=0.3, shard=assignment
            ),
            actions,
            slide=50,
            shards=shards,
            plan=plan,
            state_dir=root / "state",
            backend="process",
            snapshot_every=8,
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    assert report.identical and report.caller_errors == 0, report
    return {
        "shards": shards,
        "backend": report.backend,
        "slides": report.slides_total,
        "kill_at_slide": max(slides_total // 2, 2),
        "restarts": report.restarts,
        "heal_seconds": round(report.heal_seconds, 4),
        "degraded_windows": report.degraded_windows,
        "degraded_seconds": round(report.degraded_seconds, 4),
        "caller_errors": report.caller_errors,
        "identical": report.identical,
    }


def main(argv=None):
    """Run the smoke benchmarks and write BENCH_core_ops.json."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="halve the N=1000 stream for a faster (noisier) run",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_core_ops.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    config = make_config("syn-n", Scale.TINY)
    stream = list(make_stream(config))
    batches = [list(b) for b in batched(stream, config.slide)]

    import os

    n_actions = 1500 if args.quick else 3000
    report = {
        "scale": "tiny",
        "dataset": config.dataset,
        "cpus": os.cpu_count(),
        "ic_n1000_l1": bench_ic_n1000_l1(stream, min(n_actions, len(stream))),
        "ic_n1000_l5": bench_ic_n1000_l5(stream, min(n_actions, len(stream))),
        "fig7_tiny": bench_fig7_tiny(config, batches),
        "core_ops": bench_core_ops(stream, config),
        "snapshot_restore": bench_snapshot_restore(
            stream, min(n_actions, len(stream))
        ),
        "service_ingest": bench_service_ingest(
            stream, min(n_actions, len(stream))
        ),
        "service_ingest_sharded_routed": bench_service_ingest_sharded(
            stream, min(n_actions, len(stream))
        ),
        "shard_scaling": bench_shard_scaling(
            stream, min(n_actions, len(stream))
        ),
        "chaos_recovery": bench_chaos_recovery(
            stream, min(n_actions, len(stream))
        ),
        "observability_overhead": bench_observability_overhead(
            stream, min(n_actions, len(stream))
        ),
    }
    routed = report["service_ingest_sharded_routed"]
    routed["speedup_vs_single"] = round(
        routed["actions_per_sec"]
        / report["service_ingest"]["actions_per_sec"],
        2,
    )
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    headline = report["ic_n1000_l1"]
    print(f"IC N=1000 L=1 shared:    {headline['shared']['actions_per_sec']:>10,.1f} actions/s "
          f"({headline['shared']['index_entries']:,} index entries)")
    print(f"IC N=1000 L=1 object:    {headline['object']['actions_per_sec']:>10,.1f} actions/s "
          f"(columnar kernel off)")
    print(f"IC N=1000 L=1 reference: {headline['reference']['actions_per_sec']:>10,.1f} actions/s "
          f"({headline['reference']['index_entries']:,} index entries)")
    print(f"speedup vs repro.reference: "
          f"{headline['speedup_vs_reference_mode']}x")
    l5 = report["ic_n1000_l5"]
    print(f"IC N=1000 L=5 batched:   {l5['batched']['actions_per_sec']:>10,.1f} actions/s")
    persistence = report["snapshot_restore"]
    print(f"snapshot write:          {persistence['snapshot_write']['seconds']:>10.4f} s "
          f"({persistence['snapshot_write']['bytes']:,} bytes)")
    print(f"restore (snapshot only): {persistence['restore_snapshot_only']['seconds']:>10.4f} s")
    print(f"restore (+500 WAL tail): {persistence['restore_with_wal_tail']['seconds']:>10.4f} s "
          f"({persistence['restore_with_wal_tail']['replayed_slides']} slides replayed)")
    service = report["service_ingest"]
    print(f"service socket ingest:   {service['actions_per_sec']:>10,.1f} actions/s "
          f"({service['actions']} actions, {service['slides']} slides)")
    print(f"service ingest S=4 routed:{routed['actions_per_sec']:>9,.1f} actions/s "
          f"({routed['speedup_vs_single']}x vs single on {report['cpus']} cpu(s))")
    for regime in ("l1", "l50"):
        scaling = report["shard_scaling"][regime]
        print(f"shard work split {regime:>4}:   single "
              f"{scaling['single_seconds']}s, routed bottleneck "
              f"{scaling['routed_bottleneck_seconds']}s -> implied "
              f"{scaling['implied_speedup_at_s4']}x on idle 4 cores")
    chaos = report["chaos_recovery"]
    print(f"chaos shard SIGKILL:     healed in {chaos['heal_seconds']}s "
          f"({chaos['restarts']} restart(s), degraded "
          f"{chaos['degraded_seconds']}s, converged={chaos['identical']})")
    obs = report["observability_overhead"]
    print(f"observability overhead:  {obs['base_aps']:,.1f} -> "
          f"{obs['full_aps']:,.1f} actions/s with recorder+profiler on "
          f"({obs['overhead_pct']}%)")
    print(f"report written to {args.output}")
    return report


if __name__ == "__main__":
    main()
