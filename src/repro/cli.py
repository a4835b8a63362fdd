"""``repro-stream`` — work with action streams from the shell.

Subcommands:

* ``generate`` — synthesise a dataset (reddit/twitter/syn-o/syn-n) to
  JSONL/CSV;
* ``stats`` — print Table 3-style statistics for a stream file;
* ``convert`` — transcode between JSONL and CSV;
* ``track`` — replay a stream file through SIC (or IC/greedy) and print
  the evolving top-k influencers.  With ``--state-dir`` the run is
  crash-recoverable: slides are WAL-logged, state is snapshotted every
  ``--snapshot-every`` slides, and re-running the same command after a
  kill resumes mid-stream with identical answers;
* ``snapshot`` — inspect (``info``), roll forward (``save``), verify
  (``restore``), or tighten retention (``prune``) on a ``--state-dir``
  created by ``track`` or ``serve``;
* ``serve`` — run the online serving plane: an asyncio TCP server that
  coalesces socket-ingested actions into slides, feeds a board of named
  queries, and answers ``/queries/<name>/topk``, ``/metrics`` and
  ``/healthz`` from an immutable answer cache.  With ``--state-dir`` the
  server is crash-recoverable and SIGTERM seals a final snapshot.  With
  ``--shards N`` the write plane is partitioned by influencer over N
  shard engines, one forked worker process per shard
  (``--shard-backend serial`` runs them in-process for debugging), and
  answers merge on read; ``track`` accepts the same flags.
  With ``--trace-log`` + ``--slow-slide-ms`` slow slides emit per-stage
  JSONL traces;
* ``trace`` — ``tail`` or ``summarize`` a ``--trace-log`` file: the
  per-stage latency breakdown of traced slides;
* ``top`` — live terminal console over a running server: sparkline
  panels of ingest rate, slide latency quantiles and per-shard busy
  time from ``/metrics/history``, with active SLO alerts inline
  (``--once`` renders one frame for CI/no-TTY use);
* ``profile`` — fetch a collapsed-stack wall-clock profile from a
  running server's ``/debug/profile`` endpoint (flamegraph.pl /
  speedscope input).

Examples::

    repro-stream generate --dataset reddit -n 20000 -o reddit.jsonl
    repro-stream stats reddit.jsonl
    repro-stream convert reddit.jsonl reddit.csv
    repro-stream track reddit.jsonl --window 5000 --slide 500 --k 10
    repro-stream track reddit.jsonl --state-dir state/ --format json
    repro-stream snapshot info state/
    repro-stream snapshot prune state/ --keep 1
    repro-stream serve --window 5000 -k 10 --state-dir state/ \\
        --query "precise=sic,beta=0.1" --query "fast=ic,oracle=mkc"
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional

from repro.core.stream import batched
from repro.datasets.io import read_csv, read_jsonl, write_csv, write_jsonl

__all__ = ["main", "build_parser"]

_GENERATORS = ("reddit", "twitter", "syn-o", "syn-n")
_ALGORITHMS = ("sic", "ic", "greedy")
_ORACLES = ("sieve", "threshold", "blog_watch", "mkc", "greedy")
_FORMATS = ("text", "json")


def _reader_for(path: pathlib.Path):
    if path.suffix == ".jsonl":
        return read_jsonl(path)
    if path.suffix == ".csv":
        return read_csv(path)
    raise ValueError(f"unsupported extension {path.suffix!r} (use .jsonl/.csv)")


def _writer_for(path: pathlib.Path):
    if path.suffix == ".jsonl":
        return write_jsonl
    if path.suffix == ".csv":
        return write_csv
    raise ValueError(f"unsupported extension {path.suffix!r} (use .jsonl/.csv)")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-stream", description="Action-stream toolbox."
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="synthesise a dataset")
    generate.add_argument("--dataset", choices=_GENERATORS, default="syn-n")
    generate.add_argument("-n", "--actions", type=int, default=10_000)
    generate.add_argument("-u", "--users", type=int, default=2_000)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("-o", "--output", required=True)

    stats = commands.add_parser("stats", help="Table 3 statistics of a file")
    stats.add_argument("file")

    convert = commands.add_parser("convert", help="transcode jsonl <-> csv")
    convert.add_argument("source")
    convert.add_argument("target")

    track = commands.add_parser("track", help="replay a file through SIM")
    track.add_argument("file")
    track.add_argument("--algorithm", choices=_ALGORITHMS, default="sic")
    track.add_argument("--window", type=int, default=5_000)
    track.add_argument("--slide", type=int, default=500)
    track.add_argument("-k", type=int, default=10)
    track.add_argument("--beta", type=float, default=0.2)
    track.add_argument(
        "--oracle",
        choices=_ORACLES,
        default="sieve",
        help="checkpoint oracle for ic/sic (default: sieve)",
    )
    track.add_argument(
        "--checkpoint-interval",
        type=int,
        default=1,
        help="ic only: open a checkpoint every this many slides",
    )
    track.add_argument(
        "--format",
        choices=_FORMATS,
        default="text",
        help="per-slide output: aligned text or one JSON object per line",
    )
    track.add_argument(
        "--state-dir",
        default=None,
        help="durable state directory; re-running resumes after the last "
        "recoverable slide instead of replaying from t=0",
    )
    track.add_argument(
        "--snapshot-every",
        type=int,
        default=16,
        help="slides between automatic snapshots (0 disables; "
        "requires --state-dir)",
    )
    track.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition influencers over this many shard engines: each "
        "slide is resolved once and every shard applies only the influence "
        "records it owns; answers merge on read (ic/sic only)",
    )
    _add_supervision_arguments(track)

    snapshot = commands.add_parser(
        "snapshot", help="inspect or manage a track/serve --state-dir"
    )
    snapshot_commands = snapshot.add_subparsers(
        dest="snapshot_command", required=True
    )
    info = snapshot_commands.add_parser(
        "info", help="list snapshots and WAL segments"
    )
    info.add_argument("state_dir")
    save = snapshot_commands.add_parser(
        "save", help="roll the WAL tail into a fresh snapshot"
    )
    save.add_argument("state_dir")
    restore = snapshot_commands.add_parser(
        "restore", help="recover the engine and print its current answer"
    )
    restore.add_argument("state_dir")
    prune = snapshot_commands.add_parser(
        "prune",
        help="drop snapshots/WAL segments older than the newest --keep",
    )
    prune.add_argument("state_dir")
    prune.add_argument(
        "--keep",
        type=int,
        default=1,
        help="newest snapshots to retain (default: 1)",
    )

    serve = commands.add_parser(
        "serve", help="run the online ingest/query server"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=7077,
        help="listen port (0 lets the OS pick; the bound port is printed)",
    )
    serve.add_argument("--algorithm", choices=_ALGORITHMS, default="sic")
    serve.add_argument("--window", type=int, default=5_000)
    serve.add_argument(
        "--slide",
        type=int,
        default=32,
        help="max actions coalesced into one slide before flushing",
    )
    serve.add_argument("-k", type=int, default=10)
    serve.add_argument("--beta", type=float, default=0.2)
    serve.add_argument("--oracle", choices=_ORACLES, default="sieve")
    serve.add_argument("--checkpoint-interval", type=int, default=1)
    serve.add_argument(
        "--query",
        action="append",
        default=None,
        metavar="NAME=ALGO[,key=value...]",
        help="add a named query to the board (repeatable); keys: window, "
        "k, beta, oracle, checkpoint-interval — unset keys fall back to "
        "the top-level flags.  Without --query the board is one query "
        "named 'main' built from the top-level flags",
    )
    serve.add_argument(
        "--flush-interval",
        type=float,
        default=0.5,
        help="seconds before a partial slide is flushed to the engine",
    )
    serve.add_argument(
        "--queue-capacity",
        type=int,
        default=4096,
        help="ingest queue bound (backpressure threshold)",
    )
    serve.add_argument(
        "--ack-every",
        type=int,
        default=1000,
        help="ingest lines per batched ack",
    )
    serve.add_argument(
        "--history",
        type=int,
        default=128,
        help="published answer boards kept for /history reads",
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        help="durable state directory; restart resumes and SIGTERM seals "
        "a final snapshot",
    )
    serve.add_argument(
        "--snapshot-every",
        type=int,
        default=16,
        help="slides between automatic snapshots (0 disables; "
        "requires --state-dir)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition influencers over this many shard engines behind "
        "the ingest loop: each slide is resolved once and every shard "
        "applies only the influence records it owns; answers merge on read "
        "(ic/sic queries only)",
    )
    serve.add_argument(
        "--trace-log",
        default=None,
        metavar="PATH",
        help="append slow-slide stage traces to this JSONL file "
        "(see --slow-slide-ms)",
    )
    serve.add_argument(
        "--slow-slide-ms",
        type=float,
        default=None,
        metavar="N",
        help="emit a stage trace for slides slower than N ms "
        "(0 traces every slide; default: off)",
    )
    serve.add_argument(
        "--trace-ring",
        type=int,
        default=64,
        help="recent slide traces kept in memory (default: 64)",
    )
    serve.add_argument(
        "--flight-recorder",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="sample metrics into retained time-series for "
        "/metrics/history and SLO alerting (fixed memory; default: on)",
    )
    serve.add_argument(
        "--sample-interval",
        type=float,
        default=1.0,
        metavar="S",
        help="seconds between flight-recorder samples (default: 1.0)",
    )
    serve.add_argument(
        "--alert-log",
        default=None,
        metavar="PATH",
        help="append SLO alert raise/clear events to this JSONL file",
    )
    serve.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="NAME=SERIES,threshold=T[,key=value...]",
        help="add an SLO objective over a retained series (repeatable); "
        "keys: threshold (required), objective, fast, slow, burn, "
        "severity (page|ticket), min-samples",
    )
    serve.add_argument(
        "--slo-defaults",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="evaluate the stock serving-plane objectives (default: on)",
    )
    serve.add_argument(
        "--profile",
        action="store_true",
        help="run the continuous sampling profiler from boot "
        "(GET /debug/profile works either way)",
    )
    serve.add_argument(
        "--profile-hz",
        type=float,
        default=100.0,
        help="wall-clock profiler sampling rate (default: 100)",
    )
    _add_supervision_arguments(serve)

    top = commands.add_parser(
        "top", help="live terminal console over a running server"
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=7077)
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between frames (default: 2.0)",
    )
    top.add_argument(
        "--window",
        type=float,
        default=120.0,
        help="history window per sparkline panel (default: 120 s)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="render one frame without clearing the screen and exit "
        "(CI / no-TTY use)",
    )

    profile = commands.add_parser(
        "profile", help="collapsed-stack profile of a running server"
    )
    profile.add_argument("--host", default="127.0.0.1")
    profile.add_argument("--port", type=int, default=7077)
    profile.add_argument(
        "--seconds",
        type=float,
        default=2.0,
        help="profiling window length (default: 2.0)",
    )
    profile.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the collapsed stacks here instead of stdout "
        "(feed to flamegraph.pl / speedscope)",
    )

    trace = commands.add_parser(
        "trace", help="inspect a serve --trace-log JSONL file"
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    tail = trace_commands.add_parser(
        "tail", help="print the last N trace events"
    )
    tail.add_argument("file")
    tail.add_argument(
        "-n", type=int, default=10, help="events to print (default: 10)"
    )
    summarize = trace_commands.add_parser(
        "summarize", help="per-stage latency breakdown of a trace log"
    )
    summarize.add_argument("file")
    return parser


def _add_supervision_arguments(command) -> None:
    """Shard worker and supervision knobs shared by ``track`` and ``serve``."""
    from repro.sharding.backends import BACKENDS, DEFAULT_BACKEND

    command.add_argument(
        "--shard-backend",
        choices=tuple(BACKENDS),
        default=DEFAULT_BACKEND,
        help="worker backend for --shards > 1 (process = one forked "
        "worker per shard, real multi-core; serial = in-process, for "
        "debugging)",
    )
    command.add_argument(
        "--shard-retries",
        type=int,
        default=3,
        help="in-place restarts attempted per failed shard before a "
        "slide escalates ShardingError (0 = fail fast)",
    )
    command.add_argument(
        "--shard-call-timeout",
        type=float,
        default=30.0,
        help="seconds a shard may take to answer one command before it "
        "is declared hung, killed and restarted",
    )
    command.add_argument(
        "--fault-plan",
        default=None,
        metavar="PLAN.json",
        help="scripted fault-injection plan (repro.faults.FaultPlan "
        "JSON) armed in the shard workers — chaos testing only",
    )


def _cmd_generate(args) -> int:
    from repro.datasets.surrogates import reddit_like, twitter_like
    from repro.datasets.synthetic import syn_n, syn_o

    makers = {
        "reddit": reddit_like,
        "twitter": twitter_like,
        "syn-o": syn_o,
        "syn-n": syn_n,
    }
    output = pathlib.Path(args.output)
    writer = _writer_for(output)
    stream = makers[args.dataset](
        n_users=args.users, n_actions=args.actions, seed=args.seed
    )
    count = writer(stream, output)
    print(f"wrote {count} {args.dataset} actions to {output}")
    return 0


def _cmd_stats(args) -> int:
    from repro.datasets.stats import stream_statistics

    path = pathlib.Path(args.file)
    stats = stream_statistics(_reader_for(path))
    print(f"{'users':<22}{stats.users:,}")
    print(f"{'actions':<22}{stats.actions:,}")
    print(f"{'mean resp. distance':<22}{stats.mean_response_distance:.1f}")
    print(f"{'mean cascade depth':<22}{stats.mean_depth:.2f}")
    print(f"{'max cascade depth':<22}{stats.max_depth}")
    print(f"{'root fraction':<22}{stats.root_fraction:.2%}")
    return 0


def _cmd_convert(args) -> int:
    source = pathlib.Path(args.source)
    target = pathlib.Path(args.target)
    writer = _writer_for(target)
    count = writer(_reader_for(source), target)
    print(f"converted {count} actions: {source} -> {target}")
    return 0


def _build_algorithm(options: dict, assignment):
    """One query's framework from its option dict (see ``_query_specs``)."""
    from repro.core.greedy import WindowedGreedy
    from repro.core.ic import InfluentialCheckpoints
    from repro.core.sic import SparseInfluentialCheckpoints

    if options["algorithm"] == "sic":
        return SparseInfluentialCheckpoints(
            window_size=options["window"],
            k=options["k"],
            beta=options["beta"],
            oracle=options["oracle"],
            shard=assignment,
        )
    if options["algorithm"] == "ic":
        return InfluentialCheckpoints(
            window_size=options["window"],
            k=options["k"],
            beta=options["beta"],
            oracle=options["oracle"],
            checkpoint_interval=options["checkpoint_interval"],
            shard=assignment,
        )
    return WindowedGreedy(window_size=options["window"], k=options["k"])


def _query_specs(args, specs) -> list:
    """``[(name, options)]`` for ``NAME=ALGO[,...]`` specs, shard-checked.

    Unset keys fall back to the top-level track/serve flags in ``args``;
    ``--shards`` refuses greedy queries here, once, for both commands.
    """
    parsed = [_parse_query_spec(spec, args) for spec in specs]
    if args.shards > 1:
        unshardable = sorted(
            name for name, options in parsed if options["algorithm"] == "greedy"
        )
        if unshardable:
            raise ValueError(
                "--shards requires checkpoint algorithms (ic or sic); greedy "
                f"has no shardable oracle plane: {unshardable}"
            )
    return parsed


def _make_track_factory(args):
    """Framework constructor from track CLI arguments.

    The returned factory takes an optional shard assignment (``None``
    builds the unsharded engine) so the same recipe serves both
    ``RecoverableEngine.open`` (which calls it with no arguments) and the
    sharded plane (which builds one engine per shard).
    """
    [(_, options)] = _query_specs(args, [f"main={args.algorithm}"])
    return lambda assignment=None: _build_algorithm(options, assignment)


def _open_engine(args, factory):
    """Open the engine the track/serve flags describe (sharded or not)."""
    from repro.persistence.engine import RecoverableEngine

    if args.shards > 1:
        from repro.sharding.engine import ShardedEngine

        fault_plan = None
        if getattr(args, "fault_plan", None):
            from repro.faults import FaultPlan

            fault_plan = FaultPlan.load(args.fault_plan)
        return ShardedEngine.open(
            factory,
            args.shards,
            state_dir=args.state_dir,
            backend=args.shard_backend,
            snapshot_every=args.snapshot_every,
            retries=args.shard_retries,
            call_timeout=args.shard_call_timeout,
            fault_plan=fault_plan,
        )
    return RecoverableEngine.open(
        args.state_dir,
        factory,
        snapshot_every=args.snapshot_every,
    )


def _emit_answer(answer, output_format: str) -> None:
    """Print one per-slide answer in the requested format."""
    if output_format == "json":
        print(
            json.dumps(
                {
                    "time": answer.time,
                    "value": answer.value,
                    "seeds": sorted(answer.seeds),
                },
                separators=(",", ":"),
            )
        )
    else:
        seeds = ",".join(str(u) for u in sorted(answer.seeds))
        print(f"{answer.time:>10}  {answer.value:>10.0f}  [{seeds}]")


def _check_resumed_config(engine, factory) -> None:
    """Reject a resume whose CLI flags disagree with the stored state.

    Delegates to the persistence plane's single definition of "same
    config" (:func:`repro.persistence.serialize.ensure_same_engine_config`),
    shared with the sharded plane's per-shard check.
    """
    from repro.persistence.serialize import ensure_same_engine_config

    ensure_same_engine_config(engine.algorithm, factory(), where="state dir")


def _cmd_track(args) -> int:
    path = pathlib.Path(args.file)
    factory = _make_track_factory(args)
    engine = _open_engine(args, factory)
    try:
        if engine.slides_processed and args.shards == 1:
            # Sharded engines validate per-shard configs at open time.
            _check_resumed_config(engine, factory)
        resume_time = engine.now
        if resume_time:
            print(
                f"resumed at time {resume_time} "
                f"(slide {engine.slides_processed}; replayed "
                f"{engine.replayed_slides} slides from the WAL tail)",
                file=sys.stderr,
            )
        if args.format == "text":
            print(f"{'time':>10}  {'influence':>10}  seeds")
        for batch in batched(_reader_for(path), args.slide):
            if batch[-1].time <= resume_time:
                continue  # fully covered by the recovered state
            if batch[0].time <= resume_time:
                # Partially covered (slide size changed between runs):
                # feed only the unseen suffix.
                batch = [a for a in batch if a.time > resume_time]
            engine.process(batch)
            _emit_answer(engine.query(), args.format)
    except BaseException:
        engine.close(snapshot=False)
        raise
    engine.close()
    return 0


def _prune_store(state_dir, keep: int) -> None:
    """Prune one snapshot+WAL store and report what was dropped."""
    from repro.persistence.engine import StateStore

    store = StateStore(state_dir)
    try:
        dropped = store.snapshots.prune(keep)
        retained = store.snapshots.sequences()
        segments = 0
        if retained:
            # WAL records covered by the oldest retained snapshot can
            # never be replayed again; drop their whole segments.
            segments = store.wal.prune_through(min(retained))
        print(
            f"dropped {len(dropped)} snapshots and {segments} WAL "
            f"segments; kept {len(retained)} snapshots"
        )
    finally:
        store.close()


def _shard_routed_tuples(shard_dir) -> tuple:
    """``(consumed_at_snapshot, wal_records, wal_tuples)`` for one shard.

    ``consumed_at_snapshot`` is the routed records the shard had absorbed
    when its newest snapshot was taken; the WAL numbers cover the
    replayable tail beyond it (routed-tuple batches only — raw-action
    records are not counted here).
    """
    from repro.core.resolve import ResolvedSlide
    from repro.persistence.engine import StateStore

    store = StateStore(shard_dir)
    try:
        latest = store.snapshots.load_latest()
        snap_seq = 0
        consumed = 0
        if latest is not None:
            snap_seq, document = latest
            algorithm = document["algorithm"]
            if algorithm.get("algorithm") == "multi":
                consumed = algorithm.get("actions_processed", 0)
            else:
                consumed = algorithm.get("base", {}).get(
                    "actions_processed", 0
                )
        wal_records = 0
        wal_tuples = 0
        for _seq, payload in store.wal.replay(after=snap_seq):
            if isinstance(payload, ResolvedSlide):
                wal_records += 1
                wal_tuples += len(payload.records)
    finally:
        store.close()
    return consumed, wal_records, wal_tuples


def _cmd_snapshot(args) -> int:
    from repro.persistence.engine import (
        RecoverableEngine,
        StateStore,
        list_shard_state_dirs,
    )
    from repro.persistence.serialize import PersistenceError

    root = pathlib.Path(args.state_dir)
    if not root.is_dir():
        # Inspection must not mkdir a state tree at a typoed path.
        raise PersistenceError(f"no state directory at {args.state_dir}")
    shard_dirs = list_shard_state_dirs(root)
    if shard_dirs or (root / "sharding.json").exists():
        # A sharded root: recurse over the per-shard stores.  A crash can
        # leave this tree partial — a shard dir missing entirely, or with
        # a corrupt WAL tail — so every per-shard step reports unhealthy
        # state and continues instead of aborting the whole inspection.
        from repro.sharding.engine import ShardedEngine

        expected = None
        try:
            manifest = ShardedEngine._read_manifest(root)
        except PersistenceError as error:
            manifest = None
            print(f"unhealthy      {error}")
        if manifest is not None:
            expected = manifest["shards"]
            print(
                f"sharded root   {root}  ({expected} shards, manifest "
                f"format {manifest['format']}, partitioner "
                f"{manifest['partitioner']})"
            )
        if args.snapshot_command == "info":
            resolver_dir = root / "resolver"
            if resolver_dir.is_dir():
                store = StateStore(resolver_dir)
                try:
                    retained = store.snapshots.sequences()
                    newest = max(retained) if retained else 0
                    print(
                        f"resolver       snapshot slide {newest}, "
                        f"wal last seq {store.wal.last_seq}"
                    )
                finally:
                    store.close()
            else:
                print("unhealthy      no resolver/ dir")
        if args.snapshot_command not in ("info", "prune"):
            example = shard_dirs[0] if shard_dirs else root / "shard-0"
            raise PersistenceError(
                f"snapshot {args.snapshot_command} works on one engine's "
                f"state dir; {root} is a sharded root — run it against a "
                f"single shard, e.g. {example}"
            )
        known = {path.name: path for path in shard_dirs}
        names = list(known)
        if expected is not None:
            # The manifest is authoritative: surface shard dirs it
            # promises but the tree lacks, alongside any strays.
            names = [f"shard-{i}" for i in range(expected)]
            names.extend(sorted(set(known) - set(names)))
        unhealthy = 0
        for name in names:
            print(f"--- {name} ---")
            shard_dir = known.get(name)
            if shard_dir is None:
                print(f"unhealthy      missing shard state dir {root / name}")
                unhealthy += 1
                continue
            try:
                if args.snapshot_command == "info":
                    _cmd_snapshot(
                        argparse.Namespace(
                            state_dir=str(shard_dir), snapshot_command="info"
                        )
                    )
                    consumed, records, tuples = _shard_routed_tuples(
                        shard_dir
                    )
                    print(
                        f"routed tuples  {consumed:,} consumed at "
                        f"snapshot + {tuples:,} in {records} WAL "
                        "record(s)"
                    )
                else:
                    _prune_store(shard_dir, args.keep)
            except (PersistenceError, OSError) as error:
                print(f"unhealthy      {error}")
                unhealthy += 1
        if unhealthy:
            print(f"{unhealthy} of {len(names)} shard state dirs unhealthy")
        return 0
    if args.snapshot_command == "prune":
        _prune_store(args.state_dir, args.keep)
        return 0
    if args.snapshot_command == "info":
        store = StateStore(args.state_dir)
        try:
            sequences = store.snapshots.sequences()
            print(f"state dir      {store.root}")
            for seq in sequences:
                kind, size, sections = store.snapshots.describe(seq)
                print(
                    f"snapshot       slide {seq:>8}  {size:>10,} bytes  {kind}"
                )
                for name, dtype, count, nbytes in sections:
                    print(
                        f"  section      {name}  {dtype}  {count:,}  "
                        f"{nbytes:,} bytes"
                    )
            for segment in store.wal.segments():
                print(
                    f"wal segment    {segment.name}  "
                    f"{segment.stat().st_size:>10,} bytes"
                )
            print(f"wal last seq   {store.wal.last_seq}")
            latest = store.snapshots.load_latest()
            if latest is not None:
                seq, document = latest
                algorithm = document["algorithm"].get("algorithm")
                print(f"algorithm      {algorithm}")
                tail = max(store.wal.last_seq - seq, 0)
                print(f"recoverable    slide {max(store.wal.last_seq, seq)} "
                      f"(snapshot {seq} + {tail} WAL slides)")
            elif store.wal.last_seq:
                print(f"recoverable    slide {store.wal.last_seq} "
                      "(full WAL replay, no snapshot)")
            else:
                print("recoverable    nothing stored yet")
        finally:
            store.close()
        return 0

    # save / restore both recover the engine first.
    engine = RecoverableEngine.open(args.state_dir, factory=None)
    try:
        if args.snapshot_command == "save":
            engine.snapshot()
            print(
                f"snapshot written at slide {engine.slides_processed} "
                f"(replayed {engine.replayed_slides} WAL slides)"
            )
        else:  # restore
            from repro.core.multi import MultiQueryEngine

            algorithm = engine.algorithm
            position = {
                "slide": engine.slides_processed,
                "replayed": engine.replayed_slides,
            }
            if isinstance(algorithm, MultiQueryEngine):
                # A serve state dir holds a whole board; print every query.
                position["queries"] = {
                    name: {
                        "time": answer.time,
                        "value": answer.value,
                        "seeds": sorted(answer.seeds),
                    }
                    for name, answer in algorithm.query_all().items()
                }
            else:
                answer = engine.query()
                position.update(
                    {
                        "time": answer.time,
                        "value": answer.value,
                        "seeds": sorted(answer.seeds),
                    }
                )
            print(json.dumps(position, separators=(",", ":")))
    finally:
        engine.close(snapshot=False)
    return 0


def _parse_query_spec(spec: str, defaults) -> tuple:
    """``NAME=ALGO[,key=value...]`` → ``(name, constructor_kwargs)``.

    Unset keys fall back to the top-level serve flags in ``defaults``.
    """
    name, separator, rest = spec.partition("=")
    name = name.strip()
    if not separator or not name:
        raise ValueError(
            f"bad --query spec {spec!r}; expected NAME=ALGO[,key=value...]"
        )
    fields = [f.strip() for f in rest.split(",") if f.strip()]
    if not fields:
        raise ValueError(f"--query spec {spec!r} names no algorithm")
    algorithm = fields[0]
    if algorithm not in _ALGORITHMS:
        raise ValueError(
            f"--query spec {spec!r}: unknown algorithm {algorithm!r} "
            f"(choose from {', '.join(_ALGORITHMS)})"
        )
    options = {
        "algorithm": algorithm,
        "window": defaults.window,
        "k": defaults.k,
        "beta": defaults.beta,
        "oracle": defaults.oracle,
        "checkpoint_interval": defaults.checkpoint_interval,
    }
    parsers = {
        "window": int,
        "k": int,
        "beta": float,
        "oracle": str,
        "checkpoint_interval": int,
    }
    # Keys each algorithm's constructor actually consumes; accepting an
    # inapplicable key would silently serve default settings instead.
    applicable = {
        "sic": {"window", "k", "beta", "oracle"},
        "ic": {"window", "k", "beta", "oracle", "checkpoint_interval"},
        "greedy": {"window", "k"},
    }
    for field in fields[1:]:
        key, separator, value = field.partition("=")
        key = key.strip().replace("-", "_")
        if not separator or key not in parsers:
            raise ValueError(
                f"--query spec {spec!r}: bad option {field!r} "
                f"(known: {', '.join(parsers)})"
            )
        if key not in applicable[algorithm]:
            raise ValueError(
                f"--query spec {spec!r}: option {key!r} does not apply to "
                f"{algorithm!r} (accepted: "
                f"{', '.join(sorted(applicable[algorithm]))})"
            )
        if key == "oracle" and value not in _ORACLES:
            raise ValueError(
                f"--query spec {spec!r}: unknown oracle {value!r} "
                f"(choose from {', '.join(_ORACLES)})"
            )
        options[key] = parsers[key](value)
    return name, options


def _make_serve_factory(args):
    """MultiQueryEngine board constructor from serve CLI arguments.

    The returned factory takes an optional shard assignment (``None``
    builds the unsharded board): every ic/sic query on the board receives
    the assignment, so one shard's board covers exactly the influencers
    that shard owns.
    """
    from repro.core.multi import MultiQueryEngine

    specs = _query_specs(args, args.query or [f"main={args.algorithm}"])
    names = [name for name, _ in specs]
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        raise ValueError(f"duplicate --query names: {duplicates}")

    def factory(assignment=None):
        engine = MultiQueryEngine()
        for name, options in specs:
            engine.add(name, _build_algorithm(options, assignment))
        return engine

    return factory


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service.config import ServiceConfig
    from repro.service.server import ReproService

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        slide=args.slide,
        flush_interval=args.flush_interval,
        queue_capacity=args.queue_capacity,
        ack_every=args.ack_every,
        history=args.history,
        trace_log=args.trace_log,
        slow_slide_ms=args.slow_slide_ms,
        trace_ring=args.trace_ring,
        flight_recorder=args.flight_recorder,
        sample_interval=args.sample_interval,
        alert_log=args.alert_log,
        slo_defaults=args.slo_defaults,
        slo_specs=tuple(args.slo or ()),
        profile=args.profile,
        profile_hz=args.profile_hz,
    )
    factory = _make_serve_factory(args)
    engine = _open_engine(args, factory)
    try:
        if engine.slides_processed:
            if args.shards == 1:
                # Sharded engines validate per-shard configs at open time.
                _check_resumed_config(engine, factory)
            print(
                f"resumed at time {engine.now} "
                f"(slide {engine.slides_processed}; replayed "
                f"{engine.replayed_slides} slides from the WAL tail)",
                file=sys.stderr,
            )
    except BaseException:
        engine.close(snapshot=False)
        raise

    def announce(service: ReproService) -> None:
        queries = ",".join(service.query_names())
        print(
            f"listening on {service.host}:{service.port} "
            f"(queries: {queries})",
            flush=True,
        )

    service = ReproService(engine, config)
    try:
        asyncio.run(service.run(on_ready=announce))
    except BaseException:
        # A failed bind/serve must not seal state the loop never owned.
        engine.close(snapshot=False)
        raise
    print(
        f"stopped after {engine.slides_processed} slides "
        f"({service.ingest.stats.accepted} actions ingested)",
        file=sys.stderr,
    )
    return 0


def _read_trace_events(path: pathlib.Path) -> List[dict]:
    """Parse a ``--trace-log`` JSONL file, skipping torn/foreign lines.

    A crash can leave a torn final line and operators sometimes point
    the command at a mixed log; both are survivable, so bad lines are
    counted on stderr instead of aborting.
    """
    events: List[dict] = []
    skipped = 0
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                document = json.loads(line)
            except ValueError:
                skipped += 1
                continue
            if isinstance(document, dict) and "stages" in document:
                events.append(document)
            else:
                skipped += 1
    if skipped:
        print(f"skipped {skipped} unparseable line(s)", file=sys.stderr)
    return events


def _cmd_top(args) -> int:
    from repro.service.client import ServiceClient
    from repro.telemetry.console import run_top

    client = ServiceClient(args.host, args.port, timeout=10.0)
    try:
        run_top(
            client,
            interval=args.interval,
            window=args.window,
            iterations=1 if args.once else None,
            clear=not args.once,
        )
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_profile(args) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.host, args.port, timeout=args.seconds + 30.0)
    status, body, _ = client.http_get_raw(
        f"/debug/profile?seconds={args.seconds:g}"
    )
    if status != 200:
        print(f"error: profile -> {status}: {body[:200]}", file=sys.stderr)
        return 1
    if args.output:
        pathlib.Path(args.output).write_text(body, encoding="utf-8")
        print(
            f"wrote {len(body.splitlines())} collapsed stacks to "
            f"{args.output}",
            file=sys.stderr,
        )
    else:
        sys.stdout.write(body)
    return 0


def _cmd_trace(args) -> int:
    from repro.telemetry import STAGES

    path = pathlib.Path(args.file)
    if not path.exists():
        # A missing log is an ordinary state (the server writes it
        # lazily, and slow-slide emission may simply never have fired) —
        # report it plainly and succeed rather than stack-tracing.
        print(f"no trace log at {path} (no slow slides recorded yet)")
        return 0
    events = _read_trace_events(path)
    if not events:
        print(f"no trace events in {path}")
        return 0
    if args.trace_command == "tail":
        for event in events[-args.n:]:
            stages = ", ".join(
                f"{name}={doc['seconds'] * 1000.0:.2f}ms"
                for name, doc in event.get("stages", {}).items()
            )
            print(
                f"slide {event.get('slide'):>8}  "
                f"{event.get('actions', 0):>6} actions  "
                f"{event.get('total_seconds', 0.0) * 1000.0:>9.2f}ms  "
                f"[{stages}]"
            )
        return 0

    # summarize: per-stage aggregate over every event in the file.
    totals: dict = {}
    for event in events:
        for name, doc in event.get("stages", {}).items():
            entry = totals.setdefault(
                name, {"count": 0, "seconds": 0.0, "max": 0.0, "items": 0}
            )
            entry["count"] += 1
            entry["seconds"] += doc.get("seconds", 0.0)
            entry["max"] = max(entry["max"], doc.get("seconds", 0.0))
            entry["items"] += doc.get("items", 0)
    grand_total = sum(entry["seconds"] for entry in totals.values()) or 1.0
    order = {name: i for i, name in enumerate(STAGES)}
    print(f"{len(events)} traced slides in {path}")
    print(
        f"{'stage':<14}{'count':>7}{'total s':>10}{'mean ms':>10}"
        f"{'max ms':>10}{'items':>10}{'share':>8}"
    )
    for name in sorted(totals, key=lambda n: (order.get(n, len(order)), n)):
        entry = totals[name]
        mean_ms = entry["seconds"] / entry["count"] * 1000.0
        print(
            f"{name:<14}{entry['count']:>7}{entry['seconds']:>10.3f}"
            f"{mean_ms:>10.3f}{entry['max'] * 1000.0:>10.3f}"
            f"{entry['items']:>10}{entry['seconds'] / grand_total:>8.1%}"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.sharding.engine import ShardingError

    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "stats": _cmd_stats,
        "convert": _cmd_convert,
        "track": _cmd_track,
        "snapshot": _cmd_snapshot,
        "serve": _cmd_serve,
        "trace": _cmd_trace,
        "top": _cmd_top,
        "profile": _cmd_profile,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, ShardingError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
