"""ShardedEngine: S influencer-partitioned writer engines behind one facade.

The facade keeps the engine API the rest of the system already speaks —
``process``/``query``/``now``/``slides_processed``/``close`` — while the
work happens in ``S`` shard hosts, each a full
:class:`~repro.persistence.engine.RecoverableEngine` around an IC/SIC
instance (or a :class:`~repro.core.multi.MultiQueryEngine` board of them)
restricted to the influencers its
:class:`~repro.sharding.partition.ShardAssignment` owns.

**Write path.**  The facade resolves each slide exactly once through its
own :class:`~repro.core.resolve.SlideResolver` (the ``resolve_slide`` half
of the engine's two-phase API), partitions the resolved influence tuples
by owning influencer, and sends each shard *only its routed records*
(``apply_resolved``, the other half).  Shards hold no diffusion forest
and never parse an unowned action — per-shard work is proportional to
owned pairs, not stream length.  The facade resolver
(:mod:`repro.sharding.resolver`) has its own snapshot+WAL state under
``<root>/resolver/``, logged *before* routing, so its clock always covers
every shard's clock and redelivery re-resolves idempotently.  A board
that cannot absorb pre-resolved slides (filtered queries need the raw
actions) is refused at :meth:`ShardedEngine.open`: run it unsharded.

The shard hosts run on one of two interchangeable backends (``serial``,
the in-process reference, and ``process``, the default — see
:mod:`repro.sharding.backends`), both speaking the same per-shard
protocol, so a dead worker surfaces as ``dead`` and a hung one as
``timeout`` instead of wedging the caller.

**Supervision.**  Every fan-out runs under a
:class:`~repro.sharding.supervisor.ShardSupervisor`: a failed shard is
restarted in place from its own ``shard-<i>/`` snapshot + WAL tail with
bounded exponential backoff, the in-flight slide is re-dispatched as the
suffix beyond the recovered clock, and only an exhausted retry budget (or
an in-memory shard, which has nothing to heal from) escalates to
:class:`ShardingError`.  While a shard is down, reads *degrade* instead
of failing: survivors answer, :attr:`ShardedEngine.degraded` turns on,
and the dead shard contributes its last-known clock.  Scripted chaos
(:mod:`repro.faults`) rides into workers through the backend host
arguments, keeping every drill seeded and reproducible.

**Read path.**  Reads are merge-on-read: the facade gathers every shard's
answer plus candidate coverage and combines them with
:func:`~repro.sharding.merge.merge_shard_answers` (exact lazy greedy for
modular functions, bounded best-shard otherwise).  Publish hooks fire with
the *merged* board after every slide, so the serving plane's immutable
answer cache composes unchanged.

**Durability.**  With a state directory the layout is::

    <state_dir>/
      sharding.json     manifest: format + shard count + partitioner
      resolver/         facade resolver snapshot+WAL
      shard-0/ ... shard-(S-1)/    one full snapshot+WAL StateStore each

Each shard recovers independently (newest snapshot + own WAL tail), so
recovery parallelises with the backend and a crash that hit shards at
different slide positions heals on redelivery: :meth:`ShardedEngine.process`
forwards to each shard only the work beyond *that shard's* clock.  The
manifest is format-versioned (format 2); a root in any other format — 1
was written by builds whose shards each consumed the raw stream — is
refused by name before anything else is compared.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.actions import Action
from repro.core.base import SIMAlgorithm, SIMResult
from repro.core.multi import MultiQueryEngine
from repro.core.resolve import partition_slide
from repro.faults.plan import FaultPlan
from repro.persistence.engine import shard_state_dir
from repro.persistence.serialize import PersistenceError
from repro.sharding.backends import BACKENDS, DEFAULT_BACKEND
from repro.sharding.merge import (
    SeedCandidate,
    ShardAnswer,
    answers_by_query,
    merge_shard_answers,
)
from repro.sharding.partition import (
    HashPartitioner,
    Partitioner,
    ShardAssignment,
    partitioner_from_state,
)
from repro.sharding.resolver import RESOLVER_DIR_NAME, _FacadeResolver
from repro.sharding.supervisor import _SKIP, ShardingError, ShardSupervisor
from repro.telemetry.trace import record_stage

__all__ = [
    "ShardedEngine",
    "ShardedBoard",
    "ShardingError",
]

#: File at the sharded state root recording the manifest format, shard
#: count and partitioner.
MANIFEST_NAME = "sharding.json"

#: The manifest format this build writes and opens.
MANIFEST_FORMAT = 2


class ShardedBoard:
    """Board adapter: the merged, multi-query face of a sharded engine.

    Satisfies the query-board protocol the serving plane consumes
    (``names``/``query``/``query_all``/``query_stats``/
    ``add_publish_hook``) so :class:`ShardedEngine` drops into
    :mod:`repro.service` wherever a
    :class:`~repro.core.multi.MultiQueryEngine` fits.
    """

    def __init__(self, engine: "ShardedEngine"):
        """Wrap ``engine`` (built by the engine itself; not user-facing)."""
        self._engine = engine

    def names(self) -> List[str]:
        """Query names served by the merged board, sorted."""
        return sorted(self._engine._merge_params)

    def query(self, name: str) -> SIMResult:
        """The merged answer of one query.

        Raises:
            KeyError: when ``name`` is not on the board.
        """
        answers = self._engine.query_all()
        if name not in answers:
            raise KeyError(
                f"unknown query {name!r}; registered: {sorted(answers)}"
            )
        return answers[name]

    def query_all(self) -> Dict[str, SIMResult]:
        """Merged answers of every query on the board."""
        return self._engine.query_all()

    def query_stats(self) -> Dict[str, dict]:
        """Per-query operational stats (sharded flavour, for ``/metrics``).

        While a shard is healing the stats carry ``degraded: True`` plus
        the down shard ids, so readers can see they are on survivor
        answers.
        """
        engine = self._engine
        degraded = engine.degraded
        stats = {}
        for name in self.names():
            entry = {
                "kind": "sharded",
                "shards": engine.shard_count,
                "actions_processed": engine.actions_processed,
                "time": engine.now,
                "degraded": degraded,
            }
            if degraded:
                entry["degraded_shards"] = engine.degraded_shards
            stats[name] = entry
        return stats

    def add_publish_hook(self, hook) -> None:
        """Call ``hook(merged_answers)`` after every processed slide."""
        self._engine._publish_hooks.append(hook)


class ShardedEngine:
    """Facade over S shard engines: routed writes, merge-on-read top-k."""

    def __init__(
        self,
        backend,
        supervisor: ShardSupervisor,
        partitioner: Partitioner,
        merge_params: Dict[str, tuple],
        multi: bool,
        state_root: Optional[pathlib.Path],
        infos: List[dict],
        resolver: _FacadeResolver,
    ):
        """Internal constructor — use :meth:`open`."""
        self._backend = backend
        self._supervisor = supervisor
        self._partitioner = partitioner
        self._merge_params = merge_params
        self._multi = multi
        self._state_root = state_root
        self._resolver = resolver
        self._shard_nows = [info["now"] for info in infos]
        self._shard_slides = [info["slides"] for info in infos]
        self._snapshots = [info["snapshots_written"] for info in infos]
        #: Per-shard consumed work: the routed records each shard applied
        #: (a shard engine's ``actions_processed`` counts what it was fed).
        self._shard_records = [info["actions"] for info in infos]
        self._replayed = [info["replayed"] for info in infos]
        # Per-shard busy-seconds: cumulative across worker incarnations
        # (restarts reset a worker's own counter; we fold the delta).
        self._busy_seconds = [
            float(info.get("busy_seconds", 0.0)) for info in infos
        ]
        self._busy_last_seen = list(self._busy_seconds)
        #: Busy-time gap between the hottest and coolest shard on the
        #: last processed slide — the slide-barrier straggler signal.
        self.last_straggler_seconds = 0.0
        #: Influence records routed to shards on the last processed slide
        #: (0 before any slide).
        self.last_routed_records = 0
        self._publish_hooks: List = []
        self._board = ShardedBoard(self)
        self._lock = threading.Lock()
        self._closed = False

    # -- construction ------------------------------------------------------

    @classmethod
    def open(
        cls,
        factory: Callable,
        shards: int,
        state_dir=None,
        backend: str = DEFAULT_BACKEND,
        partitioner: Optional[Partitioner] = None,
        snapshot_every: int = 16,
        keep_snapshots: int = 3,
        segment_records: int = 256,
        fsync: bool = True,
        retries: int = 3,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        call_timeout: Optional[float] = 30.0,
        fault_plan: Optional[FaultPlan] = None,
    ) -> "ShardedEngine":
        """Build (or recover) a sharded engine.

        Args:
            factory: ``factory(assignment)`` builds one shard's algorithm —
                an IC/SIC instance (or a MultiQueryEngine board of them)
                constructed with ``shard=assignment``.  It is also called
                with ``None`` once, in the facade, to probe the query
                names, ``k`` and influence functions the merge needs.
                Every query must absorb pre-resolved slides: a board
                holding filtered queries (they need the raw actions) or
                a non-IC/SIC algorithm is refused — run it unsharded.
            shards: Number of shard engines (>= 1).
            state_dir: Durable state root (``shard-<i>/`` per shard plus a
                ``sharding.json`` manifest), or ``None`` for in-memory.
            backend: A :data:`~repro.sharding.backends.BACKENDS` name:
                ``"process"`` (default) or ``"serial"``.
            partitioner: Influencer partitioner; defaults to
                :class:`~repro.sharding.partition.HashPartitioner`.
            snapshot_every: Per-shard auto-snapshot cadence in slides.
            keep_snapshots: Per-shard snapshot retention.
            segment_records: Per-shard WAL records per segment.
            fsync: Force per-shard WAL appends/snapshots to stable storage.
            retries: Supervisor restart attempts per shard incident before
                escalating :class:`ShardingError` (``0`` = fail fast).
            backoff_base: First restart delay in seconds (doubles per
                attempt, capped at ``backoff_max``).
            backoff_max: Restart backoff ceiling in seconds.
            call_timeout: Per-call reply deadline in seconds; ``None``
                disables hang detection (deaths are still detected).
            fault_plan: Optional scripted chaos
                (:class:`~repro.faults.plan.FaultPlan`) for deterministic
                failure drills.

        Raises:
            ShardingError: on bad knobs, a board that cannot absorb
                pre-resolved slides, or worker construction failure.
            PersistenceError: when an existing state root has an
                unreadable or foreign-format manifest, or disagrees with the
                requested shard count/partitioner or per-shard config.
        """
        if shards < 1:
            raise ShardingError(f"shards must be >= 1, got {shards}")
        if backend not in BACKENDS:
            raise ShardingError(
                f"unknown backend {backend!r}; choose from {tuple(BACKENDS)}"
            )
        if partitioner is None:
            partitioner = HashPartitioner(shards)
        if partitioner.shards != shards:
            raise ShardingError(
                f"partitioner spreads over {partitioner.shards} shards, "
                f"but {shards} were requested"
            )
        if fault_plan is not None and fault_plan.max_shard() >= shards:
            raise ShardingError(
                f"fault plan targets shard {fault_plan.max_shard()}, but "
                f"only {shards} shard(s) were requested"
            )
        probe = factory(None)
        algorithms = cls._probe_algorithms(probe)
        merge_params = {
            name: (algorithm.k, getattr(algorithm, "influence_function", None))
            for name, algorithm in algorithms.items()
        }
        multi = isinstance(probe, MultiQueryEngine)
        state_root = None
        if state_dir is not None:
            state_root = pathlib.Path(state_dir)
            cls._check_manifest(state_root, shards, partitioner)
        resolver = _FacadeResolver.open(
            state_root,
            retention=cls._probe_retention(algorithms.values()),
            snapshot_every=snapshot_every,
            keep_snapshots=keep_snapshots,
            segment_records=segment_records,
            fsync=fsync,
        )
        state_dirs = [
            shard_state_dir(state_root, shard) if state_root is not None else None
            for shard in range(shards)
        ]
        host_args = []
        for shard in range(shards):
            worker_faults = (
                fault_plan.for_shard(shard) if fault_plan is not None else ()
            )
            host_args.append(
                {
                    "shard_id": shard,
                    "assignment": ShardAssignment(partitioner, shard),
                    "factory": factory,
                    "state_dir": state_dirs[shard],
                    "snapshot_every": snapshot_every,
                    "keep_snapshots": keep_snapshots,
                    "segment_records": segment_records,
                    "fsync": fsync,
                    "fault_state": (
                        {
                            "faults": [f.to_state() for f in worker_faults],
                            "disarm_through": 0,
                        }
                        if worker_faults
                        else None
                    ),
                }
            )
        backend_obj = BACKENDS[backend](host_args)
        infos = []
        failures = []
        for shard in range(shards):
            status, result = backend_obj.start(shard)
            if status == "ok":
                infos.append(result)
            else:
                failures.append(f"shard {shard}: {result}")
        if failures:
            # Never leave half-started workers behind a failed open.
            backend_obj.stop()
            raise ShardingError(
                "shard worker construction failed: " + "; ".join(failures)
            )
        supervisor = ShardSupervisor(
            backend_obj,
            shards,
            state_dirs=state_dirs,
            retries=retries,
            backoff_base=backoff_base,
            backoff_max=backoff_max,
            call_timeout=call_timeout,
            fault_plan=fault_plan,
        )
        engine = cls(
            backend_obj,
            supervisor,
            partitioner,
            merge_params,
            multi,
            state_root,
            infos,
            resolver,
        )
        if engine.now > resolver.now:
            # Shards can never outrun the write-ahead resolver log; a
            # clock ahead of the resolver means the resolver state was
            # deleted or swapped from under the shard dirs.
            backend_obj.stop()
            raise PersistenceError(
                f"shard clocks reach {engine.now} but the facade resolver "
                f"only covers {resolver.now}; the resolver state under "
                f"{state_root}/{RESOLVER_DIR_NAME} is stale or missing"
            )
        return engine

    @staticmethod
    def _read_manifest(root: pathlib.Path) -> Optional[dict]:
        """The stored ``sharding.json``, or ``None`` for a fresh root.

        Raises:
            PersistenceError: naming the file, when it is not a JSON
                object with an integer (not bool) ``format`` and ``shards``
                and a ``partitioner`` state object.
        """
        manifest_path = root / MANIFEST_NAME
        if not manifest_path.exists():
            return None
        try:
            manifest = json.loads(manifest_path.read_text())
        except (ValueError, RecursionError) as error:
            raise PersistenceError(
                f"sharding manifest {manifest_path} is not valid JSON "
                f"({error}); restore it or start from a fresh state dir"
            ) from error
        if not (
            isinstance(manifest, dict)
            and type(manifest.get("format")) is int
            and type(manifest.get("shards")) is int
            and isinstance(manifest.get("partitioner"), dict)
        ):
            raise PersistenceError(
                f"sharding manifest {manifest_path} is malformed: expected "
                "an object with integer 'format' and 'shards' and a "
                "'partitioner' object"
            )
        return manifest

    @staticmethod
    def _write_manifest(root: pathlib.Path, manifest: dict) -> None:
        """Atomically replace ``sharding.json`` (tmp file, fsync, rename)."""
        tmp = root / (MANIFEST_NAME + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(manifest, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, root / MANIFEST_NAME)

    @classmethod
    def _check_manifest(
        cls, root: pathlib.Path, shards: int, partitioner: Partitioner
    ) -> None:
        """Create or validate the state root's ``sharding.json``."""
        expected = {
            "format": MANIFEST_FORMAT,
            "shards": shards,
            "partitioner": partitioner.to_state(),
            "ingest": "routed",
        }
        stored = cls._read_manifest(root)
        if stored is None:
            root.mkdir(parents=True, exist_ok=True)
            cls._write_manifest(root, expected)
            return
        if stored["format"] != MANIFEST_FORMAT:
            raise PersistenceError(
                f"sharding manifest {root / MANIFEST_NAME} has format "
                f"{stored['format']}, but this build reads format "
                f"{MANIFEST_FORMAT}; start from a fresh state dir (format 1 "
                "was written when every shard consumed the raw stream)"
            )
        if stored != expected:
            raise PersistenceError(
                f"sharding manifest {root / MANIFEST_NAME} records "
                f"{stored['shards']} shards and partitioner "
                f"{stored['partitioner']}, but "
                f"{shards}/{partitioner.to_state()} were requested; "
                "reopen with matching settings or a fresh state dir"
            )
        # Re-check the partitioner round-trips (guards registry drift).
        partitioner_from_state(stored["partitioner"])

    @staticmethod
    def _probe_algorithms(probe) -> Dict[str, SIMAlgorithm]:
        """``{query name: algorithm}`` of a probe build, vetted for sharding.

        Shards are fed pre-resolved slides, so every query must override
        the resolved absorb hook; filtered queries observe raw actions
        (their predicates run on the action, not its influence records)
        and cannot.
        """
        if isinstance(probe, MultiQueryEngine):
            algorithms = {name: probe.get(name) for name in probe.names()}
            if not algorithms:
                raise ShardingError("the probe board registers no queries")
            supported = probe.supports_resolved()
        elif isinstance(probe, SIMAlgorithm):
            algorithms = {"main": probe}
            supported = (
                type(probe)._on_slide_resolved
                is not SIMAlgorithm._on_slide_resolved
            )
        else:
            raise ShardingError(
                f"factory(None) must build a SIMAlgorithm or "
                f"MultiQueryEngine, got {type(probe).__name__}"
            )
        if not supported:
            raise ShardingError(
                "a sharded engine feeds its shards pre-resolved slides, "
                "which this board cannot absorb (filtered queries need the "
                "raw actions; only IC/SIC-style algorithms apply resolved "
                "records); run this board unsharded"
            )
        return algorithms

    @staticmethod
    def _probe_retention(algorithms) -> Optional[int]:
        """The facade resolver's retention horizon from the probe board.

        The resolver's forest feeds *every* shard algorithm, so it must
        retain at least as much history as the most demanding one:
        ``None`` (unbounded) if any algorithm is unbounded, else the
        maximum retention.
        """
        retentions = [
            a.config_state()["config"].get("retention") for a in algorithms
        ]
        if any(r is None for r in retentions):
            return None
        return max(retentions)

    # -- streaming ---------------------------------------------------------

    def process(self, batch: Sequence[Action]) -> None:
        """Feed one slide to the shards: resolve once, route owned records.

        The batch must be strictly ascending and beyond the facade clock
        (the minimum shard clock).  A shard that is *ahead* — possible
        after a crash that hit shards at different positions — receives
        only the work beyond its own clock, so at-least-once redelivery
        heals the lag instead of tripping the per-shard stream contract.

        The facade write-ahead-logs the raw slide, resolves it exactly
        once through its :class:`~repro.core.resolve.SlideResolver`,
        partitions the resolved influence tuples by owning influencer and
        sends each shard only its routed records.

        A shard worker that dies or hangs during the call is healed in
        place by the supervisor (restart from its snapshot + WAL, then
        redeliver the work beyond its recovered clock); the caller sees
        :class:`ShardingError` only after the retry budget is exhausted.
        """
        if self._closed:
            raise ShardingError("sharded engine is closed")
        batch = list(batch)
        if not batch:
            return
        last = self.now
        for action in batch:
            if action.time <= last:
                raise ValueError(
                    f"engine received out-of-order action {action.time} "
                    f"after {last}"
                )
            last = action.time
        payloads, repayload = self._routed_fanout(batch)
        incidents = [slides + 1 for slides in self._shard_slides]
        busy_before = list(self._busy_seconds)
        fanout_started = time.perf_counter()
        with self._lock:
            replies = self._supervisor.call(
                "apply",
                payloads,
                heal=True,
                repayload=repayload,
                incident_slides=incidents,
            )
        self._absorb_infos(replies)
        record_stage(
            "shard_fanout", time.perf_counter() - fanout_started, len(batch)
        )
        deltas = [
            self._busy_seconds[shard] - busy_before[shard]
            for shard, info in enumerate(replies)
            if info is not None
        ]
        if len(deltas) > 1:
            self.last_straggler_seconds = max(deltas) - min(deltas)
        if self._publish_hooks:
            merge_started = time.perf_counter()
            answers = self.query_all()
            record_stage(
                "shard_merge", time.perf_counter() - merge_started, len(answers)
            )
            for hook in self._publish_hooks:
                hook(answers)

    def _routed_fanout(self, batch: List[Action]):
        """Resolve once, partition by influencer, build per-shard payloads.

        Every shard behind the slide receives a payload — even one whose
        projected record list is empty: checkpoints must open at the
        slide's *global* start and the absorption ledger counts the
        global ``L``, which is what keeps sharded answers identical to
        S standalone shard engines each fed the raw stream.  Only a shard
        already at or beyond the slide's end (post-crash redelivery) is
        skipped.
        """
        resolve_started = time.perf_counter()
        resolved = self._resolver.log_and_resolve(batch)
        record_stage(
            "resolve", time.perf_counter() - resolve_started, len(batch)
        )
        route_started = time.perf_counter()
        parts = partition_slide(resolved, self._partitioner)

        def part_beyond(shard: int, now: int):
            """The shard's share of the slide beyond clock ``now``, if any."""
            if now >= resolved.last:
                return None
            if now < resolved.start:
                return parts[shard]
            # Mid-slide catch-up: slice the *global* slide beyond the
            # shard clock, then narrow to owned influencers.
            owns = ShardAssignment(self._partitioner, shard).owns
            suffix = resolved.slice_after(now).project(owns)
            return suffix if suffix.count else None

        sent = [
            part_beyond(shard, now) for shard, now in enumerate(self._shard_nows)
        ]
        payloads = [_SKIP if part is None else part.to_wire() for part in sent]
        self.last_routed_records = sum(
            len(part.records) for part in sent if part is not None
        )
        record_stage(
            "route",
            time.perf_counter() - route_started,
            self.last_routed_records,
        )

        def repayload(shard: int, restored: dict):
            part = part_beyond(shard, restored["now"])
            return _SKIP if part is None else part.to_wire()

        return payloads, repayload

    def _absorb_infos(self, replies: Sequence[Optional[dict]]) -> None:
        """Update cached per-shard positions from command replies.

        ``info["actions"]`` counts what the shard *consumed* — its routed
        records; the stream-global action count lives in the resolver.
        """
        for shard, info in enumerate(replies):
            if info is None:
                continue
            self._shard_nows[shard] = info["now"]
            self._shard_slides[shard] = info["slides"]
            self._snapshots[shard] = info["snapshots_written"]
            self._shard_records[shard] = info["actions"]
            busy = float(info.get("busy_seconds", 0.0))
            delta = busy - self._busy_last_seen[shard]
            if delta < 0:
                # The worker restarted: its counter began again at zero.
                delta = busy
            self._busy_seconds[shard] += delta
            self._busy_last_seen[shard] = busy

    # -- reads -------------------------------------------------------------

    def query_all(self) -> Dict[str, SIMResult]:
        """Merged answers of every query (the merge-on-read read path).

        Degrades instead of failing: a shard that is down (or dies during
        the call) contributes nothing, survivors are merged as usual, and
        :attr:`degraded` turns on until the shard heals.  Raises
        :class:`ShardingError` only when *no* shard can answer.
        """
        if self._closed:
            raise ShardingError("sharded engine is closed")
        with self._lock:
            gathered = self._supervisor.call(
                "answers", [None] * self.shard_count, heal=False
            )
        per_shard = [
            self._decode_answers(shard, payload)
            for shard, payload in enumerate(gathered)
            if payload is not None
        ]
        by_query = answers_by_query(per_shard)
        merged: Dict[str, SIMResult] = {}
        for name, (k, func) in self._merge_params.items():
            merged[name] = merge_shard_answers(
                by_query.get(name, []), k=k, func=func, time=self.now
            )
        return merged

    @staticmethod
    def _decode_answers(shard: int, payload: dict) -> Dict[str, ShardAnswer]:
        """Rebuild :class:`~repro.sharding.merge.ShardAnswer` objects."""
        decoded = {}
        for name, entry in payload.items():
            candidates = None
            if entry["candidates"] is not None:
                candidates = tuple(
                    SeedCandidate(user=user, coverage=frozenset(coverage))
                    for user, coverage in entry["candidates"]
                )
            decoded[name] = ShardAnswer(
                shard=shard,
                time=entry["time"],
                seeds=frozenset(entry["seeds"]),
                value=entry["value"],
                candidates=candidates,
            )
        return decoded

    def query(self) -> SIMResult:
        """The merged answer (single-query engines answer as ``"main"``)."""
        answers = self.query_all()
        if not self._multi:
            return answers["main"]
        if len(answers) == 1:
            return next(iter(answers.values()))
        raise ShardingError(
            f"query() is ambiguous on a board of {len(answers)} queries; "
            "use query_all() or algorithm.query(name)"
        )

    # -- supervision -------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """Whether any shard is down — reads are on survivor answers."""
        return self._supervisor.degraded

    @property
    def degraded_shards(self) -> List[int]:
        """Ids of the shards currently down/healing."""
        return self._supervisor.degraded_shards

    @property
    def heal_histogram(self):
        """The supervisor's heal-duration histogram (telemetry scrape)."""
        return self._supervisor.heal_hist

    def supervision_stats(self) -> dict:
        """Supervisor counters plus per-shard health and last-known clocks.

        Per-shard entries report the work each shard actually consumed
        (``routed_records``, the influence tuples it was sent); the
        ``resolver`` block carries the facade resolver's position.
        """
        stats = self._supervisor.stats()
        states = self._supervisor.shard_states()
        for state in states:
            shard = state["shard"]
            state["last_known_now"] = self._shard_nows[shard]
            state["busy_seconds"] = round(self._busy_seconds[shard], 6)
            state["slides"] = self._shard_slides[shard]
            state["routed_records"] = self._shard_records[shard]
        stats["shards"] = states
        stats["straggler_seconds"] = round(self.last_straggler_seconds, 6)
        stats["resolver"] = {
            "now": self._resolver.now,
            "actions_processed": self._resolver.actions_processed,
            "slides": self._resolver.slides_processed,
            "replayed": self._resolver.replayed_slides,
        }
        stats["last_routed_records"] = self.last_routed_records
        return stats

    def heal(self) -> bool:
        """Restart every down shard now; ``True`` when something healed.

        Raises:
            ShardingError: when a down shard cannot be healed (retry
                budget exhausted, or no durable state).
        """
        if self._closed:
            raise ShardingError("sharded engine is closed")
        with self._lock:
            restored = self._supervisor.heal_all(
                incident_slides=list(self._shard_slides)
            )
        self._absorb_infos(restored)
        return any(info is not None for info in restored)

    # -- durability --------------------------------------------------------

    def snapshot(self) -> None:
        """Write a full-state snapshot on every shard (and the resolver) now."""
        if self._state_root is None:
            raise PersistenceError("engine has no state store to snapshot to")
        self._resolver.snapshot()
        with self._lock:
            replies = self._supervisor.call(
                "snapshot",
                [None] * self.shard_count,
                heal=True,
                incident_slides=list(self._shard_slides),
            )
        self._absorb_infos(replies)

    def close(self, snapshot: bool = True) -> None:
        """Seal every shard (final snapshot by default) and stop workers.

        Idempotent; worker failures during close are swallowed after the
        first attempt so a crashed shard never blocks releasing the rest.
        """
        if self._closed:
            return
        self._closed = True
        try:
            with self._lock:
                self._supervisor.call(
                    "close", [snapshot] * self.shard_count, heal=False
                )
        except ShardingError:
            # A dead shard cannot seal; its WAL already covers recovery.
            pass
        finally:
            self._backend.stop()
            self._resolver.close(snapshot=snapshot)

    def __enter__(self) -> "ShardedEngine":
        """Context-manager entry: the engine itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close on exit; skip the final snapshot after an exception."""
        self.close(snapshot=exc_type is None)

    # -- introspection -----------------------------------------------------

    @property
    def algorithm(self) -> ShardedBoard:
        """The merged query board (the serving plane's write-side contract)."""
        return self._board

    @property
    def partitioner(self) -> Partitioner:
        """The influencer partitioner shared by all shards."""
        return self._partitioner

    @property
    def shard_count(self) -> int:
        """Number of shard engines."""
        return self._partitioner.shards

    @property
    def backend_name(self) -> str:
        """Which worker backend runs the shards."""
        return self._backend.name

    @property
    def shard_routed_records(self) -> List[int]:
        """Per-shard routed records consumed."""
        return list(self._shard_records)

    @property
    def worker_pids(self) -> Optional[List[Optional[int]]]:
        """Shard worker process ids (``None`` for in-process backends)."""
        return self._backend.pids

    @property
    def now(self) -> int:
        """The facade stream clock: the *minimum* shard clock.

        Using the minimum keeps at-least-once redelivery sound after a
        crash that left shards at different positions: the serving plane
        drops actions at or below this clock, and anything newer is
        forwarded per shard with the catch-up filter of :meth:`process`.
        A down shard contributes its last-known clock, so a degraded
        answer is honestly timestamped at the healing shard's position.
        """
        return min(self._shard_nows, default=0)

    @property
    def slides_processed(self) -> int:
        """Engine slides at the most advanced shard."""
        return max(self._shard_slides, default=0)

    @property
    def actions_processed(self) -> int:
        """Stream actions consumed (global).

        Read from the facade resolver — shard counters count routed
        records, not stream actions.
        """
        return self._resolver.actions_processed

    @property
    def replayed_slides(self) -> int:
        """WAL slides replayed at open by the slowest-recovering shard."""
        return max(self._replayed, default=0)

    @property
    def shard_replayed_slides(self) -> List[int]:
        """Per-shard WAL replay counts from the last :meth:`open`."""
        return list(self._replayed)

    @property
    def snapshots_written(self) -> int:
        """Snapshots written across all shards by this engine instance."""
        return sum(self._snapshots)

    @property
    def store(self) -> Optional[pathlib.Path]:
        """The sharded state root (``None`` for in-memory engines)."""
        return self._state_root
