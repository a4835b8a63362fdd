"""The single-writer ingest loop: coalesce actions into slides, feed the engine.

Exactly one asyncio task (the *writer*) consumes the bounded ingest queue
and is the only code that ever calls ``engine.process``.  Connection
handlers ``await submit_run(...)``, one queue item per run of actions; the
bound counts actions, and a run that does not fit blocks its reader, so
TCP backpressure reaches the client — the server never buffers
unboundedly and never drops an accepted action.

Arriving actions are coalesced into slides of at most ``slide`` actions
(the serving plane's ``L``).  A full slide flushes immediately; a partial
slide flushes after ``flush_interval`` seconds so answers stay fresh on a
trickling stream.  The writer takes one run per ``get_nowait()`` and walks
its actions in a local loop, checking the pending slide's deadline before
each one; it awaits the queue only when it is empty — a plain ``get()``
with nothing pending, one ``wait_for`` bounded by the deadline otherwise —
so a busy stream pays no task, timer or queue operation per action.

Each flush is one engine slide: WAL-logged ahead by the
:class:`~repro.persistence.engine.RecoverableEngine`, processed, and
published to the immutable :class:`~repro.service.cache.AnswerCache` at the
slide boundary (via the :class:`~repro.core.multi.MultiQueryEngine` publish
hook when a board is being served).  The CPU-heavy ``process`` call runs in
a worker thread so the event loop keeps answering reads mid-slide.

Actions whose time is at or below the engine's stream clock are dropped
(and counted) instead of rejected: at-least-once redelivery — a client
replaying its stream after a server crash — is thereby idempotent, which
is what makes ``kill -9`` + restart + replay converge to the uninterrupted
answers.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.core.actions import Action
from repro.core.base import SIMResult
from repro.core.multi import MultiQueryEngine
from repro.experiments.metrics import RateEstimator
from repro.persistence.engine import RecoverableEngine
from repro.service.cache import AnswerBoard, AnswerCache
from repro.sharding.supervisor import ShardingError
from repro.telemetry import MetricsRegistry, TraceRecorder
from repro.telemetry.trace import record_stage

__all__ = ["IngestStats", "IngestLoop", "as_board"]


def as_board(algorithm):
    """The multi-query board face of an engine's algorithm, or ``None``.

    Both :class:`~repro.core.multi.MultiQueryEngine` and the sharded
    plane's :class:`~repro.sharding.engine.ShardedBoard` satisfy the board
    protocol (``names``/``query``/``query_all``/``query_stats``/
    ``add_publish_hook``); plain single-query algorithms do not and are
    served under the implicit name ``"main"``.
    """
    if isinstance(algorithm, MultiQueryEngine):
        return algorithm
    if all(
        hasattr(algorithm, attr)
        for attr in ("names", "query_all", "query_stats", "add_publish_hook")
    ):
        return algorithm
    return None


class IngestStats:
    """Mutable counters owned by the writer; metrics snapshots read them."""

    def __init__(self) -> None:
        self.accepted = 0  # actions admitted into a slide
        self.dropped_stale = 0  # actions at/below the stream clock
        self.rejected_lines = 0  # unparseable ingest lines (server-side)
        self.slides = 0  # flushes that reached the engine
        self.count_flushes = 0  # flushes triggered by a full slide
        self.interval_flushes = 0  # flushes triggered by the timer
        self.forced_flushes = 0  # flushes triggered by sync/stop
        self.writer_retries = 0  # slides re-dispatched after ShardingError
        self.last_slide_seconds = 0.0
        self.engine_seconds = 0.0
        self.started_at = time.time()  # wall clock, display only
        self.started_monotonic = time.monotonic()  # all arithmetic
        # One estimator backs both reported rates: decayed (EWMA) for
        # "how fast right now", lifetime for "how fast overall".
        self.rate = RateEstimator(halflife=10.0)

    def snapshot(self) -> dict:
        """JSON-safe counter snapshot for ``/metrics``."""
        slides = self.slides
        return {
            "accepted": self.accepted,
            "dropped_stale": self.dropped_stale,
            "rejected_lines": self.rejected_lines,
            "slides": slides,
            "count_flushes": self.count_flushes,
            "interval_flushes": self.interval_flushes,
            "forced_flushes": self.forced_flushes,
            "writer_retries": self.writer_retries,
            "last_slide_seconds": round(self.last_slide_seconds, 6),
            "mean_slide_seconds": round(
                self.engine_seconds / slides if slides else 0.0, 6
            ),
            "ingest_rate_actions_per_sec": round(self.rate.rate, 1),
            "lifetime_rate_actions_per_sec": round(self.rate.lifetime_rate, 1),
        }


class _Sync:
    """Queue sentinel: flush pending work, then set the event (barrier)."""

    __slots__ = ("event",)

    def __init__(self) -> None:
        self.event = asyncio.Event()


class _Flush:
    """Queue sentinel: flush pending work, no barrier."""

    __slots__ = ()


_STOP = object()


class _RunQueue(asyncio.Queue):
    """The ingest queue of ``(enqueued_at, actions)`` runs and controls:
    the bound and :meth:`qsize` count actions, a control counts none."""

    def _init(self, maxsize: int) -> None:
        super()._init(maxsize)
        self._actions = 0
        self.room = asyncio.Event()  # set by every get and by writer death

    def _put(self, item) -> None:
        super()._put(item)
        if type(item) is tuple:
            self._actions += len(item[1])

    def _get(self):
        item = super()._get()
        if type(item) is tuple:
            self._actions -= len(item[1])
        self.room.set()
        return item

    def qsize(self) -> int:
        return self._actions


class IngestLoop:
    """Bounded-queue, slide-coalescing, single-writer engine feeder."""

    def __init__(
        self,
        engine: RecoverableEngine,
        cache: AnswerCache,
        *,
        slide: int = 32,
        flush_interval: float = 0.5,
        queue_capacity: int = 4096,
        writer_retries: int = 2,
        recorder: Optional[TraceRecorder] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        """
        Args:
            engine: The (possibly durable) engine; this loop becomes its
                only writer.
            cache: Answer cache to publish each slide boundary into.
            slide: Maximum actions per coalesced slide (>= 1).
            flush_interval: Seconds before a partial slide is flushed.
            queue_capacity: Ingest queue bound, in actions (backpressure).
            writer_retries: Extra ``engine.process`` attempts after a
                :class:`~repro.sharding.ShardingError` before the writer
                dies (safe: the sharded engine's per-shard catch-up
                filter makes redelivering the same slide idempotent).
            recorder: Per-slide stage-trace recorder (``None`` disables
                tracing entirely; library use pays nothing).
            registry: Metrics registry for the queue-wait histogram.
        """
        if slide < 1:
            raise ValueError(f"slide must be >= 1, got {slide}")
        if flush_interval <= 0:
            raise ValueError(
                f"flush_interval must be positive, got {flush_interval}"
            )
        if queue_capacity < 1:
            # asyncio.Queue(0) is unbounded: backpressure would silently go.
            raise ValueError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        if writer_retries < 0:
            raise ValueError(
                f"writer_retries must be >= 0, got {writer_retries}"
            )
        self._engine = engine
        self._cache = cache
        self._slide = slide
        self._flush_interval = flush_interval
        self._writer_retries = writer_retries
        self._queue = _RunQueue(queue_capacity)
        # Slides run on this dedicated, *named* worker thread (not the
        # loop's anonymous default executor) so the sampling profiler
        # can attribute engine time to the ingest loop by thread name.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-ingest"
        )
        self._pending: List[Action] = []
        self._floor = engine.now
        self._slide_seq = engine.slides_processed
        self._task: Optional[asyncio.Task] = None
        self._error: Optional[BaseException] = None
        self.stats = IngestStats()
        self.recorder = recorder
        self._queue_wait_hist = (
            registry.histogram(
                "repro_ingest_queue_wait_seconds",
                "Per-action wait in the bounded ingest queue",
            )
            if registry is not None
            else None
        )
        # Accumulated queue wait of the actions in the pending slide, and
        # when the pending slide started coalescing (event-loop clock).
        self._pending_wait = 0.0
        self._pending_since = 0.0
        self._multi = as_board(engine.algorithm)
        if self._multi is not None:
            # Publication rides the engine's own slide boundary: the hook
            # fires inside process(), after every query advanced.
            self._multi.add_publish_hook(self._publish)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the writer task on the running event loop."""
        if self._task is not None:
            raise RuntimeError("ingest loop already started")
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Flush pending work and stop the writer task."""
        if self._task is None:
            self._executor.shutdown(wait=False)
            return
        if not self._task.done():
            await self._queue.put(_STOP)
        await self._task
        self._task = None
        self._executor.shutdown(wait=True)

    @property
    def error(self) -> Optional[BaseException]:
        """The writer's fatal error, if it died (``None`` while healthy)."""
        return self._error

    @property
    def queue_depth(self) -> int:
        """Actions currently queued."""
        return self._queue.qsize()

    @property
    def queue_capacity(self) -> int:
        """The ingest queue bound, in actions."""
        return self._queue.maxsize

    @property
    def slides_processed(self) -> int:
        """Engine slides dispatched by this loop (plus any recovered ones)."""
        return self._slide_seq

    def publish_recovered(self) -> None:
        """Publish the recovered engine's current board (warm-start reads).

        Called once at service start, before any connection is accepted,
        so a restarted server answers top-k from its restored state
        immediately instead of 503-ing until the first new slide arrives.
        """
        if self._engine.slides_processed == 0:
            return
        algorithm = self._engine.algorithm
        if self._multi is not None:
            results = self._multi.query_all()
        else:
            results = {"main": algorithm.query()}
        self._publish(results)

    # -- producer side (connection handlers) -------------------------------

    async def submit(self, action: Action) -> None:
        """Enqueue one action (a run of one)."""
        await self.submit_run([action])

    async def submit_run(self, actions: List[Action]) -> None:
        """Enqueue a run of actions as one queue item; blocks while it does
        not fit under ``queue_capacity`` actions (longer runs go in pieces)."""
        queue = self._queue
        enqueued_at = asyncio.get_running_loop().time()
        size = queue.maxsize
        for start in range(0, len(actions), size):
            piece = actions[start : start + size]
            # Re-checked after every wake: a dead writer never makes room.
            while self._error is None and queue.qsize() + len(piece) > size:
                queue.room.clear()
                await queue.room.wait()
            if self._error is not None:
                raise RuntimeError(f"ingest loop failed: {self._error}")
            queue.put_nowait((enqueued_at, piece))

    async def sync(self) -> None:
        """Barrier: flush pending actions and wait until they are processed.

        Everything submitted before this call is on disk (when durable) and
        reflected in the published answers when it returns.
        """
        if self._error is not None:
            raise RuntimeError(f"ingest loop failed: {self._error}")
        item = _Sync()
        await self._queue.put(item)
        if self._error is not None:
            # The writer may have died while this put was blocked on a
            # full queue — after its one-shot drain, nobody would ever
            # consume the item, so wake ourselves instead of hanging.
            item.event.set()
        await item.event.wait()
        if self._error is not None:
            raise RuntimeError(f"ingest loop failed: {self._error}")

    async def request_flush(self) -> None:
        """Ask the writer to flush its partial slide (no barrier)."""
        if self._error is not None:
            raise RuntimeError(f"ingest loop failed: {self._error}")
        await self._queue.put(_Flush())

    # -- the writer --------------------------------------------------------

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        queue = self._queue
        deadline = 0.0  # of the pending slide; read only while one is pending
        try:
            while True:
                # Checked before every item and action, so an expired
                # partial slide flushes even while the queue never empties
                # (queued items are taken without a timer).
                if self._pending and loop.time() >= deadline:
                    await self._flush("interval")
                    continue
                try:
                    item = queue.get_nowait()
                except asyncio.QueueEmpty:
                    if not self._pending:
                        item = await queue.get()
                    else:
                        try:
                            item = await asyncio.wait_for(
                                queue.get(), deadline - loop.time()
                            )
                        except asyncio.TimeoutError:  # builtin alias on 3.11+
                            await self._flush("interval")
                            continue
                if item is _STOP:
                    await self._flush("forced")
                    return
                if isinstance(item, _Flush):
                    await self._flush("forced")
                    continue
                if isinstance(item, _Sync):
                    try:
                        await self._flush("forced")
                    finally:
                        # A failing flush must still wake the barrier (the
                        # error is recorded before the waiter resumes, so
                        # sync() re-raises it instead of hanging).
                        item.event.set()
                    continue
                # A run's actions leave the queue together: one wait each.
                enqueued_at, run = item
                waited = loop.time() - enqueued_at
                if self._queue_wait_hist is not None:
                    self._queue_wait_hist.observe(waited, len(run))
                for action in run:
                    if self._pending and loop.time() >= deadline:
                        await self._flush("interval")
                    if action.time <= self._floor:
                        self.stats.dropped_stale += 1
                        continue
                    self._floor = action.time
                    if not self._pending:
                        deadline = loop.time() + self._flush_interval
                        self._pending_since = loop.time()
                    self._pending.append(action)
                    self._pending_wait += waited
                    self.stats.accepted += 1
                    if len(self._pending) >= self._slide:
                        await self._flush("count")
        except BaseException as error:  # writer death must not hang clients
            # Record and swallow: the failure is surfaced to producers via
            # submit()/sync() and to readers via /healthz, and a swallowed
            # (rather than re-raised) exception keeps the task retrievable
            # so stop() still joins cleanly after a failure.
            self._error = error
            self._release_waiters()

    def _release_waiters(self) -> None:
        """Wake sync barriers and blocked runs after a writer failure."""
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if isinstance(item, _Sync):
                item.event.set()
        self._queue.room.set()

    async def _flush(self, reason: str) -> None:
        """Dispatch the pending slide to the engine (in a worker thread)."""
        if not self._pending:
            return
        loop = asyncio.get_running_loop()
        batch = self._pending
        # Stages observed on the event-loop side, handed to the trace the
        # worker thread opens: per-action queue wait and how long the
        # slide sat coalescing before this dispatch.
        pre_stages: Tuple[Tuple[str, float, int], ...] = (
            ("queue_wait", self._pending_wait, len(batch)),
            ("coalesce", loop.time() - self._pending_since, len(batch)),
        )
        self._pending = []
        self._pending_wait = 0.0
        self._slide_seq += 1
        elapsed = await loop.run_in_executor(
            self._executor, self._run_slide, batch, pre_stages
        )
        self.stats.slides += 1
        setattr(
            self.stats, f"{reason}_flushes",
            getattr(self.stats, f"{reason}_flushes") + 1,
        )
        self.stats.last_slide_seconds = elapsed
        self.stats.engine_seconds += elapsed
        self.stats.rate.record(len(batch))

    def _run_slide(
        self,
        batch: List[Action],
        pre_stages: Tuple[Tuple[str, float, int], ...] = (),
    ) -> float:
        """Worker-thread body: process one slide and publish its answers.

        Opens the slide's :class:`~repro.telemetry.SlideTrace` (ambient,
        per-thread) so every layer underneath — core algorithm, columnar
        kernel, persistence, sharding facade — records its stage into
        this slide's timeline without plumbing.

        A :class:`~repro.sharding.ShardingError` (a sharded engine whose
        supervision budget ran out mid-slide) is retried up to
        ``writer_retries`` times — each retry gives the supervisor a
        fresh budget, and redelivery is idempotent because every shard
        only consumes the suffix beyond its own clock.  Any other
        failure (or exhausting the retries) kills the writer as before.
        """
        recorder = self.recorder
        trace = None
        if recorder is not None:
            trace = recorder.begin(self._slide_seq, len(batch))
            for name, seconds, items in pre_stages:
                trace.add_stage(name, seconds, items)
        started = time.perf_counter()
        try:
            attempts = 0
            while True:
                try:
                    self._engine.process(batch)
                    break
                except ShardingError:
                    if attempts >= self._writer_retries:
                        raise
                    attempts += 1
                    self.stats.writer_retries += 1
            if self._multi is None:
                self._publish({"main": self._engine.query()})
        except BaseException:
            if recorder is not None:
                recorder.abandon(trace)
            raise
        if recorder is not None:
            recorder.finish(trace)
        return time.perf_counter() - started

    def _publish(self, results: Dict[str, SIMResult]) -> None:
        """Freeze and swap the answer board for the slide just processed."""
        publish_started = time.perf_counter()
        self._cache.publish(
            AnswerBoard.from_results(
                results,
                slide=self._slide_seq,
                time=self._engine.now,
                published_at=time.time(),
                published_monotonic=time.monotonic(),
            )
        )
        record_stage(
            "publish", time.perf_counter() - publish_started, len(results)
        )
