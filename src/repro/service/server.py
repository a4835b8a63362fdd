"""The asyncio ingest/query server: one port, two protocols.

:class:`ReproService` listens on a single TCP port and sniffs each
connection's first line:

* a line starting with ``{`` or ``[`` speaks the **ingest line protocol**
  — one JSON action per line (``{"time": t, "user": u, "parent": p}`` or
  the compact ``[t, u, p]`` triple), or one JSON *array of actions* per
  line (``[[t1,u1,p1],[t2,u2,p2],...]`` — the batched wire format, one
  syscall and one parse per batch).  Acks count actions, not lines, and
  fire once per crossed ``ack_every`` boundary.  Two control commands
  ride the same stream: ``{"cmd": "flush"}`` forces the partial slide
  out and ``{"cmd": "sync"}`` is a barrier that answers with the engine
  position once everything submitted before it is processed and
  published.  The connection reads what its socket has buffered, 64 KiB
  at a time; a :class:`~repro.service.wire.WireDecoder` turns it into
  runs of actions, each queued to the writer as one item, and the
  commands, acks and error replies between them;
* anything else is parsed as an **HTTP request** — the lock-free read
  path.  ``GET /healthz``, ``GET /metrics``, ``GET /queries``,
  ``GET /queries/<name>/topk`` and ``GET /queries/<name>/history?limit=n``
  are answered as JSON from the immutable published-answer cache (and,
  for metrics, from monotonically-updated scalar counters — reads the GIL
  makes atomic); readers never touch the engine and never block the
  writer.

Shutdown is graceful: on SIGTERM/SIGINT (or
:meth:`ReproService.request_shutdown`) the server stops accepting, stops
the ingest loop (flushing the partial slide), and closes the engine —
which seals a durable engine with a final snapshot, so the next start
replays zero WAL slides.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from typing import Callable, Optional, Tuple
from urllib.parse import unquote

from repro.persistence.engine import RecoverableEngine
from repro.service.cache import AnswerCache
from repro.service.config import ServiceConfig
from repro.service.ingest import IngestLoop, as_board
from repro.service.wire import LINE_LIMIT, WireDecoder
from repro.telemetry import (
    MetricsFlightRecorder,
    MetricsRegistry,
    SamplingProfiler,
    TraceLog,
    TraceRecorder,
    render_prometheus,
)
from repro.telemetry.profiler import collapse_counts
from repro.telemetry.timeseries import resolutions_for
from repro.telemetry.prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from repro.telemetry.slo import AlertLog, SLOMonitor, default_slos, parse_slo_spec

__all__ = ["ReproService"]

_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    503: "Service Unavailable",
    500: "Internal Server Error",
}


def _encode_json_line(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


class ReproService:
    """Serve one engine: single-writer ingest, lock-free snapshot reads."""

    def __init__(self, engine: RecoverableEngine, config: ServiceConfig):
        """
        Args:
            engine: The engine to serve — typically a
                :class:`~repro.persistence.engine.RecoverableEngine`
                wrapping a :class:`~repro.core.multi.MultiQueryEngine`
                board (durable when opened with a state dir).
            config: Serving-plane knobs.
        """
        self._engine = engine
        self._config = config
        self._cache = AnswerCache(history=config.history)
        self._registry = MetricsRegistry()
        self._trace_log = (
            TraceLog(config.trace_log) if config.trace_log else None
        )
        self._recorder = TraceRecorder(
            capacity=config.trace_ring,
            slow_slide_ms=config.slow_slide_ms,
            trace_log=self._trace_log,
            registry=self._registry,
        )
        self._ingest = IngestLoop(
            engine,
            self._cache,
            slide=config.slide,
            flush_interval=config.flush_interval,
            queue_capacity=config.queue_capacity,
            writer_retries=config.writer_retries,
            recorder=self._recorder,
            registry=self._registry,
        )
        self._multi = as_board(engine.algorithm)
        # Retained observability: flight recorder -> SLO monitor ->
        # profiler.  The recorder's pre-sample hook is _sync_registry so
        # every mirrored scalar becomes a retained series; the SLO
        # monitor evaluates as its post-sample hook, on the sampler
        # thread, right after fresh points land.
        self._alert_log = (
            AlertLog(config.alert_log) if config.alert_log else None
        )
        slos = list(default_slos()) if config.slo_defaults else []
        slos.extend(parse_slo_spec(spec) for spec in config.slo_specs)
        self._flight: Optional[MetricsFlightRecorder] = None
        self._slo_monitor: Optional[SLOMonitor] = None
        if config.flight_recorder:
            self._flight = MetricsFlightRecorder(
                self._registry,
                interval=config.sample_interval,
                resolutions=resolutions_for(config.sample_interval),
                pre_sample=self._sync_registry,
                post_sample=self._evaluate_slos,
            )
            self._slo_monitor = SLOMonitor(
                self._flight,
                slos,
                alert_log=self._alert_log,
                registry=self._registry,
            )
        self._profiler = SamplingProfiler(hz=config.profile_hz)
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown = asyncio.Event()
        self._connections: set = set()
        self._started_at = time.time()
        self._started_monotonic = time.monotonic()
        self._port: Optional[int] = None
        self._wire_telemetry()

    def _wire_telemetry(self) -> None:
        """Graft layer-owned histograms into the registry (scrape-once)."""
        registry = self._registry
        fsync_hist = getattr(self._engine, "fsync_hist", None)
        if fsync_hist is not None:
            registry.attach(
                "repro_wal_fsync_seconds",
                "histogram",
                fsync_hist,
                "WAL append + fsync latency per durable slide",
            )
        snapshot_hist = getattr(self._engine, "snapshot_hist", None)
        if snapshot_hist is not None:
            registry.attach(
                "repro_snapshot_seconds",
                "histogram",
                snapshot_hist,
                "Full-state snapshot write latency",
            )
        heal_hist = getattr(self._engine, "heal_histogram", None)
        if heal_hist is not None:
            registry.attach(
                "repro_shard_heal_seconds",
                "histogram",
                heal_hist,
                "Shard restart-and-restore (heal) duration",
            )

    # -- introspection -----------------------------------------------------

    @property
    def host(self) -> str:
        """The configured listen address."""
        return self._config.host

    @property
    def port(self) -> Optional[int]:
        """The bound port (resolves a configured port of 0 after start)."""
        return self._port

    @property
    def cache(self) -> AnswerCache:
        """The published-answer cache (the read path's only data source)."""
        return self._cache

    @property
    def ingest(self) -> IngestLoop:
        """The single-writer ingest loop."""
        return self._ingest

    @property
    def engine(self) -> RecoverableEngine:
        """The served engine."""
        return self._engine

    @property
    def registry(self) -> MetricsRegistry:
        """The telemetry registry backing ``/metrics``."""
        return self._registry

    @property
    def recorder(self) -> TraceRecorder:
        """The per-slide stage-trace recorder."""
        return self._recorder

    @property
    def flight_recorder(self) -> Optional[MetricsFlightRecorder]:
        """The retained-metrics sampler (None when disabled)."""
        return self._flight

    @property
    def slo_monitor(self) -> Optional[SLOMonitor]:
        """The burn-rate alert monitor (None when the recorder is off)."""
        return self._slo_monitor

    @property
    def profiler(self) -> SamplingProfiler:
        """The continuous wall-clock sampling profiler."""
        return self._profiler

    def _evaluate_slos(self, t: float) -> None:
        """Flight-recorder post-sample hook: re-evaluate every objective."""
        if self._slo_monitor is not None:
            self._slo_monitor.evaluate(t)

    def query_names(self) -> list:
        """Names the read path serves answers under."""
        if self._multi is not None:
            return self._multi.names()
        return ["main"]

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and spawn the ingest writer."""
        if self._server is not None:
            raise RuntimeError("service already started")
        self._loop = asyncio.get_running_loop()
        # Warm the read path from recovered state so a restarted server
        # answers immediately, even before any new slide arrives.
        await self._loop.run_in_executor(None, self._ingest.publish_recovered)
        self._ingest.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._config.host,
            self._config.port,
            limit=LINE_LIMIT,  # readline()'s: the sniffed first line, HTTP's
        )
        self._port = self._server.sockets[0].getsockname()[1]
        if self._flight is not None:
            self._flight.start()
        if self._config.profile:
            self._profiler.start()

    async def stop(self) -> None:
        """Graceful shutdown: drain, flush, and seal.

        Stops accepting, cancels live connections (producers), flushes the
        ingest loop's partial slide, and closes the engine — a durable
        engine writes its final snapshot here (the shutdown seal).
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        await self._ingest.stop()
        # A dead writer may have left the engine mid-slide; sealing that
        # state would poison recovery.  Skip the final snapshot and let
        # the next open restore the last good snapshot + WAL tail.
        seal = self._ingest.error is None
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: self._engine.close(snapshot=seal)
        )
        if self._flight is not None:
            self._flight.stop()
        self._profiler.stop()
        if self._slo_monitor is not None:
            self._slo_monitor.close()
        self._recorder.close()

    def request_shutdown(self) -> None:
        """Ask :meth:`run` to exit (signal-handler / same-loop safe)."""
        self._shutdown.set()

    def request_shutdown_threadsafe(self) -> None:
        """Ask :meth:`run` to exit from another thread."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._shutdown.set)

    async def run(
        self,
        *,
        install_signal_handlers: bool = True,
        on_ready: Optional[Callable[["ReproService"], None]] = None,
    ) -> None:
        """Start, serve until shutdown is requested, then stop gracefully.

        Args:
            install_signal_handlers: Route SIGTERM/SIGINT to a graceful
                shutdown (the CLI path; embedded runners pass False).
            on_ready: Called once the socket is bound (the port is known).
        """
        await self.start()
        try:
            if install_signal_handlers:
                loop = asyncio.get_running_loop()
                for signum in (signal.SIGTERM, signal.SIGINT):
                    loop.add_signal_handler(signum, self.request_shutdown)
            if on_ready is not None:
                on_ready(self)
            await self._shutdown.wait()
        finally:
            await self.stop()

    # -- connection handling -----------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            first = await reader.readline()
            if first:
                if first.lstrip()[:1] in (b"{", b"["):
                    await self._serve_ingest(first, reader, writer)
                else:
                    await self._serve_http(first, reader, writer)
        except (
            ConnectionError,
            asyncio.CancelledError,
            ValueError,  # readline() raises it for over-limit lines
        ):
            pass
        finally:
            self._connections.discard(task)
            # A shard worker forked (healed) while this connection was open
            # holds a copy of its socket, so close() alone would never send
            # the peer its EOF; shutdown() does, whoever else holds the fd.
            try:
                writer.write_eof()
            except (OSError, RuntimeError):
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    # -- ingest protocol ---------------------------------------------------

    async def _serve_ingest(self, first: bytes, reader, writer) -> None:
        """Act on a :class:`WireDecoder`'s events for the socket's bytes."""
        ingest = self._ingest
        decoder = WireDecoder(
            ack_every=self._config.ack_every, run_limit=self._config.slide
        )
        data = first
        while True:
            for kind, value in decoder.feed(data):
                if kind == "run":
                    try:
                        await ingest.submit_run(value)
                    except RuntimeError as error:
                        reply = {"error": str(error), "line": decoder.received}
                    else:
                        # Readers and the writer get the loop between runs.
                        await asyncio.sleep(0)
                        continue
                elif kind == "ack":
                    reply = self._ack(value)
                elif kind in ("sync", "flush"):
                    reply = await self._ingest_command(kind, value)
                    if reply is None:
                        continue
                else:  # "error" or "close": a rejected line's reply
                    ingest.stats.rejected_lines += 1
                    reply = value
                writer.write(_encode_json_line(reply))
                await writer.drain()
                if kind == "close":
                    return
            if not data:
                return
            data = await reader.read(1 << 16)

    async def _ingest_command(self, command: str, line: int) -> Optional[dict]:
        """Run ``sync`` or ``flush``; the reply, if the command has one."""
        try:
            if command == "flush":
                await self._ingest.request_flush()
                return None
            await self._ingest.sync()
        except RuntimeError as error:
            return {"error": str(error), "line": line}
        stats = self._ingest.stats
        board = self._cache.board
        return {
            "synced": True,
            "slide": self._ingest.slides_processed,
            "time": self._engine.now,
            "accepted": stats.accepted,
            "dropped_stale": stats.dropped_stale,
            "rejected": stats.rejected_lines,
            "published_slide": board.slide if board is not None else 0,
        }

    def _ack(self, received: int) -> dict:
        stats = self._ingest.stats
        return {
            "acked": received,
            "accepted": stats.accepted,
            "dropped_stale": stats.dropped_stale,
            "rejected": stats.rejected_lines,
        }

    # -- HTTP read path ----------------------------------------------------

    async def _serve_http(self, first: bytes, reader, writer) -> None:
        try:
            parts = first.decode("latin-1").split()
            method, target = parts[0], parts[1]
        except (IndexError, UnicodeDecodeError):
            await self._respond(writer, 400, {"error": "malformed request"})
            return
        # Drain headers (the read path never needs a body), bounded so a
        # client streaming endless header lines cannot pin the task.
        for _ in range(256):
            header = await reader.readline()
            if not header or header in (b"\r\n", b"\n"):
                break
        else:
            await self._respond(writer, 400, {"error": "too many headers"})
            return
        if method != "GET":
            await self._respond(
                writer, 405, {"error": f"method {method} not allowed"}
            )
            return
        if target.partition("?")[0] == "/debug/profile":
            # The only route that must await (it spans a sampling
            # window); everything else stays on the sync dispatch.
            result = await self._route_debug_profile(
                self._parse_target(target)[1]
            )
        else:
            result = self._route(target)
        await self._respond(writer, *result)

    async def _respond(
        self,
        writer,
        status: int,
        payload,
        content_type: Optional[str] = None,
    ) -> None:
        """Write one response; dict payloads are JSON, str is sent raw."""
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = content_type or "text/plain; charset=utf-8"
        else:
            body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
            content_type = content_type or "application/json"
        reason = _HTTP_REASONS.get(status, "OK")
        head = (
            f"HTTP/1.0 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    @staticmethod
    def _parse_target(target: str) -> Tuple[str, dict]:
        """Split one GET target into ``(path, query params)``."""
        path, _, query_string = target.partition("?")
        params = {}
        for pair in query_string.split("&"):
            key, _, value = pair.partition("=")
            if key:
                params[key] = unquote(value)
        return path, params

    def _route(self, target: str) -> tuple:
        """Dispatch one GET target to ``(status, payload[, content_type])``."""
        path, params = self._parse_target(target)
        if path == "/healthz":
            return self._route_healthz()
        if path == "/metrics":
            return self._route_metrics(params)
        if path == "/metrics/prometheus":
            return self._route_metrics({"format": "prometheus"})
        if path == "/metrics/history":
            return self._route_metrics_history(params)
        if path == "/queries":
            return 200, {"queries": self.query_names()}
        segments = [s for s in path.split("/") if s]
        if len(segments) == 3 and segments[0] == "queries":
            name, endpoint = segments[1], segments[2]
            if endpoint == "topk":
                return self._route_topk(name)
            if endpoint == "history":
                return self._route_history(name, params)
        return 404, {"error": f"no route for {path}"}

    def _route_metrics(self, params: dict) -> tuple:
        """``/metrics`` with format negotiation (json default)."""
        fmt = params.get("format", "json")
        if fmt == "json":
            return 200, self._metrics_payload()
        if fmt == "prometheus":
            self._sync_registry()
            return (
                200,
                render_prometheus(self._registry),
                PROMETHEUS_CONTENT_TYPE,
            )
        return 400, {
            "error": f"unknown metrics format {fmt!r}",
            "formats": ["json", "prometheus"],
            "hint": "GET /metrics?format=prometheus or /metrics/prometheus",
        }

    def _route_metrics_history(self, params: dict) -> tuple:
        """``/metrics/history``: retained series from the flight recorder.

        Without ``series`` the response is the catalog (every retained
        series key + recorder stats); with ``series`` it is that series'
        downsampled points, optionally bounded by ``window`` seconds or
        pinned to an exact ``resolution``.
        """
        if self._flight is None:
            return 503, {
                "error": "flight recorder disabled",
                "hint": "start the service with flight_recorder=True",
            }
        series = params.get("series")
        if not series:
            return 200, {
                "series": self._flight.series_names(),
                "recorder": self._flight.stats(),
            }
        window = resolution = None
        try:
            if "window" in params:
                window = float(params["window"])
            if "resolution" in params:
                resolution = float(params["resolution"])
        except ValueError:
            return 400, {
                "error": "window and resolution must be numbers",
                "got": {k: params[k] for k in ("window", "resolution")
                        if k in params},
            }
        try:
            return 200, self._flight.history(
                series, window=window, resolution=resolution
            )
        except KeyError:
            return 404, {
                "error": f"unknown series {series!r}",
                "hint": "GET /metrics/history for the catalog",
            }
        except ValueError as error:
            return 400, {"error": str(error)}

    async def _route_debug_profile(self, params: dict) -> tuple:
        """``/debug/profile?seconds=N``: collapsed stacks of a fresh window.

        Works whether or not the continuous profiler is running: when it
        is, the window is a snapshot diff around an async sleep; when it
        is not, the profiler is started just for this window and stopped
        after.  The sleep is ``asyncio.sleep`` — the event loop keeps
        serving while the window elapses.
        """
        try:
            seconds = float(params.get("seconds", "2"))
        except ValueError:
            return 400, {"error": f"bad seconds {params.get('seconds')!r}"}
        if not 0 < seconds <= 60:
            return 400, {"error": f"seconds must be in (0, 60], got {seconds}"}
        profiler = self._profiler
        started_here = not profiler.running
        if started_here:
            profiler.start()
        before = profiler.counts()
        await asyncio.sleep(seconds)
        after = profiler.counts()
        if started_here:
            profiler.stop()
        delta = {
            stack: count - before.get(stack, 0)
            for stack, count in after.items()
            if count - before.get(stack, 0) > 0
        }
        return 200, collapse_counts(delta), "text/plain; charset=utf-8"

    def _route_healthz(self) -> Tuple[int, dict]:
        error = self._ingest.error
        payload = {
            "status": "ok" if error is None else "failed",
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "slides": self._ingest.slides_processed,
            "published": self._cache.published,
            "queries": self.query_names(),
            "durable": self._engine.store is not None,
        }
        if error is not None:
            payload["error"] = str(error)
            return 500, payload
        if getattr(self._engine, "degraded", False):
            # A shard is down and healing: reads still answer (merged
            # from the survivors), so this is 503 "degraded", not the
            # 500 "failed" of a dead writer.
            payload["status"] = "degraded"
            payload["degraded_shards"] = self._engine.degraded_shards
            supervision = self._engine.supervision_stats()
            payload["restarts"] = supervision["restarts"]
            payload["escalations"] = supervision["escalations"]
            payload["degraded_seconds"] = supervision["degraded_seconds"]
            return 503, payload
        if self._slo_monitor is not None:
            active = self._slo_monitor.active_alerts()
            if active:
                payload["alerts"] = [a.to_json() for a in active]
                if self._slo_monitor.page_active():
                    # A page-severity burn-rate alert is the service
                    # saying "I am violating my latency/freshness
                    # budget" — surfaced exactly like degradation so
                    # load balancers and probes can react.
                    payload["status"] = "alerting"
                    return 503, payload
        return 200, payload

    def _route_topk(self, name: str) -> Tuple[int, dict]:
        if name not in self.query_names():
            return 404, {
                "error": f"unknown query {name!r}",
                "queries": self.query_names(),
            }
        try:
            answer = self._cache.answer(name)
        except LookupError as error:
            return 503, {"error": str(error)}
        return 200, answer.to_json()

    def _route_history(self, name: str, params: dict) -> Tuple[int, dict]:
        if name not in self.query_names():
            return 404, {
                "error": f"unknown query {name!r}",
                "queries": self.query_names(),
            }
        limit = None
        if "limit" in params:
            try:
                limit = int(params["limit"])
            except ValueError:
                return 400, {"error": f"bad limit {params['limit']!r}"}
        answers = self._cache.history_for(name, limit)
        return 200, {
            "query": name,
            "answers": [answer.to_json() for answer in answers],
        }

    @staticmethod
    def _answer_age_seconds(answer) -> float:
        """Age of a published answer on the monotonic clock.

        ``published_monotonic`` is stamped at publish time with
        ``time.monotonic()``, so an NTP step between publish and scrape
        can never make the age negative (the old wall-clock computation
        could).
        """
        return round(time.monotonic() - answer.published_monotonic, 3)

    def _metrics_payload(self) -> dict:
        ingest = self._ingest.stats.snapshot()
        ingest["queue_depth"] = self._ingest.queue_depth
        ingest["queue_capacity"] = self._ingest.queue_capacity
        board = self._cache.board
        queries = {}
        per_query_stats = (
            self._multi.query_stats() if self._multi is not None else {}
        )
        for name in self.query_names():
            entry = dict(per_query_stats.get(name, {}))
            if board is not None and name in board.answers:
                answer = board.answers[name]
                entry.update(
                    {
                        "answer_time": answer.time,
                        "answer_slide": answer.slide,
                        "answer_value": answer.value,
                        "answer_age_seconds": self._answer_age_seconds(
                            answer
                        ),
                        "answer_lag_slides": (
                            self._ingest.slides_processed - answer.slide
                        ),
                    }
                )
            queries[name] = entry
        engine = {
            "slides": self._engine.slides_processed,
            "time": self._engine.now,
            "durable": self._engine.store is not None,
            "snapshots_written": self._engine.snapshots_written,
            "replayed_slides": self._engine.replayed_slides,
        }
        shard_count = getattr(self._engine, "shard_count", None)
        if shard_count is not None:
            engine["shards"] = shard_count
            engine["shard_backend"] = self._engine.backend_name
        if hasattr(self._engine, "supervision_stats"):
            engine["degraded"] = self._engine.degraded
            engine["degraded_shards"] = self._engine.degraded_shards
            engine["supervision"] = self._engine.supervision_stats()
        self._sync_registry()
        telemetry = {
            "metrics": self._registry.snapshot(),
            "traces": self._recorder.stats(),
            "profiler": self._profiler.stats(),
        }
        if self._flight is not None:
            telemetry["flight_recorder"] = self._flight.stats()
        if self._slo_monitor is not None:
            telemetry["slo"] = self._slo_monitor.snapshot()
        return {
            "uptime_seconds": round(
                time.monotonic() - self._started_monotonic, 3
            ),
            "ingest": ingest,
            "engine": engine,
            "queries": queries,
            "telemetry": telemetry,
        }

    def _sync_registry(self) -> None:
        """Copy scalar stats into the registry at scrape time.

        Counters/gauges that already live as plain attributes on the
        ingest loop, engine, and supervisor are mirrored here rather
        than instrumented at the source — the hot path stays untouched
        and a scrape pays the (tiny) copy cost instead.
        """
        registry = self._registry
        stats = self._ingest.stats
        registry.counter(
            "repro_ingest_accepted_total", "Actions admitted into a slide"
        ).value = float(stats.accepted)
        registry.counter(
            "repro_ingest_dropped_stale_total",
            "Actions dropped for arriving at or before the stream clock",
        ).value = float(stats.dropped_stale)
        registry.counter(
            "repro_ingest_rejected_lines_total",
            "Ingest lines rejected as unparseable or invalid",
        ).value = float(stats.rejected_lines)
        registry.counter(
            "repro_ingest_slides_total", "Slides flushed into the engine"
        ).value = float(stats.slides)
        registry.counter(
            "repro_ingest_writer_retries_total",
            "Transient engine failures retried by the writer",
        ).value = float(stats.writer_retries)
        registry.gauge(
            "repro_ingest_queue_depth", "Actions waiting in the bounded queue"
        ).set(float(self._ingest.queue_depth))
        registry.gauge(
            "repro_ingest_queue_capacity", "Bounded ingest queue capacity"
        ).set(float(self._ingest.queue_capacity))
        registry.gauge(
            "repro_ingest_rate_actions_per_sec",
            "EWMA ingest rate (instantaneous)",
        ).set(round(stats.rate.rate, 3))
        registry.gauge(
            "repro_ingest_lifetime_rate_actions_per_sec",
            "Undecayed ingest rate since start",
        ).set(round(stats.rate.lifetime_rate, 3))
        registry.gauge(
            "repro_uptime_seconds", "Service uptime on the monotonic clock"
        ).set(round(time.monotonic() - self._started_monotonic, 3))
        if self._flight is not None:
            registry.gauge(
                "repro_flight_sampler_lag_seconds",
                "How far behind schedule the flight-recorder sampler ran",
            ).set(round(self._flight.sampler_lag_seconds, 6))
            registry.counter(
                "repro_flight_samples_total",
                "Sample sweeps the flight recorder has taken",
            ).value = float(self._flight.samples_taken)
        registry.gauge(
            "repro_engine_slides", "Slides the engine has processed"
        ).set(float(self._engine.slides_processed))
        registry.gauge(
            "repro_engine_stream_time", "Engine stream clock (action time)"
        ).set(float(self._engine.now))
        registry.counter(
            "repro_engine_snapshots_written_total", "Snapshots written"
        ).value = float(self._engine.snapshots_written)
        registry.gauge(
            "repro_engine_replayed_slides", "WAL slides replayed at open"
        ).set(float(self._engine.replayed_slides))
        board = self._cache.board
        if board is not None:
            for name, answer in board.answers.items():
                registry.gauge(
                    "repro_answer_age_seconds",
                    "Seconds since this query's answer was published",
                    query=name,
                ).set(self._answer_age_seconds(answer))
                registry.gauge(
                    "repro_answer_lag_slides",
                    "Slides the published answer trails the writer by",
                    query=name,
                ).set(float(self._ingest.slides_processed - answer.slide))
        if hasattr(self._engine, "supervision_stats"):
            supervision = self._engine.supervision_stats()
            for state in supervision["shards"]:
                shard = str(state["shard"])
                registry.counter(
                    "repro_shard_busy_seconds_total",
                    "Wall seconds this shard spent processing slides "
                    "(cumulative across worker restarts)",
                    shard=shard,
                ).value = float(state.get("busy_seconds", 0.0))
                registry.counter(
                    "repro_shard_restarts_total",
                    "Times this shard's worker was restarted",
                    shard=shard,
                ).value = float(state.get("restarts", 0))
                registry.counter(
                    "repro_shard_slides_total",
                    "Slides this shard's worker has processed",
                    shard=shard,
                ).value = float(state.get("slides", 0))
                registry.gauge(
                    "repro_shard_up",
                    "1 when the shard is serving, 0 while down/healing",
                    shard=shard,
                ).set(1.0 if state.get("state") == "up" else 0.0)
                registry.counter(
                    "repro_shard_routed_records_total",
                    "Routed influence records this shard consumed",
                    shard=shard,
                ).value = float(state["routed_records"] or 0)
            registry.gauge(
                "repro_shards_degraded", "Shards currently down or healing"
            ).set(float(len(supervision.get("degraded_shards", ()))))
            registry.gauge(
                "repro_shard_straggler_seconds",
                "Busy-time gap between slowest and fastest shard last slide",
            ).set(float(supervision.get("straggler_seconds", 0.0)))
            registry.counter(
                "repro_shard_call_timeouts_total",
                "Shard calls that timed out at the supervisor",
            ).value = float(supervision.get("call_timeouts", 0))
            registry.counter(
                "repro_resolver_actions_total",
                "Stream actions resolved once at the sharded facade",
            ).value = float(supervision["resolver"]["actions_processed"])
            registry.gauge(
                "repro_routed_records_last_slide",
                "Influence records routed to shards on the last slide",
            ).set(float(supervision["last_routed_records"]))
