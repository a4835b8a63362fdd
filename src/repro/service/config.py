"""Serving-plane configuration: one validated, immutable knob set."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["ServiceConfig"]


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Knobs of one :class:`~repro.service.server.ReproService`.

    Attributes:
        host: Listen address.
        port: Listen port; ``0`` lets the OS pick (the bound port is then
            available as ``ReproService.port`` after start).
        slide: Maximum actions coalesced into one slide — the serving
            plane's ``L``.  A full pending slide is flushed to the engine
            immediately.
        flush_interval: Seconds a *partial* slide may sit pending before a
            time-based flush, so answers stay fresh on a trickling stream.
        queue_capacity: Bound of the ingest queue, in actions.  A
            connection reader whose run does not fit blocks in
            ``IngestLoop.submit_run`` and TCP backpressure propagates to
            clients — the server never buffers unboundedly.
        ack_every: Ingest connections receive one batched ack line per
            this many received lines (plus an exact one per ``sync``).
        history: Published answer boards retained for historical
            ``/queries/<name>/history`` reads.
        writer_retries: Extra attempts the ingest writer makes when a
            slide raises :class:`~repro.sharding.ShardingError` before it
            gives up and dies.  A sharded engine only escalates after its
            own supervision budget is exhausted, so this is the second
            line of defence; retrying the same slide is safe because the
            engine's per-shard catch-up filter makes redelivery
            idempotent.  ``0`` disables the retry.
        trace_log: Path of the slow-slide JSONL trace log (``None``
            disables emission; the in-memory trace ring still runs).
        slow_slide_ms: Slides whose end-to-end dispatch takes at least
            this many milliseconds are emitted to ``trace_log``.  ``0``
            emits *every* slide (the triage/test hook); ``None`` keeps
            emission off.
        trace_ring: Most-recent slide traces retained in memory for
            ``/metrics`` and triage.
        flight_recorder: Run the metrics flight recorder — the retained
            time-series sampler behind ``GET /metrics/history`` and the
            SLO monitor.  Fixed memory (see DESIGN.md); on by default.
        sample_interval: Seconds between flight-recorder samples (the
            base ring resolution).
        alert_log: Path of the SLO alert JSONL log (``None`` keeps alert
            state in-memory/exported only).
        slo_defaults: Evaluate the stock serving-plane objectives
            (:func:`repro.telemetry.slo.default_slos`).
        slo_specs: Extra objectives as ``--slo`` spec strings
            (``NAME=SERIES,threshold=...``), parsed by
            :func:`repro.telemetry.slo.parse_slo_spec`; validated here so
            a typo fails at config time, not mid-flight.
        profile: Start the continuous sampling profiler at boot.  Off by
            default; ``GET /debug/profile?seconds=N`` still works when
            off (it samples just for the request window).
        profile_hz: Sampling rate of the wall-clock profiler.
    """

    host: str = "127.0.0.1"
    port: int = 7077
    slide: int = 32
    flush_interval: float = 0.5
    queue_capacity: int = 4096
    ack_every: int = 1000
    history: int = 128
    writer_retries: int = 2
    trace_log: Optional[str] = None
    slow_slide_ms: Optional[float] = None
    trace_ring: int = 64
    flight_recorder: bool = True
    sample_interval: float = 1.0
    alert_log: Optional[str] = None
    slo_defaults: bool = True
    slo_specs: Tuple[str, ...] = ()
    profile: bool = False
    profile_hz: float = 100.0

    def __post_init__(self) -> None:
        if self.slide < 1:
            raise ValueError(f"slide must be >= 1, got {self.slide}")
        if self.flush_interval <= 0:
            raise ValueError(
                f"flush_interval must be positive, got {self.flush_interval}"
            )
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.ack_every < 1:
            raise ValueError(f"ack_every must be >= 1, got {self.ack_every}")
        if self.history < 1:
            raise ValueError(f"history must be >= 1, got {self.history}")
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if self.writer_retries < 0:
            raise ValueError(
                f"writer_retries must be >= 0, got {self.writer_retries}"
            )
        if self.slow_slide_ms is not None and self.slow_slide_ms < 0:
            raise ValueError(
                f"slow_slide_ms must be >= 0, got {self.slow_slide_ms}"
            )
        if self.trace_ring < 1:
            raise ValueError(
                f"trace_ring must be >= 1, got {self.trace_ring}"
            )
        if self.sample_interval <= 0:
            raise ValueError(
                f"sample_interval must be positive, got {self.sample_interval}"
            )
        if self.profile_hz <= 0:
            raise ValueError(
                f"profile_hz must be positive, got {self.profile_hz}"
            )
        if not isinstance(self.slo_specs, tuple):
            # Accept any iterable of specs but store a hashable tuple
            # (the dataclass is frozen; bypass the freeze for coercion).
            object.__setattr__(self, "slo_specs", tuple(self.slo_specs))
        from repro.telemetry.slo import parse_slo_spec

        for spec in self.slo_specs:
            parse_slo_spec(spec)  # raises ValueError on a bad spec
