"""Embed a ReproService in a background thread (tests, benchmarks, tools).

The service is an asyncio application; production runs it via
``repro-stream serve`` on the main thread.  Tooling that needs a live
server *and* a synchronous driver in the same process — the test suite —
uses :class:`ServiceRunner`: a daemon thread
hosting the event loop, with thread-safe start/stop and the bound port
exposed once the socket is up.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from repro.persistence.engine import RecoverableEngine
from repro.service.config import ServiceConfig
from repro.service.server import ReproService

__all__ = ["ServiceRunner"]


class ServiceRunner:
    """Run one :class:`~repro.service.server.ReproService` in a thread."""

    def __init__(self, engine: RecoverableEngine, config: ServiceConfig):
        """
        Args:
            engine: The engine to serve (the runner's thread becomes its
                single writer).
            config: Serving-plane knobs; ``port=0`` is the normal choice
                so parallel runners never collide.
        """
        self.service = ReproService(engine, config)
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    @property
    def port(self) -> Optional[int]:
        """The bound port (available after :meth:`start` returns)."""
        return self.service.port

    @property
    def host(self) -> str:
        """The listen address."""
        return self.service.host

    @property
    def degraded(self) -> bool:
        """Whether the served engine is running degraded (shard down)."""
        return bool(getattr(self.service.engine, "degraded", False))

    def start(self, timeout: float = 10.0) -> "ServiceRunner":
        """Start the server thread; returns once the socket is bound."""
        if self._thread is not None:
            raise RuntimeError("runner already started")
        self._thread = threading.Thread(
            target=self._main, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service did not start within timeout")
        if self._error is not None:
            raise RuntimeError("service failed to start") from self._error
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Request a graceful shutdown and join the server thread."""
        if self._thread is None:
            return
        self.service.request_shutdown_threadsafe()
        self._thread.join(timeout)
        alive = self._thread.is_alive()
        self._thread = None
        if alive:
            raise RuntimeError("service did not stop within timeout")
        if self._error is not None:
            raise RuntimeError("service failed") from self._error

    def __enter__(self) -> "ServiceRunner":
        """Context-manager entry: start the server."""
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: stop the server."""
        self.stop()

    def _main(self) -> None:
        try:
            asyncio.run(
                self.service.run(
                    install_signal_handlers=False,
                    on_ready=lambda _service: self._ready.set(),
                )
            )
        except BaseException as error:  # surfaced on start()/stop()
            self._error = error
        finally:
            self._ready.set()
