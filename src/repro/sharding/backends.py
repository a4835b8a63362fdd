"""Shard hosts and the two worker backends that run them.

A :class:`_ShardHost` is one shard's
:class:`~repro.persistence.engine.RecoverableEngine` plus its command
handler; it runs *inside* the worker.  Two interchangeable backends run
the hosts behind one per-shard protocol — ``start``/``send``/``recv``
(with a deadline)/``kill`` — so a dead worker surfaces as ``dead`` and a
hung one as ``timeout`` instead of wedging the caller:

* ``serial`` — direct in-process calls: the deterministic reference
  (tests, debugging, ``bench/``'s answer check);
* ``process`` — one ``multiprocessing`` (fork) worker per shard: real
  multi-core ingest, per-shard crash domains.  The default.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Callable, List, Optional, Tuple

from repro.core.multi import MultiQueryEngine
from repro.core.resolve import ResolvedSlide
from repro.faults.inject import WorkerFaultInjector, WorkerKilled
from repro.persistence.engine import RecoverableEngine
from repro.persistence.serialize import ensure_same_engine_config
from repro.sharding.partition import ShardAssignment
from repro.sharding.supervisor import ShardingError, _describe_error


class _Dropped:
    """Wrapper a handler returns when a scripted fault dropped the reply."""

    __slots__ = ("result",)

    def __init__(self, result):
        self.result = result


class _ShardHost:
    """One shard's engine plus its command handler (runs inside the worker)."""

    def __init__(
        self,
        shard_id: int,
        assignment: ShardAssignment,
        factory: Callable,
        state_dir,
        snapshot_every: int,
        keep_snapshots: int,
        segment_records: int,
        fsync: bool,
        fault_state: Optional[dict] = None,
    ):
        self.shard_id = shard_id
        self.assignment = assignment
        self.engine = RecoverableEngine.open(
            state_dir,
            lambda: factory(assignment),
            snapshot_every=snapshot_every,
            keep_snapshots=keep_snapshots,
            segment_records=segment_records,
            fsync=fsync,
        )
        if self.engine.slides_processed:
            ensure_same_engine_config(
                self.engine.algorithm,
                factory(self.assignment),
                where=f"shard {self.shard_id} state",
            )
        # Cumulative wall seconds this incarnation spent applying slides —
        # the per-shard heat signal (rides every info/apply reply).
        self.busy_seconds = 0.0
        self._injector = None
        if fault_state and fault_state.get("faults"):
            self._injector = WorkerFaultInjector(
                fault_state["faults"],
                disarm_through=fault_state.get("disarm_through", 0),
            )

    def info(self) -> dict:
        """Position and durability counters of this shard's engine."""
        algorithm = self.engine.algorithm
        return {
            "shard": self.shard_id,
            "slides": self.engine.slides_processed,
            "now": self.engine.now,
            "replayed": self.engine.replayed_slides,
            "snapshots_written": self.engine.snapshots_written,
            "actions": algorithm.actions_processed,
            "durable": self.engine.store is not None,
            "busy_seconds": round(self.busy_seconds, 6),
        }

    def abandon(self) -> None:
        """Release file handles without sealing (the worker is giving up).

        Called when a worker dies by script or is fenced off by the
        supervisor: the WAL handle must be dropped so the restarted host
        owns the log alone.  Safe to call twice.
        """
        try:
            if self.engine.store is not None:
                self.engine.store.close()
        except Exception:  # pragma: no cover - best-effort release
            pass

    def handle(self, cmd: str, payload):
        """Dispatch one facade command; returns a pickle-friendly result."""
        if cmd == "apply":
            # The facade resolved the slide once and this payload carries
            # only the influence records this shard owns.
            drop = False
            if self._injector is not None:
                drop = self._injector.before_slide(
                    self.engine.slides_processed + 1
                )
            busy_started = time.perf_counter()
            self.engine.apply_resolved(ResolvedSlide.from_wire(payload))
            self.busy_seconds += time.perf_counter() - busy_started
            return _Dropped(self.info()) if drop else self.info()
        if cmd == "answers":
            return self._answers()
        if cmd == "snapshot":
            self.engine.snapshot()
            return self.info()
        if cmd == "close":
            self.engine.close(snapshot=payload)
            return None
        raise ValueError(f"unknown shard command {cmd!r}")

    def _answers(self) -> dict:
        """Every query's local answer + candidates, keyed by query name."""
        algorithm = self.engine.algorithm
        if isinstance(algorithm, MultiQueryEngine):
            named = {
                name: (algorithm.query(name), algorithm.query_candidates(name))
                for name in algorithm.names()
            }
        else:
            named = {"main": (algorithm.query(), algorithm.query_candidates())}
        out = {}
        for name, (answer, candidates) in named.items():
            encoded = None
            if candidates is not None:
                encoded = [
                    [user, sorted(coverage)] for user, coverage in candidates
                ]
            out[name] = {
                "time": answer.time,
                "value": answer.value,
                "seeds": sorted(answer.seeds),
                "candidates": encoded,
            }
        return out


def _merge_overrides(kwargs: dict, overrides: Optional[dict]) -> dict:
    return {**kwargs, **overrides} if overrides else dict(kwargs)


class _SerialBackend:
    """All shard hosts in the calling thread — deterministic and simple.

    Calls execute synchronously in :meth:`send`; :meth:`recv` then reports
    the stored outcome, applying the deadline *post hoc* (a call that took
    longer than the timeout is reported as ``timeout``, giving the serial
    backend the process backend's supervision semantics — the restarted
    shard replays its WAL to the identical position, so the retry is a
    no-op suffix).
    """

    name = "serial"

    def __init__(self, host_args: List[dict]):
        self._host_args = [dict(kwargs) for kwargs in host_args]
        self._hosts: List[Optional[_ShardHost]] = [None] * len(host_args)
        self._pending: List[Optional[Tuple[str, object, float]]] = (
            [None] * len(host_args)
        )

    def start(self, shard: int, overrides: Optional[dict] = None):
        """(Re)build one shard host; returns ``("ok", info)`` or ``("fatal", msg)``."""
        self.kill(shard)
        try:
            host = _ShardHost(
                **_merge_overrides(self._host_args[shard], overrides)
            )
        except BaseException as error:
            return "fatal", _describe_error(error)
        self._hosts[shard] = host
        return "ok", host.info()

    def send(self, shard: int, cmd: str, payload) -> bool:
        """Execute the command now; stash the outcome for :meth:`recv`."""
        host = self._hosts[shard]
        if host is None:
            return False
        started = time.monotonic()
        try:
            result = host.handle(cmd, payload)
        except WorkerKilled as error:
            self._hosts[shard] = None
            host.abandon()
            self._pending[shard] = ("dead", f"worker died: {error}", 0.0)
            return True
        except BaseException as error:
            self._pending[shard] = (
                "error", _describe_error(error), time.monotonic() - started
            )
            return True
        elapsed = time.monotonic() - started
        if isinstance(result, _Dropped):
            self._pending[shard] = (
                "timeout", "reply dropped (scripted fault)", elapsed
            )
        else:
            self._pending[shard] = ("ok", result, elapsed)
        return True

    def recv(self, shard: int, timeout: Optional[float]):
        """The stored outcome of the last :meth:`send`, deadline-checked."""
        entry = self._pending[shard]
        self._pending[shard] = None
        if entry is None:
            return "dead", "no call in flight"
        status, result, elapsed = entry
        if status == "ok" and timeout is not None and elapsed > timeout:
            return (
                "timeout",
                f"call took {elapsed:.3f}s (deadline {timeout}s)",
            )
        return status, result

    def kill(self, shard: int) -> None:
        """Drop the shard host (releasing its WAL handle)."""
        host = self._hosts[shard]
        self._hosts[shard] = None
        self._pending[shard] = None
        if host is not None:
            host.abandon()

    @property
    def pids(self) -> Optional[List[int]]:
        """Worker process ids (None: serial runs in the caller)."""
        return None

    def stop(self) -> None:
        """Release every host's file handles."""
        for shard in range(len(self._hosts)):
            self.kill(shard)


def _process_worker(conn, facade_end, kwargs: dict) -> None:
    """Entry point of one forked shard worker (ProcessBackend)."""
    # The fork copied the facade's end of this pipe into the worker as
    # well; while that copy is open ``recv`` never sees EOF, and a facade
    # killed -9 would leave its workers blocked here forever.
    facade_end.close()
    try:
        host = _ShardHost(**kwargs)
    except BaseException as error:
        try:
            conn.send(("fatal", _describe_error(error)))
        finally:
            conn.close()
        return
    conn.send(("ok", host.info()))
    while True:
        try:
            item = conn.recv()
        except EOFError:
            break
        if item is None:
            break
        cmd, payload = item
        try:
            result = host.handle(cmd, payload)
        except WorkerKilled:
            # Die like a real crash: no reply, no cleanup, no atexit.
            os.kill(os.getpid(), signal.SIGKILL)
        except BaseException as error:
            conn.send(("error", _describe_error(error)))
            continue
        if isinstance(result, _Dropped):
            continue
        conn.send(("ok", result))
    conn.close()


class _ProcessBackend:
    """One forked ``multiprocessing`` worker per shard — real multi-core."""

    name = "process"

    def __init__(self, host_args: List[dict]):
        import multiprocessing

        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError as error:  # pragma: no cover - platform-specific
            raise ShardingError(
                "the process backend requires a fork-capable platform "
                "(factories cross into workers by inheritance); use the "
                "serial backend instead"
            ) from error
        n = len(host_args)
        self._host_args = [dict(kwargs) for kwargs in host_args]
        self._connections = [None] * n
        self._processes = [None] * n

    def start(self, shard: int, overrides: Optional[dict] = None):
        """(Re)fork one shard worker and wait for its construction report."""
        self.kill(shard)
        kwargs = _merge_overrides(self._host_args[shard], overrides)
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_process_worker,
            args=(child_conn, parent_conn, kwargs),
            name=f"repro-shard-{kwargs['shard_id']}",
            daemon=True,
        )
        try:
            process.start()
        except BaseException as error:
            parent_conn.close()
            child_conn.close()
            return "fatal", _describe_error(error)
        child_conn.close()
        self._connections[shard] = parent_conn
        self._processes[shard] = process
        try:
            status, result = parent_conn.recv()
        except (ConnectionError, EOFError, OSError):
            status, result = "fatal", "worker exited before reporting"
        if status != "ok":
            self.kill(shard)
            return "fatal", result
        return "ok", result

    def send(self, shard: int, cmd: str, payload) -> bool:
        """Write the command down the shard's pipe; False if unreachable."""
        conn = self._connections[shard]
        if conn is None:
            return False
        try:
            conn.send((cmd, payload))
            return True
        except (ConnectionError, EOFError, OSError):
            return False

    def recv(self, shard: int, timeout: Optional[float]):
        """Wait for the reply, watching the deadline and the process's life."""
        conn = self._connections[shard]
        process = self._processes[shard]
        if conn is None or process is None:
            return "dead", "no worker installed"
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait = 0.05
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return (
                        "timeout",
                        f"no reply within {timeout}s "
                        f"(pid {process.pid} alive: {process.is_alive()})",
                    )
                wait = min(wait, remaining)
            try:
                ready = conn.poll(wait)
            except (ConnectionError, EOFError, OSError):
                return "dead", f"worker pipe broke (pid {process.pid})"
            if ready:
                try:
                    return conn.recv()
                except (ConnectionError, EOFError, OSError):
                    return (
                        "dead",
                        f"worker died mid-command (pid {process.pid})",
                    )
            if not process.is_alive():
                # One final poll: the reply may have raced the exit.
                try:
                    if conn.poll(0):
                        return conn.recv()
                except (ConnectionError, EOFError, OSError):
                    pass
                return "dead", f"worker died (pid {process.pid})"

    def kill(self, shard: int) -> None:
        """SIGKILL the shard's worker and reap it — fencing it off its WAL."""
        process = self._processes[shard]
        conn = self._connections[shard]
        self._processes[shard] = None
        self._connections[shard] = None
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        if process is not None:
            if process.is_alive():
                process.kill()
            process.join(timeout=10)
            if not process.is_alive():
                process.close()

    @property
    def pids(self) -> List[Optional[int]]:
        """Worker process ids (e.g. for crash-injection tests)."""
        return [
            process.pid if process is not None else None
            for process in self._processes
        ]

    def stop(self) -> None:
        """Ask every worker to exit; join, then terminate/kill stragglers.

        Always leaves zero live children behind, whatever state the
        workers were in — including after a failed open or a mid-run
        escalation.
        """
        for conn in self._connections:
            if conn is None:
                continue
            try:
                conn.send(None)
            except (ConnectionError, EOFError, OSError):
                pass
        for process in self._processes:
            if process is None:
                continue
            process.join(timeout=10)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - defensive
                process.kill()
                process.join(timeout=5)
            if not process.is_alive():
                process.close()
        for conn in self._connections:
            if conn is not None:
                try:
                    conn.close()
                except OSError:  # pragma: no cover - defensive
                    pass
        self._connections = [None] * len(self._connections)
        self._processes = [None] * len(self._processes)


#: Backend name -> class: the one place the names are spelled.
BACKENDS = {
    "serial": _SerialBackend,
    "process": _ProcessBackend,
}
#: What ``ShardedEngine.open``, ``ServiceConfig`` and the CLI default to.
DEFAULT_BACKEND = _ProcessBackend.name
