"""The load generator: one sender thread, one reader thread, two sockets.

The sender (the calling thread) writes pre-encoded slides — 50 action
lines and a ``sync`` barrier in one ``sendall`` — on a fixed schedule
(open loop), behind a window of un-synced slides (closed loop), or one
at a time (ping-pong).  Each ``synced`` reply on the ingest connection
marks one slide's answer *visible* (the barrier returns only after
process, WAL and publish).  In the open and the closed loop a reader
thread collects the replies from a ``select`` loop; in ping-pong the
calling thread polls the socket itself, so that neither side of the
connection ever sleeps and no wake-up is timed with the answer, and
fetches ``/queries/main/topk`` on a short-lived second connection
beside every few slides.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
import time
from typing import Callable, List, Sequence, Tuple

from repro.persistence.serialize import encode_action

__all__ = [
    "encode_slides",
    "send_open_loop",
    "ServiceLoad",
]

_SYNC = b'{"cmd":"sync"}\n'
_TOPK = b"GET /queries/main/topk HTTP/1.0\r\n\r\n"


def encode_slides(actions: Sequence, slide: int) -> List[bytes]:
    """Wire bytes per slide: the protocol-default line per action + sync.

    The encoding is the one :class:`repro.service.client.ServiceClient`
    sends — one compact ``[time, user, parent]`` JSON triple per line.
    """
    lines = [
        json.dumps(encode_action(action), separators=(",", ":")).encode("utf-8")
        + b"\n"
        for action in actions
    ]
    return [
        b"".join(lines[start : start + slide]) + _SYNC
        for start in range(0, len(lines) - slide + 1, slide)
    ]


def send_open_loop(
    send: Callable[[bytes], None],
    payloads: Sequence[bytes],
    period: float,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> Tuple[List[float], List[float]]:
    """Send ``payloads`` on a fixed schedule; returns ``(due, started)``.

    Slide ``i`` is due at ``t0 + i * period`` whatever happened to the
    slides before it: a slow reply or a blocked send makes later slides
    *late* (``started > due``), never re-times them, so latency measured
    from the due time counts the wait a stall imposes on what follows.
    """
    due_times: List[float] = []
    started_times: List[float] = []
    origin = clock()
    for index, payload in enumerate(payloads):
        due = origin + index * period
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        started_times.append(clock())
        send(payload)
        due_times.append(due)
    return due_times, started_times


class ServiceLoad:
    """One ingest connection to a running server plus its reader thread."""

    def __init__(self, port: int, first_slide: int):
        """
        Args:
            port: The server's port.
            first_slide: Server slide number the first slide sent on this
                connection will get (1 on a fresh server; recovered
                slides + 1 after a restart) — replies are checked
                against it, so a lost or duplicated slide is an error.
        """
        self._port = port
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=60.0)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._next_slide = first_slide
        self._sent = 0
        #: Arrival time of each slide's ``synced`` reply, in send order.
        self.synced_at: List[float] = []
        #: Error replies, out-of-sequence barriers, failed reads.
        self.errors: List[str] = []
        self._progress = threading.Condition()
        self._pending = b""
        self._stop = False
        # Ping-pong reads the ingest socket on the calling thread: it asks
        # the reader thread to let go, waits until it has, and wakes it
        # when done.
        self._socket_wanted = threading.Event()
        self._socket_free = threading.Event()
        self._socket_back = threading.Event()
        self._reader = threading.Thread(
            target=self._read_loop, name="bench-reader", daemon=True
        )
        self._reader.start()

    # -- sender side -------------------------------------------------------

    def send(self, payload: bytes) -> None:
        """Write one slide (blocks under TCP backpressure)."""
        self._sock.sendall(payload)
        self._sent += 1

    def closed_loop(self, payloads: Sequence[bytes], in_flight: int) -> List[float]:
        """Send with at most ``in_flight`` un-synced slides; returns send times."""
        sent_at = []
        for payload in payloads:
            with self._progress:
                while (
                    self._sent - len(self.synced_at) >= in_flight
                    and not self._stop
                ):
                    self._progress.wait(0.5)
            sent_at.append(time.perf_counter())
            self.send(payload)
        self.drain()
        return sent_at

    def drain(self, timeout: float = 60.0) -> bool:
        """Wait until every slide sent is answered; False on timeout."""
        deadline = time.monotonic() + timeout
        with self._progress:
            while len(self.synced_at) < self._sent and not self._stop:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._progress.wait(min(remaining, 0.5))
        return len(self.synced_at) >= self._sent

    def ping_pong(
        self, payloads: Sequence[bytes], read_every: int
    ) -> Tuple[List[float], List[float]]:
        """One slide at a time, polled; returns ``(send times, reads)``.

        Each slide is sent when the one before it has been answered, and
        the calling thread spins on the socket until its ``synced`` reply
        arrives: the program never waits for the generator and the
        generator never sleeps, so ``synced_at`` minus the send time is
        the program's latency alone.  After every ``read_every``-th slide
        is sent, ``topk`` is fetched on a fresh connection while the
        program works on that slide (whose own latency then includes the
        read); the reads' seconds are returned in order.
        """
        sent_at: List[float] = []
        reads: List[float] = []
        clock = time.perf_counter
        self._socket_wanted.set()
        self._socket_free.wait()
        try:
            for index, payload in enumerate(payloads):
                answered = len(self.synced_at)
                sent_at.append(clock())
                self.send(payload)
                if index % read_every == read_every - 1:
                    reads.append(self._read_topk())
                while len(self.synced_at) == answered and not self._stop:
                    try:
                        chunk = self._sock.recv(1 << 16, socket.MSG_DONTWAIT)
                    except BlockingIOError:
                        continue
                    self._on_chunk(chunk, clock())
                if self._stop:
                    break
        finally:
            self._socket_wanted.clear()
            self._socket_free.clear()
            self._socket_back.set()
        return sent_at, reads

    def _read_topk(self) -> float:
        """``GET /queries/main/topk`` on a new connection, polled; seconds."""
        started = time.perf_counter()
        raw = b""
        with socket.create_connection(("127.0.0.1", self._port), timeout=60.0) as probe:
            probe.sendall(_TOPK)
            while True:
                try:
                    chunk = probe.recv(1 << 16, socket.MSG_DONTWAIT)
                except BlockingIOError:
                    continue
                if not chunk:
                    break
                raw += chunk
        seconds = time.perf_counter() - started
        head = raw.partition(b"\r\n\r\n")[0]
        if head.split(None, 2)[1:2] != [b"200"]:
            self.errors.append(f"topk read answered {head[:40]!r}")
        return seconds

    def close(self) -> None:
        """Stop the reader thread and close the ingest connection."""
        self._stop = True
        self._socket_back.set()
        self._reader.join(10.0)
        self._sock.close()

    # -- reader thread -----------------------------------------------------

    def _read_loop(self) -> None:
        selector = selectors.DefaultSelector()
        selector.register(self._sock, selectors.EVENT_READ)
        try:
            while not self._stop:
                if self._socket_wanted.is_set():
                    self._socket_free.set()
                    self._socket_back.wait()
                    self._socket_back.clear()
                elif selector.select(0.05):
                    self._on_chunk(self._sock.recv(1 << 16), time.perf_counter())
        except OSError as error:
            self.errors.append(f"reader failed: {error}")
        finally:
            self._stop = True
            selector.close()
            with self._progress:
                self._progress.notify_all()

    def _on_chunk(self, chunk: bytes, arrived: float) -> None:
        if not chunk:
            self.errors.append("ingest connection closed")
            self._stop = True
            return
        *lines, self._pending = (self._pending + chunk).split(b"\n")
        self._on_replies(lines, arrived)

    def _on_replies(self, lines: Sequence[bytes], arrived: float) -> None:
        for raw in lines:
            if not raw:
                continue
            reply = json.loads(raw)
            if reply.get("synced"):
                if reply["slide"] != self._next_slide:
                    self.errors.append(
                        f"barrier answered slide {reply['slide']}, "
                        f"expected {self._next_slide}"
                    )
                self._next_slide += 1
                self.synced_at.append(arrived)
            elif "error" in reply:
                self.errors.append(str(reply["error"]))
            # Periodic acks carry nothing the barrier does not.
        with self._progress:
            self._progress.notify_all()
