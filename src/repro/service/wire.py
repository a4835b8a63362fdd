"""The ingest line protocol's decoder: bytes in, protocol events out.

No sockets, no asyncio: a connection feeds :meth:`WireDecoder.feed` what
its socket has buffered, split anywhere, and ``b""`` at end of stream.  A
line is an action (``[time, user, parent]`` or ``{"time", "user",
"parent"}``), a batch (a JSON array of actions, refused whole if one is
bad) or a command (``{"cmd": "sync"|"flush"}``); blank lines are skipped.
"""

from __future__ import annotations

import json
from json.scanner import make_scanner
from typing import Iterator, List, Optional, Tuple

from repro.core.actions import ROOT, Action, int64_field_error

__all__ = ["LINE_LIMIT", "WireDecoder"]

#: Longest line accepted, in bytes without its newline.
LINE_LIMIT = 1 << 20

_scan = make_scanner(json.JSONDecoder())


def _loads(raw: bytes):
    """``json.loads(raw)``, by the C scanner alone when ``raw`` is UTF-8
    holding one whole document (then no NUL or byte-order mark, so
    ``json.loads`` reads it as UTF-8 too); saves ~30% of the loop's CPU."""
    try:
        text = raw.decode()
        document, end = _scan(text, 0)
        if end == len(text):
            return document
    except (ValueError, StopIteration):
        pass
    return json.loads(raw)


def _decode_action(document) -> Action:
    """An Action from ``[t, u, p]`` or ``{"time", "user", "parent"}``."""
    if isinstance(document, list):
        if len(document) != 3:
            raise ValueError(f"action triple needs 3 fields, got {len(document)}")
        time, user, parent = document
    elif isinstance(document, dict):
        time, user = document["time"], document["user"]
        parent = document.get("parent", ROOT)
    else:
        raise TypeError(
            f"expected an action object or triple, got {type(document).__name__}"
        )
    parent = ROOT if parent is None else parent
    problem = int64_field_error(time, user, parent)
    if problem is not None:
        raise ValueError(problem)
    return Action(time, user, parent)


class WireDecoder:
    """One ingest connection's unterminated tail and ``received`` count:
    actions plus rejected lines, the ``"line"`` of error replies."""

    def __init__(self, *, ack_every: int, run_limit: int):
        self._ack_every = ack_every
        self._run_limit = run_limit
        self._tail = b""
        self._closed = False
        self.received = 0

    def feed(self, data: bytes) -> Iterator[Tuple[str, object]]:
        """Decode ``data`` (``b""``: end of stream).  Yields, in stream order,
        ``("run", actions)`` (at most ``run_limit``), ``("sync"|"flush",
        received)``, ``("ack", received)`` after the run holding the line
        that crossed an ``ack_every`` multiple, ``("error", reply)``, and
        last ``("close", reply)`` for a line over :data:`LINE_LIMIT`."""
        if self._closed:
            return
        if data:
            lines = (self._tail + data).split(b"\n")
            self._tail = lines.pop()
        else:
            lines, self._tail = [self._tail], b""
        oversize = len(self._tail) > LINE_LIMIT
        run: List[Action] = []
        for line in lines:
            if len(line) > LINE_LIMIT:
                oversize = True
                break
            raw = line.strip()
            if not raw:
                continue
            event = self._decode(raw, run)
            if event is not None or len(run) >= self._run_limit:
                yield from self._runs(run)
                run = []
                if event is not None:
                    # A rejected line counts once the run before it is out.
                    yield self._reject(event[1]) if event[0] == "reject" else event
        yield from self._runs(run)
        if oversize:
            self._closed = True
            yield "close", self._reject(f"line exceeds {LINE_LIMIT} bytes")[1]

    def _decode(self, raw: bytes, run: List[Action]) -> Optional[tuple]:
        """Append one line's actions to ``run``; the event the line makes,
        if any (``("reject", message)`` for a rejected line)."""
        try:
            document = _loads(raw)
        except (ValueError, RecursionError) as error:
            return "reject", f"unparseable line: {error}"
        if isinstance(document, dict) and "cmd" in document:
            command = document["cmd"]
            if command in ("sync", "flush"):
                return command, self.received
            error = f"unknown cmd {command!r}"
            return "error", {"error": error, "line": self.received}
        first = document[0] if isinstance(document, list) and document else None
        items = document if isinstance(first, (list, dict)) else [document]
        try:
            actions = [_decode_action(item) for item in items]
        except (ValueError, TypeError, KeyError) as error:
            return "reject", f"invalid action: {error}"
        before = self.received
        self.received += len(actions)
        run += actions
        if self.received // self._ack_every > before // self._ack_every:
            return "ack", self.received
        return None

    def _runs(self, run: List[Action]) -> Iterator[tuple]:
        for start in range(0, len(run), self._run_limit):
            yield "run", run[start : start + self._run_limit]

    def _reject(self, message: str) -> tuple:
        self.received += 1
        return "error", {"error": message, "line": self.received}
