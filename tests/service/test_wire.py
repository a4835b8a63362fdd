"""The ingest wire path: the decoder alone, re-chunking, and the server
reading whole runs off its sockets.

* ``TestDecoder`` — every line kind, the ``line`` numbers of error
  replies, ack points and run splitting, on hand-written streams;
* ``test_the_fast_parse_is_json_loads`` — the decoder's line parser
  agrees with ``json.loads`` on generated bytes;
* ``test_rechunking_never_changes_the_events`` — a generated byte stream
  split anywhere (mid-line, mid-character) decodes to the events of the
  same stream fed one whole line at a time;
* ``TestFieldRules`` — non-integer and out-of-int64 fields are refused at
  the wire and by ``RecoverableEngine.process``, so neither the writer nor
  the WAL ever sees one;
* ``TestOverLimitLine`` — a line over 1 MiB is answered, counted, then the
  connection closes;
* ``TestRunsOnTheQueue`` — a 50-line chunk is at most ``ceil(50 / slide)``
  queue items.
"""

import json
import math
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import ROOT, Action, ActionBatch, int64_field_error
from repro.core.greedy import WindowedGreedy
from repro.core.sic import SparseInfluentialCheckpoints
from repro.persistence.engine import RecoverableEngine
from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig
from repro.service.runner import ServiceRunner
from repro.service.wire import LINE_LIMIT, WireDecoder, _loads

SYNC = b'{"cmd":"sync"}'


def decode(data: bytes, ack_every: int = 1000, run_limit: int = 50):
    """Every event of ``data`` fed whole, then end of stream."""
    decoder = WireDecoder(ack_every=ack_every, run_limit=run_limit)
    return list(decoder.feed(data)) + list(decoder.feed(b""))


def merged(events):
    """Events with adjacent runs joined: what re-chunking must preserve."""
    out = []
    for kind, value in events:
        if kind == "run" and out and out[-1][0] == "run":
            out[-1] = ("run", out[-1][1] + list(value))
        else:
            out.append((kind, list(value) if kind == "run" else value))
    return out


class TestDecoder:
    def test_every_action_form_decodes(self):
        events = decode(
            b'[1,0,null]\n[2,1,1]\n{"time":3,"user":2}\n'
            b'{"time":4,"user":3,"parent":-1}\n[[5,1,4],{"time":6,"user":0,"parent":5}]\n'
        )
        assert events == [
            ("run", [
                Action(1, 0, ROOT), Action(2, 1, 1), Action(3, 2, ROOT),
                Action(4, 3, ROOT), Action(5, 1, 4), Action(6, 0, 5),
            ]),
        ]

    def test_commands_split_runs_in_stream_order(self):
        events = decode(b'[1,0,null]\n{"cmd":"flush"}\n[2,1,1]\n' + SYNC + b"\n")
        assert events == [
            ("run", [Action(1, 0)]),
            ("flush", 1),
            ("run", [Action(2, 1, 1)]),
            ("sync", 2),
        ]

    def test_error_lines_are_numbered_by_actions_plus_rejections(self):
        events = decode(
            b'[1,0,null]\nnot json\n{"cmd":"nope"}\n[2]\n  \n[2,1,1]\n'
            b'[[3,0,null],"bogus"]\n'
        )
        assert events == [
            ("run", [Action(1, 0)]),
            ("error", {
                "error": "unparseable line: Expecting value: line 1 column 1 (char 0)",
                "line": 2,
            }),
            ("error", {"error": "unknown cmd 'nope'", "line": 2}),
            ("error", {
                "error": "invalid action: action triple needs 3 fields, got 1",
                "line": 3,
            }),
            ("run", [Action(2, 1, 1)]),
            ("error", {
                "error": "invalid action: expected an action object or triple, got str",
                "line": 5,
            }),
        ]

    def test_a_run_is_out_before_the_next_rejection_counts(self):
        """While a run is handled, ``received`` counts through its last
        line only: a failed queueing reply carries that count."""
        decoder = WireDecoder(ack_every=1000, run_limit=50)
        seen = [(kind, decoder.received) for kind, _ in decoder.feed(b"[1,0,null]\nbad\n")]
        assert seen == [("run", 1), ("error", 2)]

    def test_acks_follow_the_run_that_crossed_a_boundary(self):
        batch = json.dumps([[t, 0, None] for t in range(3, 28)]).encode()
        events = decode(b"[1,0,null]\n[2,0,null]\n" + batch + b"\n", ack_every=10)
        assert [kind for kind, _ in events] == ["run", "ack"]
        assert len(events[0][1]) == 27
        assert events[1] == ("ack", 27)  # one ack for the line crossing 10 and 20

    def test_runs_hold_at_most_run_limit_actions(self):
        batch = json.dumps([[t, 0, None] for t in range(1, 12)]).encode()
        events = decode(batch + b"\n[12,0,null]\n", run_limit=4)
        assert [len(run) for _, run in events] == [4, 4, 3, 1]

    def test_a_final_unterminated_line_counts_at_end_of_stream(self):
        decoder = WireDecoder(ack_every=1000, run_limit=50)
        assert list(decoder.feed(b"[1,0,nu")) == []
        assert list(decoder.feed(b"ll]\n[2,1")) == [("run", [Action(1, 0)])]
        assert list(decoder.feed(b",1]")) == []
        assert list(decoder.feed(b"")) == [("run", [Action(2, 1, 1)])]

    def test_deep_nesting_is_an_unparseable_line(self):
        events = decode(b"[" * 5000 + b"]" * 5000 + b"\n[1,0,null]\n")
        assert events[0][0] == "error"
        assert events[0][1]["error"].startswith("unparseable line: maximum recursion")
        assert events[1] == ("run", [Action(1, 0)])

    def test_an_over_limit_line_closes_the_stream(self):
        """Refused once its unterminated part is over the limit."""
        decoder = WireDecoder(ack_every=1000, run_limit=50)
        assert list(decoder.feed(b"[1,0,null]\n[2,1,1," + b" " * LINE_LIMIT)) == [
            ("run", [Action(1, 0)]),
            ("close", {"error": f"line exceeds {LINE_LIMIT} bytes", "line": 2}),
        ]
        assert list(decoder.feed(b"]\n[3,0,null]\n")) == []
        assert list(decoder.feed(b"")) == []
        # A line of exactly the limit is fine.
        fits = b"[1,0," + b" " * (LINE_LIMIT - 10) + b"null]"
        assert decode(fits) == [("run", [Action(1, 0)])]


JSONISH = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
EDGE = st.sampled_from([
    b"", b" ", b"\t", b"\r\n", b"\x0c", b"\x00", b"\x00\x00", b"\xef\xbb\xbf",
    b"\xff\xfe", b"\xfe\xff", b"\xff", b"\xed\xa0\x80", b'"\\ud800"', b"NaN",
    b"-Infinity", b"-0", b"1.0", b"1e400", b",", b"]", b"}",
])
RAW = st.one_of(
    st.builds(
        lambda before, document, after: before + json.dumps(document).encode() + after,
        EDGE, JSONISH, EDGE,
    ),
    st.builds(
        lambda document, encoding: json.dumps(document, ensure_ascii=False).encode(encoding),
        JSONISH, st.sampled_from(["utf-8", "utf-8-sig", "utf-16", "utf-16-be", "utf-32-le"]),
    ),
    st.lists(EDGE, max_size=4).map(b"".join),
    st.binary(max_size=12),
)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(raw=RAW)
def test_the_fast_parse_is_json_loads(raw):
    """``_loads`` skips ``json.loads`` for a UTF-8 line holding one whole
    document; on any bytes (byte-order marks, NULs, UTF-16/32, surrogates,
    invalid UTF-8, trailing data) it returns or raises what ``json.loads``
    does."""

    def outcome(parse):
        try:
            return "ok", repr(parse(raw))
        except ValueError as error:
            return type(error), str(error)

    assert outcome(_loads) == outcome(json.loads)


# -- re-chunking ---------------------------------------------------------------

FIELDS = st.one_of(
    st.integers(-2, 40),
    st.none(),
    st.sampled_from([1.0, 2.5, float("inf"), True, False, 2**63, 2**70, "3"]),
)
VALID = st.builds(
    lambda time, user, parent, as_object: (
        {"time": time, "user": user, "parent": parent} if as_object
        else [time, user, parent]
    ),
    st.integers(2, 2**63 - 1), st.integers(0, 2**63 - 1),
    st.sampled_from([None, -1, 1]), st.booleans(),
)
ACTION = st.one_of(  # valid half the time, so runs span lines
    VALID,
    st.lists(FIELDS, min_size=2, max_size=4),
    VALID,
    st.fixed_dictionaries(
        {"time": FIELDS, "user": FIELDS}, optional={"parent": FIELDS, "note": st.text()}
    ),
)
DOCUMENT = st.one_of(
    ACTION,
    VALID,
    st.lists(ACTION, min_size=1, max_size=5),  # a batch line
    st.lists(VALID, min_size=1, max_size=9),
    st.sampled_from([{"cmd": "sync"}, {"cmd": "flush"}, {"cmd": "nope"}, {"cmd": [1]}]),
    st.sampled_from([7, "x", None, [], [[]], [[1, 0, None], 5], [[[1, 0, None]]]]),
)
LINE = st.one_of(
    st.builds(
        lambda document, spaced: json.dumps(
            document, ensure_ascii=False,
            separators=(", ", ": ") if spaced else (",", ":"),
        ).encode("utf-8"),
        DOCUMENT,
        st.booleans(),
    ),
    st.sampled_from([
        b"", b"  ", b"\t\r", b"[1,2", b"{", b"nonsense", b"[1,0,null]]",
        b"\xff[1,0,null]", b'["\xc3\xa9",1,null]', b"[1e400,1,null]",
        b"[" * 1500 + b"]" * 1500,  # deeper than the recursion limit
        b"[" + b"1," * (LINE_LIMIT // 2) + b"1]",  # over the line limit
    ]),
)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    lines=st.lists(LINE, min_size=1, max_size=25),
    terminated=st.booleans(),
    ack_every=st.integers(1, 12),
    run_limit=st.integers(1, 8),
    data=st.data(),
)
def test_rechunking_never_changes_the_events(
    lines, terminated, ack_every, run_limit, data
):
    """Split anywhere — mid-line, mid-UTF-8 — the stream decodes to the
    same actions between the same commands, errors (same line numbers)
    and acks as when it is fed one whole line at a time.  Unterminated,
    the final line is half written when end of stream arrives."""
    if not terminated:
        last = lines[-1]
        lines[-1] = last[: data.draw(st.integers(0, len(last)))]
    pieces = [line + b"\n" for line in lines]
    if not terminated:
        pieces[-1] = lines[-1]
    stream = b"".join(pieces)

    def feed_all(chunks):
        decoder = WireDecoder(ack_every=ack_every, run_limit=run_limit)
        events = []
        for chunk in chunks:
            events.extend(decoder.feed(chunk))
        events.extend(decoder.feed(b""))
        assert all(len(v) <= run_limit for k, v in events if k == "run")
        return events, decoder.received

    cuts = sorted(data.draw(st.sets(st.integers(0, len(stream)), max_size=12)))
    bounds = [0, *cuts, len(stream)]
    chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:]) if a < b]
    expected, received = feed_all([piece for piece in pieces if piece])
    events, chunked_received = feed_all(chunks)
    assert merged(events) == merged(expected)
    assert chunked_received == received


def reference_action(document) -> Action:
    """A line's action as the decoder built it before runs became
    batches: fields by ``int64_field_error``, invariants by ``Action``."""
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


class ActionListDecoder(WireDecoder):
    """The decoder with an ``Action`` built per line and runs as lists."""

    def _decode(self, raw, run):
        try:
            document = _loads(raw)
        except (ValueError, RecursionError) as error:
            return "reject", f"unparseable line: {error}"
        if isinstance(document, dict) and "cmd" in document:
            command = document["cmd"]
            if command in ("sync", "flush"):
                return command, self.received
            return "error", {"error": f"unknown cmd {command!r}", "line": self.received}
        first = document[0] if isinstance(document, list) and document else None
        items = document if isinstance(first, (list, dict)) else [document]
        try:
            actions = [reference_action(item) for item in items]
        except (ValueError, TypeError, KeyError) as error:
            return "reject", f"invalid action: {error}"
        before = self.received
        self.received += len(actions)
        run += actions
        if self.received // self._ack_every > before // self._ack_every:
            return "ack", self.received
        return None

    def _runs(self, run):
        for start in range(0, len(run), self._run_limit):
            yield "run", run[start : start + self._run_limit]


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    lines=st.lists(LINE, min_size=1, max_size=25),
    ack_every=st.integers(1, 12),
    run_limit=st.integers(1, 8),
)
def test_batches_equal_the_per_action_decoder(lines, ack_every, run_limit):
    """Each run is an ``ActionBatch`` holding the actions a decoder
    building one ``Action`` per line yields, and every other event — acks,
    commands, rejects and their ``line`` numbers — is the same, in order."""
    stream = b"".join(line + b"\n" for line in lines)

    def events(decoder):
        return list(decoder.feed(stream)) + list(decoder.feed(b"")), decoder.received

    got, received = events(WireDecoder(ack_every=ack_every, run_limit=run_limit))
    want, want_received = events(ActionListDecoder(ack_every=ack_every, run_limit=run_limit))
    assert [kind for kind, _ in got] == [kind for kind, _ in want]
    for (kind, value), (_, reference) in zip(got, want):
        if kind == "run":
            assert type(value) is ActionBatch and list(value) == reference
        else:
            assert value == reference
    assert received == want_received


@pytest.mark.parametrize("triple", [
    [1, 0, None], [0, 1, None], [-1, 1, None], [1, -1, None], [2, 1, 1],
    [2, 1, 2], [2, 1, 0], [2, 1, -2], [2, 1, -1], [2**63 - 1, 2**63 - 1, 2**63 - 2],
    [2**63, 1, None], [1, 2**63, None], [3, 1, 2**63], [-(2**63), 1, None],
    [True, 1, None], [1, False, None], [2, 1, True], [2.0, 1, None], [2, 1, 1.0],
])
def test_the_triple_fast_path_holds_every_bound(triple):
    """One-triple lines take a checked fast path; at each bound of each
    field it accepts and refuses what the per-action decoder does."""
    stream = json.dumps(triple).encode() + b"\n"
    got = decode(stream)
    reference = ActionListDecoder(ack_every=1000, run_limit=50)
    want = list(reference.feed(stream)) + list(reference.feed(b""))
    assert [(kind, list(value) if kind == "run" else value) for kind, value in got] == want


# -- the server ------------------------------------------------------------------


def exchange(port: int, payload: bytes, replies: int) -> list:
    """Send ``payload`` on one ingest connection; read ``replies`` lines."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(payload)
        reader = sock.makefile("rb")
        return [json.loads(reader.readline()) for _ in range(replies)]


def sync(port: int) -> dict:
    return exchange(port, SYNC + b"\n", 1)[0]


def greedy_runner(**config) -> ServiceRunner:
    engine = RecoverableEngine.open(None, lambda: WindowedGreedy(window_size=100, k=2))
    return ServiceRunner(engine, ServiceConfig(port=0, flush_interval=60.0, **config))


class TestFieldRules:
    """Since the forest stores int64 columns, a float, bool or oversize
    field used to reach the writer, kill it and land in the WAL."""

    BAD = [
        b"[3,2,1.0]", b"[2.5,1,1]", b"[3,1.5,null]", b"[1e400,1,null]",
        b"[%d,1,null]" % 2**70, b"[3,%d,null]" % 2**70, b"[true,1,null]",
        b'{"time":3,"user":false}', b"[[3,1,null],[4,1,1.0]]",
    ]

    @staticmethod
    def factory():
        return SparseInfluentialCheckpoints(window_size=20, k=2, beta=0.3)

    def test_refused_at_the_wire_with_the_writer_alive(self, tmp_path):
        state = tmp_path / "state"
        engine = RecoverableEngine.open(state, self.factory)
        lines = [b"[1,0,null]", b"[2,1,1]", *self.BAD, b"[3,2,1]", b"[4,1,3]", SYNC]
        with ServiceRunner(
            engine, ServiceConfig(port=0, slide=2, flush_interval=60.0)
        ) as runner:
            replies = exchange(runner.port, b"\n".join(lines) + b"\n", len(self.BAD) + 1)
            status, health = ServiceClient("127.0.0.1", runner.port).http_get("/healthz")
        *errors, synced = replies
        assert [e["line"] for e in errors] == list(range(3, 3 + len(self.BAD)))
        assert all(e["error"].startswith("invalid action: ") for e in errors)
        assert (synced["accepted"], synced["rejected"], synced["time"]) == (4, len(self.BAD), 4)
        assert status == 200 and health["status"] == "ok"
        reopened = RecoverableEngine.open(state, self.factory)
        try:
            assert reopened.now == 4
        finally:
            reopened.close(snapshot=False)

    @pytest.mark.parametrize("bad", [
        Action(3, 2, 1.0), Action(3.0, 2), Action(True, 2), Action(2**70, 2),
        Action(3, 2**70),
    ], ids=["float-parent", "float-time", "bool-time", "huge-time", "huge-user"])
    def test_refused_by_the_engine_before_the_wal(self, tmp_path, bad):
        state = tmp_path / "state"
        engine = RecoverableEngine.open(state, self.factory, snapshot_every=0)
        engine.process([Action(1, 0), Action(2, 1, 1)])
        with pytest.raises(ValueError, match="invalid action"):
            engine.process([bad])
        engine.process([Action(3, 2, 1)])
        engine.close(snapshot=False)
        reopened = RecoverableEngine.open(state, self.factory)
        try:
            assert (reopened.replayed_slides, reopened.now) == (2, 3)
        finally:
            reopened.close(snapshot=False)


class TestOverLimitLine:
    def test_answered_counted_then_closed(self):
        """It used to close the connection without a word, uncounted."""
        oversize = b"[" + b"1," * LINE_LIMIT + b"1]\n"  # 2 MiB
        with greedy_runner(slide=100) as runner:
            with socket.create_connection(("127.0.0.1", runner.port), timeout=10) as sock:

                def send():
                    try:
                        sock.sendall(b"[1,0,null]\n[2,1,1]\n" + oversize)
                    except OSError:  # the server may close mid-send
                        pass

                sender = threading.Thread(target=send)
                sender.start()
                reader = sock.makefile("rb")
                reply = json.loads(reader.readline())
                try:
                    assert reader.read() == b""
                except ConnectionResetError:
                    pass
                sender.join(10)
            synced = sync(runner.port)
        assert reply == {"error": f"line exceeds {LINE_LIMIT} bytes", "line": 3}
        assert (synced["accepted"], synced["rejected"], synced["time"]) == (2, 1, 2)


class TestRunsOnTheQueue:
    @pytest.mark.parametrize("slide", [7, 50])
    def test_a_50_line_chunk_is_at_most_ceil_50_over_slide_items(self, monkeypatch, slide):
        """One queue item per run, not per action (50 per chunk before)."""
        lines = b"".join(b"[%d,%d,null]\n" % (t, t % 9) for t in range(1, 51))
        with greedy_runner(slide=slide) as runner:
            with socket.create_connection(("127.0.0.1", runner.port), timeout=10) as sock:
                reader = sock.makefile("rb")
                sock.sendall(SYNC + b"\n")  # the first line is read on its own
                assert json.loads(reader.readline())["synced"]
                queue = runner.service.ingest._queue
                items = []
                put_nowait = queue.put_nowait

                def counting_put_nowait(item):
                    items.append(item)
                    return put_nowait(item)

                monkeypatch.setattr(queue, "put_nowait", counting_put_nowait)
                sock.sendall(lines + SYNC + b"\n")
                synced = json.loads(reader.readline())
        runs = [item for item in items if type(item) is tuple]
        assert len(runs) <= math.ceil(50 / slide)
        assert synced["accepted"] == 50
        assert [a.time for _, run in runs for a in run] == list(range(1, 51))
