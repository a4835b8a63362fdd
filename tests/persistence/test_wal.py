"""ActionWAL: append/replay roundtrips, rotation, torn tails, retention."""

import json
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import Action
from repro.core.resolve import SlideResolver
from repro.persistence.serialize import PersistenceError
from repro.persistence.wal import ActionWAL
from tests.conftest import random_stream


@pytest.fixture
def open_wal():
    """``ActionWAL(...)`` that the test's teardown closes (an open segment
    handle is a ``ResourceWarning`` under ``python -X dev``)."""
    opened = []

    def open_(*args, **kwargs):
        wal = ActionWAL(*args, **kwargs)
        opened.append(wal)
        return wal

    yield open_
    for wal in opened:
        wal.close()


def resolved_slides(n=6, start_seed=61):
    """``n`` routed slides of three resolved actions each."""
    resolver = SlideResolver()
    return [
        resolver.resolve(batch)
        for batch in (
            random_stream(n * 3, 5, seed=start_seed)[i : i + 3]
            for i in range(0, n * 3, 3)
        )
    ]


def slides(n, per_slide=2):
    """``n`` consecutive slides of ``per_slide`` root actions each."""
    out = []
    time = 1
    for _ in range(n):
        batch = []
        for _ in range(per_slide):
            batch.append(Action.root(time, time % 5))
            time += 1
        out.append(batch)
    return out


class TestAppendReplay:
    def test_roundtrip(self, tmp_path, open_wal):
        wal = open_wal(tmp_path, fsync=False)
        batches = slides(5)
        for seq, batch in enumerate(batches, start=1):
            wal.append(seq, batch)
        wal.close()
        replayed = list(open_wal(tmp_path, fsync=False).replay())
        assert [seq for seq, _ in replayed] == [1, 2, 3, 4, 5]
        assert [actions for _, actions in replayed] == batches

    def test_replay_after_skips_prefix(self, tmp_path, open_wal):
        wal = open_wal(tmp_path, fsync=False)
        for seq, batch in enumerate(slides(6), start=1):
            wal.append(seq, batch)
        assert [seq for seq, _ in wal.replay(after=4)] == [5, 6]

    def test_empty_wal(self, tmp_path, open_wal):
        wal = open_wal(tmp_path, fsync=False)
        assert wal.last_seq == 0
        assert list(wal.replay()) == []

    def test_append_continues_after_reopen(self, tmp_path, open_wal):
        wal = open_wal(tmp_path, fsync=False)
        batches = slides(6)
        for seq in (1, 2, 3):
            wal.append(seq, batches[seq - 1])
        wal.close()
        reopened = open_wal(tmp_path, fsync=False)
        assert reopened.last_seq == 3
        for seq in (4, 5, 6):
            reopened.append(seq, batches[seq - 1])
        assert [seq for seq, _ in reopened.replay()] == [1, 2, 3, 4, 5, 6]

    def test_out_of_order_append_rejected(self, tmp_path, open_wal):
        wal = open_wal(tmp_path, fsync=False)
        wal.append(1, slides(1)[0])
        with pytest.raises(PersistenceError):
            wal.append(3, slides(1)[0])
        with pytest.raises(PersistenceError):
            wal.append(1, slides(1)[0])

    def test_fresh_wal_accepts_any_start(self, tmp_path, open_wal):
        """After pruning, the log legitimately starts past slide 1."""
        wal = open_wal(tmp_path, fsync=False)
        wal.append(17, slides(1)[0])
        assert [seq for seq, _ in wal.replay()] == [17]


class TestRotation:
    def test_segments_rotate_at_capacity(self, tmp_path, open_wal):
        wal = open_wal(tmp_path, segment_records=3, fsync=False)
        for seq, batch in enumerate(slides(8), start=1):
            wal.append(seq, batch)
        names = [p.name for p in wal.segments()]
        assert names == [
            "wal-0000000001.jsonl",
            "wal-0000000004.jsonl",
            "wal-0000000007.jsonl",
        ]
        assert [seq for seq, _ in wal.replay()] == list(range(1, 9))

    def test_reopen_respects_partial_tail_segment(self, tmp_path, open_wal):
        wal = open_wal(tmp_path, segment_records=3, fsync=False)
        for seq, batch in enumerate(slides(4), start=1):
            wal.append(seq, batch)
        wal.close()
        reopened = open_wal(tmp_path, segment_records=3, fsync=False)
        reopened.append(5, slides(5)[4])
        # Slides 4 and 5 share the second segment; no spurious third one.
        assert len(reopened.segments()) == 2
        assert [seq for seq, _ in reopened.replay()] == [1, 2, 3, 4, 5]

    def test_prune_through_drops_covered_segments(self, tmp_path, open_wal):
        wal = open_wal(tmp_path, segment_records=2, fsync=False)
        for seq, batch in enumerate(slides(7), start=1):
            wal.append(seq, batch)
        removed = wal.prune_through(4)
        assert removed == 2  # segments [1,2] and [3,4]
        assert [seq for seq, _ in wal.replay(after=4)] == [5, 6, 7]

    def test_prune_never_removes_active_segment(self, tmp_path, open_wal):
        wal = open_wal(tmp_path, segment_records=2, fsync=False)
        for seq, batch in enumerate(slides(2), start=1):
            wal.append(seq, batch)
        assert wal.prune_through(2) == 0
        assert len(wal.segments()) == 1


class TestCorruption:
    def test_torn_tail_ends_replay_cleanly(self, tmp_path, open_wal):
        wal = open_wal(tmp_path, fsync=False)
        for seq, batch in enumerate(slides(4), start=1):
            wal.append(seq, batch)
        wal.close()
        segment = wal.segments()[-1]
        segment.write_bytes(segment.read_bytes()[:-9])
        assert [seq for seq, _ in open_wal(tmp_path, fsync=False).replay()] == [
            1,
            2,
            3,
        ]

    def test_reopen_truncates_torn_tail_then_appends(self, tmp_path, open_wal):
        wal = open_wal(tmp_path, fsync=False)
        batches = slides(5)
        for seq in (1, 2, 3):
            wal.append(seq, batches[seq - 1])
        wal.close()
        segment = wal.segments()[-1]
        segment.write_bytes(segment.read_bytes()[:-5])
        reopened = open_wal(tmp_path, fsync=False)
        assert reopened.last_seq == 2  # the torn third record is discarded
        reopened.append(3, batches[2])
        replayed = list(reopened.replay())
        assert [seq for seq, _ in replayed] == [1, 2, 3]
        assert replayed[-1][1] == batches[2]

    def test_mid_log_corruption_raises(self, tmp_path, open_wal):
        wal = open_wal(tmp_path, segment_records=2, fsync=False)
        for seq, batch in enumerate(slides(6), start=1):
            wal.append(seq, batch)
        wal.close()
        first = wal.segments()[0]
        first.write_text("not json\n" + first.read_text().split("\n", 1)[1])
        with pytest.raises(PersistenceError):
            list(open_wal(tmp_path, fsync=False).replay())

    def test_sequence_gap_raises(self, tmp_path, open_wal):
        wal = open_wal(tmp_path, segment_records=2, fsync=False)
        for seq, batch in enumerate(slides(6), start=1):
            wal.append(seq, batch)
        wal.close()
        wal.segments()[1].unlink()  # drop slides 3-4
        with pytest.raises(PersistenceError):
            list(open_wal(tmp_path, fsync=False).replay())

    def test_record_preserves_action_fields(self, tmp_path, open_wal):
        wal = open_wal(tmp_path, fsync=False)
        batch = [Action.root(1, 7), Action.response(2, 3, 1)]
        wal.append(1, batch)
        wal.close()
        raw = json.loads(wal.segments()[0].read_text().strip())
        assert raw["seq"] == 1
        assert raw["actions"] == [[1, 7, -1], [2, 3, 1]]
        assert isinstance(raw["crc"], int)  # per-record checksum
        [(_, actions)] = list(open_wal(tmp_path, fsync=False).replay())
        assert actions == batch


class TestChecksums:
    """Per-record CRC32: bit rot that still parses must not replay."""

    def _flip_payload_byte(self, segment, line_index):
        """Corrupt one digit inside record ``line_index`` without breaking
        the JSON structure (the checksum must do the catching)."""
        lines = segment.read_bytes().split(b"\n")
        line = bytearray(lines[line_index])
        # Flip a user id digit inside "actions":[[t,u,p],...]
        anchor = line.find(b'"actions":[[')
        assert anchor != -1
        digit = line.index(b",", anchor) + 1
        line[digit] = ord("9") if line[digit] != ord("9") else ord("8")
        lines[line_index] = bytes(line)
        segment.write_bytes(b"\n".join(lines))

    def test_mid_segment_bit_rot_raises_with_segment_and_seq(self, tmp_path, open_wal):
        wal = open_wal(tmp_path, fsync=False)
        for seq, batch in enumerate(slides(4), start=1):
            wal.append(seq, batch)
        wal.close()
        opened = open_wal(tmp_path, fsync=False)  # clean before corruption
        segment = wal.segments()[0]
        self._flip_payload_byte(segment, line_index=1)  # record seq 2
        with pytest.raises(
            PersistenceError,
            match=f"checksum mismatch in segment {segment.name} at record seq 2",
        ):
            list(opened.replay())
        with pytest.raises(
            PersistenceError,
            match=f"checksum mismatch in segment {segment.name} at record seq 2",
        ):
            open_wal(tmp_path, fsync=False)
        opened.close()

    def test_final_record_bit_rot_is_a_torn_tail(self, tmp_path, open_wal):
        wal = open_wal(tmp_path, fsync=False)
        batches = slides(4)
        for seq in (1, 2, 3):
            wal.append(seq, batches[seq - 1])
        wal.close()
        self._flip_payload_byte(wal.segments()[-1], line_index=2)
        reopened = open_wal(tmp_path, fsync=False)
        assert reopened.last_seq == 2  # damaged record 3 truncated away
        reopened.append(3, batches[2])  # redelivery heals the lost slide
        assert [seq for seq, _ in reopened.replay()] == [1, 2, 3]

    def test_a_damaged_newline_is_not_a_torn_tail(self, tmp_path, open_wal):
        """Record 4 of 5 was complete and fsynced; one flipped bit in its
        newline merges it with record 5 into the final line.  A torn append
        cannot do that, so reopening refuses instead of truncating to 3."""
        wal = open_wal(tmp_path, fsync=False)
        for seq, batch in enumerate(slides(5), start=1):
            wal.append(seq, batch)
        wal.close()
        segment = wal.segments()[0]
        raw = bytearray(segment.read_bytes())
        raw[[i for i, byte in enumerate(raw) if byte == ord("\n")][3]] ^= 1
        segment.write_bytes(bytes(raw))
        with pytest.raises(
            PersistenceError, match=f"WAL segment {segment.name}: record seq 4 "
        ):
            open_wal(tmp_path, fsync=False)

    def test_records_without_crc_still_replay(self, tmp_path, open_wal):
        """Backward compatibility: segments from before checksums."""
        wal = open_wal(tmp_path, fsync=False)
        wal.append(1, slides(1)[0])
        wal.close()
        segment = wal.segments()[0]
        record = json.loads(segment.read_text().strip())
        del record["crc"]
        old_style = json.dumps(
            {"seq": 2, "actions": [[2, 1, -1]]}, separators=(",", ":")
        )
        segment.write_text(
            json.dumps(record, separators=(",", ":")) + "\n" + old_style + "\n"
        )
        reopened = open_wal(tmp_path, fsync=False)
        assert reopened.last_seq == 2
        assert [seq for seq, _ in reopened.replay()] == [1, 2]


class TestRoutedRecords:
    """Routed-slide WAL records: the format behind routed sharded ingest."""

    def test_append_resolved_roundtrip(self, tmp_path, open_wal):
        from repro.core.resolve import ResolvedSlide

        wal = open_wal(tmp_path, fsync=False)
        resolved = resolved_slides()
        for seq, slide in enumerate(resolved, start=1):
            wal.append_resolved(seq, slide)
        wal.close()
        replayed = list(open_wal(tmp_path, fsync=False).replay())
        assert [seq for seq, _ in replayed] == list(range(1, len(resolved) + 1))
        for _, payload in replayed:
            assert isinstance(payload, ResolvedSlide)
        assert [payload for _, payload in replayed] == resolved

    def test_action_and_routed_records_interleave(self, tmp_path, open_wal):
        """A migrated shard log: broadcast-era prefix, routed suffix."""
        from repro.core.resolve import ResolvedSlide

        wal = open_wal(tmp_path, fsync=False)
        batches = slides(2)
        wal.append(1, batches[0])
        wal.append(2, batches[1])
        routed = resolved_slides(n=2, start_seed=62)
        # Shift routed slides past the action prefix's clock.
        wal.append_resolved(3, routed[0])
        wal.append_resolved(4, routed[1])
        wal.close()
        replayed = list(open_wal(tmp_path, fsync=False).replay())
        kinds = [type(payload).__name__ for _, payload in replayed]
        assert kinds == ["list", "list", "ResolvedSlide", "ResolvedSlide"]
        assert replayed[0][1] == batches[0]
        assert replayed[2][1] == routed[0]

    def test_newer_wire_version_raises_even_at_tail(self, tmp_path, open_wal):
        """A checksum-valid routed record this build cannot decode is a
        format problem, never a torn tail — replay must refuse, not
        silently truncate the shard's history."""
        from repro.persistence.wal import _record_crc, _record_payload

        wal = open_wal(tmp_path, fsync=False)
        for seq, slide in enumerate(resolved_slides(n=3), start=1):
            wal.append_resolved(seq, slide)
        wal.close()
        segment = wal.segments()[-1]
        lines = segment.read_text().strip().split("\n")
        record = json.loads(lines[-1])
        record["slide"]["v"] += 1  # a future wire format
        record["crc"] = _record_crc(_record_payload(record))
        lines[-1] = json.dumps(record, separators=(",", ":"))
        segment.write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistenceError, match="unreadable WAL record"):
            list(open_wal(tmp_path, fsync=False).replay())

    def test_unchecksummed_routed_tail_stays_torn_ok(self, tmp_path, open_wal):
        """Only legacy records without a CRC keep torn-tail forgiveness."""
        wal = open_wal(tmp_path, fsync=False)
        for seq, slide in enumerate(resolved_slides(n=2), start=1):
            wal.append_resolved(seq, slide)
        wal.close()
        segment = wal.segments()[-1]
        lines = segment.read_text().strip().split("\n")
        record = json.loads(lines[-1])
        del record["crc"]
        record["slide"]["v"] += 1  # undecodable, but no checksum: torn-ok
        lines[-1] = json.dumps(record, separators=(",", ":"))
        # No trailing newline: the damaged record is a genuine torn append.
        segment.write_text("\n".join(lines))
        replayed = list(open_wal(tmp_path, fsync=False).replay())
        assert [seq for seq, _ in replayed] == [1]

    def test_recoverable_engine_routed_crash_reopen(self, tmp_path):
        """apply_resolved is write-ahead: a crash between snapshots replays
        routed records and answers exactly like the unbroken run."""
        from repro.core.ic import InfluentialCheckpoints
        from repro.core.resolve import SlideResolver
        from repro.core.stream import batched
        from repro.persistence.engine import RecoverableEngine

        from tests.conftest import random_stream

        actions = random_stream(80, 10, seed=63)
        make = lambda: InfluentialCheckpoints(window_size=30, k=3, beta=0.3)

        oracle = make()
        resolver = SlideResolver()
        resolved = [resolver.resolve(list(b)) for b in batched(actions, 4)]
        for slide in resolved:
            oracle.apply_resolved(slide)

        engine = RecoverableEngine.open(
            tmp_path, make, snapshot_every=5, fsync=False
        )
        for slide in resolved[:13]:
            engine.apply_resolved(slide)
        engine._store.close()  # crash: snapshot at 10, WAL tail 11-13

        recovered = RecoverableEngine.open(tmp_path, make, fsync=False)
        assert recovered.slides_processed == 13
        assert recovered.replayed_slides == 3
        for slide in resolved[13:]:
            recovered.apply_resolved(slide)
        assert recovered.query() == oracle.query()
        recovered.close()


#: Payloads the generated histories draw their records from, by kind.
PAYLOADS = {"actions": slides(12), "routed": resolved_slides(12)}


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    kinds=st.lists(st.sampled_from(sorted(PAYLOADS)), min_size=2, max_size=12),
    segments=st.integers(1, 3),
    data=st.data(),
)
def test_one_flipped_bit_in_the_final_segment_has_a_named_outcome(
    tmp_path_factory, kinds, segments, data
):
    """2-12 records of both kinds over 1-3 segments, one bit flipped
    anywhere in the final segment (a newline byte half the time).  Opening
    plus ``replay()`` — and ``replay()`` on a log opened before the damage —
    either refuses, naming the segment, or yields every record before the
    damaged one and every record after it: only a damaged final record may
    go missing."""
    directory = tmp_path_factory.mktemp("wal")
    records = [PAYLOADS[kind][i] for i, kind in enumerate(kinds)]
    per_segment = -(-len(records) // segments)
    wal = ActionWAL(directory, segment_records=per_segment, fsync=False)
    for seq, (kind, payload) in enumerate(zip(kinds, records), start=1):
        if kind == "actions":
            wal.append(seq, payload)
        else:
            wal.append_resolved(seq, payload)
    wal.close()
    opened = ActionWAL(directory, segment_records=per_segment, fsync=False)
    segment = wal.segments()[-1]
    raw = bytearray(segment.read_bytes())
    newlines = [i for i, byte in enumerate(raw) if byte == ord("\n")]
    at = data.draw(st.sampled_from(newlines) | st.integers(0, len(raw) - 1))
    raw[at] ^= 1 << data.draw(st.integers(0, 7))
    segment.write_bytes(bytes(raw))
    # The final segment holds one record per newline; a newline belongs to
    # the record it ends.  ``intact`` records come before the damaged one.
    intact = len(records) - len(newlines) + bisect_left(newlines, at)

    def reopen_and_replay():
        reopened = ActionWAL(directory, segment_records=per_segment, fsync=False)
        try:
            return list(reopened.replay())
        finally:
            reopened.close()

    for replay in (lambda: list(opened.replay()), reopen_and_replay):
        try:
            replayed = replay()
        except PersistenceError as refusal:
            assert segment.name in str(refusal)
            continue
        assert replayed == list(enumerate(records, start=1))[: len(replayed)]
        dropped = len(records) - len(replayed)
        assert dropped == 0 or dropped == 1 and intact == len(records) - 1
    opened.close()
