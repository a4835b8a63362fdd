"""SnapshotStore: atomic writes, retention, corruption fallback."""

import pytest

from repro.persistence.serialize import (
    SNAPSHOT_FORMAT_VERSION,
    PersistenceError,
    pack_container,
)
from repro.persistence.snapshots import SnapshotStore


def document(seq):
    return {"format": SNAPSHOT_FORMAT_VERSION, "slide_seq": seq, "algorithm": {}}


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(4, document(4))
        assert store.load(4) == document(4)
        assert store.load_latest() == (4, document(4))

    def test_no_tmp_files_left_behind(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(1, document(1))
        assert [p.name for p in tmp_path.iterdir()] == ["snapshot-0000000001.snap"]

    def test_sequences_sorted(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=10)
        for seq in (8, 2, 5):
            store.save(seq, document(seq))
        assert store.sequences() == [2, 5, 8]

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(PersistenceError):
            SnapshotStore(tmp_path).load(9)

    def test_empty_store_has_no_latest(self, tmp_path):
        assert SnapshotStore(tmp_path).load_latest() is None


class TestRetention:
    def test_keeps_newest_m(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        for seq in (1, 2, 3, 4):
            store.save(seq, document(seq))
        assert store.sequences() == [3, 4]

    def test_keep_validated(self, tmp_path):
        with pytest.raises(ValueError):
            SnapshotStore(tmp_path, keep=0)

    def test_prune_drops_all_but_newest(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=10)
        for seq in (1, 2, 3, 4):
            store.save(seq, document(seq))
        assert store.prune(keep=2) == [1, 2]
        assert store.sequences() == [3, 4]

    def test_prune_with_fewer_than_keep_is_noop(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=10)
        store.save(1, document(1))
        assert store.prune(keep=3) == []
        assert store.sequences() == [1]

    def test_prune_keep_validated(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(1, document(1))
        with pytest.raises(ValueError, match="keep"):
            store.prune(keep=0)
        assert store.sequences() == [1]


class TestCorruption:
    def test_corrupt_latest_falls_back_to_previous(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(1, document(1))
        store.save(2, document(2))
        store.path_for(2).write_bytes(b"{ damaged")
        assert store.load_latest() == (1, document(1))

    def test_all_corrupt_yields_none(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(1, document(1))
        store.path_for(1).write_text("junk")
        assert store.load_latest() is None

    def test_format_version_mismatch_raises(self, tmp_path):
        store = SnapshotStore(tmp_path)
        bad = document(3)
        bad["format"] = SNAPSHOT_FORMAT_VERSION + 1
        store.path_for(3).write_bytes(b"".join(pack_container(bad)))
        with pytest.raises(PersistenceError):
            store.load(3)
        with pytest.raises(PersistenceError):
            store.load_latest()
