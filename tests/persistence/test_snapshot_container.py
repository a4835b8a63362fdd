"""The snapshot container: every boundary has a named outcome.

A container is a 20-byte preamble (magic, container version, header
length, header CRC32), a JSON header (the document's scalars plus one
``name / dtype / shape / offset / crc32`` declaration per array) and the
arrays as raw little-endian sections.  Whatever happens to a file on disk
must land in one of three outcomes, never in a bare ``KeyError`` /
``struct.error`` / numpy error:

* **torn** (truncated anywhere, wrong magic, header failing its CRC,
  sections reaching past the end): ``load_latest`` skips the file in
  favour of an older retained one, ``load`` raises "unreadable";
* **whole and wrong** (a section failing its CRC, an unknown dtype): a
  ``PersistenceError`` naming the file *and* the section;
* **foreign** (unknown container or envelope version, or an all-JSON
  ``snapshot-*.json`` in the directory): a ``PersistenceError`` —
  systemic, falling back cannot help.

Also here: the either-plane rule through a committed kernel-written
fixture (so the compiler-less reader runs under ``REPRO_NO_CKERNEL=1``
too), the ``*.tmp`` sweep, and the SHA-256 of the files two seeded engines
write on each plane.  Regenerate the fixture (needs the compiled kernel) with
``PYTHONPATH=src:. python tests/persistence/test_snapshot_container.py``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ic import InfluentialCheckpoints
from repro.core.sic import SparseInfluentialCheckpoints
from repro.core.stream import batched
from repro.datasets.synthetic import syn_n
from repro.persistence.engine import RecoverableEngine
from repro.persistence.serialize import (
    CONTAINER_VERSION,
    SNAPSHOT_FORMAT_VERSION,
    PersistenceError,
    algorithm_from_state,
    pack_container,
)
from repro.persistence.snapshots import SnapshotStore
from tests.conftest import random_stream, require_ckernel

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "kernel_plane.snap"
PREAMBLE = struct.Struct("<8sIII")
#: The good older snapshot (seq 1) every victim (seq 2) sits beside.
OLDER = {"format": SNAPSHOT_FORMAT_VERSION, "slide_seq": 1, "algorithm": {}}
QUICK = settings(max_examples=60, deadline=None, database=None, derandomize=True)


def factory(**kwargs):
    return SparseInfluentialCheckpoints(window_size=40, k=3, beta=0.25, **kwargs)


def fixture_batches():
    return list(batched(random_stream(120, 8, seed=21), 5))


def drive(algorithm, batches):
    answers = []
    for batch in batches:
        algorithm.process(batch)
        answers.append(algorithm.query())
    return answers


def envelope(algorithm, seq=2):
    return {
        "format": SNAPSHOT_FORMAT_VERSION,
        "slide_seq": seq,
        "algorithm": algorithm.to_state(),
    }


def container_bytes() -> bytes:
    """A real engine's container (object plane: runs with or without cc)."""
    engine = factory(columnar=False)
    drive(engine, fixture_batches()[:12])
    return b"".join(pack_container(envelope(engine)))


RAW = container_bytes()
_, _, HEADER_BYTES, _ = PREAMBLE.unpack_from(RAW)
DATA_START = PREAMBLE.size + HEADER_BYTES


def reheadered(edit) -> bytes:
    """``RAW`` with ``edit(header)`` applied and the header CRC recomputed —
    a file whose header is *valid* and says something else."""
    header = json.loads(RAW[PREAMBLE.size : DATA_START])
    edit(header)
    encoded = json.dumps(header).encode()
    encoded += b" " * (-(PREAMBLE.size + len(encoded)) % 8)
    preamble = PREAMBLE.pack(
        b"REPROSNP", CONTAINER_VERSION, len(encoded), zlib.crc32(encoded)
    )
    return preamble + encoded + RAW[DATA_START:]


def flipped(raw: bytes, bit: int) -> bytes:
    damaged = bytearray(raw)
    damaged[bit >> 3] ^= 1 << (bit & 7)
    return bytes(damaged)


@pytest.fixture
def store(tmp_path):
    """A store holding a good older snapshot (seq 1) beside the victim (2)."""
    store = SnapshotStore(tmp_path)
    store.save(1, OLDER)
    return store


def plant(store, raw: bytes) -> None:
    store.path_for(2).write_bytes(raw)


def assert_torn(store) -> None:
    assert store.load_latest()[0] == 1
    with pytest.raises(PersistenceError, match="unreadable snapshot snapshot-0000000002.snap"):
        store.load(2)


class TestTornFiles:
    def test_undamaged_file_loads(self, store):
        plant(store, RAW)
        seq, document = store.load_latest()
        assert seq == 2
        assert algorithm_from_state(document["algorithm"]).query().time == 60

    @QUICK
    @given(cut=st.integers(0, len(RAW) - 1))
    def test_truncation_at_any_byte_falls_back(self, tmp_path_factory, cut):
        store = SnapshotStore(tmp_path_factory.mktemp("cut"))
        store.save(1, OLDER)
        plant(store, RAW[:cut])
        assert_torn(store)

    @QUICK
    @given(bit=st.integers(PREAMBLE.size * 8, DATA_START * 8 - 1))
    def test_flipped_header_bit_falls_back(self, tmp_path_factory, bit):
        store = SnapshotStore(tmp_path_factory.mktemp("hdr"))
        store.save(1, OLDER)
        plant(store, flipped(RAW, bit))
        assert_torn(store)

    def test_wrong_magic_falls_back(self, store):
        plant(store, b"NOTASNAP" + RAW[8:])
        assert_torn(store)

    def test_section_reaching_past_eof_falls_back(self, store):
        def grow(header):
            header["sections"][-1]["shape"] = [10**6]

        plant(store, reheadered(grow))
        assert_torn(store)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda h: h.pop("sections"),
            lambda h: h["sections"].__setitem__(0, [1, 2]),
            lambda h: h["sections"][0].pop("name"),
        ],
        ids=["no-sections", "section-a-list", "nameless-section"],
    )
    def test_header_that_is_not_a_header_falls_back(self, store, damage):
        plant(store, reheadered(damage))
        assert_torn(store)


class TestWholeAndWrong:
    @QUICK
    @given(bit=st.integers(DATA_START * 8, len(RAW) * 8 - 1))
    def test_flipped_section_bit_is_refused_by_name(self, tmp_path_factory, bit):
        store = SnapshotStore(tmp_path_factory.mktemp("sec"))
        store.save(1, OLDER)
        plant(store, flipped(RAW, bit))
        header = json.loads(RAW[PREAMBLE.size : DATA_START])
        at = (bit >> 3) - DATA_START
        victim = [s for s in header["sections"] if s["offset"] <= at][-1]["name"]
        for load in (store.load_latest, lambda: store.load(2)):
            with pytest.raises(PersistenceError) as refusal:
                load()
            message = str(refusal.value)
            assert "snapshot-0000000002.snap" in message
            assert repr(victim) in message and "CRC32" in message

    def test_unknown_dtype_is_refused_by_name(self, store):
        def retype(header):
            header["sections"][3]["dtype"] = "<c16"

        plant(store, reheadered(retype))
        name = json.loads(RAW[PREAMBLE.size : DATA_START])["sections"][3]["name"]
        with pytest.raises(PersistenceError) as refusal:
            store.load_latest()
        assert "snapshot-0000000002.snap" in str(refusal.value)
        assert repr(name) in str(refusal.value)
        assert "unknown dtype '<c16'" in str(refusal.value)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda h: h["sections"][0].pop("shape"),
            lambda h: h["sections"][0].update(shape=[-4]),
            lambda h: h["sections"][0].update(offset=-64),
            lambda h: h["sections"][0].update(offset="x"),
            lambda h: h["document"]["algorithm"]["base"]["window"].update(
                actions={"$section": 10**6}
            ),
        ],
        ids=["no-shape", "negative-shape", "negative-offset", "text-offset", "dangling"],
    )
    def test_malformed_declarations_raise_persistence_errors(self, store, damage):
        plant(store, reheadered(damage))
        with pytest.raises(PersistenceError, match="snapshot-0000000002.snap"):
            store.load_latest()


class TestForeign:
    def test_unknown_container_version_raises(self, store):
        plant(store, RAW[:8] + struct.pack("<I", CONTAINER_VERSION + 1) + RAW[12:])
        for load in (store.load_latest, lambda: store.load(2)):
            with pytest.raises(PersistenceError, match="container version 2"):
                load()

    def test_unknown_envelope_version_raises(self, store):
        engine = factory(columnar=False)
        document = envelope(engine)
        document["format"] = SNAPSHOT_FORMAT_VERSION + 1
        plant(store, b"".join(pack_container(document)))
        with pytest.raises(PersistenceError, match="format version 2"):
            store.load_latest()

    def test_json_snapshot_is_refused_by_name_when_the_store_opens(self, tmp_path):
        engine = RecoverableEngine.open(tmp_path, factory, snapshot_every=2, fsync=False)
        drive(engine, fixture_batches()[:4])
        engine.close()
        json_file = tmp_path / "snapshots" / "snapshot-0000000002.json"
        json_file.write_text(json.dumps(OLDER))
        with pytest.raises(PersistenceError) as refusal:
            RecoverableEngine.open(tmp_path, factory)
        assert f"snapshot {json_file} is an all-JSON snapshot" in str(refusal.value)
        assert "start from a fresh state dir" in str(refusal.value)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(bit=st.integers(0, len(RAW) * 8 - 1))
def test_any_flipped_bit_has_a_named_outcome(tmp_path_factory, bit):
    """Anywhere in the file: the older snapshot, or a ``PersistenceError``."""
    store = SnapshotStore(tmp_path_factory.mktemp("any"))
    store.save(1, OLDER)
    plant(store, flipped(RAW, bit))
    try:
        assert store.load_latest()[0] == 1
    except PersistenceError as refusal:
        assert "snapshot-0000000002.snap" in str(refusal)


class TestNarrowing:
    def test_integer_sections_take_the_narrowest_dtype(self, tmp_path):
        store = SnapshotStore(tmp_path)
        arrays = {
            "tiny": np.array([-3, 100], dtype=np.int64),
            "short": np.array([0, 30_000], dtype=np.int64),
            "wide": np.array([0, 2**31], dtype=np.int64),
            "real": np.array([0.5, np.inf]),
            "bits": np.array([2**63], dtype=np.uint64),
            "empty": np.array([], dtype=np.int64),
        }
        store.save(1, {"format": SNAPSHOT_FORMAT_VERSION, "slide_seq": 1, "a": arrays})
        loaded = store.load(1)["a"]
        assert {k: v.dtype.str for k, v in loaded.items()} == {
            "tiny": "|i1", "short": "<i2", "wide": "<i8",
            "real": "<f8", "bits": "<u8", "empty": "<i8",
        }
        for key, array in arrays.items():
            assert np.array_equal(loaded[key], array)
            assert not loaded[key].flags.writeable
        kind, size, rows = store.describe(1)
        assert kind == "container v1" and size == store.path_for(1).stat().st_size
        assert ("a.short", "<i2", 2, 4) in rows


class TestTempSweep:
    def test_orphaned_tmp_of_a_killed_writer_is_swept_on_open(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(3, {"format": SNAPSHOT_FORMAT_VERSION, "slide_seq": 3, "algorithm": {}})
        orphan = tmp_path / "snapshot-0000000007.snap.tmp"
        orphan.write_bytes(RAW[:100])  # SIGKILL landed inside save()
        legacy_orphan = tmp_path / "snapshot-0000000005.json.tmp"
        legacy_orphan.write_text("{")
        assert SnapshotStore(tmp_path).sequences() == [3]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["snapshot-0000000003.snap"]


# -- either plane opens either file --------------------------------------------


class TestEitherPlane:
    def test_kernel_written_fixture_opens_with_numpy_alone(self, tmp_path):
        """The committed container was written on the kernel plane; a
        stored ``columnar: false`` pins the reader to the object plane, so
        this runs the compiler-less decode wherever the suite runs."""
        batches = fixture_batches()
        expected = drive(factory(columnar=False), batches)
        store = SnapshotStore(tmp_path)
        plant(store, FIXTURE.read_bytes())
        seq, document = store.load_latest()
        assert "columns" in document["algorithm"]["roster"]
        document["algorithm"]["columnar"] = False
        restored = algorithm_from_state(document["algorithm"])
        assert not restored.columnar
        assert drive(restored, batches[12:]) == expected[12:]


    def test_kernel_written_fixture_continues_on_both_planes(self, tmp_path):
        """The committed container (written before the pair store became
        the kernel plane's only copy of the pairs) opens on the kernel
        plane too, its ``shared`` section loaded into the kernel's store,
        and the next 200 slides answer exactly as the object plane opened
        from the same file does."""
        require_ckernel()
        batches = list(batched(random_stream(60 + 200 * 5, 8, seed=21), 5))
        assert batches[:12] == fixture_batches()[:12]
        store = SnapshotStore(tmp_path)
        plant(store, FIXTURE.read_bytes())
        answers = []
        for columnar in (None, False):
            document = store.load_latest()[1]["algorithm"]
            document["columnar"] = columnar
            restored = algorithm_from_state(document)
            assert restored.columnar is (columnar is None)
            answers.append(drive(restored, batches[12:]))
        assert answers[0] == answers[1]


    def test_kernel_shared_section_is_the_object_planes_live_pairs(self):
        """The kernel plane writes its ``shared`` section from its pair
        store: the object plane's pairs from the oldest live start on, as
        a set of ``(u, v, t)``, in the versioned index's layout."""
        require_ckernel()
        batches = fixture_batches()
        kernel, reference = factory(), factory(columnar=False)
        drive(kernel, batches)
        drive(reference, batches)
        oldest = kernel.checkpoints[0].start

        def live(shared):
            users = np.repeat(shared["users"], shared["counts"])
            triples = zip(users.tolist(), shared["v"].tolist(), shared["t"].tolist())
            return {(u, v, t) for u, v, t in triples if t >= oldest}

        written = kernel.to_state()["shared"]
        assert written["floor"] == oldest
        assert live(written) == live(reference.to_state()["shared"])
        assert len(live(written)) == len(written["v"]) == written["live_at_sweep"]


# -- the bytes themselves --------------------------------------------------------

#: SHA-256 of the snapshot file a seeded engine writes after 300 slides of
#: ``syn_n(500, 3000, seed=1)``, per algorithm and oracle plane.  A change
#: to what a snapshot holds or how it is laid out changes these; update
#: them in that change, on purpose.  All four last re-recorded when the
#: base stopped writing the window's actions (``base.window.actions``) and
#: records (``base.window_records``): every other section decodes exactly
#: as before.  The two kernel pins were re-recorded again when the pair
#: store became the kernel plane's only copy of the pairs: ``shared`` now
#: holds exactly the pairs credited from the oldest live start on (the
#: same set of ``(u, v, t)`` as before, each user's run time-ascending,
#: ``floor`` that start) and lanes are numbered in first-credit order, so
#: the ``lanes`` table and ``covered`` words are renumbered while every
#: other kernel column is unchanged and the columns decode as before.
SNAPSHOT_SHA256 = {
    ("ic", "kernel"): "0e75cec3f0d0dd923f85456ff5a1d38915b997ac27260cf75c9ba29e897293d6",
    ("ic", "object"): "7d59e19ff133e0a8af29e778db61cb5ce074b5db15585564e991f282b72d91dc",
    ("sic", "kernel"): "8f1f835c1853d5ac364331679a3fdff0e04a787ea056d25e3b9fb79d250beed9",
    ("sic", "object"): "db05eee3b294dcb835c0344b9e6e77bfff609131bcc94c2c696f9e6a3b771b17",
}


@pytest.mark.parametrize(("algorithm", "plane"), sorted(SNAPSHOT_SHA256))
def test_snapshot_bytes_are_pinned(tmp_path, algorithm, plane):
    if plane == "kernel":
        require_ckernel()
    cls = {"ic": InfluentialCheckpoints, "sic": SparseInfluentialCheckpoints}[algorithm]
    columnar = None if plane == "kernel" else False
    engine = RecoverableEngine.open(
        tmp_path,
        lambda: cls(window_size=1000, k=5, beta=0.3, columnar=columnar),
        snapshot_every=300,
        fsync=False,
    )
    for batch in batched(syn_n(500, 3000, seed=1), 10):
        engine.process(batch)
    engine.close()
    store = SnapshotStore(tmp_path / "snapshots")
    names = [row[0] for row in store.describe(300)[2]]
    assert "algorithm.base.forest.records.time" in names
    assert not [name for name in names if name.startswith("algorithm.base.window")]
    raw = store.path_for(300).read_bytes()
    assert hashlib.sha256(raw).hexdigest() == SNAPSHOT_SHA256[algorithm, plane]


if __name__ == "__main__":  # regenerate the committed kernel-plane fixture
    writer = factory()
    assert writer.columnar, "the fixture must be written on the kernel plane"
    drive(writer, fixture_batches()[:12])
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_bytes(b"".join(pack_container(envelope(writer, seq=12))))
    print(f"wrote {FIXTURE} ({FIXTURE.stat().st_size} bytes)")
