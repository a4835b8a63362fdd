"""Persistence proofs for the columnar oracle kernel.

Three contracts:

* **Round-trip:** serializing a columnar engine mid-stream and restoring
  it yields a framework that continues bit-identically — answers *and*
  the canonicalized per-checkpoint oracle state agree with an
  uninterrupted run, and the restored engine is still on the columnar
  plane.
* **Crash recovery:** the WAL/snapshot engine restores a columnar
  framework exactly (same harness as ``test_restore_equivalence``).
* **Plane portability:** snapshots carry the plane as a runtime choice,
  not config.  An object-plane snapshot *without* the ``columnar`` key —
  i.e. one written before the kernel existed — or with the retired
  ``columnar: true`` opens straight into the columnar kernel and still
  continues identically, an explicit ``columnar: false`` snapshot stays
  on the object plane, and a kernel run's snapshot — its roster stored as
  the kernel's columns — reopens and continues identically on a box with
  no compiled kernel, as does a whole state dir moved either way.

Tests that need the kernel skip, naming the loader's reason, where it
cannot load.
"""

from __future__ import annotations

import re

import pytest

from repro.core.ic import InfluentialCheckpoints
from repro.core.sic import SparseInfluentialCheckpoints
from repro.core.stream import batched
from repro.persistence.engine import RecoverableEngine
from repro.persistence.serialize import (
    PersistenceError,
    algorithm_from_state,
    algorithm_to_state,
)
from tests.conftest import random_stream, require_ckernel, store_roundtrip
from tests.core.test_columnar_equivalence import canon

FRAMEWORKS = {"ic": InfluentialCheckpoints, "sic": SparseInfluentialCheckpoints}


def drive(algorithm, batches):
    answers = []
    for batch in batches:
        algorithm.process(batch)
        answers.append(algorithm.query())
    return answers


def oracle_states(algorithm):
    return [
        (c.start, canon(c.oracle.state_dict())) for c in algorithm.checkpoints
    ]


@pytest.mark.parametrize("framework", ["ic", "sic"])
@pytest.mark.parametrize("oracle", ["sieve", "threshold"])
def test_columnar_state_roundtrip_continues_identically(framework, oracle):
    require_ckernel()
    cls = FRAMEWORKS[framework]

    def factory():
        return cls(window_size=40, k=3, beta=0.25, oracle=oracle)

    batches = list(batched(random_stream(120, 8, seed=1), 5))
    reference = factory()
    expected = drive(reference, batches)

    half = factory()
    drive(half, batches[:12])
    # Through the container: the kernel restores from narrowed, read-only
    # ``np.frombuffer`` views, not from the arrays it just wrote.
    document = store_roundtrip(algorithm_to_state(half))
    assert "columns" in document["roster"]
    restored = algorithm_from_state(document)
    assert restored.columnar, (framework, oracle)
    assert restored.columnar_kernel is not None
    # The restored kernel columns describe the same oracle state.
    assert oracle_states(restored) == oracle_states(half)
    # Continuation is bit-identical: times, seeds, exact float values.
    assert drive(restored, batches[12:]) == expected[12:]
    assert oracle_states(restored) == oracle_states(reference)


def test_columnar_crash_recovery(tmp_path):
    require_ckernel()

    def factory():
        return InfluentialCheckpoints(window_size=40, k=3, beta=0.25)

    batches = list(batched(random_stream(120, 8, seed=2), 5))
    expected = drive(factory(), batches)
    doomed = RecoverableEngine.open(
        tmp_path, factory, snapshot_every=4, fsync=False
    )
    for batch in batches[:10]:
        doomed.process(batch)
    doomed.close(snapshot=False)  # simulated SIGKILL: WAL tail only
    restored = RecoverableEngine.open(
        tmp_path, factory, snapshot_every=4, fsync=False
    )
    assert restored.replayed_slides == 2  # snapshot at 8, WAL 9-10
    assert restored.algorithm.columnar
    answers = []
    for batch in batches[10:]:
        restored.process(batch)
        answers.append(restored.query())
    restored.close(snapshot=False)
    assert answers == expected[10:]


@pytest.mark.parametrize("stored", ["missing", True])
def test_pre_columnar_snapshot_opens_into_columnar_kernel(stored):
    """A snapshot written before the kernel existed (no ``columnar`` key),
    or while ``columnar=True`` was still a value, auto-selects the columnar
    plane on restore — and the kernel continues the object plane's stream
    bit-identically."""
    require_ckernel()
    batches = list(batched(random_stream(120, 8, seed=3), 5))
    reference = InfluentialCheckpoints(
        window_size=40, k=3, beta=0.25, columnar=False
    )
    expected = drive(reference, batches)

    old = InfluentialCheckpoints(window_size=40, k=3, beta=0.25, columnar=False)
    drive(old, batches[:12])
    assert not old.columnar
    document = algorithm_to_state(old)
    assert document["columnar"] is False
    if stored == "missing":
        del document["columnar"]  # simulate the pre-kernel document schema
    else:
        document["columnar"] = stored
    restored = algorithm_from_state(document)
    assert restored.columnar
    assert restored.columnar_kernel is not None
    assert drive(restored, batches[12:]) == expected[12:]
    assert oracle_states(restored) == oracle_states(reference)


def test_explicit_object_plane_choice_survives_roundtrip():
    engine = InfluentialCheckpoints(
        window_size=40, k=3, beta=0.25, columnar=False
    )
    drive(engine, list(batched(random_stream(60, 6, seed=4), 5)))
    restored = algorithm_from_state(algorithm_to_state(engine))
    assert not restored.columnar
    assert restored.columnar_kernel is None


def test_columnar_snapshot_opens_without_a_compiled_kernel(
    ckernel_first_use, monkeypatch
):
    """A compiled run's snapshot reopens where no compiled kernel loads
    (a state dir moved to a box without ``cc``) and the object plane
    continues it bit-identically."""
    require_ckernel()
    batches = list(batched(random_stream(120, 8, seed=5), 5))
    reference = InfluentialCheckpoints(window_size=40, k=3, beta=0.25)
    expected = drive(reference, batches)
    half = InfluentialCheckpoints(window_size=40, k=3, beta=0.25)
    drive(half, batches[:12])
    assert half.columnar
    document = store_roundtrip(algorithm_to_state(half))
    monkeypatch.setenv(ckernel_first_use().ENV_DISABLE, "1")
    restored = algorithm_from_state(document)
    assert not restored.columnar
    assert drive(restored, batches[12:]) == expected[12:]
    assert oracle_states(restored) == oracle_states(reference)


@pytest.mark.parametrize(
    "key, index, value",
    [("iseed_ids", (0, 0, 0), 10**6), ("best_ns", (0,), 9), ("bhigh", (0,), 10**4)],
)
def test_kernel_columns_the_compiled_event_would_index_with_are_vetted(
    key, index, value
):
    """Verbatim columns go straight under the C code: a row, count or
    ladder bound outside its array is refused, not handed down."""
    require_ckernel()
    engine = InfluentialCheckpoints(window_size=40, k=3, beta=0.25)
    drive(engine, list(batched(random_stream(60, 8, seed=7), 5)))
    document = algorithm_to_state(engine)
    document["roster"]["columns"][key][index] = value
    with pytest.raises(PersistenceError, match="kernel column"):
        algorithm_from_state(document)


@pytest.mark.parametrize(
    "field, mutate",
    [
        ("'users' repeats", lambda c: c["users"].__setitem__(1, c["users"][0])),
        ("'covered.word' leaves", lambda c: c["covered"]["word"].__setitem__(0, -1)),
        ("'member.row' leaves", lambda c: c["member"]["row"].__setitem__(0, -1)),
        ("'cache.col' leaves", lambda c: c["cache"]["col"].__setitem__(0, len(c["start"]))),
    ],
)
def test_malformed_kernel_section_is_refused_by_field(field, mutate):
    """Numpy wraps a negative index and interning dedups a repeated user,
    so each of these would load silently and land bits in the wrong row or
    word: it is refused, naming the field."""
    require_ckernel()
    engine = SparseInfluentialCheckpoints(window_size=40, k=3, beta=0.25)
    drive(engine, list(batched(random_stream(120, 8, seed=7), 5)))
    document = algorithm_to_state(engine)
    mutate(document["roster"]["columns"])
    with pytest.raises(PersistenceError, match=re.escape(field)):
        algorithm_from_state(document)


@pytest.mark.parametrize("writer_has_kernel", [True, False])
def test_state_dir_moves_between_planes(
    tmp_path, ckernel_first_use, monkeypatch, writer_has_kernel
):
    """Kernel-written container → ``REPRO_NO_CKERNEL=1`` reader, and
    the reverse: same answers as the uninterrupted run."""
    require_ckernel()

    def factory():
        return SparseInfluentialCheckpoints(window_size=40, k=3, beta=0.25)

    batches = list(batched(random_stream(120, 8, seed=6), 5))
    expected = drive(factory(), batches)

    def open_engine(kernel: bool):
        module = ckernel_first_use()
        if kernel:
            monkeypatch.delenv(module.ENV_DISABLE, raising=False)
        else:
            monkeypatch.setenv(module.ENV_DISABLE, "1")
        engine = RecoverableEngine.open(
            tmp_path, factory, snapshot_every=4, fsync=False
        )
        assert engine.algorithm.columnar is kernel
        return engine

    writer = open_engine(writer_has_kernel)
    for batch in batches[:12]:
        writer.process(batch)
    writer.close(snapshot=False)
    roster = writer.store.snapshots.load_latest()[1]["algorithm"]["roster"]
    assert ("columns" in roster) is writer_has_kernel
    reader = open_engine(not writer_has_kernel)
    assert reader.replayed_slides == 0
    assert drive(reader, batches[12:]) == expected[12:]
    reader.close(snapshot=False)
