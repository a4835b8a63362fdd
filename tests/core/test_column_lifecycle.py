"""Column-lifecycle history: the compiled kernel ≡ the object plane, for long.

The equivalence matrix (``test_columnar_equivalence.py``) runs 120 actions
over 8 users: one compaction, no array growth, and nothing that tells a
dead-prefix compaction from one with interior holes.  The histories here
are long and wide enough to cross everything that happens to a column
between its opening and its retirement — and each run *asserts* that it
did:

* the column axis, the coverage-word axis and the user-row axis all grow
  (more than 64 physical columns for IC, more than 64 lanes and rows);
* at least three compactions: IC's dead set is always a prefix, SIC's
  pruning leaves interior holes;
* with ``L > 1``, at least one slide in which a user's later pair reaches
  older columns than their earlier pair (the prefix-min chain of
  ``process_slide`` — two events for one user, replayed in slide order);
* a snapshot → restore of the kernel engine mid-run, through the snapshot
  container, while the object plane runs uninterrupted.

Per slide the two planes must agree on ``(time, value, seeds)`` and on
every live checkpoint's canonical oracle state.  After every slide the
kernel's arrays are checked for what retirement and compaction rely on:

* membership bit ⇔ seed-list entry, for every physical column in use
  (so a dead column, whose seed lists are empty, has all-zero ``mem2d``);
* every unused physical column is in the open state — zero scalars, bars
  and floor ``+inf``, empty ladder, zero coverage, ``mem2d`` and
  ``cache2d`` — which is why opening a column writes only its start.

A *dead* column's ``cache2d`` entries are deliberately not in the list:
clearing them at retirement is a strided sweep of every user row, the
cost retirement no longer pays; nothing reads them and compaction zeroes
them (the unused-column check above sees that it did).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right

import numpy as np
import pytest

from repro.core.ic import InfluentialCheckpoints
from repro.core.influence_index import VersionedInfluenceIndex
from repro.core.oracles.columnar import ColumnarThresholdKernel, oracle_documents
from repro.core.sic import SparseInfluentialCheckpoints
from repro.core.stream import batched
from repro.experiments.memory import measure_footprint
from tests.conftest import require_ckernel, store_roundtrip
from tests.core.test_columnar_equivalence import canon
from tests.core.test_shared_index_equivalence import build_stream

#: name -> (engine class, window, slide, actions, dead sets are a prefix).
HISTORIES = {
    "ic-l1": (InfluentialCheckpoints, 80, 1, 420, True),
    "ic-l5": (InfluentialCheckpoints, 200, 5, 1000, True),
    "sic-l3": (SparseInfluentialCheckpoints, 120, 3, 720, False),
}

N_USERS = 150


def long_stream(n_actions, seed):
    """PR 14's hot-skewed history (``build_stream``) over a user universe
    wide enough to outgrow one coverage word and the first 64 user rows."""
    rng = random.Random(seed)
    kinds = ["chain"] * 4 + ["hot"] * 3 + ["any", "root"]
    return build_stream(
        [
            (rng.choice(kinds), rng.randrange(N_USERS), rng.randrange(10_000))
            for _ in range(n_actions)
        ]
    )


def check_columns(kernel):
    """The array invariants the lifecycle entries rely on (module docstring)."""
    n, cap, k = kernel._n, kernel._cap, kernel._k
    assert len(kernel._handles) == len(kernel._starts_list) == n
    alive = np.array([handle is not None for handle in kernel._handles])
    assert kernel._dead == n - int(alive.sum())
    assert kernel._head == (int(np.argmax(alive)) if alive.any() else n)
    assert all(h is None or h._col == c for c, h in enumerate(kernel._handles))
    assert np.isinf(kernel._m[:n]).tolist() == (~alive).tolist()  # the mask
    # Membership bit <=> listed seed, over every column in use.
    listed = np.arange(k)[None, None, :] < kernel._inseed[:n, :, None]
    cols, slots, entries = np.nonzero(listed)
    rows = kernel._iseed_ids[cols, slots, entries]
    bits = np.uint64(1) << ((kernel._blow[cols] + slots) & 63).astype(np.uint64)
    expected = np.zeros_like(kernel._mem2d)
    np.bitwise_or.at(expected, (rows, cols), bits)
    assert np.array_equal(expected, kernel._mem2d)
    assert not kernel._inseed[:n][~alive].any()  # so dead columns are clear
    # Unused columns are open.
    for name, value in (
        ("m", 0.0), ("best", 0.0), ("rthresh", 0.0), ("floor", math.inf),
        ("blow", 0), ("bhigh", -1), ("best_ns", 0), ("dirtyf", 0),
        ("ival", 0.0), ("iguess", 0.0), ("ibar", math.inf), ("inseed", 0),
        ("icov", 0),
    ):
        unused = getattr(kernel, "_" + name)[n:cap]
        assert (unused == value).all(), name
    assert not kernel._mem2d[:, n:].any()
    assert not kernel._cache2d[:, n:].any()


def columns_agree(kernel_engine, object_engine):
    """Every live column decodes to its object-plane twin's oracle state."""
    kernel = kernel_engine.columnar_kernel
    documents = oracle_documents(kernel.to_state(list(kernel_engine.checkpoints))[1])
    reference = object_engine.checkpoints
    assert [d["start"] for d in documents] == [c.start for c in reference]
    for document, checkpoint in zip(documents, reference):
        assert document["actions_processed"] == checkpoint.actions_processed
        assert canon(document["oracle"]) == canon(
            checkpoint.oracle.state_dict()
        ), checkpoint.start


@pytest.fixture
def witnesses(monkeypatch):
    """Count, on every kernel of the test (the restored one included), the
    compactions by kind, the column-axis growths and the slides whose
    prefix-min chain took a second step."""
    seen = {"prefix": 0, "interior": 0, "grown": 0, "chained": 0}
    compact = ColumnarThresholdKernel._compact
    grow = ColumnarThresholdKernel._grow
    absorb = ColumnarThresholdKernel.absorb_slide
    # The stream's pairs with their previous credits, beside the kernels
    # (the restored one continues the same stream).
    shadow = VersionedInfluenceIndex()

    def counting_compact(self):
        alive = np.array([handle is not None for handle in self._handles])
        holes = bool((alive[:-1] & ~alive[1:]).any())  # a live, then a dead
        seen["interior" if holes else "prefix"] += 1
        compact(self)
        check_columns(self)

    def counting_grow(self, new_cap):
        seen["grown"] += 1
        grow(self, new_cap)

    def watching_absorb(self, roster, resolved, absorbed):
        starts, least = self._starts_list, {}
        for _performer, user, previous in shadow.add_batch(resolved.records):
            lo = max(bisect_right(starts, previous), self._head)
            if lo < least.get(user, self._n):
                seen["chained"] += user in least
                least[user] = lo
        absorb(self, roster, resolved, absorbed)

    monkeypatch.setattr(ColumnarThresholdKernel, "_compact", counting_compact)
    monkeypatch.setattr(ColumnarThresholdKernel, "_grow", counting_grow)
    monkeypatch.setattr(ColumnarThresholdKernel, "absorb_slide", watching_absorb)
    return seen


@pytest.mark.parametrize("history", list(HISTORIES))
def test_lifecycle_history_matches_object_plane(history, witnesses):
    require_ckernel()
    cls, window, slide, n_actions, prefix_dead = HISTORIES[history]
    config = dict(window_size=window, k=3, beta=0.25)
    kernel_engine = cls(**config)
    object_engine = cls(columnar=False, **config)
    assert kernel_engine.columnar and not object_engine.columnar
    batches = list(batched(long_stream(n_actions, seed=23), slide))
    restore_at = len(batches) * 3 // 5
    grown_before_restore = None
    for index, batch in enumerate(batches):
        if index == restore_at:
            grown_before_restore = witnesses["grown"]
            state = store_roundtrip(kernel_engine.to_state())
            kernel_engine = cls.from_state(state)
            assert kernel_engine.columnar
            check_columns(kernel_engine.columnar_kernel)
        kernel_engine.process(batch)
        object_engine.process(batch)
        got, want = kernel_engine.query(), object_engine.query()
        assert (got.time, got.value, got.seeds) == (
            want.time, want.value, want.seeds
        ), (history, index)
        kernel = kernel_engine.columnar_kernel
        check_columns(kernel)
        columns_agree(kernel_engine, object_engine)
    # Dead columns (ic-l1 and sic-l3 end between compactions) count for
    # nothing in the kernel's own accounting.
    assert measure_footprint(kernel_engine) == measure_footprint(object_engine)
    assert kernel._dead or history == "ic-l5"
    # The history crossed what it was built to cross.
    assert kernel._tally[1] > 64 and kernel._wcap > 1  # lanes
    assert kernel._tally[0] > 64 and kernel._urows_cap > 64  # user rows
    if prefix_dead:
        assert grown_before_restore >= 1  # more than 64 physical columns
        assert witnesses["prefix"] >= 3 and not witnesses["interior"]
    else:
        assert witnesses["interior"] >= 3
    if slide > 1:
        assert witnesses["chained"] >= 1
