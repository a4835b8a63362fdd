"""The compiled kernel's pair store against its rules, by generated history.

On the columnar plane ``_ckernel.c``'s pair store (one time-ascending
``(time, lane)`` row per interned user) is the engine's only copy of its
influence pairs: ``process_slide`` credits each slide's records in it and
derives every pair's previous credit from the row it scans.  A row that
misses a credit, keeps a pair it should not, or answers a stale previous
credit would still let most slides answer right, so this property checks
the rows themselves after every slide, next to the answers and the decoded
oracle documents of an object-plane engine run over the same history:

* rows ascend in time and hold each lane at most once;
* every row, from the oldest live column's start on, is exactly the pairs
  the object plane's ``VersionedInfluenceIndex`` holds for that user from
  there on (and a user the store has no row for holds none there).

Every generated history contains, by construction:

* a pair re-credited after the newest column opened (its update feeds no
  column, yet moves the pair's time) for a user credited in an earlier
  slide and touched again in a later one;
* a snapshot → restore of the kernel engine — the restored store must
  equal the live one from the oldest live start on — then a slide
  touching users credited only before the snapshot;
* for IC with ``checkpoint_interval > 1``, slides that open no column;
* expiry and pruning enough for compactions (the dead-column threshold
  is lowered so short histories reach it); after each, no row holds a
  pair credited before the oldest live column's start.
"""

from __future__ import annotations

import ctypes
import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import Action
from repro.core.ic import InfluentialCheckpoints
from repro.core.oracles.columnar import ColumnarThresholdKernel
from repro.core.sic import SparseInfluentialCheckpoints
from repro.core.stream import batched
from tests.conftest import random_stream, require_ckernel, store_roundtrip
from tests.core.test_column_lifecycle import columns_agree


def store_rows(kernel, start=-(2**63)):
    """The kernel's pair store as ``{user: [(time, influenced user), ...]}``
    (rows holding a pair credited at or after ``start``), read through the
    compiled ``suffix`` entry."""
    rows = {}
    for user in kernel._row_user[: kernel._tally[0]].tolist():
        first = ctypes.c_void_p()
        count = kernel._cfast.suffix(kernel._store, user, start, ctypes.byref(first))
        if count:
            pairs = np.frombuffer((ctypes.c_int64 * (2 * count)).from_address(first.value), np.int64)
            lanes = kernel._lane_user[pairs[1::2]].tolist()
            rows[user] = list(zip(pairs[0::2].tolist(), lanes))
    return rows


def oldest_start(kernel):
    return int(kernel._starts_arr[kernel._head]) if kernel._head < kernel._n else None


def check_store(kernel, index):
    """The store's rules (module docstring) against the object plane's
    versioned index ``index``."""
    for pairs in store_rows(kernel).values():
        times = [time for time, _v in pairs]
        assert times == sorted(times)
        assert len({v for _time, v in pairs}) == len(pairs)
    oldest = oldest_start(kernel)
    if oldest is None:
        return
    got = store_rows(kernel, oldest)
    want = {}
    for user, pairs in index._latest.items():
        live = sorted((time, v) for v, time in pairs.items() if time >= oldest)
        if live:
            want[user] = live
    assert {u: sorted(p) for u, p in got.items()} == want


N_USERS = 10

#: One integer per action: ``kind`` (chain, any or root), user and parent pick.
STEPS = st.lists(st.integers(0, 10**6), min_size=12, max_size=20)
KINDS = ("chain", "chain", "any", "any", "root")


class History:
    """An action stream built slide-aligned, so the forced scenarios land
    where the module docstring says."""

    def __init__(self, slide):
        self.slide = slide
        self.actions = []

    def add(self, user, parent=None):
        t = len(self.actions) + 1
        self.actions.append(
            Action.root(t, user) if parent is None else Action.response(t, user, parent)
        )
        return t

    def steps(self, steps):
        for step in steps:
            kind, user, pick = KINDS[step % 5], step // 5 % N_USERS, step // 50
            t = len(self.actions) + 1
            if t == 1 or kind == "root":
                self.add(user)
            elif kind == "chain":
                self.add(user, t - 1)
            else:
                self.add(user, 1 + pick % (t - 1))

    def pad(self):
        """Chain replies up to the next slide boundary."""
        while len(self.actions) % self.slide:
            self.add(N_USERS, len(self.actions))

    @property
    def slides(self):
        return len(self.actions) // self.slide


@st.composite
def histories(draw):
    framework = draw(st.sampled_from(["ic", "sic"]))
    interval = draw(st.integers(1, 3)) if framework == "ic" else 1
    slide = draw(st.integers(2, 3))
    history = History(slide)
    history.steps(draw(STEPS))
    history.pad()
    # A no-column re-credit: X is credited in one slide, (X, B) is
    # credited twice in the next (the second update's previous is at or
    # after the newest start), and X is touched again in the slide after.
    x_root = history.add(N_USERS + 1)
    history.add(N_USERS + 2, x_root)
    history.pad()
    history.add(N_USERS + 3, x_root)
    history.add(N_USERS + 3, x_root)
    history.pad()
    history.add(N_USERS + 4, x_root)
    history.pad()
    history.steps(draw(STEPS))
    history.pad()
    restore_at = history.slides
    # The first slide after the restore replies to the last action before
    # it: every user it credits was credited only before the snapshot.
    history.add(N_USERS + 5, len(history.actions))
    history.steps(draw(STEPS))
    history.pad()
    window = draw(st.integers(6, 14))
    return framework, interval, window, history, restore_at


def make_engine(framework, interval, window, columnar):
    if framework == "ic":
        return InfluentialCheckpoints(
            window_size=window, k=2, beta=0.3, checkpoint_interval=interval,
            columnar=columnar,
        )
    return SparseInfluentialCheckpoints(
        window_size=window, k=2, beta=0.3, columnar=columnar
    )


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(histories())
def test_pair_store_follows_its_rules(drawn):
    require_ckernel()
    framework, interval, window, history, restore_at = drawn
    compactions = []
    compact = ColumnarThresholdKernel._compact

    def counting_compact(self):
        compact(self)
        compactions.append(self._n)
        # The sweep trimmed every row to the oldest live column's start.
        oldest = self._starts_arr[0] if self._n else -1
        assert all(t >= oldest for row in store_rows(self).values() for t, _ in row)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ColumnarThresholdKernel, "_MIN_COMPACT_DEAD", 2)
        patch.setattr(ColumnarThresholdKernel, "_compact", counting_compact)
        kernel_engine = make_engine(framework, interval, window, None)
        object_engine = make_engine(framework, interval, window, False)
        assert kernel_engine.columnar and not object_engine.columnar
        for index, batch in enumerate(batched(history.actions, history.slide)):
            if index == restore_at:
                live = kernel_engine.columnar_kernel
                state = store_roundtrip(kernel_engine.to_state())
                kernel_engine = type(kernel_engine).from_state(state)
                restored = kernel_engine.columnar_kernel
                oldest = oldest_start(live)
                assert store_rows(restored, oldest) == store_rows(live, oldest)
            kernel_engine.process(batch)
            object_engine.process(batch)
            got, want = kernel_engine.query(), object_engine.query()
            assert (got.time, got.value, got.seeds) == (want.time, want.value, want.seeds)
            columns_agree(kernel_engine, object_engine)
            check_store(kernel_engine.columnar_kernel, object_engine.shared_index)
    assert compactions


def test_a_dropped_kernel_frees_its_store():
    """The store is C's one allocation: the kernel's finalizer frees it
    (the sanitized run keeps leak detection off, so this is its check)."""
    require_ckernel()
    engine = InfluentialCheckpoints(window_size=10, k=2, beta=0.3)
    engine.process(random_stream(30, 5, seed=0))
    finalizer = engine.columnar_kernel._free_store
    assert finalizer.alive and store_rows(engine.columnar_kernel)
    del engine
    gc.collect()
    assert not finalizer.alive
