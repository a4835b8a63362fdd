"""Columnar oracle kernel: one vectorized pass per slide for all checkpoints.

The object plane maintains one
:class:`~repro.core.oracles.streaming_base.StreamingThresholdOracle` per
checkpoint and replays every slide ⌈N/L⌉ times — once per oracle — even
though the per-checkpoint work is almost identical: the same user gained
the same members, only the suffix boundary differs.  At ``L = 1`` that
per-object fan-out dominates the whole engine (``bench/``'s ``engine_ic_l1``
workload measures that regime).

This module turns the checkpoint population sideways.  *All* threshold-
oracle state — not just the scalars — is stored as numpy arrays indexed by
checkpoint column:

* per-column scalars: ``m`` (running max singleton), ``best`` (monotone
  best-so-far), ``floor`` (admission floor, ``+inf`` = no open instance),
  ``blow``/``bhigh`` (live guess-exponent bounds), ``start``;
* a 2-D **instance plane** ``(column, slot)`` where slot ``s`` holds the
  instance with guess exponent ``blow + s``: ``value``, ``guess``,
  ``bar`` (the admission bar, ``+inf`` for filled or absent instances, so
  the bar array doubles as the admission gate), ``seed count``;
* per-``(column, slot)`` **coverage bitsets**: each influenced user is
  assigned a bit lane on first sight, and an instance's covered set is a
  row of uint64 words — set membership, set difference and gain counting
  become ``&``/``|``/popcount;
* transposed per-user state: singleton caches (``user ->
  float64[column]``) and seed membership (``user -> uint64[column]``, bit
  ``s`` set iff the user seeds slot ``s`` — the per-oracle
  ``_member_counts`` as popcounts).

Checkpoints are column *ranges*: columns are appended in ascending start
order, so the checkpoints a pair update feeds — those whose start exceeds
the pair's previous credit time — form a contiguous suffix ``[lo, n)``
located with one ``bisect``.  A slide then needs, per updated user, one
vectorized singleton/cache pass (``cache[lo:n] += gains``; ``m``/``best``
compares) and one vectorized **admission pass** over every gated
``(column, instance)`` pair at once:

1. the user's suffix membership per column is one gather from a
   cumulative-OR table of their (time-sorted) influence pairs;
2. the members an admission would gain are ``suffix & ~covered`` per
   instance; the gain is ``uniform * popcount`` — for *member* instances
   the same expression is the refresh growth, because a seed's covered set
   always contains their older suffix;
3. admissions are ``gain >= bar`` compares; values, covered words, bars
   (sieve recomputes, fills go to ``+inf``) and floors update as masked
   array writes; the best-so-far offer is the row max (first-occurrence
   ``argmax`` reproduces the object plane's sequential strict-``>`` fold).

Bookkeeping that the object plane keeps in Python containers lives in
flat arrays here: per-instance seed lists are rows of an
``(columns, slots, k)`` id array (user ids interned to dense rows),
membership bits sit in a ``(users, columns)`` ``uint64`` matrix, and the
best-so-far seed set is a ``(columns, k)`` id array — so the whole
per-event update is array writes with no Python-object churn, and a
compiled kernel can own the same state.  Seed lists serialize sorted and
``best_seeds`` in admission order; both are set-semantics surfaces
(queries expose frozensets), so equivalence is up to entry order, like
the cache/member maps.  The kernel is *behaviourally identical* to the
object plane (proven by ``tests/core/test_columnar_equivalence.py``) —
not an approximation.

**Deferred admission-floor tightening.**  The kernel maintains each
column's floor with one-sided min-updates during the slide and re-tightens
dirty columns once at slide end (:meth:`ColumnarThresholdKernel.absorb_slide`),
exactly like the object plane's lazy ``process_batch`` mode.  Soundness is
the same argument: a too-low floor only lets more users *reach* the
per-instance bar test, which is exact; it can never admit a user the tight
floor would have rejected.  At slide end the recomputed floor equals the
object plane's (which re-tightens after each admission or at batch end),
so serialized states agree.  The in-slide min-update folds the whole bar
row — unchanged bars are always ``>=`` the current floor, so including
them cannot drag the min below the object plane's changed-bars-only fold.

**Expiry and pruning** (:meth:`ColumnarThresholdKernel.retire_checkpoint`)
are column bookkeeping: the column is masked dead (``m/best/floor`` set to
sentinels no vector compare can fire on, membership bits cleared) and
physically reclaimed by an amortised compaction once dead columns
outnumber live ones.

Checkpoint state is serialized per column in the *exact*
``StreamingThresholdOracle.state_dict`` schema (coverage bitsets decode
back to sorted member lists), so snapshots are plane-portable in both
directions: object-plane snapshots open into columnar engines and vice
versa, with no format bump.

Supported scope: modular influence functions with **uniform** member
weights and a
:class:`~repro.core.oracles.streaming_base.StreamingThresholdOracle`
subclass (``sieve``/``threshold``) over a shared
:class:`~repro.core.influence_index.VersionedInfluenceIndex`.  Non-uniform
weights stay on the object plane: their admission gains are float sums in
per-object set-iteration order, which bitset popcounts cannot reproduce
bit-for-bit.  Plane selection lives in
:func:`repro.core.checkpoint.make_columnar_kernel`.
"""

from __future__ import annotations

import ctypes
import math
from bisect import bisect_right
from time import perf_counter
from typing import Dict, FrozenSet, List, Optional

import numpy as np

from repro.core.checkpoint import SuffixCheckpoint
from repro.core.oracles import _ckernel
from repro.core.oracles.streaming_base import (
    _EPS,
    StreamingThresholdOracle,
    ThresholdInstance,
)
from repro.telemetry.trace import active_trace

__all__ = [
    "ColumnarThresholdKernel",
    "ColumnarCheckpoint",
    "restore_checkpoint",
]

_UONE = np.uint64(1)
_UZERO = np.uint64(0)


def _stock_bar_mode(probe) -> Optional[int]:
    """The compiled kernel's bar mode for ``probe``'s oracle class, or
    ``None`` when the class customizes the bar rule (the C kernel
    hard-codes the stock sieve/threshold formulas; anything else stays on
    the numpy event path, which calls the real ``_instance_bar``)."""
    from repro.core.oracles.sieve import SieveStreamingOracle
    from repro.core.oracles.threshold import ThresholdStreamOracle

    cls = type(probe)
    if (
        cls._instance_bar is SieveStreamingOracle._instance_bar
        and cls.bar_tracks_value
    ):
        return 1
    if (
        cls._instance_bar is ThresholdStreamOracle._instance_bar
        and not cls.bar_tracks_value
    ):
        return 0
    return None


class ColumnarThresholdKernel:
    """Array-backed state of every live checkpoint's threshold oracle."""

    #: Compact once at least this many columns are dead *and* the dead
    #: outnumber the live — amortised O(1) column work per retire.
    _MIN_COMPACT_DEAD = 32

    def __init__(self, spec, shared):
        """
        Args:
            spec: The framework's :class:`~repro.core.checkpoint.OracleSpec`
                (must name a :class:`StreamingThresholdOracle` subclass and
                carry a modular, uniform-weight influence function).
            shared: The framework's
                :class:`~repro.core.influence_index.VersionedInfluenceIndex`.
        """
        func = spec.func
        if not func.modular:
            raise ValueError(
                "the columnar kernel supports modular influence functions "
                f"only; got {type(func).__name__}"
            )
        if func.uniform_weight is None:
            raise ValueError(
                "the columnar kernel supports uniform member weights only "
                "(admission gains are bitset popcounts); "
                f"{type(func).__name__} weights members individually"
            )
        # A probe oracle supplies the admission-bar rule and its flags, so
        # any registered StreamingThresholdOracle subclass works unchanged.
        probe = spec.build(shared.view(1))
        if not isinstance(probe, StreamingThresholdOracle):
            raise TypeError(
                "the columnar kernel requires a StreamingThresholdOracle "
                f"subclass; oracle {spec.name!r} builds "
                f"{type(probe).__name__}"
            )
        self._spec = spec
        self._shared = shared
        self._k = spec.k
        self._uniform = func.uniform_weight
        self._bar = probe._instance_bar
        self._bar_tracks_value = type(probe).bar_tracks_value
        self._beta = probe._beta
        self._base = 1.0 + self._beta
        self._log_base = probe._log_base
        # Instance-plane width: the guess ladder m <= (1+β)^j <= 2km spans
        # at most log(2k)/log(1+β) + O(1) exponents regardless of m, so a
        # fixed per-column slot budget holds every live instance; slot s of
        # a column is the instance with exponent blow + s.  Membership
        # masks pack one bit per slot into a uint64.
        self._jcap = int(math.log(2 * self._k) / self._log_base) + 3
        if self._jcap > 64:
            raise ValueError(
                f"beta={self._beta} is too small for the columnar kernel: "
                f"the guess ladder spans up to {self._jcap} live instances "
                "per checkpoint, past the 64-bit membership masks"
            )
        #: Scratch instance for evaluating the empty-instance bar exactly
        #: through the oracle's own ``_instance_bar`` (never mutated apart
        #: from ``guess``).
        self._dummy = ThresholdInstance(guess=1.0)
        self._jbits = np.arange(self._jcap, dtype=np.int64)

        # Telemetry plane counters (scraped via :meth:`stats`).
        self.slides_absorbed = 0
        self.pair_updates = 0

        cap = 64
        self._cap = cap
        self._n = 0
        self._dead = 0
        # Global per-checkpoint columns (physical layout; may contain dead
        # columns until the next compaction).
        self._m = np.zeros(cap)
        self._best = np.zeros(cap)
        self._floor = np.full(cap, math.inf)
        # Smallest m that could move a column's instance bounds; m growths
        # below it provably leave {low, high} unchanged, so the scalar
        # refresh call is skipped entirely (0 = always refresh).
        self._rthresh = np.zeros(cap)
        self._blow = np.zeros(cap, dtype=np.int64)
        self._bhigh = np.full(cap, -1, dtype=np.int64)
        self._alive = np.zeros(cap, dtype=bool)
        self._starts_arr = np.zeros(cap, dtype=np.int64)
        # The instance plane (column, slot).
        jcap = self._jcap
        kcap = self._k
        self._ival = np.zeros((cap, jcap))
        self._ibar = np.full((cap, jcap), math.inf)
        self._iguess = np.zeros((cap, jcap))
        self._inseed = np.zeros((cap, jcap), dtype=np.int16)
        # Seed identities, flat: slot (col, s) seeds are the first
        # ``inseed[col, s]`` entries of ``_iseed_ids[col, s]``, stored as
        # user *rows* (see ``_urow``) in admission order.
        self._iseed_ids = np.zeros((cap, jcap, kcap), dtype=np.int64)
        # Best-so-far solution seeds per column, same encoding.
        self._best_ids = np.zeros((cap, kcap), dtype=np.int64)
        self._best_ns = np.zeros(cap, dtype=np.int64)
        # Coverage bitsets (column, slot, word); the word axis grows with
        # the influenced-user lane count.
        self._wcap = 1
        self._w = 0
        self._icov = np.zeros((cap, jcap, 1), dtype=np.uint64)
        self._lane_of: Dict[int, int] = {}
        self._lane_user: List[int] = []
        # Python-side per-column state, aligned with the arrays.
        self._starts_list: List[int] = []
        self._views: List[object] = []
        self._handles: List[Optional["ColumnarCheckpoint"]] = []
        # Transposed per-user state, one row per interned user (``_urow``):
        # singleton caches as float rows, seed membership as uint64 rows
        # (bit ``j & 63`` set iff the user seeds the instance with guess
        # exponent ``j`` — unambiguous because a column's live exponent
        # span is < 64).
        self._uidx: Dict[int, int] = {}
        self._uidx_user: List[int] = []
        self._urows_cap = 64
        self._mem2d = np.zeros((self._urows_cap, cap), dtype=np.uint64)
        self._cache2d = np.zeros((self._urows_cap, cap))
        # Columns whose floor needs re-tightening at slide end.
        self._dirtyf = np.zeros(cap, dtype=np.uint8)
        # Compiled event path: only for the stock sieve/threshold bar
        # rules (the C code hard-codes their formulas) and only when the
        # shared library builds/loads; otherwise _process_user runs the
        # pure-numpy path below with identical results.
        self._cfast = None
        self._cbar_mode = _stock_bar_mode(probe)
        if self._cbar_mode is not None:
            self._cfast = _ckernel.load()
        self._cctx = None
        self._cstale = True
        self._sc_pairs = 64

    # -- column lifecycle --------------------------------------------------

    @property
    def live_count(self) -> int:
        """Number of live (non-retired) columns."""
        return self._n - self._dead

    def new_checkpoint(self, start: int, ledger) -> "ColumnarCheckpoint":
        """Append a column for a checkpoint opening at ``start``."""
        if self._starts_list and start <= self._starts_list[-1]:
            raise ValueError(
                f"columns must be appended in ascending start order; got "
                f"{start} after {self._starts_list[-1]}"
            )
        if self._n == self._cap:
            self._grow(self._cap * 2)
        col = self._n
        self._n += 1
        self._m[col] = 0.0
        self._best[col] = 0.0
        self._floor[col] = math.inf
        self._rthresh[col] = 0.0
        self._blow[col] = 0
        self._bhigh[col] = -1
        self._alive[col] = True
        self._starts_arr[col] = start
        # The row may hold a reclaimed column's remains — reset it.
        self._ival[col] = 0.0
        self._ibar[col] = math.inf
        self._iguess[col] = 0.0
        self._inseed[col] = 0
        self._icov[col] = _UZERO
        self._best_ns[col] = 0
        self._dirtyf[col] = 0
        self._starts_list.append(start)
        self._views.append(self._shared.view(start))
        handle = ColumnarCheckpoint(self, col, start, ledger)
        self._handles.append(handle)
        return handle

    def retire_checkpoint(self, checkpoint: "ColumnarCheckpoint") -> None:
        """Mask a checkpoint's column dead (expiry or SIC pruning)."""
        col = checkpoint._col
        if not self._alive[col]:
            return
        self._alive[col] = False
        # Sentinels no vector compare can fire on: singletons are finite,
        # so ``seg > inf`` and ``seg >= inf`` are always False.
        self._m[col] = math.inf
        self._best[col] = math.inf
        self._floor[col] = math.inf
        self._rthresh[col] = math.inf
        self._mem2d[:, col] = _UZERO
        self._ival[col] = 0.0
        self._ibar[col] = math.inf
        self._iguess[col] = 0.0
        self._inseed[col] = 0
        self._icov[col] = _UZERO
        self._best_ns[col] = 0
        self._views[col] = None
        self._handles[col] = None
        self._dirtyf[col] = 0
        self._dead += 1
        if self._dead >= self._MIN_COMPACT_DEAD and self._dead * 2 >= self._n:
            self._compact()

    def _grow(self, new_cap: int) -> None:
        n = self._n
        jcap = self._jcap

        def grown(arr, fill):
            out = np.full(new_cap, fill, dtype=arr.dtype)
            out[:n] = arr[:n]
            return out

        def grown2(arr, fill):
            out = np.full((new_cap, jcap), fill, dtype=arr.dtype)
            out[:n] = arr[:n]
            return out

        self._m = grown(self._m, 0.0)
        self._best = grown(self._best, 0.0)
        self._floor = grown(self._floor, math.inf)
        self._rthresh = grown(self._rthresh, 0.0)
        self._blow = grown(self._blow, 0)
        self._bhigh = grown(self._bhigh, -1)
        self._alive = grown(self._alive, False)
        self._starts_arr = grown(self._starts_arr, 0)
        self._ival = grown2(self._ival, 0.0)
        self._ibar = grown2(self._ibar, math.inf)
        self._iguess = grown2(self._iguess, 0.0)
        self._inseed = grown2(self._inseed, 0)
        kcap = self._k
        ids = np.zeros((new_cap, jcap, kcap), dtype=np.int64)
        ids[:n] = self._iseed_ids[:n]
        self._iseed_ids = ids
        bids = np.zeros((new_cap, kcap), dtype=np.int64)
        bids[:n] = self._best_ids[:n]
        self._best_ids = bids
        self._best_ns = grown(self._best_ns, 0)
        self._dirtyf = grown(self._dirtyf, 0)
        icov = np.zeros((new_cap, jcap, self._wcap), dtype=np.uint64)
        icov[:n] = self._icov[:n]
        self._icov = icov
        mem = np.zeros((self._urows_cap, new_cap), dtype=np.uint64)
        mem[:, :n] = self._mem2d[:, :n]
        self._mem2d = mem
        cch = np.zeros((self._urows_cap, new_cap))
        cch[:, :n] = self._cache2d[:, :n]
        self._cache2d = cch
        self._cap = new_cap
        self._cstale = True

    def _grow_words(self, new_wcap: int) -> None:
        icov = np.zeros((self._cap, self._jcap, new_wcap), dtype=np.uint64)
        icov[:, :, : self._wcap] = self._icov
        self._icov = icov
        self._wcap = new_wcap
        self._cstale = True

    def _lane(self, v: int) -> int:
        """The coverage bit lane of influenced user ``v`` (assigning one
        on first sight; the word axis doubles as lanes fill it)."""
        lane = self._lane_of.get(v)
        if lane is None:
            lane = len(self._lane_user)
            self._lane_of[v] = lane
            self._lane_user.append(v)
            w = (lane >> 6) + 1
            if w > self._wcap:
                self._grow_words(max(self._wcap * 2, w))
            self._w = w
        return lane

    def _urow(self, u: int) -> int:
        """The membership/seed-identity row of user ``u`` (assigned on
        first sight; the row axis of ``_mem2d`` doubles as users fill it)."""
        row = self._uidx.get(u)
        if row is None:
            row = len(self._uidx_user)
            self._uidx[u] = row
            self._uidx_user.append(u)
            if row >= self._urows_cap:
                new_rows = self._urows_cap * 2
                mem = np.zeros((new_rows, self._cap), dtype=np.uint64)
                mem[: self._urows_cap] = self._mem2d
                self._mem2d = mem
                cch = np.zeros((new_rows, self._cap))
                cch[: self._urows_cap] = self._cache2d
                self._cache2d = cch
                self._urows_cap = new_rows
                self._cstale = True
        return row

    # -- compiled event path -------------------------------------------------

    def _ensure_scratch(self, count: int, nlos: int) -> None:
        """Size the C call's scratch arrays and refresh the context struct
        after any array reallocation (growth marks ``_cstale``)."""
        need = max(count, nlos)
        if need > self._sc_pairs:
            while self._sc_pairs < need:
                self._sc_pairs *= 2
            self._cstale = True
        if self._cstale:
            self._refill_ctx()

    def _refill_ctx(self) -> None:
        pairs = self._sc_pairs
        self._sc_lanes = np.zeros(pairs, dtype=np.int64)
        self._sc_times = np.zeros(pairs, dtype=np.int64)
        self._sc_skeys = np.zeros(2 * pairs, dtype=np.int64)
        self._sc_cum = np.zeros((pairs + 1) * self._wcap, dtype=np.uint64)
        self._sc_los = np.zeros(pairs, dtype=np.int64)
        self._sc_counts = np.zeros(self._cap, dtype=np.int64)
        self._sc_fresh = np.zeros(self._wcap, dtype=np.uint64)
        ctx = _ckernel.EventCtx()
        ctx.cap = self._cap
        ctx.jcap = self._jcap
        ctx.kcap = self._k
        ctx.wcap = self._wcap
        ctx.k = self._k
        ctx.bar_mode = self._cbar_mode
        ctx.uniform = self._uniform
        ctx.base = self._base
        ctx.log_base = self._log_base
        ctx.m = self._m.ctypes.data
        ctx.best = self._best.ctypes.data
        ctx.floor_ = self._floor.ctypes.data
        ctx.rthresh = self._rthresh.ctypes.data
        ctx.blow = self._blow.ctypes.data
        ctx.bhigh = self._bhigh.ctypes.data
        ctx.starts = self._starts_arr.ctypes.data
        ctx.ival = self._ival.ctypes.data
        ctx.ibar = self._ibar.ctypes.data
        ctx.iguess = self._iguess.ctypes.data
        ctx.inseed = self._inseed.ctypes.data
        ctx.iseed_ids = self._iseed_ids.ctypes.data
        ctx.best_ids = self._best_ids.ctypes.data
        ctx.best_ns = self._best_ns.ctypes.data
        ctx.dirtyf = self._dirtyf.ctypes.data
        ctx.icov = self._icov.ctypes.data
        ctx.mem2d = self._mem2d.ctypes.data
        ctx.cache2d = self._cache2d.ctypes.data
        ctx.lanes = self._sc_lanes.ctypes.data
        ctx.times = self._sc_times.ctypes.data
        ctx.skeys = self._sc_skeys.ctypes.data
        ctx.cum = self._sc_cum.ctypes.data
        ctx.counts = self._sc_counts.ctypes.data
        ctx.los = self._sc_los.ctypes.data
        ctx.freshb = self._sc_fresh.ctypes.data
        self._cctx = ctx
        self._cstale = False

    def _process_user_c(self, u: int, pairs, a: int, b: int) -> None:
        """One user's merged slide event through the compiled kernel.

        Python's share of the event: intern this slide's performers and
        the user into their lanes/rows, copy the user's influence pairs
        (hot map + live cold arrays) into the scratch columns, and make
        one C call that runs the whole numpy event path natively.
        """
        lane = self._lane
        lane_of = self._lane_of
        for _lo, p in pairs:
            if p not in lane_of:
                lane(p)
        shared = self._shared
        hot = shared._latest.get(u)
        if hot:
            try:
                lanes = [lane_of[v] for v in hot]
            except KeyError:
                # Pairs restored from a snapshot may hold users this
                # kernel has never laned — intern them all.
                lanes = [lane(v) for v in hot]
            times = list(hot.values())
        else:
            lanes = []
            times = []
        cold = shared._cold
        if cold:
            entry = cold.get(u)
            if entry is not None and entry[2] < len(entry[0]):
                for v, t in zip(entry[0].tolist(), entry[1].tolist()):
                    if v >= 0:  # skip resurrection tombstones
                        lanes.append(lane(v))
                        times.append(t)
        count = len(lanes)
        urow = self._urow(u)
        nlos = len(pairs)
        self._ensure_scratch(count, nlos)
        self._sc_lanes[:count] = lanes
        self._sc_times[:count] = times
        if nlos > 1:
            self._sc_los[:nlos] = [lo for lo, _p in pairs]
        status = self._cfast.process_event(
            ctypes.byref(self._cctx), urow, a, b, nlos, count, self._w
        )
        if status:  # pragma: no cover - guarded by _jcap sizing
            raise RuntimeError(
                "columnar C kernel: guess ladder outgrew the slot budget"
            )

    def _compact(self) -> None:
        """Physically drop dead columns (handles are re-pointed in place)."""
        old_n = self._n
        keep = np.flatnonzero(self._alive[:old_n])
        n_new = int(keep.size)
        for arr in (
            self._m,
            self._best,
            self._floor,
            self._rthresh,
            self._blow,
            self._bhigh,
            self._starts_arr,
            self._best_ns,
            self._dirtyf,
        ):
            arr[:n_new] = arr[keep]
        for arr in (
            self._ival,
            self._ibar,
            self._iguess,
            self._inseed,
            self._iseed_ids,
            self._best_ids,
        ):
            arr[:n_new] = arr[keep]
        self._icov[:n_new] = self._icov[keep]
        self._mem2d[:, :n_new] = self._mem2d[:, keep]
        self._mem2d[:, n_new:old_n] = _UZERO
        self._alive[:n_new] = True
        self._alive[n_new:old_n] = False
        keep_list = keep.tolist()
        self._starts_list = [self._starts_list[c] for c in keep_list]
        self._views = [self._views[c] for c in keep_list]
        self._handles = [self._handles[c] for c in keep_list]
        for col, handle in enumerate(self._handles):
            handle._col = col
        self._cache2d[:, :n_new] = self._cache2d[:, keep]
        self._cache2d[:, n_new:old_n] = 0.0
        self._n = n_new
        self._dead = 0

    # -- the per-slide kernel ----------------------------------------------

    def absorb_slide(self, roster, arrived, absorbed: int) -> None:
        """Index ``arrived`` once and run the columnar passes for the slide.

        The columnar twin of :func:`repro.core.checkpoint.feed_shared`:
        one shared-index update per record, one vectorized pass per updated
        user, and one floor re-tightening sweep over the columns that
        admitted this slide.
        """
        if not len(roster):
            return
        if arrived:
            trace = active_trace()
            index_started = perf_counter() if trace is not None else 0.0
            if len(arrived) == 1:
                record = arrived[0]
                performer = record.user
                updates = [
                    (performer, u, previous)
                    for u, previous in self._shared.add(record)
                ]
            else:
                updates = self._shared.add_batch(arrived)
            if trace is not None:
                indexed = perf_counter()
                trace.add_stage(
                    "kernel_index", indexed - index_started, len(arrived)
                )
                self._absorb(updates)
                trace.add_stage(
                    "kernel_pass", perf_counter() - indexed, len(updates)
                )
            else:
                self._absorb(updates)
            self.slides_absorbed += 1
            self.pair_updates += len(updates)
        roster.absorbed += absorbed

    def _absorb(self, updates) -> None:
        n = self._n
        if not n or not updates:
            return
        starts = self._starts_list
        first_start = starts[0]
        # Group the slide's pair updates per user, tracking the prefix-min
        # chain of feed boundaries.  The object plane positions a user in a
        # checkpoint's delta map at the user's first update feeding that
        # checkpoint; a user whose later pair reaches *older* checkpoints
        # therefore appears at different positions in different maps, and
        # the chain tells exactly which column ranges belong to which
        # position (see the ordering note in ``_process_user``).
        per_user: Dict[int, list] = {}
        segmented = False
        for q, (performer, u, previous) in enumerate(updates):
            lo = (
                0
                if previous < first_start
                else bisect_right(starts, previous)
            )
            if lo >= n:
                continue
            entry = per_user.get(u)
            if entry is None:
                per_user[u] = [[(lo, performer)], [(q, lo)]]
            else:
                pairs, mins = entry
                pairs.append((lo, performer))
                if lo < mins[-1][1]:
                    mins.append((q, lo))
                    segmented = True
        if per_user:
            if not segmented:
                # Common case: every user's columns form one suffix range,
                # and dict order == global first-update order == every
                # column's local first-update order.
                for u, (pairs, mins) in per_user.items():
                    self._process_user(u, pairs, mins[0][1], n)
            else:
                # A user reached older columns with a later pair: emit one
                # event per (user, column range) at the position of the
                # first update feeding that range, and replay events in
                # global position order — this reproduces each column's
                # per-user delivery order exactly.
                events = []
                for u, (pairs, mins) in per_user.items():
                    hi = n
                    for q, lo in mins:
                        events.append((q, u, lo, hi))
                        hi = lo
                events.sort()
                for _q, u, lo, hi in events:
                    self._process_user(u, per_user[u][0], lo, hi)
        dirty = np.flatnonzero(self._dirtyf[:n])
        if dirty.size:
            # Retired columns reset their flag, so every flagged column is
            # alive and its floor re-tightens to the row minimum.
            self._floor[dirty] = self._ibar[dirty].min(axis=1)
            self._dirtyf[dirty] = 0

    def _process_user(self, u: int, pairs, a: int, b: int) -> None:
        """One user's merged slide event over columns ``[a, b)``.

        Vectorized singleton/cache update, ``m`` refresh, best-so-far
        offer, and admission gating; gated columns continue into the
        vectorized per-instance admission pass.  ``pairs`` is the user's
        full slide — ``(feed_boundary, performer)`` in slide order —
        matching the object plane's merged ``(user, new_members)`` delta.
        """
        if self._cfast is not None:
            self._process_user_c(u, pairs, a, b)
            return
        urow = self._urow(u)
        seg = self._cache2d[urow, a:b]
        uniform = self._uniform
        if len(pairs) == 1:
            seg += uniform
        else:
            # gains[c] = uniform * #{pairs feeding column c}: one multiply
            # and one add per column, bit-identical to the object plane's
            # ``cache[u] + uniform * len(new_members)``.
            counts = np.zeros(b - a, dtype=np.int64)
            for lo, _performer in pairs:
                if lo < b:  # pairs of later segments reach no column here
                    counts[lo - a if lo > a else 0] += 1
            np.cumsum(counts, out=counts)
            seg += counts * uniform
        # (1) m refresh — per grown column, the exact instance-range rebuild.
        mseg = self._m[a:b]
        grew = seg > mseg
        if grew.any():
            idxs = np.nonzero(grew)[0]
            grown_m = seg[idxs]
            mseg[idxs] = grown_m
            # Only m growths that can move a bound pay the scalar-log
            # refresh; the threshold is conservative, so sub-threshold
            # growths provably leave the instance range untouched.
            need = grown_m >= self._rthresh[a:b][idxs]
            if need.any():
                refresh = self._refresh_instances
                for i in idxs[need].tolist():
                    refresh(a + i)
        # (2) best-so-far singleton offer (strict >, like _offer_solution).
        bseg = self._best[a:b]
        better = seg > bseg
        if better.any():
            idxs = np.nonzero(better)[0]
            bseg[idxs] = seg[idxs]
            cols = idxs + a
            self._best_ns[cols] = 1
            self._best_ids[cols, 0] = urow
        # (3) admission gate: member columns always continue; non-member
        # columns only when the singleton clears the floor (sound for
        # modular f — the gain is bounded by the singleton value).  Dead
        # columns never pass: their floor is +inf and their membership
        # bits were cleared on retirement.
        gate = seg >= self._floor[a:b]
        mem = self._mem2d[urow]
        gate |= mem[a:b] != _UZERO
        if gate.any():
            rows = np.flatnonzero(gate) + a
            self._admit_pass(u, urow, rows, seg[gate], mem)

    def _admit_pass(self, u: int, uidx: int, rows, sing, mem) -> None:
        """The vectorized twin of the object plane's ``_dispatch`` walk.

        ``rows`` are the gated columns, ``sing`` the user's singleton value
        per gated column, ``mem`` the user's membership-mask row.  All
        gated ``(column, slot)`` pairs are tested at once:

        * candidate slots: ``singleton >= bar`` and not already seeded by
          the user (filled/absent slots carry ``bar = +inf``);
        * the members gained = ``suffix & ~covered`` — for member slots
          this same expression is the refresh growth, since a seed's
          covered set contains their older suffix (every new suffix member
          is a performer delivered while the user was already a seed);
        * admissions require ``gain >= bar`` and ``gain > 0`` — the exact
          object-plane test, with the gain computed by the identical
          ``uniform * count`` multiply.
        """
        jcap = self._jcap
        blows = self._blow[rows]
        # Clip the slot axis to the widest gated column — bars beyond a
        # column's width are +inf, so the clip never drops a candidate.
        jmax = int((self._bhigh[rows] - blows).max()) + 1
        if jmax <= 0:
            return
        if jmax > jcap:  # pragma: no cover - guarded by _refresh_instances
            jmax = jcap
        bars = self._ibar[rows][:, :jmax]
        cand = sing[:, None] >= bars
        # Membership bits are keyed by guess exponent mod 64 (the live
        # exponent span is < 64 wide, so bits are unambiguous and never
        # need shifting when the range slides).
        membits = mem[rows]
        shifts = ((blows[:, None] + self._jbits[:jmax]) & 63).astype(
            np.uint64
        )
        memm = (membits[:, None] >> shifts) & _UONE != _UZERO
        inter = cand | memm
        # From here on the pass is entry-wise: only the (column, slot)
        # pairs that are admission candidates or existing memberships are
        # gathered and tested — typically a handful per event.
        er, es = np.nonzero(inter)
        if not er.size:
            return
        masks = self._suffix_masks(u, rows)
        if masks is None:
            return
        ecols = rows[er]
        cov = self._icov[ecols, es]
        fresh = masks[er] & ~cov
        if self._wcap == 1:
            cnt = np.bitwise_count(fresh[:, 0]).astype(np.int64)
        else:
            cnt = np.bitwise_count(fresh).sum(axis=1, dtype=np.int64)
        gains = cnt * self._uniform
        ebars = bars[er, es]
        e_mem = memm[er, es]
        eadmit = ~e_mem & (gains >= ebars) & (gains > 0.0)
        eapply = eadmit | (e_mem & (cnt > 0))
        ai = np.flatnonzero(eapply)
        if not ai.size:
            return
        acols = ecols[ai]
        asl = es[ai]
        # Value growth and coverage absorption, applied entries only.
        # Entries are distinct (column, slot) pairs, so the fancy in-place
        # updates are race-free.
        self._ival[acols, asl] += gains[ai]
        self._icov[acols, asl] |= fresh[ai]
        k = self._k
        adm = np.flatnonzero(eadmit)
        if adm.size:
            ids = self._iseed_ids
            blist = blows.tolist()
            fills = self._inseed[ecols[adm], es[adm]].tolist()
            for r, col, s, fill in zip(
                er[adm].tolist(), ecols[adm].tolist(), es[adm].tolist(), fills
            ):
                ids[col, s, fill] = uidx
                mem[col] |= _UONE << np.uint64((blist[r] + s) & 63)
            self._inseed[ecols[adm], es[adm]] += 1
        # Bars: sieve bars track value (refresh + admission recompute);
        # threshold bars are static and only fill to +inf on the k-th seed.
        ci = ai if self._bar_tracks_value else adm
        if ci.size:
            ccols = ecols[ci]
            csl = es[ci]
            nsc = self._inseed[ccols, csl].astype(np.int64)
            filled = nsc >= k
            newbars = np.full(ci.size, math.inf)
            if self._bar_tracks_value:
                uf = ~filled
                if uf.any():
                    newbars[uf] = (
                        self._iguess[ccols[uf], csl[uf]] / 2.0
                        - self._ival[ccols[uf], csl[uf]]
                    ) / (k - nsc[uf])
                self._ibar[ccols, csl] = newbars
                # The object plane min-updates the floor with each changed
                # bar as it walks; raises are healed by the slide-end dirty
                # recompute.
                np.minimum.at(self._floor, ccols, newbars)
                if adm.size:
                    self._dirtyf[ecols[adm]] = 1
            else:
                if filled.any():
                    self._ibar[ccols[filled], csl[filled]] = math.inf
                    self._dirtyf[ccols[filled]] = 1
        # Best-so-far offers: the object plane folds strict-> offers in
        # ascending slot order within each column, and only slots that just
        # grew can improve the fold (an unchanged value was already
        # offered).  Replaying the applied entries in row-major order is
        # exactly that fold.
        avals = self._ival[acols, asl].tolist()
        best = self._best
        best_ids = self._best_ids
        best_ns = self._best_ns
        ids = self._iseed_ids
        nseed = self._inseed
        for col, s, v in zip(acols.tolist(), asl.tolist(), avals):
            if v > best[col]:
                best[col] = v
                nsv = int(nseed[col, s])
                best_ids[col, :nsv] = ids[col, s, :nsv]
                best_ns[col] = nsv

    def _suffix_masks(self, u: int, rows) -> Optional[np.ndarray]:
        """Per gated column, the bitset of ``u``'s suffix influence set.

        Builds the user's influence pairs (hot dict + live cold arrays) as
        a time-sorted lane sequence, cumulative-ORs it from the newest pair
        backwards, and gathers one row per column at the position of the
        column's start — ``cum[pos]`` is exactly ``{v : latest(u, v) >=
        start}`` as bits.
        """
        shared = self._shared
        lane = self._lane
        lanes: List[int] = []
        times: List[int] = []
        hot = shared._latest.get(u)
        if hot:
            for v, t in hot.items():
                lanes.append(lane(v))
                times.append(t)
        cold = shared._cold
        if cold:
            entry = cold.get(u)
            if entry is not None and entry[2] < len(entry[0]):
                for v, t in zip(entry[0].tolist(), entry[1].tolist()):
                    if v >= 0:  # skip resurrection tombstones
                        lanes.append(lane(v))
                        times.append(t)
        count = len(lanes)
        if not count:
            return None
        times_arr = np.array(times, dtype=np.int64)
        order = np.argsort(times_arr, kind="stable")
        times_sorted = times_arr[order]
        lanes_arr = np.array(lanes, dtype=np.int64)[order]
        w = self._wcap
        single = np.zeros((count, w), dtype=np.uint64)
        single[np.arange(count), lanes_arr >> 6] = np.left_shift(
            _UONE, (lanes_arr & 63).astype(np.uint64)
        )
        cum = np.zeros((count + 1, w), dtype=np.uint64)
        cum[:count] = np.bitwise_or.accumulate(single[::-1], axis=0)[::-1]
        pos = np.searchsorted(times_sorted, self._starts_arr[rows])
        return cum[pos]

    def _refresh_instances(self, col) -> None:
        """Align column ``col``'s instances with ``{j: m ≤ (1+β)^j ≤ 2km}``.

        The bounds only grow (``m`` is monotone), so the rebuild is a left
        shift of the slot axis by ``low' - low`` — tearing down the
        now-too-small exponents — plus fresh empty instances on the high
        side, walking the same ``guess *= base`` chain as the object plane
        so guesses stay bit-identical.
        """
        m = float(self._m[col])
        if m <= 0.0:
            return
        low = math.ceil(math.log(m) / self._log_base - _EPS)
        high = math.floor(
            math.log(2 * self._k * m) / self._log_base + _EPS
        )
        old_low = int(self._blow[col])
        old_high = int(self._bhigh[col])
        # Re-arm the skip threshold for the bounds just derived: the next
        # m that can bump ``low`` or ``high``, backed off a hair so float
        # error in the power never lets a bound-moving growth slip by.
        self._rthresh[col] = (
            min(
                self._base ** (low + _EPS),
                self._base ** (high + 1 - _EPS) / (2.0 * self._k),
            )
            * (1.0 - 1e-9)
        )
        if low == old_low and high == old_high:
            return
        width = high - low + 1
        assert width <= self._jcap, "guess ladder outgrew the slot budget"
        old_width = old_high - old_low + 1 if old_high >= old_low else 0
        self._blow[col] = low
        self._bhigh[col] = high
        shift = low - old_low if old_width else 0
        if shift > 0:
            # Membership bits are exponent-keyed (mod 64), so surviving
            # slots keep their bits untouched; only the torn-down slots'
            # seeds lose theirs.
            ids = self._iseed_ids
            nseed = self._inseed
            mem2d = self._mem2d
            for s in range(min(shift, old_width)):
                cnt = int(nseed[col, s])
                if cnt:
                    clear = ~(_UONE << np.uint64((old_low + s) & 63))
                    mem2d[ids[col, s, :cnt], col] &= clear
            survivors = old_width - shift
            if survivors > 0:
                src = slice(shift, old_width)
                dst = slice(0, survivors)
                self._ival[col, dst] = self._ival[col, src].copy()
                self._ibar[col, dst] = self._ibar[col, src].copy()
                self._iguess[col, dst] = self._iguess[col, src].copy()
                self._inseed[col, dst] = self._inseed[col, src].copy()
                self._icov[col, dst] = self._icov[col, src].copy()
                ids[col, dst] = ids[col, src].copy()
        survivors = max(old_width - shift, 0)
        if old_width > width:
            # Slots beyond the new width hold shifted-from leftovers.
            self._ival[col, width:old_width] = 0.0
            self._ibar[col, width:old_width] = math.inf
            self._iguess[col, width:old_width] = 0.0
            self._inseed[col, width:old_width] = 0
            self._icov[col, width:old_width] = _UZERO
        news = width - survivors
        if news > 0:
            # Walk the object plane's exact guess chain from base**low;
            # survivors keep their stored guesses, new slots take the
            # chain's values at their positions.
            base = self._base
            guess = base ** low
            guesses = []
            for s in range(width):
                if s >= survivors:
                    guesses.append(guess)
                guess *= base
            dummy = self._dummy
            bar_of = self._bar
            bars_new = []
            for g in guesses:
                dummy.guess = g
                bars_new.append(bar_of(dummy))
            fill = slice(survivors, width)
            self._iguess[col, fill] = guesses
            self._ival[col, fill] = 0.0
            self._inseed[col, fill] = 0
            self._icov[col, fill] = _UZERO
            self._ibar[col, fill] = bars_new
        self._floor[col] = self._ibar[col].min()
        self._dirtyf[col] = 0

    # -- persistence & introspection ---------------------------------------

    def col_state(self, col: int) -> dict:
        """One column in the exact ``StreamingThresholdOracle`` schema.

        Per-user entries are emitted sorted by user id — a canonical order
        (the transposed arrays have no per-column insertion order to
        preserve) that keeps serialization a fixed point under reload.
        Object-plane ``load_state`` accepts any entry order.
        """
        floor = float(self._floor[col])
        users = self._uidx_user
        cache_entries = sorted(
            [users[row], val]
            for row, val in enumerate(
                self._cache2d[: len(users), col].tolist()
            )
            if val != 0.0
        )
        member_entries = sorted(
            [users[row], count]
            for row, bits in enumerate(
                self._mem2d[: len(users), col].tolist()
            )
            if (count := bits.bit_count())
        )
        low = int(self._blow[col])
        high = int(self._bhigh[col])
        width = high - low + 1 if high >= low else 0
        lane_user = self._lane_user
        w = self._w
        instances = []
        for s in range(width):
            words = self._icov[col, s, :w] if w else ()
            covered: List[int] = []
            for wi, word in enumerate(np.asarray(words).tolist()):
                while word:
                    bit = (word & -word).bit_length() - 1
                    covered.append(lane_user[(wi << 6) + bit])
                    word &= word - 1
            covered.sort()
            cnt = int(self._inseed[col, s])
            instances.append(
                [
                    low + s,
                    {
                        "guess": float(self._iguess[col, s]),
                        "value": float(self._ival[col, s]),
                        "seeds": sorted(
                            users[i]
                            for i in self._iseed_ids[col, s, :cnt].tolist()
                        ),
                        "covered": covered,
                    },
                ]
            )
        return {
            "best_value": float(self._best[col]),
            "best_seeds": [
                users[i]
                for i in self._best_ids[
                    col, : int(self._best_ns[col])
                ].tolist()
            ],
            "m": float(self._m[col]),
            "bounds": [low, high],
            "admit_floor": None if floor == math.inf else floor,
            "singleton_cache": cache_entries,
            "member_counts": member_entries,
            "instances": instances,
        }

    def load_col_state(self, col: int, state: dict) -> None:
        """Restore one column from a ``StreamingThresholdOracle`` state dict
        (written by either plane)."""
        self._best[col] = state["best_value"]
        best = state["best_seeds"]
        self._best_ns[col] = len(best)
        for q, seed in enumerate(best):
            self._best_ids[col, q] = self._urow(seed)
        self._m[col] = state["m"]
        low, high = state["bounds"]
        self._blow[col], self._bhigh[col] = low, high
        floor = state["admit_floor"]
        self._floor[col] = math.inf if floor is None else floor
        for u, value in state["singleton_cache"]:
            # _urow may grow (replace) the row arrays — resolve it first.
            row = self._urow(u)
            self._cache2d[row, col] = value
        # Seed membership is rebuilt from the instances' seed lists (the
        # document's member_counts are exactly their per-user multiplicity).
        k = self._k
        lane = self._lane
        for j, fields in state["instances"]:
            s = j - low
            guess = fields["guess"]
            value = fields["value"]
            seeds = fields["seeds"]
            covered = fields["covered"]
            self._iguess[col, s] = guess
            self._ival[col, s] = value
            self._inseed[col, s] = len(seeds)
            for q, seed in enumerate(seeds):
                self._iseed_ids[col, s, q] = self._urow(seed)
            if len(seeds) >= k:
                self._ibar[col, s] = math.inf
            else:
                # The oracle's own bar rule over a real instance — exact.
                instance = ThresholdInstance(guess=guess)
                instance.value = value
                instance.seeds = set(seeds)
                self._ibar[col, s] = self._bar(instance)
            mask = 0
            for v in covered:
                mask |= 1 << lane(v)
            if mask:
                words = self._icov[col, s]
                wi = 0
                while mask:
                    words[wi] = mask & 0xFFFFFFFFFFFFFFFF
                    mask >>= 64
                    wi += 1
            if seeds:
                bit = _UONE << np.uint64(j & 63)
                for seed in seeds:
                    row = self._urow(seed)
                    self._mem2d[row, col] |= bit

    def materialize_oracle(self, col: int):
        """A real oracle object loaded from the column (read-only copy)."""
        oracle = self._spec.build(self._views[col])
        oracle.load_state(self.col_state(col))
        return oracle

    def stats(self) -> dict:
        """Plane/counter document for the telemetry scrape."""
        return {
            "plane": "columnar",
            "event_kernel": "c" if self._cfast is not None else "numpy",
            "slides_absorbed": self.slides_absorbed,
            "pair_updates": self.pair_updates,
            "columns": int(self._n - self._dead),
        }

    def footprint(self) -> tuple:
        """``(live instances, total covered entries)`` across live columns
        — the accounting the memory-footprint experiment reports without
        materializing per-checkpoint oracles."""
        n = self._n
        alive = self._alive[:n]
        if not alive.any():
            return 0, 0
        widths = np.maximum(self._bhigh[:n] - self._blow[:n] + 1, 0)
        instances = int(widths[alive].sum())
        covered = int(np.bitwise_count(self._icov[:n][alive]).sum())
        return instances, covered


class ColumnarCheckpoint(SuffixCheckpoint):
    """``Λ_t[i]`` as a handle into the kernel's column ``i``.

    Presents the same read surface as
    :class:`~repro.core.checkpoint.Checkpoint` — ``start``, ``value``,
    ``seeds``, ``index``, ``oracle``, ``actions_processed``, window
    arithmetic, ``to_state`` — but owns no oracle object: all state lives
    in the kernel's columns.  ``oracle`` materializes a real
    :class:`~repro.core.oracles.streaming_base.StreamingThresholdOracle`
    from the column on demand (a read-only copy for introspection).
    """

    __slots__ = ("_kernel", "_col")

    def __init__(self, kernel, col, start, ledger):
        super().__init__(start, ledger)
        self._kernel = kernel
        self._col = col

    @property
    def value(self) -> float:
        """The checkpoint's influence value Λ (monotone non-decreasing)."""
        return float(self._kernel._best[self._col])

    @property
    def seeds(self) -> FrozenSet[int]:
        """The maintained seed users."""
        kern = self._kernel
        ns = int(kern._best_ns[self._col])
        users = kern._uidx_user
        return frozenset(
            users[i] for i in kern._best_ids[self._col, :ns].tolist()
        )

    @property
    def oracle(self):
        """A materialized oracle for this column (read-only snapshot)."""
        return self._kernel.materialize_oracle(self._col)

    @property
    def index(self):
        """The checkpoint's suffix view of the shared index."""
        return self._kernel._views[self._col]

    def feed(self, user: int, new_member: int) -> None:
        """Columnar checkpoints are fed through the kernel, never directly."""
        raise RuntimeError(
            "columnar checkpoints receive feeds through "
            "ColumnarThresholdKernel.absorb_slide, not Checkpoint.feed"
        )

    feed_batch = feed

    def oracle_state(self) -> dict:
        """The column as an oracle ``state_dict`` (no oracle materialized)."""
        return self._kernel.col_state(self._col)


def restore_checkpoint(
    kernel: ColumnarThresholdKernel, state: dict, ledger
) -> ColumnarCheckpoint:
    """Rebuild one checkpoint column from a ``Checkpoint.to_state`` document
    written by either plane."""
    handle = kernel.new_checkpoint(state["start"], ledger)
    kernel.load_col_state(handle._col, state["oracle"])
    handle._actions_processed = state["actions_processed"]
    return handle
