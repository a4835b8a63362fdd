"""Columnar oracle kernel: one compiled call per slide, all checkpoints.

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
  become bit tests over a user's suffix lanes;
* transposed per-user state: singleton caches (``user ->
  float64[column]``) and seed membership (``user -> uint64[column]``, bit
  ``s`` set iff the user seeds slot ``s`` — the per-oracle
  ``_member_counts`` as popcounts).

Checkpoints are column *ranges*: columns are appended in ascending start
order, so the checkpoints a pair update feeds — those whose start exceeds
the pair's previous credit time — form a contiguous suffix ``[lo, n)``.
A slide is **one compiled call** (``process_slide`` in ``_ckernel.c``,
loaded by :mod:`~repro.core.oracles._ckernel`): Python interns the slide's
users and lanes and hands down the flat ``(user, previous, lane, time)``
updates.  C keeps its own copy of every touched user's influence pairs —
one time-ascending ``(time, lane)`` row per user row, seeded from the
shared index the first time the kernel touches the user and kept current
by those updates, so Python copies no pair.  It applies the updates, finds
each ``lo``, groups the updates per user and runs one **event** per (user,
column range) in slide order, which

1. adds the user's gains to ``cache[lo:n]``, raises ``m``/``best`` where
   the singleton beats them and realigns the guess ladder of any column
   whose bounds moved;
2. takes the user's suffix per column as the row's pairs credited at or
   after its start, so the members an admission would gain are the suffix
   lanes whose covered bit is clear and the gain is ``uniform * count`` —
   for *member* instances the same count is the refresh growth, because a
   seed's covered set always contains their older suffix;
3. admits where ``gain >= bar``, updating values, covered words, bars
   (sieve recomputes, fills go to ``+inf``) and floors, and folds the
   best-so-far offers in ascending slot order (the object plane's
   sequential strict-``>`` fold).

There is no second, interpreted implementation of the event: a spec the
compiled code cannot serve, or a box where it cannot be built, runs the
object plane (:meth:`ColumnarThresholdKernel.for_spec`).

Bookkeeping that the object plane keeps in Python containers lives in
flat arrays here: per-instance seed lists are rows of an
``(columns, slots, k)`` id array (user ids interned to dense rows),
membership bits sit in a ``(users, columns)`` ``uint64`` matrix, and the
best-so-far seed set is a ``(columns, k)`` id array — so the whole
per-event update is array writes with no Python-object churn, which is
what lets the compiled code own the state.  Seed lists serialize sorted and
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
are compiled too: ``retire_column`` masks the column dead (``m/best/floor``
set to sentinels no event compare can fire on) and clears its membership
bits by walking the column's own seed lists — bit ⇔ listed seed is an
invariant — and ``compact`` reclaims dead columns in place once they
outnumber live ones, leaving every unused column open-ready, so opening
a column (:meth:`~ColumnarThresholdKernel.new_checkpoint`) writes only
its start.

Checkpoint state is serialized as the live columns themselves
(:meth:`ColumnarThresholdKernel.to_state`: arrays, the sparse matrices as
their non-zero entries), and :func:`oracle_documents` decodes those, with
numpy alone, into the *exact* ``StreamingThresholdOracle.state_dict``
schema (coverage bitsets decode back to sorted member lists) — so
snapshots are plane-portable in both directions: object-plane snapshots
open into columnar engines (:func:`restore_checkpoint`) and vice versa.

Supported scope: modular influence functions with **uniform** member
weights and the stock ``sieve``/``threshold``
:class:`~repro.core.oracles.streaming_base.StreamingThresholdOracle`
classes over a shared
:class:`~repro.core.influence_index.VersionedInfluenceIndex`, on a box
where the compiled event loads.  Non-uniform weights stay on the object
plane: their admission gains are float sums in per-object set-iteration
order, which counted coverage bits cannot reproduce bit-for-bit.  Every check
is in :meth:`ColumnarThresholdKernel.for_spec`, which
:func:`repro.core.checkpoint.make_columnar_kernel` calls.
"""

from __future__ import annotations

import ctypes
import math
import weakref
from time import perf_counter
from typing import Dict, FrozenSet, List, Optional

import numpy as np

from repro.core.checkpoint import SuffixCheckpoint
from repro.core.oracles import _ckernel
from repro.core.oracles.streaming_base import (
    StreamingThresholdOracle,
    ThresholdInstance,
)
from repro.telemetry.trace import active_trace

__all__ = [
    "ColumnarThresholdKernel",
    "ColumnarCheckpoint",
    "oracle_documents",
    "restore_checkpoint",
]

_UONE = np.uint64(1)

#: The per-column arrays a snapshot carries verbatim, under the kernel's own
#: names: the column scalars, then the instance plane.
_COLUMN_ARRAYS = (
    "m best floor blow bhigh best_ns best_ids ival iguess ibar inseed iseed_ids"
).split()


#: ``EventCtx`` pointer field -> the kernel attribute holding its array.
_CTX_ARRAYS = {
    **{name: "_" + name for name in _COLUMN_ARRAYS if name != "floor"},
    **{name: "_" + name for name in "rthresh dirtyf icov mem2d cache2d".split()},
    "floor_": "_floor",  # ``floor`` is libm's in C
    "starts": "_starts_arr",
    **{
        name: "_sc_" + name
        for name in "upd_user upd_prev upd_lane upd_time usr_row work counts".split()
    },
}


def _stock_bar_mode(probe) -> Optional[int]:
    """The compiled kernel's bar mode for ``probe``'s oracle class, or
    ``None`` when the class customizes the bar rule (the C kernel
    hard-codes the stock sieve/threshold formulas; anything else runs on
    the object plane, which calls the real ``_instance_bar``)."""
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


def _slot_budget(k: int, log_base: float) -> int:
    """Instance-plane width: the guess ladder ``m <= (1+β)^j <= 2km`` spans
    at most ``log(2k)/log(1+β) + O(1)`` exponents regardless of ``m``, so a
    fixed per-column slot budget holds every live instance."""
    return int(math.log(2 * k) / log_base) + 3


class ColumnarThresholdKernel:
    """Array-backed state of every live checkpoint's threshold oracle."""

    #: Compact once at least this many columns are dead *and* the dead
    #: outnumber the live — amortised O(1) column work per retire.
    _MIN_COMPACT_DEAD = 32

    @classmethod
    def for_spec(cls, spec, shared) -> Optional["ColumnarThresholdKernel"]:
        """A kernel for ``spec`` over ``shared`` — or ``None``, and the
        engine runs per-checkpoint object oracles, when the compiled event
        cannot reproduce the spec bit-for-bit or cannot be loaded here."""
        func = spec.func
        # Admission gains are ``uniform * count``: weighted members are
        # float sums in each object oracle's set-iteration order, which a
        # count cannot reproduce exactly.
        if not func.modular or func.uniform_weight is None:
            return None
        try:
            probe = spec.build(shared.view(1))
        except KeyError:
            # Unknown oracle names keep their pinned contract: the engine
            # constructs fine and raises on the first checkpoint build.
            return None
        if not isinstance(probe, StreamingThresholdOracle):
            return None
        bar_mode = _stock_bar_mode(probe)
        # Seed membership packs one bit per live guess instance into a
        # uint64 per (user, column); a tiny beta overflows it.
        if bar_mode is None or _slot_budget(spec.k, probe._log_base) > 64:
            return None
        lib = _ckernel.load()
        if lib is None:
            return None
        return cls(spec, shared, probe, bar_mode, lib)

    def __init__(self, spec, shared, probe, bar_mode, lib):
        """Built by :meth:`for_spec`, which vets the arguments.

        Args:
            spec: The framework's :class:`~repro.core.checkpoint.OracleSpec`.
            shared: The framework's
                :class:`~repro.core.influence_index.VersionedInfluenceIndex`.
            probe: An oracle built from ``spec``: supplies the guess base
                and the exact admission-bar rule columns restore through.
            bar_mode: ``probe``'s :func:`_stock_bar_mode`.
            lib: The loaded compiled kernel (:func:`_ckernel.load`).
        """
        self._spec = spec
        self._shared = shared
        self._k = spec.k
        self._uniform = spec.func.uniform_weight
        self._bar = probe._instance_bar
        self._base = 1.0 + probe._beta
        self._log_base = probe._log_base
        # Slot s of a column is the instance with exponent blow + s.
        self._jcap = _slot_budget(self._k, self._log_base)

        # Telemetry plane counters (scraped via :meth:`stats`).
        self.slides_absorbed = 0
        self.pair_updates = 0

        cap = 64
        self._cap = cap
        self._n = 0
        self._dead = 0
        # First live physical column: events never reach the dead prefix.
        self._head = 0
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
        # The compiled half: its library, the context struct it reads the
        # arrays through (refilled after any reallocation), its scratch,
        # sized for a slide's puts, and its pair store, whose rows hold the
        # users in ``_seeded`` (user -> row; interned but unseeded users,
        # e.g. restored ones, are seeded on their first event).
        self._cfast = lib
        self._cbar_mode = bar_mode
        self._cref = None
        self._cstale = True
        self._sc_puts = 64
        self._store = lib.store_new()
        if not self._store:
            raise MemoryError("columnar C kernel: no memory for its pair store")
        self._free_store = weakref.finalize(self, lib.store_free, self._store)
        self._seeded: Dict[int, int] = {}

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
        # Every unused column is kept in the open state (allocation and
        # growth fill it, ``compact`` resets what it vacates), so opening
        # one writes its start and nothing else.
        self._starts_arr[col] = start
        self._starts_list.append(start)
        handle = ColumnarCheckpoint(self, col, start, ledger)
        self._handles.append(handle)
        return handle

    def retire_checkpoint(self, checkpoint: "ColumnarCheckpoint") -> None:
        """Mask a checkpoint's column dead (expiry or SIC pruning)."""
        col = checkpoint._col
        if self._handles[col] is not checkpoint:
            return  # already retired (its column index is stale)
        self._handles[col] = None
        self._cfast.retire_column(self._context(), col)
        self._dead += 1
        handles = self._handles
        while self._head < self._n and handles[self._head] is None:
            self._head += 1
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

    # -- the compiled half ---------------------------------------------------

    def _context(self, puts: int = 0):
        """The C entries' context argument, its scratch sized for a slide
        of ``puts`` store puts (updates and seeds); refilled after any
        array reallocation (growth marks ``_cstale``)."""
        if puts > self._sc_puts:
            while self._sc_puts < puts:
                self._sc_puts *= 2
            self._cstale = True
        if self._cstale:
            self._refill_ctx()
        return self._cref

    def _refill_ctx(self) -> None:
        puts = self._sc_puts
        for name in ("upd_user", "upd_prev", "upd_lane", "upd_time", "usr_row"):
            setattr(self, "_sc_" + name, np.zeros(puts, dtype=np.int64))
        self._sc_work = np.zeros(4 * puts + 2, dtype=np.int64)
        self._sc_counts = np.zeros(self._cap + 1, dtype=np.int64)
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
        for field, attribute in _CTX_ARRAYS.items():
            setattr(ctx, field, getattr(self, attribute).ctypes.data)
        ctx.store = self._store
        self._cref = ctypes.byref(ctx)  # keeps the struct alive
        self._cstale = False

    def _compact(self) -> None:
        """Physically drop dead columns (handles are re-pointed in place)."""
        keep_list = [c for c, h in enumerate(self._handles) if h is not None]
        keep = np.array(keep_list, dtype=np.int64)
        n_new = len(keep_list)
        self._cfast.compact(
            self._context(), keep.ctypes.data, n_new, self._n, len(self._uidx_user)
        )
        self._starts_list = [self._starts_list[c] for c in keep_list]
        self._handles = [self._handles[c] for c in keep_list]
        for col, handle in enumerate(self._handles):
            handle._col = col
        self._n = n_new
        self._dead = 0
        self._head = 0

    # -- the per-slide kernel ----------------------------------------------

    def absorb_slide(self, roster, arrived, absorbed: int) -> None:
        """Index ``arrived`` once and hand the slide to the compiled kernel.

        The columnar twin of :func:`repro.core.checkpoint.feed_shared`:
        one shared-index update per record, then one ``process_slide``
        call that runs a compiled event per updated user and re-tightens
        the floors of the columns that admitted this slide.
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
        """Python's share of the slide: intern its touched users into rows
        and its performers into lanes, queue a seed (the user's pairs in the
        shared index) for each touched user the pair store does not hold
        yet, and make the one ``process_slide`` call with the seeds and the
        flat ``(user, previous, lane, time)`` updates — the store, grouping
        and replay order are C's.  An unseeded user's update that feeds no
        column is skipped: their seed, whenever it comes, will hold it."""
        if not updates:
            return
        newest = self._starts_list[-1] if self._n else -1
        lane, lane_of = self._lane, self._lane_of
        seeded, latest = self._seeded, self._shared._latest
        slot_of: Dict[int, int] = {}
        rows: List[int] = []
        upd_user, upd_prev, upd_lane, upd_time = [], [], [], []
        seed_user: List[int] = []
        seed_lane: List[int] = []
        seed_time: List[int] = []
        for performer, u, previous in updates:
            slot = slot_of.get(u)
            if slot is None:
                row = seeded.get(u)
                if row is None:
                    if previous >= newest:
                        continue
                    row = seeded[u] = self._urow(u)
                    pairs = latest[u]
                    try:
                        seed_lane += [lane_of[v] for v in pairs]
                    except KeyError:
                        # Pairs restored from a snapshot (or this slide's
                        # later performers) may not be laned yet.
                        seed_lane += [lane(v) for v in pairs]
                    seed_time += pairs.values()
                    seed_user += [len(rows)] * len(pairs)
                slot = slot_of[u] = len(rows)
                rows.append(row)
            lane_v = lane_of.get(performer)
            upd_user.append(slot)
            upd_prev.append(previous)
            upd_lane.append(lane(performer) if lane_v is None else lane_v)
            upd_time.append(latest[u][performer])
        if not rows:
            return
        nseed, nusers = len(seed_user), len(rows)
        puts = nseed + len(upd_user)
        context = self._context(puts)
        self._sc_upd_user[:puts] = seed_user + upd_user
        self._sc_upd_prev[nseed:puts] = upd_prev
        self._sc_upd_lane[:puts] = seed_lane + upd_lane
        self._sc_upd_time[:puts] = seed_time + upd_time
        self._sc_usr_row[:nusers] = rows
        status = self._cfast.process_slide(
            context, self._n, self._head, nseed, puts - nseed, nusers
        )
        if status == 2:  # OUT_OF_MEMORY: the store could not grow
            raise MemoryError("columnar C kernel: no memory for its pair store")
        if status:  # pragma: no cover - guarded by _jcap sizing
            raise RuntimeError(
                "columnar C kernel: guess ladder outgrew the slot budget"
            )

    # -- persistence & introspection ---------------------------------------

    def to_state(self, checkpoints) -> dict:
        """The columns of ``checkpoints`` (live handles, oldest first) as arrays.

        Per-column arrays are fancy-indexed copies, verbatim; the interned
        ``users``/``lanes`` tables ride along so row and lane numbers stay
        meaningful; the sparse per-user matrices and the coverage bitsets
        are stored as their non-zero entries, ``col`` counting positions in
        this document.  :func:`oracle_documents` decodes the result.
        """
        count = len(checkpoints)
        cols = np.fromiter((c._col for c in checkpoints), np.int64, count)
        state = {key: getattr(self, "_" + key)[cols] for key in _COLUMN_ARRAYS}
        state["start"] = self._starts_arr[cols]
        state["actions_processed"] = np.fromiter(
            (c.actions_processed for c in checkpoints), np.int64, count
        )
        state["users"] = np.array(self._uidx_user, dtype=np.int64)
        state["lanes"] = np.array(self._lane_user, dtype=np.int64)
        n = self._n
        position = np.full(n, -1, dtype=np.int64)
        position[cols] = np.arange(count)
        users = len(self._uidx_user)
        for name, matrix in (("cache", self._cache2d), ("member", self._mem2d)):
            rows, at = np.nonzero(matrix[:users, :n])
            keep = position[at] >= 0  # retired columns keep stale cache rows
            rows, at = rows[keep], at[keep]
            state[name] = {"row": rows, "col": position[at], "value": matrix[rows, at]}
        at, slot, word = np.nonzero(self._icov[:n, :, : self._w])
        keep = position[at] >= 0
        at, slot, word = at[keep], slot[keep], word[keep]
        state["covered"] = {
            "col": position[at],
            "slot": slot,
            "word": word,
            "bits": self._icov[at, slot, word],
        }
        return state

    def load_state(self, state: dict, roster) -> None:
        """Restore a fresh kernel from :meth:`to_state` output, appending
        the checkpoints' handles to ``roster``."""
        for key in ("users", "lanes"):
            if len(np.unique(state[key])) != len(state[key]):
                raise ValueError(f"kernel table {key!r} repeats an entry")
        for u in state["users"].tolist():
            self._urow(u)
        for v in state["lanes"].tolist():
            self._lane(v)
        # One reallocation, while the column axis is still empty: growing
        # it under thousands of user rows copies every row per doubling.
        cap = self._cap
        while cap < len(state["start"]):
            cap *= 2
        if cap > self._cap:
            self._grow(cap)
        for start, done in zip(
            state["start"].tolist(), state["actions_processed"].tolist()
        ):
            handle = self.new_checkpoint(start, roster)
            handle._actions_processed = done
            roster.append(handle)
        # The compiled event trusts these as array indices and loop bounds,
        # and numpy would wrap a negative entry into the last row or word.
        users, seeds, columns = len(self._uidx_user), self._k + 1, self._n
        rows = max(users, 1)  # unused seed slots hold row 0
        covered = state["covered"]
        for key, values, limit in (
            ("best_ids", state["best_ids"], rows),
            ("iseed_ids", state["iseed_ids"], rows),
            ("best_ns", state["best_ns"], seeds),
            ("inseed", state["inseed"], seeds),
            ("cache.row", state["cache"]["row"], users),
            ("cache.col", state["cache"]["col"], columns),
            ("member.row", state["member"]["row"], users),
            ("member.col", state["member"]["col"], columns),
            ("covered.col", covered["col"], columns),
            ("covered.slot", covered["slot"], self._jcap),
            ("covered.word", covered["word"], -(-len(self._lane_user) // 64)),
        ):
            if values.size and not 0 <= values.min() <= values.max() < limit:
                raise ValueError(f"kernel column {key!r} leaves [0, {limit})")
        if (state["bhigh"].astype(np.int64) - state["blow"] >= self._jcap).any():
            raise ValueError("kernel column bounds outgrow the slot budget")
        for key in _COLUMN_ARRAYS:
            getattr(self, "_" + key)[: self._n] = state[key]
        for name, matrix in (("cache", self._cache2d), ("member", self._mem2d)):
            entries = state[name]
            matrix[entries["row"], entries["col"]] = entries["value"]
        self._icov[covered["col"], covered["slot"], covered["word"]] = covered["bits"]

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
        oracle = self._spec.build(self._handles[col].index)
        oracle.load_state(self._handles[col].oracle_state())
        return oracle

    def stats(self) -> dict:
        """Plane/counter document for the telemetry scrape."""
        return {
            "plane": "columnar",
            "event_kernel": "c",
            "slides_absorbed": self.slides_absorbed,
            "pair_updates": self.pair_updates,
            "columns": int(self._n - self._dead),
        }

    def footprint(self) -> tuple:
        """``(live instances, total covered entries)`` across live columns
        — the accounting the memory-footprint experiment reports without
        materializing per-checkpoint oracles."""
        n = self._n  # dead columns hold an empty ladder and no coverage
        instances = int((self._bhigh[:n] - self._blow[:n] + 1).sum())
        covered = int(np.bitwise_count(self._icov[:n]).sum())
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
        return self._kernel._shared.view(self.start)

    def feed(self, user: int, new_member: int) -> None:
        """Columnar checkpoints are fed through the kernel, never directly."""
        raise RuntimeError(
            "columnar checkpoints receive feeds through "
            "ColumnarThresholdKernel.absorb_slide, not Checkpoint.feed"
        )

    feed_batch = feed

    def oracle_state(self) -> dict:
        """The column as an oracle ``state_dict`` (no oracle materialized)."""
        return oracle_documents(self._kernel.to_state([self]))[0]["oracle"]


def oracle_documents(state: dict) -> List[dict]:
    """Kernel columns decoded into ``Checkpoint.to_state`` documents.

    ``state`` is :meth:`ColumnarThresholdKernel.to_state` output; the
    decoding needs numpy alone — no kernel, no compiler — which is how the
    object plane opens a kernel-written roster.  Each ``"oracle"`` field is
    in the exact ``StreamingThresholdOracle.state_dict`` schema, per-user
    entries sorted by user id — a canonical order (the transposed arrays
    have no per-column insertion order to preserve) that keeps
    serialization a fixed point under reload.  Object-plane ``load_state``
    accepts any entry order.
    """
    users = state["users"].tolist()
    lanes = state["lanes"].tolist()
    count = len(state["start"])

    def per_column(name, weigh) -> List[list]:
        entries = [[] for _ in range(count)]
        triples = state[name]
        for row, col, value in zip(
            *(triples[key].tolist() for key in ("row", "col", "value"))
        ):
            entries[col].append([users[row], weigh(value)])
        return entries

    cache = per_column("cache", float)
    members = per_column("member", int.bit_count)
    covered: Dict[tuple, List[int]] = {}
    words = state["covered"]
    for col, slot, word, bits in zip(
        *(words[key].tolist() for key in ("col", "slot", "word", "bits"))
    ):
        bucket = covered.setdefault((col, slot), [])
        while bits:
            bit = (bits & -bits).bit_length() - 1
            bucket.append(lanes[(word << 6) + bit])
            bits &= bits - 1
    columns = {key: state[key].tolist() for key in _COLUMN_ARRAYS}
    documents = []
    for col, (start, done) in enumerate(
        zip(state["start"].tolist(), state["actions_processed"].tolist())
    ):
        low, high = columns["blow"][col], columns["bhigh"][col]
        floor = columns["floor"][col]
        seed_rows, seed_count = columns["iseed_ids"][col], columns["inseed"][col]
        oracle = {
            "best_value": columns["best"][col],
            "best_seeds": [
                users[i]
                for i in columns["best_ids"][col][: columns["best_ns"][col]]
            ],
            "m": columns["m"][col],
            "bounds": [low, high],
            "admit_floor": None if floor == math.inf else floor,
            "singleton_cache": sorted(cache[col]),
            "member_counts": sorted(members[col]),
            "instances": [
                [
                    low + s,
                    {
                        "guess": columns["iguess"][col][s],
                        "value": columns["ival"][col][s],
                        "seeds": sorted(
                            users[i] for i in seed_rows[s][: seed_count[s]]
                        ),
                        "covered": sorted(covered.get((col, s), ())),
                    },
                ]
                for s in range(high - low + 1)
            ],
        }
        documents.append(
            {
                "start": start,
                "actions_processed": done,
                "oracle": oracle,
                "index": None,
            }
        )
    return documents


def restore_checkpoint(
    kernel: ColumnarThresholdKernel, state: dict, ledger
) -> ColumnarCheckpoint:
    """Rebuild one checkpoint column from a ``Checkpoint.to_state`` document
    written by either plane."""
    handle = kernel.new_checkpoint(state["start"], ledger)
    kernel.load_col_state(handle._col, state["oracle"])
    handle._actions_processed = state["actions_processed"]
    return handle
