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
loaded by :mod:`~repro.core.oracles._ckernel`): Python hands down the
slide's records as flat columns — performer, time, fanout, influencers —
filled with one pass per record.  On this plane the compiled **pair
store** is the engine's shared influence index, and its only copy of the
pairs: one time-ascending ``(time, lane)`` row per interned user row.  C
interns the slide's influencers as rows and performers as lanes, credits
every pair in its row, reading the pair's previous credit off the row as
it goes, finds each ``lo``, groups the pairs per user and runs one
**event** per (user, column range) in slide order, which

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

Everything that reads the pairs — a checkpoint's ``index``, the
framework's ``shared_index``, ``query_candidates``, the memory experiment
— reads the store through :class:`StoreView`, which serves the
:class:`~repro.core.influence_index.SuffixView` protocol from one compiled
``suffix(user, start)`` entry.

Checkpoint state is serialized as the live columns themselves
(:meth:`ColumnarThresholdKernel.to_state`: arrays, the sparse matrices as
their non-zero entries) beside the store's live pairs, in the object
plane's ``shared`` layout, both written by one compiled pass over the rows
holding live pairs; :func:`oracle_documents` decodes the columns, with
numpy alone, into the *exact* ``StreamingThresholdOracle.state_dict``
schema (coverage bitsets decode back to sorted member lists) — so
snapshots are plane-portable in both directions: object-plane snapshots
open into columnar engines (:meth:`ColumnarThresholdKernel.load_state`)
and vice versa, the ``shared`` section loading straight into the store.

Supported scope: modular influence functions with **uniform** member
weights and the stock ``sieve``/``threshold``
:class:`~repro.core.oracles.streaming_base.StreamingThresholdOracle`
classes, on a box where the compiled event loads; every other engine runs
the object plane over a
:class:`~repro.core.influence_index.VersionedInfluenceIndex`.  Non-uniform weights stay on the object
plane: their admission gains are float sums in per-object set-iteration
order, which counted coverage bits cannot reproduce bit-for-bit.  Every check
is in :meth:`ColumnarThresholdKernel.for_spec`, which
:func:`repro.core.checkpoint.make_columnar_kernel` calls.
"""

from __future__ import annotations

import ctypes
import math
import struct
import weakref
from array import array
from time import perf_counter
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from repro.core.checkpoint import CheckpointRoster, SuffixCheckpoint
from repro.core.oracles import _ckernel
from repro.core.oracles.streaming_base import (
    StreamingThresholdOracle,
    ThresholdInstance,
)
from repro.telemetry.trace import active_trace

__all__ = [
    "ColumnarThresholdKernel",
    "ColumnarCheckpoint",
    "StoreView",
    "oracle_documents",
]

_UONE = np.uint64(1)
_SIX, _LOW6 = np.uint64(6), np.uint64(63)

#: The per-column arrays a snapshot carries verbatim, under the kernel's own
#: names: the column scalars, then the instance plane.
_COLUMN_ARRAYS = (
    "m best floor blow bhigh best_ns best_ids ival iguess ibar inseed iseed_ids"
).split()

#: The record columns (``records_to_columns``' layout) ``process_slide``
#: reads, in the order of ``EventCtx``'s adjacent pointers to them,
#: ``rec_user`` to ``rec_infl``, which one ``pack_into`` at
#: :data:`_SLIDE_OFFSET` sets.
_SLIDE_COLUMNS = ("user", "time", "fanout", "influencers")
_SLIDE_POINTERS = struct.Struct("4P")
_SLIDE_OFFSET = _ckernel.EventCtx.rec_user.offset


#: ``EventCtx`` pointer field -> the kernel attribute holding its array.
_CTX_ARRAYS = {
    **{name: "_" + name for name in _COLUMN_ARRAYS if name != "floor"},
    **{
        name: "_" + name
        for name in "rthresh dirtyf icov mem2d cache2d row_user lane_user tally".split()
    },
    "floor_": "_floor",  # ``floor`` is libm's in C
    "starts": "_starts_arr",
    **{name: "_sc_" + name for name in ("work", "counts")},
}

#: ``process_slide``'s status when the row or word axis must grow first.
_NEED_ROOM = 3


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
    def for_spec(cls, spec) -> Optional["ColumnarThresholdKernel"]:
        """A kernel for ``spec`` — or ``None``, and the engine runs
        per-checkpoint object oracles over a
        :class:`~repro.core.influence_index.VersionedInfluenceIndex`, when
        the compiled event cannot reproduce the spec bit-for-bit or cannot
        be loaded here."""
        func = spec.func
        # Admission gains are ``uniform * count``: weighted members are
        # float sums in each object oracle's set-iteration order, which a
        # count cannot reproduce exactly.
        if not func.modular or func.uniform_weight is None:
            return None
        try:
            probe = spec.build(None)
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
        return cls(spec, probe, bar_mode, lib)

    def __init__(self, spec, probe, bar_mode, lib):
        """Built by :meth:`for_spec`, which vets the arguments.

        Args:
            spec: The framework's :class:`~repro.core.checkpoint.OracleSpec`.
            probe: An oracle built from ``spec``: supplies the guess base
                and the exact admission-bar rule columns restore through.
            bar_mode: ``probe``'s :func:`_stock_bar_mode`.
            lib: The loaded compiled kernel (:func:`_ckernel.load`).
        """
        self._spec = spec
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
        # user *rows* (see ``_row_user``) in admission order.
        self._iseed_ids = np.zeros((cap, jcap, kcap), dtype=np.int64)
        # Best-so-far solution seeds per column, same encoding.
        self._best_ids = np.zeros((cap, kcap), dtype=np.int64)
        self._best_ns = np.zeros(cap, dtype=np.int64)
        # Coverage bitsets (column, slot, word); the word axis grows with
        # the influenced-user lane count.
        self._wcap = 1
        self._icov = np.zeros((cap, jcap, 1), dtype=np.uint64)
        # Python-side per-column state, aligned with the arrays.
        self._starts_list: List[int] = []
        self._handles: List[Optional["ColumnarCheckpoint"]] = []
        # Transposed per-user state, one row per interned user (rows and
        # lanes are interned by the compiled half, which writes each one's
        # user id into ``_row_user``/``_lane_user`` and their counts, with
        # the store's pairs and filled rows, into ``_tally``): singleton
        # caches as float rows, seed membership as uint64 rows (bit
        # ``j & 63`` set iff the user seeds the instance with guess
        # exponent ``j`` — unambiguous because a column's live exponent
        # span is < 64).
        self._row_user = np.zeros(64, dtype=np.int64)
        self._lane_user = np.zeros(64, dtype=np.int64)
        self._tally = np.zeros(4, dtype=np.int64)
        self._urows_cap = 64
        self._mem2d = np.zeros((self._urows_cap, cap), dtype=np.uint64)
        self._cache2d = np.zeros((self._urows_cap, cap))
        # Columns whose floor needs re-tightening at slide end.
        self._dirtyf = np.zeros(cap, dtype=np.uint8)
        # The compiled half: its library, the context struct it reads the
        # arrays through (refilled after any reallocation), its scratch,
        # sized for a slide's pairs and records, and its pair store.
        self._cfast = lib
        self._cbar_mode = bar_mode
        self._cref = None
        self._cstale = True
        self._sc_puts = 0
        self._scratch(64)
        self._store = lib.store_new()
        if not self._store:
            raise MemoryError("columnar C kernel: no memory for its pair store")
        self._free_store = weakref.finalize(self, lib.store_free, self._store)
        # Export room: the cache entries the last snapshot held.
        self._export_room = 64

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

    def _reserve(self, users: int, lanes: int) -> None:
        """Room in the name tables for ``users`` more rows and ``lanes``
        more lanes — upper bounds, the compiled half interns the new ones."""
        for name, held, more in (("_row_user", 0, users), ("_lane_user", 1, lanes)):
            table = getattr(self, name)
            need = int(self._tally[held]) + more
            if need > len(table):
                grown = np.zeros(max(2 * len(table), need), dtype=np.int64)
                grown[: len(table)] = table
                setattr(self, name, grown)
                self._cstale = True

    def _fit(self) -> None:
        """Grow the user-row axis of ``mem2d``/``cache2d`` and the word axis
        of the coverage bitsets to the rows and lanes interned so far."""
        rows = self._urows_cap
        while rows < self._tally[0]:
            rows *= 2
        if rows > self._urows_cap:
            mem = np.zeros((rows, self._cap), dtype=np.uint64)
            mem[: self._urows_cap] = self._mem2d
            cch = np.zeros((rows, self._cap))
            cch[: self._urows_cap] = self._cache2d
            self._mem2d, self._cache2d, self._urows_cap = mem, cch, rows
            self._cstale = True
        words = self._words
        if words > self._wcap:
            self._grow_words(max(self._wcap * 2, words))

    @property
    def _words(self) -> int:
        """Coverage words the interned lanes span."""
        return -(-int(self._tally[1]) // 64)

    def _intern(self, ids, lanes: bool = False) -> np.ndarray:
        """The rows (or, with ``lanes``, the coverage lanes) of user ids
        ``ids``, interning the ones first seen (a restore's names)."""
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        self._reserve(0 if lanes else len(ids), len(ids) if lanes else 0)
        out = np.empty(len(ids), dtype=np.int64)
        status = self._cfast.intern(
            self._context(), ids.ctypes.data, len(ids), lanes, out.ctypes.data
        )
        if status:
            raise MemoryError("columnar C kernel: no memory for its pair store")
        self._fit()
        return out

    # -- the compiled half ---------------------------------------------------

    def _scratch(self, puts: int) -> None:
        """Scratch for a slide of ``puts`` pairs or records (doubling)."""
        if puts <= self._sc_puts:
            return
        self._sc_puts = size = max(puts, 2 * self._sc_puts)
        self._sc_work = np.zeros(8 * size + 2, dtype=np.int64)
        self._cstale = True

    def _context(self):
        """The C entries' context argument, refilled after any array
        reallocation (growth marks ``_cstale``)."""
        if self._cstale:
            self._sc_counts = np.zeros(self._cap + 1, dtype=np.int64)
            ctx = _ckernel.EventCtx()
            ctx.cap = self._cap
            ctx.jcap = self._jcap
            ctx.kcap = self._k
            ctx.wcap = self._wcap
            ctx.k = self._k
            ctx.bar_mode = self._cbar_mode
            ctx.urows = self._urows_cap
            ctx.ucap = len(self._row_user)
            ctx.lcap = len(self._lane_user)
            ctx.uniform = self._uniform
            ctx.base = self._base
            ctx.log_base = self._log_base
            for field, attribute in _CTX_ARRAYS.items():
                setattr(ctx, field, getattr(self, attribute).ctypes.data)
            ctx.store = self._store
            self._ctx = ctx
            self._cref = ctypes.byref(ctx)
            self._cstale = False
        return self._cref

    def _compact(self) -> None:
        """Physically drop dead columns (handles are re-pointed in place)."""
        keep_list = [c for c, h in enumerate(self._handles) if h is not None]
        keep = np.array(keep_list, dtype=np.int64)
        n_new = len(keep_list)
        self._cfast.compact(
            self._context(), keep.ctypes.data, n_new, self._n, int(self._tally[0])
        )
        self._starts_list = [self._starts_list[c] for c in keep_list]
        self._handles = [self._handles[c] for c in keep_list]
        for col, handle in enumerate(self._handles):
            handle._col = col
        self._n = n_new
        self._dead = 0
        self._head = 0

    # -- the per-slide kernel ----------------------------------------------

    def absorb_slide(self, roster, resolved, absorbed: int) -> None:
        """Hand a resolved slide's record columns to the compiled kernel.

        The columnar twin of :func:`repro.core.checkpoint.feed_shared`:
        ``process_slide`` reads the slide's columns — performer, time,
        fanout and the concatenated influencers, as the diffusion forest's
        compiled resolve wrote them — where they lie, and in one call
        interns them, credits their pairs in the pair store, runs a
        compiled event per updated user and re-tightens the floors of the
        columns that admitted this slide.
        """
        if not len(roster):
            return
        if len(resolved):
            trace = active_trace()
            started = perf_counter() if trace is not None else 0.0
            columns = resolved.columns
            nrec, npairs = len(columns["time"]), len(columns["influencers"])
            if npairs:
                self._reserve(npairs, nrec)
                self._scratch(max(npairs, nrec))
            if trace is not None:
                marshalled = perf_counter()
                trace.add_stage("kernel_index", marshalled - started, nrec)
            if npairs:
                self._process(self._n, self._head, columns)
            if trace is not None:
                trace.add_stage("kernel_pass", perf_counter() - marshalled, npairs)
            self.slides_absorbed += 1
            self.pair_updates += npairs
        roster.absorbed += absorbed

    def _process(self, n: int, head: int, columns: dict) -> None:
        """One ``process_slide`` call over the record ``columns``, made
        again once the row and word axes grow if it asks them to."""
        status = self._process_once(n, head, columns)
        if status == _NEED_ROOM:
            self._fit()
            status = self._process_once(n, head, columns)
        if status == 2:  # OUT_OF_MEMORY: the store could not grow
            raise MemoryError("columnar C kernel: no memory for its pair store")
        if status:  # pragma: no cover - guarded by _jcap sizing
            raise RuntimeError(
                "columnar C kernel: guess ladder outgrew the slot budget"
            )

    def _process_once(self, n: int, head: int, columns: dict) -> int:
        """``process_slide`` with the context pointing at ``columns``."""
        context = self._context()
        _SLIDE_POINTERS.pack_into(
            self._ctx,
            _SLIDE_OFFSET,
            *[columns[name].buffer_info()[0] for name in _SLIDE_COLUMNS],
        )
        nrec, npairs = len(columns["time"]), len(columns["influencers"])
        return self._cfast.process_slide(context, n, head, nrec, npairs)

    # -- persistence & introspection ---------------------------------------

    def to_state(self, checkpoints) -> Tuple[dict, dict]:
        """``(shared, columns)``: the pair store and the columns of
        ``checkpoints`` (live handles, oldest first) as arrays.

        ``shared`` is laid out like
        :meth:`~repro.core.influence_index.VersionedInfluenceIndex.to_state`
        — the store's pairs credited from the oldest live column's start
        on, each user's run time-ascending — so either plane opens it.  In
        ``columns`` per-column arrays are fancy-indexed copies, verbatim;
        the interned ``users``/``lanes`` tables ride along so row and lane
        numbers stay meaningful; the sparse per-user matrices and the
        coverage bitsets are stored as their non-zero entries, ``col``
        counting positions in this document.  The pairs and the per-user
        entries come from one compiled pass over the rows holding live
        pairs.  :func:`oracle_documents` decodes ``columns``.
        """
        count = len(checkpoints)
        cols = np.fromiter((c._col for c in checkpoints), np.int64, count)
        state = {key: getattr(self, "_" + key)[cols] for key in _COLUMN_ARRAYS}
        state["start"] = self._starts_arr[cols]
        state["actions_processed"] = np.fromiter(
            (c.actions_processed for c in checkpoints), np.int64, count
        )
        users, lanes, pairs, filled = self._tally.tolist()
        state["users"] = self._row_user[:users].copy()
        state["lanes"] = self._lane_user[:lanes].copy()
        n = self._n
        position = np.full(n, -1, dtype=np.int64)
        position[cols] = np.arange(count)
        oldest = int(self._starts_arr[self._head]) if self._head < n else 0
        runs = {
            name: np.empty(size, np.int64)
            for name, size in (("users", filled), ("counts", filled), ("v", pairs), ("t", pairs))
        }
        while True:
            room = self._export_room
            cache, member = (
                {"row": np.empty(room, np.int64), "col": np.empty(room, np.int64),
                 "value": np.empty(room, dtype)}
                for dtype in (np.float64, np.uint64)
            )
            arrays = [*runs.values(), *cache.values(), *member.values()]
            export = _ckernel.Export(*(a.ctypes.data for a in arrays), room)
            self._cfast.export_state(
                self._context(), n, oldest, position.ctypes.data, ctypes.byref(export)
            )
            if export.ncache <= room:
                break
            self._export_room = export.ncache
        self._export_room = max(64, export.ncache * 5 // 4)
        shared = {"floor": oldest, "live_at_sweep": export.npairs}
        for name, array in runs.items():
            shared[name] = array[: export.npairs if name in ("v", "t") else export.nusers]
        state["cache"] = {key: a[: export.ncache] for key, a in cache.items()}
        state["member"] = {key: a[: export.nmember] for key, a in member.items()}
        at, slot, word = np.nonzero(self._icov[:n, :, : self._words])
        keep = position[at] >= 0
        at, slot, word = at[keep], slot[keep], word[keep]
        state["covered"] = {
            "col": position[at],
            "slot": slot,
            "word": word,
            "bits": self._icov[at, slot, word],
        }
        return shared, state

    def load_state(self, shared: dict, state: dict) -> CheckpointRoster:
        """Restore a fresh kernel from a framework's ``shared`` section and
        ``roster`` document, written by either plane; returns the roster
        of restored handles."""
        roster = CheckpointRoster()
        roster.absorbed = state["absorbed"]
        columns = state.get("columns")
        if columns is not None:
            # Rows and lanes first, in the writer's order: the columns
            # name them by number.
            for key in ("users", "lanes"):
                if len(np.unique(columns[key])) != len(columns[key]):
                    raise ValueError(f"kernel table {key!r} repeats an entry")
            self._intern(columns["users"])
            self._intern(columns["lanes"], lanes=True)
        # A snapshot written while the object plane spilled old pairs to a
        # second store holds them in a ``cold`` section of the same layout.
        for section in (shared, shared.get("cold")):
            if section is not None and len(section["v"]):
                self._load_pairs(section)
        if columns is None:
            for document in state["checkpoints"]:
                handle = self.new_checkpoint(document["start"], roster)
                self.load_col_state(handle._col, document["oracle"])
                handle._actions_processed = document["actions_processed"]
                roster.append(handle)
        else:
            self._load_columns(columns, roster)
        return roster

    def _load_pairs(self, section: dict) -> None:
        """Credit a ``shared`` section's pairs in the store: a record per
        pair, through one ``process_slide`` over no columns."""
        v = section["v"]
        self._reserve(len(section["users"]), len(v))
        self._scratch(len(v))
        columns = {
            name: array("q", np.asarray(values, np.int64).tobytes())
            for name, values in (
                ("user", v),
                ("time", section["t"]),
                ("fanout", np.ones(len(v))),
                ("influencers", np.repeat(section["users"], section["counts"])),
            )
        }
        self._process(0, 0, columns)
        self._sc_puts = 0  # a slide's scratch, not the whole store's
        self._scratch(64)

    def _load_columns(self, state: dict, roster) -> None:
        """Restore :meth:`to_state`'s ``columns`` into the fresh kernel
        whose rows and lanes :meth:`load_state` named."""
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
        users, seeds, columns = int(self._tally[0]), self._k + 1, self._n
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
            ("covered.word", covered["word"], self._words),
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
        (written by either plane).  Interning may replace the row and word
        arrays, so each name is resolved before the array is indexed."""
        self._best[col] = state["best_value"]
        best = self._intern(state["best_seeds"])
        self._best_ns[col] = len(best)
        self._best_ids[col, : len(best)] = best
        self._m[col] = state["m"]
        low, high = state["bounds"]
        self._blow[col], self._bhigh[col] = low, high
        floor = state["admit_floor"]
        self._floor[col] = math.inf if floor is None else floor
        cache = state["singleton_cache"]
        rows = self._intern([u for u, _value in cache])
        self._cache2d[rows, col] = [value for _u, value in cache]
        # Seed membership is rebuilt from the instances' seed lists (the
        # document's member_counts are exactly their per-user multiplicity).
        for j, fields in state["instances"]:
            s = j - low
            guess, value, seeds = fields["guess"], fields["value"], fields["seeds"]
            self._iguess[col, s] = guess
            self._ival[col, s] = value
            self._inseed[col, s] = len(seeds)
            if len(seeds) >= self._k:
                self._ibar[col, s] = math.inf
            else:
                # The oracle's own bar rule over a real instance — exact.
                instance = ThresholdInstance(guess=guess)
                instance.value = value
                instance.seeds = set(seeds)
                self._ibar[col, s] = self._bar(instance)
            lanes = self._intern(fields["covered"], lanes=True).astype(np.uint64)
            np.bitwise_or.at(self._icov[col, s], lanes >> _SIX, _UONE << (lanes & _LOW6))
            rows = self._intern(seeds)
            self._iseed_ids[col, s, : len(rows)] = rows
            self._mem2d[rows, col] |= _UONE << np.uint64(j & 63)

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
        return frozenset(kern._row_user[kern._best_ids[self._col, :ns]].tolist())

    @property
    def oracle(self):
        """A materialized oracle for this column (read-only snapshot)."""
        return self._kernel.materialize_oracle(self._col)

    @property
    def index(self):
        """The checkpoint's suffix view of the kernel's pair store."""
        return StoreView(self._kernel, self.start)

    def feed(self, user: int, new_member: int) -> None:
        """Columnar checkpoints are fed through the kernel, never directly."""
        raise RuntimeError(
            "columnar checkpoints receive feeds through "
            "ColumnarThresholdKernel.absorb_slide, not Checkpoint.feed"
        )

    feed_batch = feed

    def oracle_state(self) -> dict:
        """The column as an oracle ``state_dict`` (no oracle materialized)."""
        return oracle_documents(self._kernel.to_state([self])[1])[0]["oracle"]


class StoreView:
    """The kernel plane's shared influence index: the suffix of the pair
    store from ``start`` on, read through the compiled ``suffix`` entry.

    Satisfies the protocol of
    :class:`~repro.core.influence_index.SuffixView` — ``influence_set``,
    ``fresh_members``, ``coverage``, membership, length and iteration over
    the users with a non-empty suffix — plus the index-wide
    ``pair_count``/``user_count`` (the pairs the store holds, stale ones
    until a trim drops them, and the users holding any) and ``view``.  A
    framework's ``shared_index`` is the view from ``start = 1``.
    """

    __slots__ = ("_kernel", "start")

    def __init__(self, kernel: ColumnarThresholdKernel, start: int):
        if start <= 0:
            raise ValueError(f"suffix start must be positive, got {start}")
        self._kernel = kernel
        #: Pairs credited before this time are hidden.
        self.start = start

    def view(self, start: int) -> "StoreView":
        """The same store from ``start`` on."""
        return StoreView(self._kernel, start)

    @property
    def pair_count(self) -> int:
        """Pairs the store holds."""
        return int(self._kernel._tally[2])

    @property
    def user_count(self) -> int:
        """Users whose row holds a pair."""
        return int(self._kernel._tally[3])

    def _members(self, user: int) -> np.ndarray:
        kernel = self._kernel
        first = ctypes.c_void_p()
        count = kernel._cfast.suffix(
            kernel._store, user, self.start, ctypes.byref(first)
        )
        if not count:
            return kernel._lane_user[:0]
        pairs = (ctypes.c_int64 * (2 * count)).from_address(first.value)
        return kernel._lane_user[np.frombuffer(pairs, np.int64)[1::2]]

    def influence_set(self, user: int) -> Set[int]:
        """``I_t[i](user)``: pairs credited at or after the view's start."""
        return set(self._members(user).tolist())

    def fresh_members(self, user: int, covered) -> Set[int]:
        """``I_t[i](user) − covered``."""
        return self.influence_set(user).difference(covered)

    def coverage(self, seeds) -> Set[int]:
        """Union of the influence sets of ``seeds``."""
        covered: Set[int] = set()
        for u in seeds:
            covered.update(self._members(u).tolist())
        return covered

    def __contains__(self, user: int) -> bool:
        return len(self._members(user)) > 0

    def __iter__(self):
        """Users with a non-empty suffix influence set."""
        names = self._kernel._row_user[: self._kernel._tally[0]].tolist()
        return (user for user in names if user in self)

    def __len__(self) -> int:
        """Number of users with a non-empty suffix influence set."""
        return sum(1 for _user in self)


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

