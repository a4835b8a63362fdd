"""Influence-set indexes: the paper's ``I_t(u)`` materialised.

Two pair structures, and one expiry rule:

* :class:`AppendOnlyInfluenceIndex` — the influence sets ``I_t[i](u)`` over
  the *suffix* of actions covered by one checkpoint (Section 4.2).  Sets only
  grow, which is exactly what lets SSM reuse append-only SSO oracles.  This
  is the *reference implementation*: :mod:`repro.reference` and the oracle
  unit tests use it, the IC/SIC engine does not.

* :class:`VersionedInfluenceIndex` — **one** shared structure replacing the
  ⌈N/L⌉ per-checkpoint copies of :class:`AppendOnlyInfluenceIndex`.  For
  each influence pair ``(u, v)`` it stores only the *latest crediting action
  time*; checkpoint ``Λ_t[i]``'s suffix set is recovered as

      ``I_t[i](u) = {v : latest(u, v) ≥ start_i}``

  through lightweight :class:`SuffixView` objects that satisfy the same
  ``influence_set``/``coverage`` protocol oracles already consume.  On each
  pair update the previous ``latest`` tells the caller exactly which
  checkpoints gained a *new* member — those whose start exceeds it — so
  per-action index work drops from O(d · N/L) set probes to O(d) dict
  writes plus the oracle feeds that were necessary anyway, and index memory
  drops from the sum of all suffix sizes to the number of distinct pairs,
  each held once in that one dict.  This is the object plane's store; on
  the columnar plane the compiled kernel's pair store takes its place
  (``repro.core.oracles.columnar.StoreView``).

* :class:`InfluenceWindow` — the window ``W_t`` itself, for the consumers
  that read it whole (windowed greedy, IMM, UBI, the experiments'
  ``StreamEvaluator``).  The window is the clock IC/SIC use: the actions
  with ``time ≥ t − N + 1``.  It keeps the window's records in arrival
  order and their pairs in a :class:`VersionedInfluenceIndex`, read through
  ``view(window_start)``.  Expiry needs no reference counts: an expiring
  record ``(t, v, influencers)`` drops pair ``(u, v)`` only when that
  pair's latest credit is ``t`` (:meth:`VersionedInfluenceIndex.expire`);
  a later credit inside the window keeps it (Example 1: ``u1`` still
  influences ``u3`` in ``W_10`` through ``a_4`` after ``a_1`` expired).

All indexes work on :class:`~repro.core.diffusion.ActionRecord` inputs:
``record.user`` is the influenced performer and ``record.influencers`` lists
the users credited.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import AbstractSet, Deque, Dict, Iterator, List, Sequence, Set, Tuple

import numpy as _np

from repro.core.diffusion import (
    ActionRecord,
    records_from_columns,
    records_to_columns,
)

__all__ = [
    "AppendOnlyInfluenceIndex",
    "VersionedInfluenceIndex",
    "SuffixView",
    "InfluenceWindow",
]


class AppendOnlyInfluenceIndex:
    """Grow-only influence sets for one checkpoint's action suffix."""

    __slots__ = ("_influence",)

    def __init__(self) -> None:
        self._influence: Dict[int, Set[int]] = {}

    def add(self, record: ActionRecord) -> list:
        """Account for an arriving action.

        Returns the list of influencer users whose set actually gained a new
        member — exactly the users SSM must re-feed to the oracle.
        """
        v = record.user
        updated = []
        for u in record.influencers:
            members = self._influence.setdefault(u, set())
            if v not in members:
                members.add(v)
                updated.append(u)
        return updated

    def influence_set(self, user: int) -> Set[int]:
        """``I_t[i](user)`` — a live (do not mutate) set view."""
        return self._influence.get(user, set())

    def fresh_members(self, user: int, covered) -> Set[int]:
        """``I_t[i](user) − covered`` — the members an admission would gain."""
        members = self._influence.get(user)
        return members - covered if members else set()

    def coverage(self, seeds) -> Set[int]:
        """Union of the influence sets of ``seeds``."""
        covered: Set[int] = set()
        for u in seeds:
            covered.update(self._influence.get(u, ()))
        return covered

    def __contains__(self, user: int) -> bool:
        return user in self._influence

    def __len__(self) -> int:
        return len(self._influence)


class VersionedInfluenceIndex:
    """Latest-credit influence pairs shared by every live checkpoint.

    The structure is a two-level dict ``u -> {v -> latest}`` where
    ``latest`` is the timestamp of the most recent action by ``v`` crediting
    ``u``.  Because checkpoint suffixes are nested (they differ only in
    their start time), this single map answers every checkpoint's
    ``I_t[i](u)`` exactly: a pair is in checkpoint ``i``'s set iff its
    latest credit is no older than the checkpoint's start.

    :meth:`add` returns, per influencer, the *previous* latest credit time
    (0 for never-seen pairs); the caller dispatches oracle feeds to exactly
    the checkpoints whose start exceeds it — a ``bisect`` over the sorted
    checkpoint starts instead of probing every checkpoint.

    Pairs whose latest credit predates every live checkpoint are invisible
    and reclaimed by :meth:`compact` with an amortised-O(1) doubling policy,
    so steady-state memory is O(distinct visible pairs), independent of the
    checkpoint count.  On the object plane the dict is the only store of a
    pair; the columnar plane does not build this index for its checkpoints.
    An :class:`InfluenceWindow` keeps one too and drops pairs as their
    latest credit expires (:meth:`expire`) instead of compacting.
    """

    __slots__ = ("_latest", "_pair_total", "_floor", "_live_at_sweep")

    #: Sweep only once the index has doubled since the last sweep (with a
    #: small absolute floor so tiny streams never bother).
    _MIN_SWEEP_PAIRS = 64

    def __init__(self) -> None:
        self._latest: Dict[int, Dict[int, int]] = {}
        self._pair_total = 0
        # Every stored latest is >= _floor; a view whose start is <= _floor
        # therefore sees the *full* pair map of a user (fast path).
        self._floor = 0
        self._live_at_sweep = 0

    def add(self, record: ActionRecord) -> List[Tuple[int, int]]:
        """Record one arriving action in O(d) dict writes.

        Returns ``[(influencer, previous_latest), ...]`` in influencer
        order, ``previous_latest`` being 0 when the pair was never credited
        before.  A checkpoint gains a new member for the pair exactly when
        its start exceeds ``previous_latest``.
        """
        v = record.user
        time = record.time
        latest = self._latest
        updates: List[Tuple[int, int]] = []
        for u in record.influencers:
            pairs = latest.get(u)
            if pairs is None:
                latest[u] = {v: time}
                self._pair_total += 1
                updates.append((u, 0))
                continue
            old = pairs.get(v, 0)
            if old == 0:
                self._pair_total += 1
            pairs[v] = time
            updates.append((u, old))
        return updates

    def add_batch(
        self, records: Sequence[ActionRecord]
    ) -> List[Tuple[int, int, int]]:
        """Record a whole slide; return flat ``(performer, influencer, previous)``.

        Equivalent to calling :meth:`add` per record, but returns one flat
        update list for the slide — the shape the batched dispatch plane
        consumes — with the per-record temporaries and attribute lookups
        hoisted out of the loop.  Updates keep record order, then
        influencer order within a record.
        """
        latest = self._latest
        updates: List[Tuple[int, int, int]] = []
        append = updates.append
        for record in records:
            v = record.user
            time = record.time
            for u in record.influencers:
                pairs = latest.get(u)
                if pairs is None:
                    latest[u] = {v: time}
                    self._pair_total += 1
                    append((v, u, 0))
                    continue
                old = pairs.get(v, 0)
                if old == 0:
                    self._pair_total += 1
                pairs[v] = time
                append((v, u, old))
        return updates

    def view(self, start: int) -> "SuffixView":
        """A read-only ``I_t[i]`` facade for the suffix starting at ``start``."""
        return SuffixView(self, start)

    def latest(self, influencer: int, influenced: int) -> int:
        """Latest credit time of the pair, or 0 when never credited."""
        pairs = self._latest.get(influencer)
        return pairs.get(influenced, 0) if pairs else 0

    def compact(self, cutoff: int, force: bool = False) -> int:
        """Reclaim pairs invisible to every checkpoint (latest < ``cutoff``).

        A full sweep costs O(pairs), so unless ``force`` is set it only runs
        once the stored pair count has doubled since the previous sweep —
        amortised O(1) per :meth:`add` while bounding memory to twice the
        visible pairs.  Returns the number of pairs dropped.
        """
        if cutoff <= self._floor:
            return 0
        if not force and self._pair_total < max(
            self._MIN_SWEEP_PAIRS, 2 * self._live_at_sweep
        ):
            return 0
        dropped = 0
        latest = self._latest
        for u in list(latest):
            pairs = latest[u]
            stale = [v for v, t in pairs.items() if t < cutoff]
            for v in stale:
                del pairs[v]
            dropped += len(stale)
            if not pairs:
                del latest[u]
        self._pair_total -= dropped
        self._floor = cutoff
        self._live_at_sweep = self._pair_total
        return dropped

    def expire(self, records: Sequence[ActionRecord], floor: int) -> None:
        """Drop the pairs that only ``records`` credited; raise the floor.

        ``records`` are the actions credited before ``floor`` that are
        still held (every older one expired earlier).  Pair ``(u, v)`` goes
        when its latest credit is such a record's time: no action at or
        after ``floor`` credits it.  Any other stored pair has a later
        credit, so afterwards every pair is visible from ``floor`` and
        views from there take the full-map fast path.
        """
        latest = self._latest
        dropped = 0
        for record in records:
            v = record.user
            time = record.time
            for u in record.influencers:
                pairs = latest[u]
                if pairs.get(v) == time:
                    del pairs[v]
                    dropped += 1
                    if not pairs:
                        del latest[u]
        self._pair_total -= dropped
        self._floor = floor

    def to_state(self) -> dict:
        """Explicit state: latest-credit pairs as CSR columns, in order.

        ``users``/``counts`` list the map's users and their pair counts;
        ``v``/``t`` concatenate every user's ``(influenced, latest
        credit)`` pairs.  Per-user pair order is part of the state:
        ``SuffixView`` methods build fresh sets by iterating these dicts,
        and downstream float accumulation (weighted/non-modular functions)
        follows that order, so the rebuilt index must iterate exactly like
        the live one.
        """
        latest = self._latest
        total = self._pair_total
        return {
            "floor": self._floor,
            "live_at_sweep": self._live_at_sweep,
            "users": _np.fromiter(latest, _np.int64, len(latest)),
            "counts": _np.fromiter(map(len, latest.values()), _np.int64, len(latest)),
            "v": _np.fromiter(chain.from_iterable(latest.values()), _np.int64, total),
            "t": _np.fromiter(
                chain.from_iterable(map(dict.values, latest.values())),
                _np.int64,
                total,
            ),
        }

    @classmethod
    def from_state(cls, state: dict) -> "VersionedInfluenceIndex":
        """Rebuild an index from :meth:`to_state` output.

        Snapshots written while the index kept a second, array-backed store
        hold those pairs in a ``cold`` section laid out like the main one,
        each user's pairs in credit-time order.  Views listed them after
        the user's dict pairs, so they are appended to each user's pairs in
        that order, and users that had only such pairs come last.
        """
        index = cls()
        index._floor = state["floor"]
        index._live_at_sweep = state["live_at_sweep"]
        latest = index._latest
        for section in (state, state.get("cold")):
            if section is None:
                continue
            v, t = section["v"].tolist(), section["t"].tolist()
            end = 0
            for u, count in zip(section["users"].tolist(), section["counts"].tolist()):
                start, end = end, end + count
                latest.setdefault(u, {}).update(zip(v[start:end], t[start:end]))
            index._pair_total += end
        return index

    @property
    def floor(self) -> int:
        """Every stored pair's latest credit is at least this time."""
        return self._floor

    @property
    def user_count(self) -> int:
        """Users with at least one stored pair."""
        return len(self._latest)

    @property
    def pair_count(self) -> int:
        """Distinct stored ``(u, v)`` pairs — the index's physical size."""
        return self._pair_total

    def __contains__(self, user: int) -> bool:
        return user in self._latest

    def __len__(self) -> int:
        """Number of users with at least one stored pair."""
        return len(self._latest)


class SuffixView:
    """One checkpoint's read-only ``I_t[i]`` over the shared index.

    Satisfies the ``influence_set``/``coverage`` protocol that oracles and
    influence functions consume, by filtering the shared pair map against
    the checkpoint's start time.  Views hold no per-checkpoint state, so a
    live checkpoint costs O(1) index memory.
    """

    __slots__ = ("_index", "start")

    def __init__(self, index: VersionedInfluenceIndex, start: int):
        if start <= 0:
            raise ValueError(f"suffix start must be positive, got {start}")
        self._index = index
        #: The checkpoint's start time (pairs credited earlier are hidden).
        self.start = start

    def influence_set(self, user: int) -> AbstractSet[int]:
        """``I_t[i](user)``: pairs credited at or after the view's start.

        When every stored pair is visible (``start ≤ floor``, always true
        of a window's view) this is the user's live key view, not a copy:
        read it before the index next changes, or copy it to keep it.
        """
        index = self._index
        pairs = index._latest.get(user)
        if not pairs:
            return set()
        start = self.start
        if start <= index._floor:
            return pairs.keys()
        return {v for v, t in pairs.items() if t >= start}

    def fresh_members(self, user: int, covered) -> Set[int]:
        """``I_t[i](user) − covered`` in one pass (the admission hot path)."""
        index = self._index
        pairs = index._latest.get(user)
        if not pairs:
            return set()
        start = self.start
        if start <= index._floor:
            # Dict keys are a set view: the difference runs at C level.
            return pairs.keys() - covered
        return {v for v, t in pairs.items() if t >= start and v not in covered}

    def coverage(self, seeds) -> Set[int]:
        """Union of the influence sets of ``seeds``."""
        index = self._index
        latest = index._latest
        start = self.start
        full = start <= index._floor
        covered: Set[int] = set()
        for u in seeds:
            pairs = latest.get(u)
            if pairs:
                if full:
                    covered.update(pairs)
                else:
                    covered.update(v for v, t in pairs.items() if t >= start)
        return covered

    def __contains__(self, user: int) -> bool:
        index = self._index
        pairs = index._latest.get(user)
        if not pairs:
            return False
        start = self.start
        return start <= index._floor or any(t >= start for t in pairs.values())

    def __len__(self) -> int:
        """Number of users with a non-empty suffix influence set."""
        index = self._index
        latest = index._latest
        start = self.start
        if start <= index._floor:
            return len(latest)
        return sum(
            1 for pairs in latest.values() if any(t >= start for t in pairs.values())
        )

    def __iter__(self) -> Iterator[int]:
        """Users with a non-empty suffix influence set."""
        index = self._index
        if self.start <= index._floor:
            return iter(index._latest)
        return (user for user in index._latest if user in self)


class InfluenceWindow:
    """The pairs of ``W_t = {a : time ≥ t − N + 1}``, expired by the clock.

    ``t`` is the latest arrival's time, so on a dense stream (times 1, 2,
    3, …) the window is exactly the last ``N`` actions.  One instance
    backs each consumer that reads the window whole: windowed greedy, IMM,
    UBI and the experiments' ``StreamEvaluator``.
    """

    __slots__ = ("window_size", "_records", "_pairs")

    def __init__(self, window_size: int) -> None:
        #: The window size ``N``, in time units.
        self.window_size = window_size
        self._records: Deque[ActionRecord] = deque()
        self._pairs = VersionedInfluenceIndex()

    def slide(self, arrived: Sequence[ActionRecord]) -> None:
        """Add ``arrived`` (resolved records, stream order), then expire
        the records older than the new window start, oldest first.  An
        empty slide leaves the clock, and so the window, as it was."""
        if not arrived:
            return
        records = self._records
        records.extend(arrived)
        self._pairs.add_batch(arrived)
        start = max(arrived[-1].time - self.window_size + 1, 1)
        expired = []
        while records[0].time < start:
            expired.append(records.popleft())
        self._pairs.expire(expired, start)

    @property
    def start(self) -> int:
        """The oldest time the window holds (1 until it is full)."""
        return max(self._pairs.floor, 1)

    def view(self) -> SuffixView:
        """``I_t``: the window's influence sets, read-only."""
        return self._pairs.view(self.start)

    def to_state(self) -> dict:
        """Explicit state: the window's records as record columns (the
        pairs are what replaying them rebuilds)."""
        return {"records": records_to_columns(self._records)}

    @classmethod
    def from_state(cls, state: dict, window_size: int) -> "InfluenceWindow":
        """Rebuild a window of size ``window_size`` by replaying the
        records of :meth:`to_state` output.  Other fields (a ``pairs``
        map written next to them) are ignored."""
        window = cls(window_size)
        window.slide(list(records_from_columns(state["records"])))
        return window
