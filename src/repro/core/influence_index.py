"""Influence-set indexes: the paper's ``I_t(u)`` materialised.

Three variants are needed:

* :class:`WindowInfluenceIndex` — the *exact* influence sets with respect to
  the current sliding window ``W_t`` (Definition 1).  It supports removal,
  because influence contributed by an action disappears when that action
  expires from the window.  Contributions are reference-counted per
  ``(influencer, influenced)`` pair: ``v ∈ I_t(u)`` iff at least one window
  action performed by ``v`` credits ``u`` (Example 1: ``u1`` still influences
  ``u3`` in ``W_10`` through ``a_4`` even after ``a_1`` expired).

* :class:`AppendOnlyInfluenceIndex` — the influence sets ``I_t[i](u)`` over
  the *suffix* of actions covered by one checkpoint (Section 4.2).  Sets only
  grow, which is exactly what lets SSM reuse append-only SSO oracles.  Since
  the shared index below landed, this is the *reference implementation*:
  :mod:`repro.reference` and the oracle unit tests use it, the IC/SIC
  engine does not.

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
  drops from the sum of all suffix sizes to the number of distinct pairs.

All indexes work on :class:`~repro.core.diffusion.ActionRecord` inputs:
``record.user`` is the influenced performer and ``record.influencers`` lists
the users credited.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as _np

from repro.core.diffusion import ActionRecord

__all__ = [
    "WindowInfluenceIndex",
    "AppendOnlyInfluenceIndex",
    "VersionedInfluenceIndex",
    "SuffixView",
]

#: Shared result for empty influence-set queries (never cached per user).
_EMPTY_FROZENSET: FrozenSet[int] = frozenset()


def _by_credit_time(item: Tuple[int, int]) -> int:
    """Sort key for cold-store rebuilds: ascending latest credit time.

    The sort is stable, so pair order at equal times (impossible within one
    user on a live stream, but tolerated in hand-written snapshots) follows
    the input order — which keeps serialization a fixed point under reload.
    """
    return item[1]


class WindowInfluenceIndex:
    """Exact windowed influence sets with reference-counted expiry."""

    def __init__(self) -> None:
        self._pair_counts: Dict[int, Dict[int, int]] = {}
        self._influence: Dict[int, Set[int]] = {}
        # Memoised frozenset per user, dropped whenever that user's set
        # actually changes (multiplicity-only updates keep it valid).
        self._frozen: Dict[int, FrozenSet[int]] = {}

    def add(self, record: ActionRecord) -> None:
        """Account for an arriving action."""
        v = record.user
        for u in record.influencers:
            counts = self._pair_counts.setdefault(u, {})
            counts[v] = counts.get(v, 0) + 1
            if counts[v] == 1:
                self._influence.setdefault(u, set()).add(v)
                self._frozen.pop(u, None)

    def remove(self, record: ActionRecord) -> None:
        """Account for an expiring action (must have been added before)."""
        v = record.user
        for u in record.influencers:
            counts = self._pair_counts.get(u)
            if counts is None or v not in counts:
                raise KeyError(
                    f"cannot expire pair ({u} -> {v}): it was never added"
                )
            counts[v] -= 1
            if counts[v] == 0:
                del counts[v]
                self._frozen.pop(u, None)
                members = self._influence[u]
                members.discard(v)
                if not members:
                    del self._influence[u]
                if not counts:
                    del self._pair_counts[u]

    def influence_set(self, user: int) -> FrozenSet[int]:
        """``I_t(user)`` — empty when the user influences nobody.

        The returned frozenset is cached until the user's set next changes,
        so repeated reads between mutations cost O(1) instead of a copy.
        Empty results share one singleton and are never cached, so queries
        for absent users cannot grow the cache.
        """
        cached = self._frozen.get(user)
        if cached is not None:
            return cached
        members = self._influence.get(user)
        if not members:
            return _EMPTY_FROZENSET
        frozen = frozenset(members)
        self._frozen[user] = frozen
        return frozen

    def coverage(self, seeds) -> Set[int]:
        """``I_t(S) = ∪_{u∈S} I_t(u)`` for a seed iterable ``S``."""
        covered: Set[int] = set()
        for u in seeds:
            members = self._influence.get(u)
            if members:
                covered.update(members)
        return covered

    def influencers(self) -> Iterator[int]:
        """Users with a non-empty influence set in the current window."""
        return iter(self._influence)

    def __contains__(self, user: int) -> bool:
        return user in self._influence

    def __len__(self) -> int:
        """Number of users with non-empty influence sets."""
        return len(self._influence)

    def pair_count(self) -> int:
        """Total number of distinct ``(u, v)`` influence pairs."""
        return sum(len(members) for members in self._influence.values())

    def edges(self) -> Iterator[tuple]:
        """Yield ``(u, v, multiplicity)`` influence pairs (``u`` may equal ``v``)."""
        for u, counts in self._pair_counts.items():
            for v, count in counts.items():
                yield u, v, count

    def to_state(self) -> dict:
        """Explicit JSON-safe state (pair multiplicities, order-preserving).

        Dict iteration order is part of the state: ``influencers()`` feeds
        greedy candidate lists whose order breaks ties, so the rebuilt
        index must iterate exactly like the live one.
        """
        return {
            "pairs": [
                [u, [[v, count] for v, count in counts.items()]]
                for u, counts in self._pair_counts.items()
            ]
        }

    @classmethod
    def from_state(cls, state: dict) -> "WindowInfluenceIndex":
        """Rebuild an index from :meth:`to_state` output."""
        index = cls()
        for u, counts in state["pairs"]:
            index._pair_counts[u] = {v: count for v, count in counts}
            index._influence[u] = {v for v, _count in counts}
        return index


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
    checkpoint count.

    **Cold-pair spill.**  Most visible pairs are *cold*: their latest credit
    is far older than the newest window start, so they are read (suffix
    membership) but essentially never re-credited.  When :meth:`compact` is
    called with ``now``, pairs whose latest credit predates the midpoint
    between the visibility cutoff and ``now`` are spilled out of the dicts
    into compact per-user numpy arrays sorted by credit time (``v`` ids
    aligned) — a fraction of the dict-entry footprint.  Because every view
    start that matters exceeds the spill threshold, a suffix probe is one
    ``searchsorted`` over the credit times plus a (usually empty) tail
    slice; an O(1) cached max credit time short-circuits the common case
    where none of a user's cold pairs are visible from the view.  A
    re-credited cold pair is *resurrected*: moved back to the hot dict with
    its exact previous credit time (so oracle-feed dispatch stays exact)
    and tombstoned in place (``v = -1``, credit time kept so the arrays
    stay sorted) until the next sweep rebuilds them.
    """

    __slots__ = (
        "_latest",
        "_pair_total",
        "_floor",
        "_live_at_sweep",
        "_cold",
        "_cold_total",
    )

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
        # Cold store: user -> [v_ids (int64), credit_times (int64, sorted
        # ascending), tombstone_count, max_live_credit_time].  Live cold
        # pairs are disjoint from the hot dict.
        self._cold: Dict[int, list] = {}
        self._cold_total = 0

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
        cold = self._cold
        for u in record.influencers:
            pairs = latest.get(u)
            if pairs is None:
                latest[u] = {v: time}
                self._pair_total += 1
                updates.append((u, self._cold_pop(u, v) if cold else 0))
                continue
            old = pairs.get(v, 0)
            if old == 0:
                self._pair_total += 1
                if cold:
                    old = self._cold_pop(u, v)
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
        cold = self._cold
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
                    append((v, u, self._cold_pop(u, v) if cold else 0))
                    continue
                old = pairs.get(v, 0)
                if old == 0:
                    self._pair_total += 1
                    if cold:
                        old = self._cold_pop(u, v)
                pairs[v] = time
                append((v, u, old))
        return updates

    def _cold_pop(self, user: int, v: int) -> int:
        """Resurrect a cold pair: return its credit time and tombstone it.

        Returns 0 when the pair is not (live) in the cold store.  The exact
        previous credit time matters: oracle-feed dispatch bisects on it,
        and a checkpoint whose suffix already held the pair must not be fed
        a spurious "new member".  Tombstoning overwrites the ``v`` id with
        ``-1`` and keeps the credit time, so the time axis stays sorted for
        the views' ``searchsorted`` probes (a tombstone can keep the cached
        max credit time stale-high, which is conservative: the view then
        slices an empty tail instead of short-circuiting).
        """
        entry = self._cold.get(user)
        if entry is None:
            return 0
        vs = entry[0]
        hits = _np.flatnonzero(vs == v)
        if not hits.size:
            return 0
        i = int(hits[0])
        vs[i] = -1
        entry[2] += 1
        self._cold_total -= 1
        return int(entry[1][i])

    def view(self, start: int) -> "SuffixView":
        """A read-only ``I_t[i]`` facade for the suffix starting at ``start``."""
        return SuffixView(self, start)

    def latest(self, influencer: int, influenced: int) -> int:
        """Latest credit time of the pair, or 0 when never credited."""
        pairs = self._latest.get(influencer)
        t = pairs.get(influenced, 0) if pairs else 0
        if t == 0 and self._cold:
            entry = self._cold.get(influencer)
            if entry is not None:
                hits = _np.flatnonzero(entry[0] == influenced)
                if hits.size:
                    t = int(entry[1][int(hits[0])])
        return t

    def compact(
        self, cutoff: int, force: bool = False, now: Optional[int] = None
    ) -> int:
        """Reclaim pairs invisible to every checkpoint (latest < ``cutoff``).

        A full sweep costs O(pairs), so unless ``force`` is set it only runs
        once the stored pair count has doubled since the previous sweep —
        amortised O(1) per :meth:`add` while bounding memory to twice the
        visible pairs.  Returns the number of pairs dropped.

        When ``now`` (the current stream time) is given, the sweep
        additionally *spills* visible-but-cold pairs — latest credit older
        than the midpoint between ``cutoff`` and ``now`` — into the compact
        array-backed cold store (still visible to every view; see the
        class docstring).
        """
        if cutoff <= self._floor:
            return 0
        if not force and self._pair_total < max(
            self._MIN_SWEEP_PAIRS, 2 * self._live_at_sweep
        ):
            return 0
        spill_before = cutoff
        if now is not None and now > cutoff:
            spill_before = cutoff + (now - cutoff) // 2
        hot_dropped = 0
        moved: Dict[int, List[Tuple[int, int]]] = {}
        latest = self._latest
        for u in list(latest):
            pairs = latest[u]
            stale = None
            move = None
            for v, t in pairs.items():
                if t >= spill_before:
                    continue
                if t < cutoff:
                    if stale is None:
                        stale = []
                    stale.append(v)
                else:
                    if move is None:
                        move = []
                    move.append((v, t))
            if stale:
                for v in stale:
                    del pairs[v]
                hot_dropped += len(stale)
            if move:
                for v, _t in move:
                    del pairs[v]
                moved[u] = move
                self._pair_total -= len(move)
            if not pairs:
                del latest[u]
        self._pair_total -= hot_dropped
        cold_dropped = 0
        if self._cold or moved:
            cold_dropped = self._rebuild_cold(cutoff, moved)
        self._floor = cutoff
        self._live_at_sweep = self._pair_total
        return hot_dropped + cold_dropped

    def _rebuild_cold(self, cutoff: int, moved: dict) -> int:
        """Re-pack the cold store: drop expired/tombstoned entries, add
        freshly spilled ones.  Returns the number of cold pairs dropped."""
        survivors: Dict[int, list] = {}
        kept = 0
        for u, entry in self._cold.items():
            vs, ts = entry[0], entry[1]
            # Tombstones carry v = -1; expired pairs predate the cutoff.
            mask = (vs >= 0) & (ts >= cutoff)
            if mask.any():
                items = list(zip(vs[mask].tolist(), ts[mask].tolist()))
                survivors[u] = items
                kept += len(items)
        dropped = self._cold_total - kept
        for u, items in moved.items():
            bucket = survivors.get(u)
            if bucket is None:
                survivors[u] = items
            else:
                bucket.extend(items)
        cold: Dict[int, list] = {}
        total = 0
        for u, items in survivors.items():
            items.sort(key=_by_credit_time)
            cold[u] = [
                _np.array([v for v, _t in items], dtype=_np.int64),
                _np.array([t for _v, t in items], dtype=_np.int64),
                0,
                items[-1][1],
            ]
            total += len(items)
        self._cold = cold
        self._cold_total = total
        return dropped

    def to_state(self) -> dict:
        """Explicit state: latest-credit pairs as CSR columns, in order.

        ``users``/``counts`` list the hot map's users and their pair
        counts; ``v``/``t`` concatenate every user's ``(influenced, latest
        credit)`` pairs.  Per-user pair order is part of the state:
        ``SuffixView`` methods build fresh sets by iterating these dicts,
        and downstream float accumulation (weighted/non-modular functions)
        follows that order, so the rebuilt index must iterate exactly like
        the live one.  ``cold`` holds the spilled pairs the same way, the
        per-user arrays concatenated as they are (tombstones dropped).
        """
        latest = self._latest
        total = self._pair_total
        state = {
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
        if self._cold_total:
            users, vs, ts = [], [], []
            for u, (v, t, tombstones, _max) in self._cold.items():
                if tombstones:  # resurrected into the hot map
                    live = v >= 0
                    v, t = v[live], t[live]
                if len(v):
                    users.append(u)
                    vs.append(v)
                    ts.append(t)
            state["cold"] = {
                "users": _np.array(users, dtype=_np.int64),
                "counts": _np.array([len(x) for x in vs], dtype=_np.int64),
                "v": _np.concatenate(vs),
                "t": _np.concatenate(ts),
            }
        return state

    @classmethod
    def from_state(cls, state: dict) -> "VersionedInfluenceIndex":
        """Rebuild an index from :meth:`to_state` output."""
        index = cls()
        index._floor = state["floor"]
        index._live_at_sweep = state["live_at_sweep"]
        v, t = state["v"].tolist(), state["t"].tolist()
        end = 0
        for u, count in zip(state["users"].tolist(), state["counts"].tolist()):
            start, end = end, end + count
            index._latest[u] = dict(zip(v[start:end], t[start:end]))
        index._pair_total = end
        cold = state.get("cold")
        if cold is not None:
            end = 0
            for u, count in zip(cold["users"].tolist(), cold["counts"].tolist()):
                start, end = end, end + count
                # Owned copies: resurrection tombstones them in place.
                ts = _np.array(cold["t"][start:end], dtype=_np.int64)
                index._cold[u] = [
                    _np.array(cold["v"][start:end], dtype=_np.int64),
                    ts,
                    0,
                    int(ts[-1]),
                ]
            index._cold_total = end
        return index

    @property
    def floor(self) -> int:
        """Every stored pair's latest credit is at least this time."""
        return self._floor

    @property
    def user_count(self) -> int:
        """Users with at least one stored pair (hot or cold)."""
        if not self._cold:
            return len(self._latest)
        users = set(self._latest)
        for u, entry in self._cold.items():
            if entry[2] < len(entry[0]):  # has live (non-tombstoned) pairs
                users.add(u)
        return len(users)

    @property
    def pair_count(self) -> int:
        """Distinct stored ``(u, v)`` pairs — the index's physical size."""
        return self._pair_total + self._cold_total

    @property
    def cold_pair_count(self) -> int:
        """Pairs currently spilled into the array-backed cold store."""
        return self._cold_total

    def __contains__(self, user: int) -> bool:
        if user in self._latest:
            return True
        if self._cold:
            entry = self._cold.get(user)
            return entry is not None and entry[2] < len(entry[0])
        return False

    def __len__(self) -> int:
        """Number of users with at least one stored pair (hot or cold)."""
        return self.user_count


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

    def _cold_suffix(self, user: int):
        """Live cold members of ``user`` visible from this view, or ``None``.

        The arrays are sorted by credit time, so the visible pairs are one
        ``searchsorted`` tail slice; the cached max live credit time makes
        the dominant none-visible case an O(1) integer compare (a stale —
        too high — max after resurrections only costs a futile slice).
        Tombstones carry ``v = -1`` and are filtered from the tail.
        """
        entry = self._index._cold.get(user)
        if entry is None:
            return None
        start = self.start
        if start > entry[3]:
            return None
        vs, ts, stale = entry[0], entry[1], entry[2]
        if stale >= len(vs):
            return None
        i = int(_np.searchsorted(ts, start))
        if i >= len(vs):
            return None
        tail = vs[i:]
        if stale:
            tail = tail[tail >= 0]
            if not tail.size:
                return None
        return tail

    def influence_set(self, user: int) -> Set[int]:
        """``I_t[i](user)``: pairs credited at or after the view's start."""
        pairs = self._index._latest.get(user)
        start = self.start
        if not pairs:
            members = set()
        elif start <= self._index._floor:
            members = set(pairs)
        else:
            members = {v for v, t in pairs.items() if t >= start}
        if self._index._cold:
            cold = self._cold_suffix(user)
            if cold is not None:
                members.update(cold.tolist())
        return members

    def fresh_members(self, user: int, covered) -> Set[int]:
        """``I_t[i](user) − covered`` in one pass (the admission hot path)."""
        index = self._index
        pairs = index._latest.get(user)
        start = self.start
        if not pairs:
            fresh = set()
        elif start <= index._floor:
            # Dict keys are a set view: the difference runs at C level.
            fresh = pairs.keys() - covered
        else:
            fresh = {
                v for v, t in pairs.items() if t >= start and v not in covered
            }
        if index._cold:
            cold = self._cold_suffix(user)
            if cold is not None:
                for v in cold.tolist():
                    if v not in covered:
                        fresh.add(v)
        return fresh

    def coverage(self, seeds) -> Set[int]:
        """Union of the influence sets of ``seeds``."""
        index = self._index
        latest = index._latest
        start = self.start
        full = start <= index._floor
        consult_cold = bool(index._cold)
        covered: Set[int] = set()
        for u in seeds:
            pairs = latest.get(u)
            if pairs:
                if full:
                    covered.update(pairs)
                else:
                    covered.update(v for v, t in pairs.items() if t >= start)
            if consult_cold:
                cold = self._cold_suffix(u)
                if cold is not None:
                    covered.update(cold.tolist())
        return covered

    def __contains__(self, user: int) -> bool:
        index = self._index
        pairs = index._latest.get(user)
        start = self.start
        if pairs:
            if start <= index._floor:
                return True
            if any(t >= start for t in pairs.values()):
                return True
        if index._cold:
            return self._cold_suffix(user) is not None
        return False

    def __len__(self) -> int:
        """Number of users with a non-empty suffix influence set."""
        index = self._index
        latest = index._latest
        start = self.start
        if not index._cold:
            if start <= index._floor:
                return len(latest)
            return sum(
                1
                for pairs in latest.values()
                if any(t >= start for t in pairs.values())
            )
        full = start <= index._floor
        count = 0
        for u, pairs in latest.items():
            if full or any(t >= start for t in pairs.values()):
                count += 1
            elif self._cold_suffix(u) is not None:
                count += 1
        for u in index._cold:
            if u not in latest and self._cold_suffix(u) is not None:
                count += 1
        return count
