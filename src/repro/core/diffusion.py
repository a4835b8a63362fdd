"""Diffusion forest: resolving who influences whom along response chains.

Section 3 of the paper defines influence through action propagation: user
``u`` influences user ``v`` in window ``W_t`` iff ``v`` performed an action
``a`` inside ``W_t`` that was *directly or indirectly* triggered by an action
of ``u`` (that triggering action need not lie in the window).  Every action
therefore credits its performer to the influence sets of

* the performer itself (performing an action makes a user "active", and in
  Example 1 ``u1 ∈ I_8(u1)`` because ``u1`` performed ``a_1`` and ``a_6``), and
* the users of *all ancestor actions* along the response chain.

The :class:`DiffusionForest` stores one compact row per action — the
performer plus the de-duplicated run of influencer users — so that the
ancestor chain is resolved exactly once per arriving action and then shared
by every framework component (window index, all checkpoints).  The paper's
``d`` (number of influence-set updates per action, Table 3's "Avg. depth"
driver) equals ``len(record.influencers)``.
Rows live in append-only ``int64`` columns, not in one Python object per
action: a forest grows with the stream, not the window, and a snapshot
copies the columns instead of walking every action ever seen.

A slide is resolved whole by :meth:`DiffusionForest.resolve`: one call to
the compiled ``resolve_slide`` (``oracles/_ckernel.c``) reads the slide's
:class:`~repro.core.actions.ActionBatch` columns and the forest's, and
writes the slide's records as columns in the :func:`records_to_columns`
layout, which the forest appends and the slide carries on to the
checkpoint kernel.  :meth:`DiffusionForest.add` resolves one action in
Python: it is the reference the compiled resolve is tested against, and
the path ``resolve`` takes where the compiled library is unavailable.

Records are retained beyond window expiry because late responders may still
reference old actions.  An optional ``retention`` horizon bounds memory on
unbounded streams: records older than ``now - retention`` are dropped and any
later response to a dropped action is treated as a root (its chain is
truncated).  This is exact whenever ``retention`` is at least the maximum
response distance of the stream.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.core.actions import ROOT, Action, ActionBatch
from repro.core.oracles import _ckernel

__all__ = [
    "ActionRecord",
    "DiffusionForest",
    "array_columns",
    "records_to_columns",
    "records_from_columns",
]


@dataclass(frozen=True, slots=True)
class ActionRecord:
    """Resolved diffusion metadata for one action.

    Attributes:
        time: The action's timestamp/id.
        user: The performing user.
        influencers: De-duplicated users whose influence sets gain ``user``
            thanks to this action — ancestor-chain users first (root to
            parent), then the performer.  Never empty.
        depth: Length of the response chain including this action (a root
            action has depth 1).
    """

    time: int
    user: int
    influencers: Tuple[int, ...]
    depth: int

    @property
    def fanout(self) -> int:
        """The paper's ``d``: how many influence sets this action updates."""
        return len(self.influencers)


def records_to_columns(records) -> dict:
    """A sized collection of records as aligned int64 columns.

    ``time``/``user``/``depth``/``fanout`` hold one entry per record;
    ``influencers`` concatenates every record's influencer tuple in record
    order (``fanout`` gives the run lengths).  Numpy arrays (a snapshot's
    sections); :func:`array_columns` builds the same as ``array('q')``.
    """
    return {
        name: np.frombuffer(column, np.int64)
        for name, column in array_columns(records).items()
    }


def records_from_columns(columns: dict) -> Iterator[ActionRecord]:
    """The records :func:`records_to_columns` flattened, in order."""
    influencers = columns["influencers"].tolist()
    end = 0
    for time, user, depth, fanout in zip(
        columns["time"].tolist(),
        columns["user"].tolist(),
        columns["depth"].tolist(),
        columns["fanout"].tolist(),
    ):
        start, end = end, end + fanout
        yield ActionRecord(time, user, tuple(influencers[start:end]), depth)


def array_columns(records) -> dict:
    """:func:`records_to_columns`' layout as ``array('q')`` columns (the
    layout a resolved slide carries)."""
    columns = {
        name: array("q", map(attrgetter(name), records))
        for name in ("time", "user", "depth")
    }
    chains = list(map(attrgetter("influencers"), records))
    columns["fanout"] = array("q", map(len, chains))
    columns["influencers"] = array("q", chain.from_iterable(chains))
    return columns


#: ``resolve_slide``'s status codes (``_ckernel.c``).
_NEED_ROOM, _DUPLICATE, _UNORDERED = 3, 4, 5

#: One zero int64, repeated into a column of any length.
_ZERO = array("q", [0])


def _owned(column: array, start: int, stop: int) -> np.ndarray:
    """Rows ``start:stop`` of an int64 column as a numpy array of their own
    (a view would pin the column's buffer and refuse its next append)."""
    return np.array(memoryview(column)[start:stop], np.int64)


def _column(values) -> array:
    """An int64 column holding ``values`` (an array of any integer dtype)."""
    return array("q", np.ascontiguousarray(values, np.int64).tobytes())


class DiffusionForest:
    """Incremental ancestor resolution over a social action stream.

    Feed every arriving action exactly once, a slide at a time via
    :meth:`resolve` or one at a time via :meth:`add`; look up the
    resulting :class:`ActionRecord` at any later point (e.g. when the same
    action expires from a sliding window) via :meth:`record`.

    Row ``i`` stores one action: ``_time[i]``, ``_depth[i]`` and its
    influencers ``_influencers[_bounds[i]:_bounds[i + 1]]``, whose last
    entry is the performer.  Rows ascend in time; the ones below ``_first``
    are pruned and wait for the next compaction.
    """

    def __init__(self, retention: Optional[int] = None):
        """
        Args:
            retention: If given, :meth:`add` automatically forgets records
                older than ``action.time - retention``.  ``None`` keeps all.
        """
        if retention is not None and retention <= 0:
            raise ValueError(f"retention must be positive, got {retention}")
        self._retention = retention
        self._time = array("q")
        self._depth = array("q")
        self._bounds = array("q", [0])
        self._influencers = array("q")
        self._first = 0
        self._oldest: int = 1  # smallest time that may still be stored
        # Aggregate statistics (datasets.stats, Table 3) of the actions no
        # row holds: compacted rows and late redeliveries.  The rows' own
        # share is summed from the columns on demand, so add() skips them.
        self._count: int = 0
        self._depth_sum: int = 0
        self._max_depth: int = 0
        self._truncated: int = 0
        # Influencers per action that resolve's output makes room for
        # (doubled whenever a slide needs more), and its scratch.
        self._room = 4
        self._scratch = array("q")

    def resolve(self, batch) -> dict:
        """Resolve and store a slide of actions; their records as columns.

        Exactly what :meth:`add` does for each action in order — the same
        records, statistics and retained rows — in one compiled call.

        Args:
            batch: The slide: an :class:`~repro.core.actions.ActionBatch`
                or a sequence of actions.

        Returns:
            :func:`records_to_columns`'s layout, one row per action, every
            column an ``array('q')``.

        Raises:
            ValueError: as :meth:`add`, for the first action it refuses;
                the compiled resolve then leaves the forest as it was.
        """
        batch = ActionBatch.of(batch)
        lib = _ckernel.load()
        if lib is None:
            return array_columns([self.add(action) for action in batch])
        while True:
            columns = self._resolve_into(lib, batch, self._room)
            if columns is not None:
                return columns
            self._room *= 2

    def _resolve_into(self, lib, batch: ActionBatch, room: int) -> Optional[dict]:
        """One ``resolve_slide`` call with ``room`` influencers per action;
        ``None``, the forest untouched, when that is too few."""
        n = len(batch.time)
        dep, fan = _ZERO * n, _ZERO * n
        links = _ZERO * (n * room)
        if len(self._scratch) < 2 * n:
            self._scratch = _ZERO * (4 * n)
        ends = self._scratch.buffer_info()[0]
        call = _ckernel.Resolve()
        _ckernel.RESOLVE_INPUTS.pack_into(
            call,
            0,
            self._time.buffer_info()[0],
            self._depth.buffer_info()[0],
            self._bounds.buffer_info()[0],
            self._influencers.buffer_info()[0],
            self._first,
            len(self._time),
            self._retention or 0,
            self._oldest,
            batch.time.buffer_info()[0],
            batch.user.buffer_info()[0],
            batch.parent.buffer_info()[0],
            n,
            dep.buffer_info()[0],
            fan.buffer_info()[0],
            ends,
            links.buffer_info()[0],
            ends + 8 * n,  # stored: the scratch's second half
            n * room,
        )
        status = lib.resolve_slide(call)
        if status == _NEED_ROOM:
            return None
        if status:
            time = batch.time[call.bad]
            if status == _DUPLICATE:
                raise ValueError(f"action {time} was already added")
            newest = max(self._time[-1:] + batch.time[: call.bad])
            raise ValueError(
                f"action {time} arrives after action {newest}; "
                "the forest only appends"
            )
        del links[call.npairs :]
        self._truncated += call.truncated
        if call.late:
            self._append_stored(batch, dep, fan, links)
        else:
            self._time.extend(batch.time)
            self._depth.extend(dep)
            self._bounds.extend(self._scratch[:n])
            self._influencers.extend(links)
        if call.oldest > self._oldest:
            self.prune_before(call.oldest)
        return {
            "time": batch.time,
            "user": batch.user,
            "depth": dep,
            "fanout": fan,
            "influencers": links,
        }

    def _append_stored(self, batch, dep, fan, links) -> None:
        """Append a resolved slide's stored rows: all but its late ones,
        the redeliveries below the horizon, which resolve as roots and are
        counted like :meth:`_add_late` counts them."""
        end = 0
        newest = self._time[-1] if self._time else None
        for time, depth, fanout in zip(batch.time, dep, fan):
            start, end = end, end + fanout
            if newest is not None and time <= newest:
                self._count += 1
                self._depth_sum += 1
                continue
            newest = time
            self._time.append(time)
            self._depth.append(depth)
            self._influencers.extend(links[start:end])
            self._bounds.append(len(self._influencers))

    def add(self, action: Action) -> ActionRecord:
        """Resolve and store the record for an arriving action.

        Raises:
            ValueError: if the action was already added, or arrives at or
                below the newest stored time without lying below the
                retention horizon (rows only append).
        """
        time = action.time
        user = action.user
        parent = action.parent
        times = self._time
        if times and time <= times[-1]:
            return self._add_late(action)
        links = None
        depth = 1
        if parent != ROOT:
            # On dense timestamps the parent sits ``time - parent`` rows
            # behind the row this action is about to take.
            first = self._first
            row = len(times) - time + parent
            if row < first or times[row] != parent:
                row = bisect_left(times, parent, first)
                if row == len(times) or times[row] != parent:
                    row = -1
            if row < 0:
                # The parent fell outside the retention horizon: the chain
                # is truncated and the action behaves like a root.
                self._truncated += 1
            else:
                bounds = self._bounds
                links = self._influencers[bounds[row] : bounds[row + 1]]
                if user in links:
                    links.remove(user)
                links.append(user)
                depth = self._depth[row] + 1
        influencers = self._influencers
        if links is None:
            influencers.append(user)
            links = (user,)
        else:
            influencers.extend(links)
            links = tuple(links)
        times.append(time)
        self._depth.append(depth)
        self._bounds.append(len(influencers))
        if self._retention is not None:
            self.prune_before(time - self._retention)
        return ActionRecord(time, user, links, depth)

    def _add_late(self, action: Action) -> ActionRecord:
        """:meth:`add` for an action at or below the newest stored time.

        Rows only append, so the one such action accepted is a redelivery
        whose record the retention horizon already dropped.  It resolves as
        a root (its parent, older still, is gone too) and is not stored:
        it lies below the horizon.
        """
        if action.time in self:
            raise ValueError(f"action {action.time} was already added")
        if action.time >= self._oldest:
            raise ValueError(
                f"action {action.time} arrives after action "
                f"{self._time[-1]}; the forest only appends"
            )
        if not action.is_root:
            self._truncated += 1
        self._count += 1
        self._depth_sum += 1
        return ActionRecord(action.time, action.user, (action.user,), 1)

    def _row(self, time: int) -> int:
        """The live row storing action ``time``, or -1 when none does."""
        times = self._time
        row = bisect_left(times, time, self._first)
        return row if row < len(times) and times[row] == time else -1

    def record(self, time: int) -> ActionRecord:
        """Return the stored record for action id ``time``.

        Raises:
            KeyError: if the action was never added or has been pruned.
        """
        row = self._row(time)
        if row < 0:
            raise KeyError(time)
        start, stop = self._bounds[row], self._bounds[row + 1]
        return ActionRecord(
            time,
            self._influencers[stop - 1],
            tuple(self._influencers[start:stop]),
            self._depth[row],
        )

    def __contains__(self, time: int) -> bool:
        return self._row(time) >= 0

    def __len__(self) -> int:
        return len(self._time) - self._first

    def prune_before(self, time: int) -> int:
        """Drop records with timestamp < ``time``; return how many.

        Pruning moves the first live row; the dead rows are cut out of the
        columns once they outnumber the live ones, so compaction moves each
        row O(1) times amortised.
        """
        if time <= self._oldest:
            return 0
        self._oldest = time
        times = self._time
        first = bisect_left(times, time, self._first)
        dropped = first - self._first
        self._first = first
        if 2 * first > len(times):
            gone = _owned(self._depth, 0, first)
            self._count += first
            self._depth_sum += int(gone.sum())
            self._max_depth = max(self._max_depth, int(gone.max()))
            cut = self._bounds[first]
            for column in (times, self._depth, self._bounds):
                del column[:first]
            del self._influencers[:cut]
            rebased = np.frombuffer(self._bounds, np.int64)
            rebased -= cut
            self._first = 0
        return dropped

    # -- statistics ------------------------------------------------------

    def _totals(self) -> Tuple[int, int, int]:
        """Count, depth sum and maximum depth of every action ever added."""
        depths = _owned(self._depth, 0, len(self._depth))
        return (
            self._count + len(depths),
            self._depth_sum + int(depths.sum()),
            max(self._max_depth, int(depths.max(initial=0))),
        )

    @property
    def actions_seen(self) -> int:
        """Total number of actions ever added (not just retained)."""
        return self._count + len(self._time)

    @property
    def mean_depth(self) -> float:
        """Average response-chain depth over all actions seen (Table 3)."""
        count, depth_sum, _ = self._totals()
        return depth_sum / count if count else 0.0

    @property
    def max_depth(self) -> int:
        """Deepest response chain observed."""
        return self._totals()[2]

    @property
    def truncated_chains(self) -> int:
        """Responses whose parent had been pruned (treated as roots)."""
        return self._truncated

    # -- persistence -----------------------------------------------------

    def columns(self) -> dict:
        """The retained records in the :func:`records_to_columns` layout,
        copied from the columns."""
        stop = len(self._time)
        start = self._first
        bounds = _owned(self._bounds, start, stop + 1)
        influencers = _owned(self._influencers, bounds[0], bounds[-1])
        return {
            "time": _owned(self._time, start, stop),
            "user": influencers[bounds[1:] - bounds[0] - 1],
            "depth": _owned(self._depth, start, stop),
            "fanout": np.diff(bounds),
            "influencers": influencers,
        }

    def to_state(self) -> dict:
        """Explicit state: the statistics plus the retained records as
        columns (:meth:`columns`)."""
        count, depth_sum, max_depth = self._totals()
        return {
            "retention": self._retention,
            "oldest": self._oldest,
            "count": count,
            "depth_sum": depth_sum,
            "max_depth": max_depth,
            "truncated": self._truncated,
            "records": self.columns(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "DiffusionForest":
        """Rebuild a forest from :meth:`to_state` output."""
        forest = cls(retention=state["retention"])
        forest._oldest = state["oldest"]
        forest._truncated = state["truncated"]
        records = state["records"]
        forest._time = _column(records["time"])
        forest._depth = _column(records["depth"])
        forest._count = state["count"] - len(forest._time)
        forest._depth_sum = state["depth_sum"] - int(np.sum(records["depth"]))
        forest._max_depth = state["max_depth"]
        forest._influencers = _column(records["influencers"])
        bounds = np.zeros(len(records["fanout"]) + 1, np.int64)
        np.cumsum(records["fanout"], out=bounds[1:])
        forest._bounds = _column(bounds)
        return forest
