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

from repro.core.actions import ROOT, Action

__all__ = [
    "ActionRecord",
    "DiffusionForest",
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
    order (``fanout`` gives the run lengths).
    """
    count = len(records)
    columns = {
        name: np.fromiter(map(attrgetter(name), records), np.int64, count)
        for name in ("time", "user", "depth")
    }
    chains = list(map(attrgetter("influencers"), records))
    columns["fanout"] = np.fromiter(map(len, chains), np.int64, count)
    columns["influencers"] = np.fromiter(
        chain.from_iterable(chains), np.int64, int(columns["fanout"].sum())
    )
    return columns


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


def _owned(column: array, start: int, stop: int) -> np.ndarray:
    """Rows ``start:stop`` of an int64 column as a numpy array of their own
    (a view would pin the column's buffer and refuse its next append)."""
    return np.array(memoryview(column)[start:stop], np.int64)


def _column(values) -> array:
    """An int64 column holding ``values`` (an array of any integer dtype)."""
    return array("q", np.ascontiguousarray(values, np.int64).tobytes())


class DiffusionForest:
    """Incremental ancestor resolution over a social action stream.

    Feed every arriving action exactly once via :meth:`add`; look up the
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
