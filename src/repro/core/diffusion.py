"""Diffusion forest: resolving who influences whom along response chains.

Section 3 of the paper defines influence through action propagation: user
``u`` influences user ``v`` in window ``W_t`` iff ``v`` performed an action
``a`` inside ``W_t`` that was *directly or indirectly* triggered by an action
of ``u`` (that triggering action need not lie in the window).  Every action
therefore credits its performer to the influence sets of

* the performer itself (performing an action makes a user "active", and in
  Example 1 ``u1 ∈ I_8(u1)`` because ``u1`` performed ``a_1`` and ``a_6``), and
* the users of *all ancestor actions* along the response chain.

The :class:`DiffusionForest` stores one compact record per action — the
performer plus the de-duplicated tuple of influencer users — so that the
ancestor chain is resolved exactly once per arriving action and then shared
by every framework component (window index, all checkpoints).  The paper's
``d`` (number of influence-set updates per action, Table 3's "Avg. depth"
driver) equals ``len(record.influencers)``.

Records are retained beyond window expiry because late responders may still
reference old actions.  An optional ``retention`` horizon bounds memory on
unbounded streams: records older than ``now - retention`` are dropped and any
later response to a dropped action is treated as a root (its chain is
truncated).  This is exact whenever ``retention`` is at least the maximum
response distance of the stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.core.actions import Action

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


class DiffusionForest:
    """Incremental ancestor resolution over a social action stream.

    Feed every arriving action exactly once via :meth:`add`; look up the
    resulting :class:`ActionRecord` at any later point (e.g. when the same
    action expires from a sliding window) via :meth:`record`.
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
        self._records: Dict[int, ActionRecord] = {}
        self._oldest: int = 1  # smallest time that may still be stored
        # Aggregate statistics (used by datasets.stats for Table 3).
        self._count: int = 0
        self._depth_sum: int = 0
        self._max_depth: int = 0
        self._truncated: int = 0

    def add(self, action: Action) -> ActionRecord:
        """Resolve and store the record for an arriving action."""
        if action.time in self._records:
            raise ValueError(f"action {action.time} was already added")
        parent_record = None
        if not action.is_root:
            parent_record = self._records.get(action.parent)
            if parent_record is None:
                # The parent fell outside the retention horizon: the chain
                # is truncated and the action behaves like a root.
                self._truncated += 1
        if parent_record is None:
            influencers: Tuple[int, ...] = (action.user,)
            depth = 1
        else:
            chain = list(parent_record.influencers)
            if action.user in chain:
                chain.remove(action.user)
            chain.append(action.user)
            influencers = tuple(chain)
            depth = parent_record.depth + 1
        record = ActionRecord(
            time=action.time,
            user=action.user,
            influencers=influencers,
            depth=depth,
        )
        self._records[action.time] = record
        self._count += 1
        self._depth_sum += depth
        self._max_depth = max(self._max_depth, depth)
        if self._retention is not None:
            self.prune_before(action.time - self._retention)
        return record

    def record(self, time: int) -> ActionRecord:
        """Return the stored record for action id ``time``.

        Raises:
            KeyError: if the action was never added or has been pruned.
        """
        return self._records[time]

    def __contains__(self, time: int) -> bool:
        return time in self._records

    def __len__(self) -> int:
        return len(self._records)

    def prune_before(self, time: int) -> int:
        """Drop records with timestamp < ``time``; return how many."""
        if time <= self._oldest:
            return 0
        span = time - self._oldest
        if span <= 2 * len(self._records):
            # Contiguous case (the incremental path): walk the gap.
            dropped = 0
            for t in range(self._oldest, time):
                if self._records.pop(t, None) is not None:
                    dropped += 1
        else:
            # Sparse case: rebuilding is cheaper than walking the gap.
            before = len(self._records)
            self._records = {
                t: record for t, record in self._records.items() if t >= time
            }
            dropped = before - len(self._records)
        self._oldest = time
        return dropped

    # -- statistics ------------------------------------------------------

    @property
    def actions_seen(self) -> int:
        """Total number of actions ever added (not just retained)."""
        return self._count

    @property
    def mean_depth(self) -> float:
        """Average response-chain depth over all actions seen (Table 3)."""
        if self._count == 0:
            return 0.0
        return self._depth_sum / self._count

    @property
    def max_depth(self) -> int:
        """Deepest response chain observed."""
        return self._max_depth

    @property
    def truncated_chains(self) -> int:
        """Responses whose parent had been pruned (treated as roots)."""
        return self._truncated

    def records_between(self, start: int, end: int) -> Iterable[ActionRecord]:
        """Yield retained records with ``start <= time <= end`` in order."""
        for t in range(max(start, self._oldest), end + 1):
            record = self._records.get(t)
            if record is not None:
                yield record

    # -- persistence -----------------------------------------------------

    def to_state(self) -> dict:
        """Explicit state: the statistics plus the retained records as
        columns (:func:`records_to_columns`)."""
        return {
            "retention": self._retention,
            "oldest": self._oldest,
            "count": self._count,
            "depth_sum": self._depth_sum,
            "max_depth": self._max_depth,
            "truncated": self._truncated,
            "records": records_to_columns(self._records.values()),
        }

    @classmethod
    def from_state(cls, state: dict) -> "DiffusionForest":
        """Rebuild a forest from :meth:`to_state` output."""
        forest = cls(retention=state["retention"])
        forest._oldest = state["oldest"]
        forest._count = state["count"]
        forest._depth_sum = state["depth_sum"]
        forest._max_depth = state["max_depth"]
        forest._truncated = state["truncated"]
        for record in records_from_columns(state["records"]):
            forest._records[record.time] = record
        return forest
