"""Sequence-based sliding window over a social action stream.

The paper adopts the sequence-based sliding-window model of Datar et al.
(Section 3): ``W_t`` always contains the latest ``N`` actions
``{a_{t-N+1}, ..., a_t}``.  :class:`SlidingWindow` performs the deque
bookkeeping shared by every SIM algorithm: push arrivals, report expiries,
expose the active-user set ``A_t`` and the window boundaries.

Batch slides of ``L > 1`` actions (Section 5.3) are supported by passing a
batch of actions to :meth:`SlidingWindow.slide`.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from operator import attrgetter
from typing import Deque, Iterable, List, Sequence, Set

import numpy as np

from repro.core.actions import Action

__all__ = ["SlidingWindow"]


class SlidingWindow:
    """The latest ``N`` actions of a stream, with expiry reporting."""

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError(f"window size must be positive, got {size}")
        self._size = size
        self._window: Deque[Action] = deque()
        self._user_counts: dict = {}
        self._last_time: int = 0

    @property
    def size(self) -> int:
        """The window capacity ``N``."""
        return self._size

    def __len__(self) -> int:
        return len(self._window)

    @property
    def is_full(self) -> bool:
        """True once ``N`` actions have been observed."""
        return len(self._window) == self._size

    @property
    def start_time(self) -> int:
        """Timestamp of the oldest retained action (``t - N + 1`` when full).

        Returns 0 for an empty window.
        """
        return self._window[0].time if self._window else 0

    @property
    def end_time(self) -> int:
        """The stream clock ``t``: newest observed timestamp; 0 initially.

        Equal to the newest retained action's timestamp after a
        :meth:`slide`; a window advanced with :meth:`advance_clock`
        (routed shards, which never store raw actions) keeps an accurate
        clock even while empty.
        """
        return self._last_time

    def advance_clock(self, last_time: int, count: int) -> None:
        """Advance the stream clock without storing the slide's actions.

        Routed shards receive pre-resolved influence records instead of
        raw actions: the window then tracks only the clock, and any
        actions still stored (restored from a broadcast-era snapshot)
        drain as if the slide had expired them.

        Args:
            last_time: The slide's final timestamp (the new clock).
            count: Number of actions in the slide (how many stored
                actions to drain).
        """
        if last_time <= self._last_time:
            raise ValueError(
                f"window received out-of-order slide ending {last_time} "
                f"after {self._last_time}"
            )
        self._last_time = last_time
        for _ in range(min(count, len(self._window))):
            old = self._window.popleft()
            remaining = self._user_counts[old.user] - 1
            if remaining:
                self._user_counts[old.user] = remaining
            else:
                del self._user_counts[old.user]

    def slide(self, arrivals: Sequence[Action]) -> List[Action]:
        """Append ``arrivals`` and return the actions that expired.

        Arrivals must continue the stream (strictly increasing timestamps).
        For a full window, sliding by ``L`` arrivals expires exactly the
        oldest ``L`` actions.
        """
        expired: List[Action] = []
        for action in arrivals:
            if action.time <= self._last_time:
                raise ValueError(
                    f"window received out-of-order action {action.time} "
                    f"after {self._last_time}"
                )
            self._last_time = action.time
            self._window.append(action)
            self._user_counts[action.user] = self._user_counts.get(action.user, 0) + 1
            if len(self._window) > self._size:
                old = self._window.popleft()
                remaining = self._user_counts[old.user] - 1
                if remaining:
                    self._user_counts[old.user] = remaining
                else:
                    del self._user_counts[old.user]
                expired.append(old)
        return expired

    @property
    def active_users(self) -> Set[int]:
        """The paper's ``A_t``: users performing at least one window action."""
        return set(self._user_counts)

    def to_state(self) -> dict:
        """Explicit state: capacity, clock, and the retained actions as one
        ``(n, 3)`` int64 array of ``time, user, parent`` rows."""
        fields = map(attrgetter("time", "user", "parent"), self._window)
        return {
            "size": self._size,
            "last_time": self._last_time,
            "actions": np.fromiter(
                chain.from_iterable(fields), np.int64, 3 * len(self._window)
            ).reshape(-1, 3),
        }

    @classmethod
    def from_state(cls, state: dict) -> "SlidingWindow":
        """Rebuild a window from :meth:`to_state` output."""
        window = cls(state["size"])
        window._last_time = state["last_time"]
        for time, user, parent in state["actions"].tolist():
            action = Action(time=time, user=user, parent=parent)
            window._window.append(action)
            window._user_counts[action.user] = (
                window._user_counts.get(action.user, 0) + 1
            )
        return window

    def activity(self, user: int) -> int:
        """Number of window actions performed by ``user``."""
        return self._user_counts.get(user, 0)

    def __iter__(self) -> Iterable[Action]:
        return iter(self._window)

    def __getitem__(self, i: int) -> Action:
        """``W_t[i]`` with the paper's 1-based indexing."""
        if not 1 <= i <= len(self._window):
            raise IndexError(f"window position {i} out of [1, {len(self._window)}]")
        return self._window[i - 1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SlidingWindow(size={self._size}, len={len(self._window)}, "
            f"span=[{self.start_time}, {self.end_time}])"
        )
