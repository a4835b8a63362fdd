"""Action stream sources and iteration helpers.

A *social stream* is any iterable of :class:`~repro.core.actions.Action`
whose timestamps are strictly increasing.  This module provides:

* :class:`ListStream` — an in-memory stream (used by tests and replays);
* :func:`validate_stream` — a pass-through iterator enforcing the stream
  contract (monotone timestamps, parents referencing the past), which
  :func:`contract_error` states for one action;
* :func:`renumber` — normalise arbitrary ``(user, parent)`` event logs to
  contiguous 1-based timestamps;
* :func:`batched` — group a stream into the window-slide batches of size
  ``L`` used by Section 5.3's multiple-window-shift processing.

Streams are deliberately plain iterables so that generators (synthetic
datasets, file replays) can be consumed without materialising them.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence

from repro.core.actions import ROOT, Action

__all__ = ["ListStream", "contract_error", "validate_stream", "renumber", "batched"]


class ListStream:
    """An in-memory action stream backed by a list.

    Validates the stream contract eagerly at construction so that tests and
    examples fail fast on malformed inputs.
    """

    def __init__(self, actions: Iterable[Action]):
        self._actions: List[Action] = list(validate_stream(actions))
        self._users: "frozenset | None" = None

    def __iter__(self) -> Iterator[Action]:
        return iter(self._actions)

    def __len__(self) -> int:
        return len(self._actions)

    def __getitem__(self, index: int) -> Action:
        return self._actions[index]

    @property
    def users(self) -> frozenset:
        """The distinct users appearing in the stream.

        The stream is immutable after construction, so the set is computed
        once and the same frozenset is returned on every access.
        """
        if self._users is None:
            self._users = frozenset(a.user for a in self._actions)
        return self._users

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ListStream({len(self._actions)} actions)"


def contract_error(action: Action, last_time: int) -> Optional[str]:
    """Why ``action`` cannot follow a stream whose newest action is at
    ``last_time`` (0 before the first), or ``None``."""
    if action.time <= last_time:
        return (
            f"timestamps must be strictly increasing: "
            f"{action.time} after {last_time}"
        )
    if action.parent != ROOT and action.parent > last_time:
        return f"action {action.time} responds to unseen action {action.parent}"
    return None


def validate_stream(actions: Iterable[Action]) -> Iterator[Action]:
    """Yield ``actions`` unchanged while enforcing the stream contract.

    Raises:
        ValueError: if timestamps are not strictly increasing, or an action
            responds to a parent that has not appeared yet.
    """
    last_time = 0
    for action in actions:
        problem = contract_error(action, last_time)
        if problem is not None:
            raise ValueError(problem)
        last_time = action.time
        yield action


def renumber(events: Iterable[tuple]) -> List[Action]:
    """Build a valid stream from ``(user, parent_index_or_None)`` pairs.

    ``parent_index_or_None`` refers to the 0-based position of the parent
    event in the input sequence.  The result uses contiguous 1-based
    timestamps, as the frameworks expect.

    >>> [a.time for a in renumber([(7, None), (9, 0)])]
    [1, 2]
    """
    out: List[Action] = []
    for position, (user, parent_pos) in enumerate(events):
        time = position + 1
        if parent_pos is None:
            out.append(Action.root(time, user))
        else:
            if not 0 <= parent_pos < position:
                raise ValueError(
                    f"event {position}: parent position {parent_pos} "
                    "must reference an earlier event"
                )
            out.append(Action.response(time, user, parent_pos + 1))
    return out


def batched(actions: Iterable[Action], size: int) -> Iterator[Sequence[Action]]:
    """Group a stream into consecutive batches of ``size`` actions.

    The final batch may be shorter.  Used to drive window slides of
    ``L = size`` actions (Section 5.3).
    """
    if size <= 0:
        raise ValueError(f"batch size must be positive, got {size}")
    batch: List[Action] = []
    for action in actions:
        batch.append(action)
        if len(batch) == size:
            yield batch
            batch = []
    if batch:
        yield batch
