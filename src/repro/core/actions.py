"""Social actions: the atomic events of a social stream.

The paper (Section 3) models a social stream as an unbounded, time-sequenced
series of *actions* ``a_t = <u, a_t'>_t``: user ``u`` performs an action at
time ``t`` in response to an earlier action ``a_t'`` (``t' < t``).  An action
with no parent (an original post/tweet) is a *root action* ``<u, nil>_t``.

Timestamps double as action identifiers: a stream's times are positive and
strictly increasing, which keeps bookkeeping integer-only.  They need not be
dense.  The window ``W_t`` is the actions with ``time ≥ t − N + 1``
(:mod:`repro.core.base`); on a dense stream, where the ``t``-th arrival has
timestamp ``t``, that is the paper's ``W_t = {a_{t-N+1}, ..., a_t}``.

A slide of actions travels as one :class:`ActionBatch`: three int64
columns whose fields were checked once, when the batch was built, and
which every layer from the wire decoder to the diffusion forest's compiled
resolve reads without building an :class:`Action` per action.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter, lt
from typing import Iterable, Optional

import numpy as np

__all__ = ["Action", "ActionBatch", "ROOT", "action_error", "int64_field_error"]

#: Sentinel parent id marking a root action (the paper's ``nil``).
ROOT: int = -1

#: Times and users are stored in int64 columns (the diffusion forest's).
_INT64_END = 1 << 63


def int64_field_error(time, user, parent) -> Optional[str]:
    """Why these fields do not fit the int64 columns (each an ``int``, not a
    ``bool`` or float; ``time``, ``user`` below ``2**63``), or ``None``."""
    if not type(time) is type(user) is type(parent) is int:
        return f"fields must be integers, got {time!r}, {user!r}, {parent!r}"
    if time >= _INT64_END or user >= _INT64_END:
        return f"time and user must be below 2**63, got {time} and {user}"
    return None


def action_error(time: int, user: int, parent: int) -> Optional[str]:
    """Which invariant of :class:`Action` these fields break, or ``None``."""
    if time <= 0:
        return f"action time must be positive, got {time}"
    if user < 0:
        return f"user id must be non-negative, got {user}"
    if parent != ROOT and not 0 < parent < time:
        return (
            f"parent must be an earlier action id in (0, {time}) "
            f"or ROOT, got {parent}"
        )
    return None


@dataclass(frozen=True, slots=True)
class Action:
    """One social action ``a_t = <user, parent>_t``.

    Attributes:
        time: Arrival timestamp; also the action's unique id.  Strictly
            increasing along a stream, starting from 1 (matching Example 1
            of the paper where the first action is ``a_1``).
        user: Id of the user who performed the action.
        parent: Timestamp/id of the action being responded to, or
            :data:`ROOT` for a root action.
    """

    time: int
    user: int
    parent: int = ROOT

    def __post_init__(self) -> None:
        problem = action_error(self.time, self.user, self.parent)
        if problem is not None:
            raise ValueError(problem)

    @property
    def is_root(self) -> bool:
        """True when this action does not respond to any earlier action."""
        return self.parent == ROOT

    @property
    def response_distance(self) -> Optional[int]:
        """The paper's response distance ``Δ = t - t'``; None for roots."""
        if self.is_root:
            return None
        return self.time - self.parent

    @classmethod
    def root(cls, time: int, user: int) -> "Action":
        """Create a root action ``<user, nil>_time``."""
        return cls(time=time, user=user, parent=ROOT)

    @classmethod
    def response(cls, time: int, user: int, parent: int) -> "Action":
        """Create a response action ``<user, a_parent>_time``."""
        return cls(time=time, user=user, parent=parent)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        target = "nil" if self.is_root else f"a{self.parent}"
        return f"<u{self.user}, {target}>_{self.time}"


_FIELDS = ("time", "user", "parent")


class ActionBatch(Sequence):
    """One slide of actions as three int64 columns: ``time``, ``user`` and
    ``parent`` (``array('q')``, :data:`ROOT` for a root).

    Every field is checked once, when the batch is built: the int64 rule
    of :func:`int64_field_error` and :class:`Action`'s invariants.  A
    batch is a ``Sequence[Action]`` (indexing builds the :class:`Action`,
    slicing gives a batch) and equals any sequence holding the same
    actions, so every entry point taking a batch also takes a list of
    actions (:meth:`of`).  Batches are not mutated once built.
    """

    __slots__ = _FIELDS

    def __init__(self, time: Sequence[int], user: Sequence[int], parent: Sequence[int]):
        """A batch of the actions ``zip(time, user, parent)``.

        Raises:
            ValueError: ``"invalid action: ..."`` for the first action that
                breaks the int64 rule or an :class:`Action` invariant.
        """
        columns = [_int64_column(values) for values in (time, user, parent)]
        if None in columns:
            _refuse(zip(time, user, parent))
        if not len(columns[0]) == len(columns[1]) == len(columns[2]):
            raise ValueError("time, user and parent columns differ in length")
        t, u, p = (np.frombuffer(column, np.int64) for column in columns)
        broken = (t <= 0) | (u < 0) | ((p != ROOT) & ((p <= 0) | (p >= t)))
        if broken.any():
            at = int(broken.argmax())
            _refuse([(int(t[at]), int(u[at]), int(p[at]))])
        self.time, self.user, self.parent = columns

    @classmethod
    def wrap(cls, time: array, user: array, parent: array) -> "ActionBatch":
        """A batch of ``array('q')`` columns whose fields the caller has
        already checked (the wire decoder checks each line's)."""
        batch = cls.__new__(cls)
        batch.time, batch.user, batch.parent = time, user, parent
        return batch

    @classmethod
    def of(cls, actions: Iterable[Action]) -> "ActionBatch":
        """``actions`` as a batch (a batch is returned as it is).

        The :class:`Action` objects checked their invariants when they were
        built, so only the int64 rule is checked here.

        Raises:
            ValueError: ``"invalid action: ..."`` for the first action with
                a field the int64 columns cannot hold.
        """
        if type(actions) is cls:
            return actions
        if not isinstance(actions, (list, tuple)):
            actions = list(actions)
        columns = times, users, parents = array("q"), array("q"), array("q")
        try:
            for action in actions:
                time, user, parent = action.time, action.user, action.parent
                if not type(time) is type(user) is type(parent) is int:
                    break
                times.append(time)
                users.append(user)
                parents.append(parent)
            else:
                return cls.wrap(*columns)
        except OverflowError:
            pass
        _refuse(map(attrgetter(*_FIELDS), actions))

    @classmethod
    def concat(cls, batches: Sequence["ActionBatch"]) -> "ActionBatch":
        """The batches' actions, in order, as one batch."""
        if len(batches) == 1:
            return batches[0]
        columns = [array("q") for _ in _FIELDS]
        for batch in batches:
            for column, name in zip(columns, _FIELDS):
                column.extend(getattr(batch, name))
        return cls.wrap(*columns)

    def select(self, keep: np.ndarray) -> "ActionBatch":
        """The actions where the boolean mask ``keep`` is set."""
        return self.wrap(
            *(
                array("q", np.frombuffer(getattr(self, name), np.int64)[keep].tobytes())
                for name in _FIELDS
            )
        )

    def check_after(self, clock: int, who: str) -> None:
        """Refuse the batch unless its times ascend strictly from above
        ``clock``.

        Raises:
            ValueError: ``"<who> received out-of-order action t after
                previous"`` naming the first action out of order.
        """
        times = self.time
        if times and times[0] > clock and (
            len(times) == 1 or all(map(lt, times, islice(times, 1, None)))
        ):
            return
        previous = clock
        for time in times:
            if time <= previous:
                raise ValueError(
                    f"{who} received out-of-order action {time} after {previous}"
                )
            previous = time

    def __len__(self) -> int:
        return len(self.time)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.wrap(self.time[index], self.user[index], self.parent[index])
        return Action(self.time[index], self.user[index], self.parent[index])

    def __iter__(self):
        return map(Action, self.time, self.user, self.parent)

    def __eq__(self, other) -> bool:
        if isinstance(other, ActionBatch):
            return (
                self.time == other.time
                and self.user == other.user
                and self.parent == other.parent
            )
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    __hash__ = None  # compared by value, like a list

    def __repr__(self) -> str:
        return f"ActionBatch({list(self)!r})"


def _int64_column(values) -> Optional[array]:
    """``values`` as an int64 column, or ``None`` unless every one is an
    ``int`` (not a ``bool``) that int64 holds."""
    if isinstance(values, array) and values.typecode == "q":
        return values
    values = values if isinstance(values, list) else list(values)
    if not set(map(type, values)) <= {int}:
        return None
    try:
        return array("q", values)
    except OverflowError:
        return None


def _refuse(fields) -> None:
    """Raise for the first ``(time, user, parent)`` the int64 rule or an
    :class:`Action` invariant refuses.

    Raises:
        ValueError: ``"invalid action: ..."``.
    """
    for time, user, parent in fields:
        problem = int64_field_error(time, user, parent) or action_error(
            time, user, parent
        )
        if problem is not None:
            raise ValueError(f"invalid action: {problem}")
    raise ValueError("invalid action: a field does not fit in int64")
