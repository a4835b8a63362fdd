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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["Action", "ROOT", "int64_field_error"]

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
        if self.time <= 0:
            raise ValueError(f"action time must be positive, got {self.time}")
        if self.user < 0:
            raise ValueError(f"user id must be non-negative, got {self.user}")
        if self.parent != ROOT and not 0 < self.parent < self.time:
            raise ValueError(
                f"parent must be an earlier action id in (0, {self.time}) "
                f"or ROOT, got {self.parent}"
            )

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
