"""Who owns which influencer: pluggable, serializable shard partitioners.

The sharded ingest plane assigns every *influencer* user to exactly one of
``S`` shard engines; a shard indexes only the influence pairs whose
influencer it owns, and its oracles only ever consider owned users as seed
candidates.  Because influence evaluation of a seed set touches only the
seeds' own influence sets, a shard's answer value for its own seeds is the
*exact* global value — the partitioner therefore decides load balance and
merge quality, never soundness.

Partitioners are deliberately tiny and deterministic:

* :class:`HashPartitioner` — the default ``hash(user) % S``, using a fixed
  multiplicative hash (Knuth) so the assignment is identical across
  processes and Python runs (``PYTHONHASHSEED`` never leaks in);
* :class:`ConstantPartitioner` — everything to one shard.  Degenerate on
  purpose: with it, a sharded engine is *bit-identical* to a single
  engine, which is what the shard-merge equivalence tests pin.

Like influence functions, partitioners serialize through an explicit
``kind``-tagged state schema (:func:`partitioner_from_state`), so per-shard
snapshots are self-describing and a resumed shard refuses silently changed
ownership.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Mapping

__all__ = [
    "Partitioner",
    "HashPartitioner",
    "ConstantPartitioner",
    "ShardAssignment",
    "partitioner_from_state",
    "assignment_from_state",
]

#: Knuth's multiplicative hash constant (2^32 / φ); spreads dense integer
#: user-id ranges evenly across small shard counts.
_KNUTH = 2654435761
_MASK = 0xFFFFFFFF


class Partitioner(ABC):
    """Deterministic assignment of influencer users to shard ids."""

    def __init__(self, shards: int):
        """
        Args:
            shards: Number of shards (>= 1).
        """
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self._shards = shards

    @property
    def shards(self) -> int:
        """Number of shards this partitioner spreads users over."""
        return self._shards

    @abstractmethod
    def shard_of(self, user: int) -> int:
        """The shard id in ``[0, shards)`` that owns ``user``."""

    @abstractmethod
    def to_state(self) -> dict:
        """Explicit JSON-safe state with a ``"kind"`` discriminator."""

    def __eq__(self, other) -> bool:
        """Partitioners are equal iff their serialized states are."""
        if not isinstance(other, Partitioner):
            return NotImplemented
        return self.to_state() == other.to_state()

    def __hash__(self) -> int:
        """Hash of the serialized state (stable across processes)."""
        return hash(tuple(sorted(self.to_state().items())))


class HashPartitioner(Partitioner):
    """``shard_of(user) = knuth_hash(user) % shards`` — the default.

    A fixed multiplicative hash (not Python's salted ``hash``) keeps the
    assignment identical across worker processes and restarts, which the
    per-shard WAL/snapshot recovery depends on.
    """

    def shard_of(self, user: int) -> int:
        """The shard owning ``user`` (deterministic across processes)."""
        return ((user * _KNUTH) & _MASK) % self._shards

    def to_state(self) -> dict:
        """State schema: ``{"kind": "hash", "shards": S}``."""
        return {"kind": "hash", "shards": self._shards}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HashPartitioner(shards={self._shards})"


class ConstantPartitioner(Partitioner):
    """Every user to one fixed shard — the equivalence-test degenerate.

    With all influencers owned by ``target``, that shard's engine performs
    exactly the computation of an unsharded engine (and the other shards
    stay empty), so ``ShardedEngine(S)`` answers must equal the single
    engine's bit for bit.  Useful only for testing and debugging.
    """

    def __init__(self, shards: int, target: int = 0):
        """
        Args:
            shards: Number of shards (>= 1).
            target: The shard id that owns every user.
        """
        super().__init__(shards)
        if not 0 <= target < shards:
            raise ValueError(
                f"target must be in [0, {shards}), got {target}"
            )
        self._target = target

    def shard_of(self, user: int) -> int:
        """Always the configured target shard."""
        return self._target

    def to_state(self) -> dict:
        """State schema: ``{"kind": "constant", "shards": S, "target": t}``."""
        return {"kind": "constant", "shards": self._shards, "target": self._target}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ConstantPartitioner(shards={self._shards}, target={self._target})"
        )


class ShardAssignment:
    """One shard's view of a partitioner: "do I own this influencer?".

    This is the object a shard engine carries (IC/SIC's ``shard=``
    constructor argument): arriving records keep only the influencers the
    assignment owns before they reach the shard's index and oracles.
    """

    __slots__ = ("partitioner", "shard")

    def __init__(self, partitioner: Partitioner, shard: int):
        """
        Args:
            partitioner: The global user → shard assignment.
            shard: This engine's shard id in ``[0, partitioner.shards)``.
        """
        if not 0 <= shard < partitioner.shards:
            raise ValueError(
                f"shard must be in [0, {partitioner.shards}), got {shard}"
            )
        self.partitioner = partitioner
        self.shard = shard

    def owns(self, user: int) -> bool:
        """True when this shard owns ``user`` as an influencer."""
        return self.partitioner.shard_of(user) == self.shard

    def to_state(self) -> dict:
        """Explicit JSON-safe state (partitioner state + shard id)."""
        return {"partitioner": self.partitioner.to_state(), "shard": self.shard}

    def __eq__(self, other) -> bool:
        """Assignments are equal iff their serialized states are."""
        if not isinstance(other, ShardAssignment):
            return NotImplemented
        return self.to_state() == other.to_state()

    def __hash__(self) -> int:
        """Hash consistent with :meth:`__eq__`."""
        return hash((self.partitioner, self.shard))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardAssignment({self.partitioner!r}, shard={self.shard})"


_PARTITIONER_STATES: Dict[str, Callable[[dict], Partitioner]] = {
    "hash": lambda state: HashPartitioner(state["shards"]),
    "constant": lambda state: ConstantPartitioner(state["shards"], state["target"]),
}


def partitioner_from_state(state: Mapping) -> Partitioner:
    """Rebuild a partitioner from its :meth:`~Partitioner.to_state` output.

    Raises:
        ValueError: when the state's ``"kind"`` is unknown.
    """
    kind = state.get("kind")
    builder = _PARTITIONER_STATES.get(kind)
    if builder is None:
        raise ValueError(
            f"unknown partitioner state kind {kind!r}; "
            f"known: {sorted(_PARTITIONER_STATES)}"
        )
    return builder(dict(state))


def assignment_from_state(state: Mapping) -> ShardAssignment:
    """Rebuild a :class:`ShardAssignment` from :meth:`~ShardAssignment.to_state`."""
    return ShardAssignment(
        partitioner_from_state(state["partitioner"]), state["shard"]
    )
