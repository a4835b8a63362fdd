"""Checkpoint oracle interface: append-only SSO behind the SSM mapping.

Section 4.2 adapts append-only *set-stream* algorithms into checkpoint
oracles through the Set-Stream Mapping (SSM) interface:

1. identify users whose suffix influence set ``I_t[i](·)`` changed;
2. feed the oracle a stream of those updated influence sets;
3. the oracle maintains at most ``k`` users approximating the best seed set.

In this implementation the checkpoint's suffix index — either a private
:class:`~repro.core.influence_index.AppendOnlyInfluenceIndex`
(:mod:`repro.reference`) or a
:class:`~repro.core.influence_index.SuffixView` of the engine's shared
:class:`~repro.core.influence_index.VersionedInfluenceIndex`
— applies the update first, and the caller reports exactly which influencer
users gained a new member (always the performer of the arriving action).
:meth:`CheckpointOracle.process` then receives ``(user, new_member)`` — the
finest-grained SSM event.  Oracles never mutate the index; they only read
``influence_set``/``coverage``, which both index kinds provide.

The oracle's reported value must be *monotone non-decreasing* over time:
Lemma 2's proof needs it, and SIC's pruning rule compares values across
checkpoints.  Greedy-style oracles are naturally monotone, but e.g.
SieveStreaming deletes threshold instances when its OPT estimate grows,
which can transiently lower the current maximum.  The base class therefore
keeps a *best-so-far snapshot* (seeds + value).  The snapshot remains a
valid lower bound: on an append-only suffix, influence sets only grow, so a
recorded ``f`` value never overstates the snapshot seeds' current value.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, FrozenSet, Iterable, Sequence, Tuple

from repro.influence.functions import InfluenceFunction

__all__ = [
    "CheckpointOracle",
    "register_oracle",
    "make_oracle",
    "oracle_names",
]


class CheckpointOracle(ABC):
    """An ε-approximate streaming submodular maximiser over one suffix."""

    #: Documented approximation ratio in the append-only model (Table 2);
    #: informational, expressed as a function of β where applicable.
    ratio_description: str = "unspecified"

    def __init__(
        self,
        k: int,
        func: InfluenceFunction,
        index,
    ):
        if k <= 0:
            raise ValueError(f"cardinality constraint k must be positive, got {k}")
        self._k = k
        self._func = func
        self._index = index
        self._best_value: float = 0.0
        self._best_seeds: Tuple[int, ...] = ()

    @property
    def k(self) -> int:
        """The cardinality constraint."""
        return self._k

    @abstractmethod
    def process(self, user: int, new_member: int) -> None:
        """Notify that ``user``'s influence set gained ``new_member``.

        The checkpoint index already reflects the update; implementations
        read the full current set via ``self._index.influence_set(user)``.
        """

    def process_delta(self, user: int, new_members: Sequence[int]) -> None:
        """Notify that ``user`` gained all of ``new_members`` this slide.

        The index already reflects the *whole* slide.  The default loops
        :meth:`process`, which is exact for oracles whose update reads the
        index rather than the event (swap oracles, greedy); oracles that
        accumulate per-event state override this with a genuinely merged
        update (see
        :class:`~repro.core.oracles.streaming_base.StreamingThresholdOracle`).
        """
        for member in new_members:
            self.process(user, member)

    def process_batch(
        self, deltas: Iterable[Tuple[int, Sequence[int]]]
    ) -> None:
        """One (checkpoint, slide) batch of merged ``(user, members)`` deltas.

        Subclasses override to amortise per-slide bookkeeping across the
        whole batch; the default simply loops :meth:`process_delta`.
        """
        for user, members in deltas:
            self.process_delta(user, members)

    @property
    def value(self) -> float:
        """Monotone best-so-far influence value Λ of the maintained seeds."""
        return self._best_value

    @property
    def seeds(self) -> FrozenSet[int]:
        """The best-so-far seed set (at most ``k`` users)."""
        return frozenset(self._best_seeds)

    def _offer_solution(self, value: float, seeds) -> None:
        """Snapshot ``seeds`` when they beat the best recorded solution."""
        if value > self._best_value:
            self._best_value = value
            self._best_seeds = tuple(seeds)

    # -- persistence -------------------------------------------------------

    def state_dict(self) -> dict:
        """Explicit JSON-safe dynamic state (constructor args excluded).

        The construction recipe (oracle name, ``k``, function, params)
        lives in the owning framework's
        :class:`~repro.core.checkpoint.OracleSpec`; this dict carries only
        what processing accumulated.  Subclasses extend the base document
        (the monotone best-so-far snapshot) with their own fields and
        restore them in :meth:`load_state`.
        """
        return {
            "best_value": self._best_value,
            "best_seeds": list(self._best_seeds),
        }

    def load_state(self, state: dict) -> None:
        """Restore dynamic state captured by :meth:`state_dict`.

        The oracle must be freshly constructed (same spec, same index
        arrangement) before loading.
        """
        self._best_value = state["best_value"]
        self._best_seeds = tuple(state["best_seeds"])

    # -- shared helpers ----------------------------------------------------

    def _singleton_value(self, user: int) -> float:
        """``f(I(user))`` for the current suffix."""
        if self._func.modular:
            return self._func.value_of_covered(self._index.influence_set(user))
        return self._func.evaluate((user,), self._index)

    def _set_value(self, seeds) -> float:
        """``f(I(seeds))`` for the current suffix."""
        if self._func.modular:
            return self._func.value_of_covered(self._index.coverage(seeds))
        return self._func.evaluate(seeds, self._index)


_REGISTRY: Dict[str, Callable[..., CheckpointOracle]] = {}


def register_oracle(name: str) -> Callable:
    """Class decorator registering an oracle under ``name``."""

    def decorator(cls):
        key = name.lower()
        if key in _REGISTRY:
            raise ValueError(f"oracle name {name!r} already registered")
        _REGISTRY[key] = cls
        return cls

    return decorator


def make_oracle(
    name: str,
    k: int,
    func: InfluenceFunction,
    index,
    **kwargs,
) -> CheckpointOracle:
    """Instantiate a registered oracle by name (see :func:`oracle_names`)."""
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown oracle {name!r}; available: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[key](k=k, func=func, index=index, **kwargs)


def oracle_names() -> list:
    """Names of all registered oracles."""
    return sorted(_REGISTRY)
