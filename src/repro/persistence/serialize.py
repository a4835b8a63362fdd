"""Explicit-schema codecs shared by the persistence plane.

Everything the state store writes — snapshots and WAL records — is plain
JSON built from the ``to_state()`` documents the core classes expose.  No
live object is ever pickled: each schema is explicit, carries a format
version, and is rebuilt through ``from_state()`` constructors, so stored
state survives process restarts, interpreter upgrades, and code review.

This module holds the small shared pieces:

* :class:`PersistenceError` — the error type for corrupt/incompatible
  stored state (a :class:`ValueError`, so existing CLI error handling
  reports it cleanly);
* :func:`encode_action` / :func:`decode_action` — the ``[time, user,
  parent]`` triple used by WAL records and window snapshots;
* :func:`algorithm_to_state` / :func:`algorithm_from_state` — dispatch
  between a framework instance and its serialized document, keyed by the
  document's ``"algorithm"`` tag (``ic``, ``sic``, ``greedy``, ``multi``).
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from repro.core.actions import Action
from repro.core.base import SIMAlgorithm
from repro.core.greedy import WindowedGreedy
from repro.core.ic import InfluentialCheckpoints
from repro.core.multi import MultiQueryEngine
from repro.core.sic import SparseInfluentialCheckpoints

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "PersistenceError",
    "encode_action",
    "decode_action",
    "algorithm_to_state",
    "algorithm_from_state",
    "ensure_same_engine_config",
]

#: Version tag of the snapshot *document* (the envelope around an
#: algorithm state).  Independent of the per-algorithm state version so
#: the envelope and the payload can evolve separately.
SNAPSHOT_FORMAT_VERSION = 1


class PersistenceError(ValueError):
    """Stored state is corrupt, incomplete, or from an incompatible format."""


def encode_action(action: Action) -> list:
    """``[time, user, parent]`` with the ``ROOT`` sentinel kept verbatim."""
    return [action.time, action.user, action.parent]


def decode_action(fields: Sequence[int]) -> Action:
    """Rebuild an :class:`~repro.core.actions.Action` from its triple."""
    time, user, parent = fields
    return Action(time=time, user=user, parent=parent)


def _multi_from_state(state: dict) -> MultiQueryEngine:
    """Rebuild a query board, resolving members through this dispatch."""
    return MultiQueryEngine.from_state(state, loader=algorithm_from_state)


#: ``"algorithm"`` tag -> ``from_state`` constructor.
_ALGORITHM_LOADERS: Dict[str, Callable[[dict], SIMAlgorithm]] = {
    "ic": InfluentialCheckpoints.from_state,
    "sic": SparseInfluentialCheckpoints.from_state,
    "greedy": WindowedGreedy.from_state,
    "multi": _multi_from_state,
}


def algorithm_to_state(algorithm: SIMAlgorithm) -> dict:
    """Serialize a framework via its ``to_state`` hook.

    Raises:
        PersistenceError: when the algorithm does not implement
            ``to_state`` (e.g. the graph baselines, which recompute from
            scratch and have nothing durable to save).
    """
    to_state = getattr(algorithm, "to_state", None)
    if to_state is None:
        raise PersistenceError(
            f"{type(algorithm).__name__} does not support state "
            "serialization (no to_state hook)"
        )
    return to_state()


def algorithm_from_state(state: dict) -> SIMAlgorithm:
    """Rebuild a framework from a ``to_state`` document.

    Dispatches on the document's ``"algorithm"`` tag; the per-algorithm
    ``from_state`` validates the state format version.  This is the
    boundary stored documents cross, so whatever a structurally damaged
    one trips inside a loader surfaces as the persistence fault it is.

    Raises:
        PersistenceError: when the document is not a JSON object, the tag
            is missing or unknown, or a loader rejects the document — a
            wrong format version, a missing or ill-typed field (named in
            the message), a retired mode.
    """
    if not isinstance(state, dict):
        raise PersistenceError(
            "algorithm state document must be a JSON object, got "
            f"{type(state).__name__}"
        )
    kind = state.get("algorithm")
    loader = _ALGORITHM_LOADERS.get(kind) if isinstance(kind, str) else None
    if loader is None:
        raise PersistenceError(
            f"unknown algorithm kind {kind!r} in state document; "
            f"known: {sorted(_ALGORITHM_LOADERS)}"
        )
    try:
        return loader(state)
    except PersistenceError:
        raise
    except KeyError as exc:
        raise PersistenceError(
            f"{kind} state document has no field {exc.args[0]!r}"
        ) from exc
    except ValueError as exc:
        raise PersistenceError(str(exc)) from exc
    except (TypeError, AttributeError, IndexError) as exc:
        raise PersistenceError(f"malformed {kind} state document: {exc}") from exc


def ensure_same_engine_config(stored, requested, where: str = "state dir") -> None:
    """Reject a resume whose requested engine disagrees with the stored one.

    A restored engine keeps the configuration it was created with; letting
    different ``k``/``window``/``oracle``/shard settings pass silently
    would emit answers for settings the caller did not ask for.  Both the
    CLI resume path and each shard worker of the sharded plane route
    through this single definition of "same config".

    Args:
        stored: The live algorithm recovered from durable state.
        requested: A freshly built algorithm from the caller's settings.
        where: What to name in the error (e.g. ``"shard 2"``).

    Raises:
        PersistenceError: when algorithm kind or config differ.
    """
    stored_state = algorithm_to_state(stored)
    requested_state = algorithm_to_state(requested)
    stored_key = (stored_state["algorithm"], stored_state["config"])
    requested_key = (requested_state["algorithm"], requested_state["config"])
    if stored_key != requested_key:
        raise PersistenceError(
            f"{where} was created with different engine settings "
            f"(stored {stored_key[0]} {stored_key[1]}, requested "
            f"{requested_key[0]} {requested_key[1]}); rerun with matching "
            "settings or a fresh state dir"
        )
