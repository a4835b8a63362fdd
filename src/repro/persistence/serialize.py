"""Explicit-schema codecs shared by the persistence plane.

Everything the state store writes is built from the ``to_state()``
documents the core classes expose: WAL records are plain JSON lines, and a
snapshot is one *container* — a JSON header holding the document's scalars
and, per numpy array leaf, a declared ``name / dtype / shape / offset /
crc32``, followed by the arrays as raw little-endian sections
(:func:`pack_container`; DESIGN.md tabulates the layout).  No live object
is ever pickled: each schema is explicit, carries a format version, and is
rebuilt through ``from_state()`` constructors, so stored state survives
process restarts, interpreter upgrades, and code review.

This module holds the small shared pieces:

* :class:`PersistenceError` — the error type for corrupt/incompatible
  stored state (a :class:`ValueError`, so existing CLI error handling
  reports it cleanly);
* :func:`encode_action` / :func:`decode_action` — the ``[time, user,
  parent]`` triple used by WAL records and window snapshots;
* :func:`algorithm_to_state` / :func:`algorithm_from_state` — dispatch
  between a framework instance and its serialized document, keyed by the
  document's ``"algorithm"`` tag (``ic``, ``sic``, ``greedy``, ``multi``);
* :func:`pack_container` / :func:`unpack_container` — the snapshot
  container codec.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

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
    "CONTAINER_VERSION",
    "pack_container",
    "unpack_container",
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
    stored_state = stored.config_state()
    requested_state = requested.config_state()
    stored_key = (stored_state["algorithm"], stored_state["config"])
    requested_key = (requested_state["algorithm"], requested_state["config"])
    if stored_key != requested_key:
        raise PersistenceError(
            f"{where} was created with different engine settings "
            f"(stored {stored_key[0]} {stored_key[1]}, requested "
            f"{requested_key[0]} {requested_key[1]}); rerun with matching "
            "settings or a fresh state dir"
        )


# -- the snapshot container ---------------------------------------------------

#: Version of the container layout (preamble + header + sections); the
#: envelope's ``format`` and each algorithm's state version ride inside.
CONTAINER_VERSION = 1

#: Preamble: magic, container version, header bytes, header CRC32.
_PREAMBLE = struct.Struct("<8sIII")
_MAGIC = b"REPROSNP"
#: Header placeholder standing where the document held an array.
_SECTION = "$section"
#: Section dtypes this build reads (all little-endian or single-byte).
_DTYPES = frozenset("|i1 <i2 <i4 <i8 |u1 <u2 <u4 <u8 <f8 |b1".split())


def _narrowed(array: np.ndarray) -> np.ndarray:
    """``array`` in the narrowest signed dtype its values fit (integers
    only; everything else keeps its width), contiguous and little-endian."""
    if array.dtype.kind == "i" and array.size:
        low, high = int(array.min()), int(array.max())
        for code in ("|i1", "<i2", "<i4"):
            info = np.iinfo(code)
            if info.min <= low and high <= info.max:
                return np.ascontiguousarray(array, dtype=code)
    return np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<"))


def pack_container(document: dict) -> List[bytes]:
    """Encode ``document`` as container chunks (preamble, header, sections).

    Arrays are lifted out of the document wherever they sit under dict
    keys (lists are header material and never searched); each becomes one
    8-byte-aligned section named by its dotted path.
    """
    sections: List[dict] = []
    chunks: List[bytes] = []

    def lift(node, path: str):
        if isinstance(node, dict):
            return {
                key: lift(value, f"{path}.{key}" if path else key)
                for key, value in node.items()
            }
        if not isinstance(node, np.ndarray):
            return node
        data = _narrowed(node)
        raw = data.tobytes() + b"\0" * (-data.nbytes % 8)
        sections.append(
            {
                "name": path,
                "dtype": data.dtype.str,
                "shape": list(data.shape),
                "offset": sum(map(len, chunks)),
                "crc32": zlib.crc32(raw),
            }
        )
        chunks.append(raw)
        return {_SECTION: len(chunks) - 1}

    header = json.dumps(
        {"document": lift(document, ""), "sections": sections},
        separators=(",", ":"),
    ).encode("utf-8")
    header += b" " * (-(_PREAMBLE.size + len(header)) % 8)
    preamble = _PREAMBLE.pack(
        _MAGIC, CONTAINER_VERSION, len(header), zlib.crc32(header)
    )
    return [preamble, header, *chunks]


def unpack_container(raw: bytes, name: str) -> Optional[Tuple[dict, List[dict]]]:
    """Decode a container into ``(document, section declarations)``.

    Arrays come back as read-only ``np.frombuffer`` views of ``raw``.
    Returns ``None`` for a *torn* file — too short, wrong magic, a header
    failing its CRC or not a JSON object, sections reaching past the end —
    which the snapshot store treats like any unparseable file.

    Raises:
        PersistenceError: naming ``name`` for a container version this
            build does not read, and naming the section too for a section
            that fails its CRC or declares an unknown dtype or a malformed
            extent — the file is whole, and wrong.
    """
    if len(raw) < _PREAMBLE.size:
        return None
    magic, version, header_bytes, header_crc = _PREAMBLE.unpack_from(raw)
    if magic != _MAGIC:
        return None
    if version != CONTAINER_VERSION:
        raise PersistenceError(
            f"snapshot {name} has container version {version!r}; "
            f"this build reads version {CONTAINER_VERSION}"
        )
    start = _PREAMBLE.size + header_bytes
    header_raw = raw[_PREAMBLE.size : start]
    if len(header_raw) != header_bytes or zlib.crc32(header_raw) != header_crc:
        return None
    try:
        header = json.loads(header_raw)
        document, sections = header["document"], header["sections"]
        labels = [section["name"] for section in sections]
    except (ValueError, TypeError, KeyError):
        return None
    arrays = []
    for section, label in zip(sections, labels):
        try:
            dtype, shape = section["dtype"], section["shape"]
            if dtype not in _DTYPES:
                raise ValueError(f"unknown dtype {dtype!r}")
            count = math.prod(shape)
            at = start + section["offset"]
            end = at + -(-count * int(dtype[2:]) // 8) * 8
            if at < start or min(shape, default=0) < 0:
                raise ValueError(f"malformed extent {shape} at {at}")
            if end > len(raw):
                return None
            if zlib.crc32(memoryview(raw)[at:end]) != section["crc32"]:
                raise ValueError("CRC32 mismatch (damaged on disk)")
            arrays.append(np.frombuffer(raw, dtype, count, at).reshape(shape))
        except (LookupError, TypeError, ValueError) as exc:
            raise PersistenceError(
                f"snapshot {name}: section {label!r}: {exc}"
            ) from exc

    def lower(node):
        if isinstance(node, dict):
            if len(node) == 1 and _SECTION in node:
                return arrays[node[_SECTION]]
            return {key: lower(value) for key, value in node.items()}
        return node

    try:
        return lower(document), sections
    except (LookupError, TypeError) as exc:
        raise PersistenceError(f"snapshot {name}: malformed header: {exc}") from exc

