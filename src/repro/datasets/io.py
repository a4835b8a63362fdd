"""Reading and writing action streams on disk.

Real deployments replay logged events — the paper's own datasets were a
Kaggle dump plus API crawls.  Two interchange formats are supported:

* **JSONL** — one object per line: ``{"t": 3, "u": 7, "p": 1}`` (``p``
  omitted or ``null`` for roots).  Self-describing, diff-friendly.
* **CSV** — header ``time,user,parent`` with an empty parent for roots.
  Loads into spreadsheets and pandas directly.

Both readers are streaming (constant memory) and validate the stream
contract on the fly: the first line that is not a valid next action —
unparseable, a field that is not an int64 integer, or out of order —
raises a ``ValueError`` naming ``path:line``.  :func:`ingest_events`
converts *raw* logs — arbitrary ids, possibly out-of-order parents — into
a valid stream by renumbering, so a scraped Reddit/Twitter export can be
replayed through the frameworks with one call.
"""

from __future__ import annotations

import csv
import json
import pathlib
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple, Union

from repro.core.actions import ROOT, Action, int64_field_error
from repro.core.stream import contract_error

__all__ = [
    "write_jsonl",
    "read_jsonl",
    "write_csv",
    "read_csv",
    "ingest_events",
]

PathLike = Union[str, pathlib.Path]


def write_jsonl(actions: Iterable[Action], path: PathLike) -> int:
    """Write a stream as JSON lines; returns the number of actions."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for action in actions:
            record = {"t": action.time, "u": action.user}
            if not action.is_root:
                record["p"] = action.parent
            handle.write(json.dumps(record, separators=(",", ":")))
            handle.write("\n")
            count += 1
    return count


def _next_action(time, user, parent, last_time: int) -> Action:
    """The action decoded fields make (``parent`` ``None`` for a root), if
    it fits the int64 columns and can follow an action at ``last_time``.

    Raises:
        ValueError: saying why not.
    """
    if parent is None:
        parent = ROOT
    problem = int64_field_error(time, user, parent)
    if problem is None:
        action = Action(time, user, parent)
        problem = contract_error(action, last_time)
        if problem is None:
            return action
    raise ValueError(problem)


def read_jsonl(path: PathLike) -> Iterator[Action]:
    """Stream actions back from a JSONL file (validates on the fly).

    Raises:
        ValueError: ``"<path>:<line>: invalid action: ..."`` for the first
            line that is not a valid next action.
    """
    last_time = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if not (isinstance(record, dict) and "t" in record and "u" in record):
                    raise ValueError(
                        "malformed record: expected an object with 't' and 'u'"
                    )
                action = _next_action(
                    record["t"], record["u"], record.get("p"), last_time
                )
            except (ValueError, RecursionError) as exc:
                raise ValueError(
                    f"{path}:{line_number}: invalid action: {exc}"
                ) from exc
            last_time = action.time
            yield action


def write_csv(actions: Iterable[Action], path: PathLike) -> int:
    """Write a stream as ``time,user,parent`` CSV; returns the count."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", "user", "parent"])
        for action in actions:
            writer.writerow(
                [action.time, action.user, "" if action.is_root else action.parent]
            )
            count += 1
    return count


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"non-integer field {text[:40]!r}") from None


def read_csv(path: PathLike) -> Iterator[Action]:
    """Stream actions back from a CSV file (validates on the fly).

    Raises:
        ValueError: naming the file for a wrong header, and
            ``"<path>:<line>: invalid action: ..."`` for the first row that
            is not a valid next action.
    """
    last_time = 0
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["time", "user", "parent"]:
            raise ValueError(
                f"{path}: expected header 'time,user,parent', got {header}"
            )
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != 3:
                    raise ValueError(f"expected 3 columns, got {len(row)}")
                time, user, parent = (_integer(text) if text else None for text in row)
                action = _next_action(time, user, parent, last_time)
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{reader.line_num}: invalid action: {exc}"
                ) from exc
            last_time = action.time
            yield action


def ingest_events(
    events: Iterable[Tuple[Hashable, Optional[Hashable]]],
) -> Tuple[List[Action], Dict[Hashable, int]]:
    """Normalise a raw event log into a valid stream.

    Args:
        events: ``(user_id, parent_event_key)`` pairs in arrival order,
            where ``parent_event_key`` is the 0-based position of the parent
            event or any previously assigned external key — here: the
            position, matching typical "reply to message #i" exports.
            User ids may be arbitrary hashables (usernames, uuids).

    Returns:
        ``(actions, user_mapping)`` — the renumbered stream plus the
        external-user-id → integer mapping used.

    Events whose parent position is unknown or in the future are demoted to
    roots (matching how a crawl with missing ancestors behaves).
    """
    user_of: Dict[Hashable, int] = {}
    actions: List[Action] = []
    for position, (raw_user, parent_pos) in enumerate(events):
        user = user_of.setdefault(raw_user, len(user_of))
        time = position + 1
        if (
            isinstance(parent_pos, int)
            and 0 <= parent_pos < position
        ):
            actions.append(Action.response(time, user, parent_pos + 1))
        else:
            actions.append(Action.root(time, user))
    return actions, user_of
