"""Stream filters for topic-aware and location-aware SIM (Appendix A).

The paper extends SIM to topic-aware and location-aware variants by running
IC/SIC over a *sub-stream*:

* topic-aware — only actions whose topic set intersects the query topics;
* location-aware — only actions whose position falls inside the query region.

The window is a clock (``time ≥ t − N + 1``), so a sub-stream that kept
its original times would give a filtered query a window of the last ``N``
*stream* time units, however few relevant actions fell in them.  Filters
therefore *re-time* the surviving actions to 1, 2, 3, … (preserving order
and re-linking parents within the sub-stream): on the dense sub-stream a
filtered query's window is its last ``N`` relevant actions.  A response
whose parent was filtered out becomes a root of the sub-stream, which
matches the semantics of "influence among query-relevant actions".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, Mapping, Optional, Set

from repro.core.actions import Action

__all__ = ["Region", "topic_filter", "region_filter", "filter_stream"]


@dataclass(frozen=True, slots=True)
class Region:
    """An axis-aligned rectangular query region (location-aware SIM)."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError(f"degenerate region {self}")

    def contains(self, position: tuple) -> bool:
        """True when ``position = (x, y)`` lies inside the region."""
        x, y = position
        return self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y


def topic_filter(
    topics_of: Mapping[int, Set[str]], query_topics: Iterable[str]
) -> Callable[[Action], bool]:
    """Build a predicate keeping actions relevant to ``query_topics``.

    Args:
        topics_of: The topic oracle ``T_t`` — maps action time to its topics.
        query_topics: The query's topic set ``T_q``.
    """
    query: Set[str] = set(query_topics)
    if not query:
        raise ValueError("query topic set must not be empty")

    def predicate(action: Action) -> bool:
        return bool(topics_of.get(action.time, set()) & query)

    return predicate


def region_filter(
    position_of: Mapping[int, tuple], region: Region
) -> Callable[[Action], bool]:
    """Build a predicate keeping actions located inside ``region``.

    Args:
        position_of: Maps action time to its ``(x, y)`` position.
        region: The query region ``R``.
    """

    def predicate(action: Action) -> bool:
        position = position_of.get(action.time)
        return position is not None and region.contains(position)

    return predicate


def filter_stream(
    actions: Iterable[Action],
    predicate: Callable[[Action], bool],
) -> Iterator[Action]:
    """Yield the re-timed sub-stream of actions matching ``predicate``.

    Surviving actions get contiguous timestamps 1, 2, ...; parents are
    re-linked when the parent survived too, otherwise the action becomes a
    root of the sub-stream.
    """
    new_time_of: Dict[int, int] = {}
    next_time = 1
    for action in actions:
        if not predicate(action):
            continue
        new_parent: Optional[int] = None
        if not action.is_root:
            new_parent = new_time_of.get(action.parent)
        new_time_of[action.time] = next_time
        if new_parent is None:
            yield Action.root(next_time, action.user)
        else:
            yield Action.response(next_time, action.user, new_parent)
        next_time += 1
