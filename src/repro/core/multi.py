"""MultiQueryEngine: many SIM queries behind one ingest loop.

Real deployments rarely run a single query: a monitoring dashboard tracks
several ``k``/``β`` settings, per-topic campaigns, and per-region boards at
once.  The engine is the single place the stream is fed; registered
queries — plain :class:`~repro.core.base.SIMAlgorithm` instances and
filtered sub-stream queries from :mod:`repro.influence.queries` — all
advance together, and one call answers the whole board.

The engine is also the serving plane's write-side contract
(:mod:`repro.service`): it exposes ``now`` so a durability wrapper can
validate stream order, *publish hooks* fired with the fresh board after
every slide (the service swaps its immutable answer cache inside the
hook, at the slide boundary), per-query stats for ``/metrics``, and an
explicit ``to_state``/``from_state`` schema so a whole board of queries
can ride one snapshot + WAL.

(Each framework already shares ancestor resolution across its own
checkpoints through its diffusion forest; the engine adds the operational
layer: uniform feeding, naming, and collective answers.)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.core.actions import Action, ActionBatch
from repro.core.base import (
    STATE_FORMAT_VERSION,
    SIMAlgorithm,
    SIMResult,
    check_state_header,
)
from repro.core.oracles import _ckernel
from repro.influence.queries import FilteredSIM

__all__ = ["MultiQueryEngine"]

#: Signature of an answer publication hook: called after every processed
#: slide with the whole fresh board (query name -> answer).
PublishHook = Callable[[Dict[str, SIMResult]], None]


class MultiQueryEngine:
    """Fan one action stream out to many named SIM queries."""

    def __init__(self) -> None:
        self._algorithms: Dict[str, SIMAlgorithm] = {}
        self._filtered: Dict[str, FilteredSIM] = {}
        self._actions_processed = 0
        self._now = 0
        self._publish_hooks: List[PublishHook] = []

    # -- board management --------------------------------------------------

    def add(self, name: str, query) -> "MultiQueryEngine":
        """Register a SIM algorithm or a FilteredSIM under ``name``.

        Returns self for chaining.

        Raises:
            ValueError: when ``name`` is already registered (the message
                carries the offending name).
            TypeError: when ``query`` is neither a SIMAlgorithm nor a
                FilteredSIM.
        """
        if name in self._algorithms or name in self._filtered:
            raise ValueError(f"query name {name!r} already registered")
        if isinstance(query, FilteredSIM):
            self._filtered[name] = query
        elif isinstance(query, SIMAlgorithm):
            self._algorithms[name] = query
        else:
            raise TypeError(
                f"expected SIMAlgorithm or FilteredSIM, got {type(query).__name__}"
            )
        return self

    def remove(self, name: str):
        """Unregister and return the query behind ``name``.

        The query keeps its state, so a board manager can detach a query,
        keep answering it elsewhere, or re-``add`` it later.

        Raises:
            KeyError: when ``name`` is not registered (the message carries
                the offending name and the registered board).
        """
        if name in self._algorithms:
            return self._algorithms.pop(name)
        if name in self._filtered:
            return self._filtered.pop(name)
        raise KeyError(f"unknown query {name!r}; registered: {self.names()}")

    def names(self) -> List[str]:
        """Registered query names, sorted."""
        return sorted(list(self._algorithms) + list(self._filtered))

    def get(self, name: str):
        """The registered query object behind ``name`` (without detaching).

        Raises:
            KeyError: when ``name`` is not registered (the message carries
                the offending name and the registered board).
        """
        if name in self._algorithms:
            return self._algorithms[name]
        if name in self._filtered:
            return self._filtered[name]
        raise KeyError(f"unknown query {name!r}; registered: {self.names()}")

    def __contains__(self, name: str) -> bool:
        """True when ``name`` is a registered query."""
        return name in self._algorithms or name in self._filtered

    def __len__(self) -> int:
        """Number of registered queries."""
        return len(self._algorithms) + len(self._filtered)

    # -- introspection -----------------------------------------------------

    @property
    def actions_processed(self) -> int:
        """Actions fanned out so far."""
        return self._actions_processed

    @property
    def now(self) -> int:
        """Timestamp of the latest processed action (0 before any)."""
        return self._now

    def query_stats(self) -> Dict[str, dict]:
        """Per-query operational stats (the serving plane's ``/metrics``).

        Plain algorithms report the actions they consumed and their stream
        clock; filtered queries additionally report how many observed
        actions matched their predicate (the sub-stream selectivity).
        """
        stats: Dict[str, dict] = {}
        for name, algorithm in self._algorithms.items():
            stats[name] = {
                "kind": "algorithm",
                "actions_processed": algorithm.actions_processed,
                "time": algorithm.now,
            }
            self._add_plane_stats(stats[name], algorithm)
        for name, query in self._filtered.items():
            stats[name] = {
                "kind": "filtered",
                "observed": query.observed,
                "matched": query.matched,
                "actions_processed": query.algorithm.actions_processed,
                "time": query.algorithm.now,
            }
            self._add_plane_stats(stats[name], query.algorithm)
        return dict(sorted(stats.items()))

    @staticmethod
    def _add_plane_stats(entry: dict, algorithm) -> None:
        """Oracle-plane counters (columnar kernel vs object fallback)."""
        columnar = getattr(algorithm, "columnar", None)
        if columnar is None:
            return
        entry["columnar"] = columnar
        kernel = getattr(algorithm, "columnar_kernel", None)
        if kernel is not None:
            entry["kernel"] = kernel.stats()
        elif _ckernel.unavailable_reason:
            # Process-wide: why no engine here can leave the object plane.
            entry["ckernel_unavailable"] = _ckernel.unavailable_reason

    # -- publication -------------------------------------------------------

    def add_publish_hook(self, hook: PublishHook) -> None:
        """Call ``hook(answers)`` with the fresh board after every slide.

        Hooks run synchronously at the end of :meth:`process`, so a
        subscriber sees every slide boundary exactly once and in order —
        this is how the serving plane swaps its immutable answer cache
        without ever exposing mid-slide state.  Registering at least one
        hook makes every ``process`` call also answer the whole board.
        """
        self._publish_hooks.append(hook)

    # -- streaming ---------------------------------------------------------

    def process(self, batch: Sequence[Action]) -> None:
        """Feed one slide batch to every registered query (each algorithm
        takes the one :class:`~repro.core.actions.ActionBatch`)."""
        batch = ActionBatch.of(batch)
        if not batch:
            return
        for algorithm in self._algorithms.values():
            algorithm.process(batch)
        for query in self._filtered.values():
            for action in batch:
                query.observe(action)
        self._actions_processed += len(batch)
        self._now = batch.time[-1]
        if self._publish_hooks:
            answers = self.query_all()
            for hook in self._publish_hooks:
                hook(answers)

    def supports_resolved(self) -> bool:
        """Whether every registered query can absorb pre-resolved slides.

        Filtered queries observe raw actions (their predicates run on the
        action, not its influence records), so a board holding any cannot
        be sharded; likewise any algorithm that keeps the base-class
        refusal of ``_on_slide_resolved``.
        """
        if self._filtered:
            return False
        return all(
            type(a)._on_slide_resolved is not SIMAlgorithm._on_slide_resolved
            for a in self._algorithms.values()
        )

    def apply_resolved(self, resolved) -> None:
        """Feed one pre-resolved slide to every registered query.

        The routed-shard counterpart of :meth:`process`: the facade
        resolved the slide once and routed this shard its records.
        Boards holding filtered queries refuse — those need the raw
        actions (see :meth:`supports_resolved`).
        """
        if resolved.count == 0:
            return
        if self._filtered:
            raise ValueError(
                "filtered queries need raw actions and cannot run on "
                f"routed (pre-resolved) slides: {sorted(self._filtered)}; "
                "run this board unsharded"
            )
        for algorithm in self._algorithms.values():
            algorithm.apply_resolved(resolved)
        self._actions_processed += len(resolved)
        self._now = resolved.last
        if self._publish_hooks:
            answers = self.query_all()
            for hook in self._publish_hooks:
                hook(answers)

    def query(self, name: str) -> SIMResult:
        """Answer one registered query."""
        if name in self._algorithms:
            return self._algorithms[name].query()
        if name in self._filtered:
            return self._filtered[name].query()
        raise KeyError(f"unknown query {name!r}; registered: {self.names()}")

    def query_all(self) -> Dict[str, SIMResult]:
        """Answer every registered query."""
        return {name: self.query(name) for name in self.names()}

    def query_candidates(self, name: str):
        """Seed-merge hook for one registered query (sharded read plane).

        Delegates to the algorithm's
        :meth:`~repro.core.base.SIMAlgorithm.query_candidates`; filtered
        queries (and algorithms without the hook) return ``None``, which
        makes the sharded merge fall back to the best single shard's
        answer for that query.

        Raises:
            KeyError: when ``name`` is not registered.
        """
        if name in self._filtered:
            return None
        if name not in self._algorithms:
            raise KeyError(
                f"unknown query {name!r}; registered: {self.names()}"
            )
        return self._algorithms[name].query_candidates()

    # -- persistence -------------------------------------------------------

    def config_state(self) -> dict:
        """The ``multi`` tag plus every member's own ``config_state``.

        Filtered queries are rejected: their predicates are arbitrary
        callables with no durable representation, so a board holding them
        must run without a state dir (or keep the filtered queries outside
        the durable engine).
        """
        if self._filtered:
            raise ValueError(
                "filtered queries are not serializable (their predicates "
                "are arbitrary callables): "
                f"{sorted(self._filtered)}; remove them or run without "
                "durable state"
            )
        config = {}
        for name, algorithm in self._algorithms.items():
            config_state = getattr(algorithm, "config_state", None)
            if config_state is None:
                raise ValueError(
                    f"query {name!r} ({type(algorithm).__name__}) does not "
                    "support state serialization (no to_state hook)"
                )
            config[name] = config_state()
        return {"algorithm": "multi", "config": {"queries": config}}

    def to_state(self) -> dict:
        """Explicit state of the whole board (no pickle): :meth:`config_state`
        plus every registered algorithm's own ``to_state`` document."""
        return {
            "format": STATE_FORMAT_VERSION,
            **self.config_state(),
            "queries": {
                name: algorithm.to_state()
                for name, algorithm in self._algorithms.items()
            },
            "now": self._now,
            "actions_processed": self._actions_processed,
        }

    @classmethod
    def from_state(cls, state: dict, loader) -> "MultiQueryEngine":
        """Rebuild a board from :meth:`to_state` output.

        Args:
            state: The serialized document.
            loader: Member-state loader (normally
                :func:`repro.persistence.serialize.algorithm_from_state`);
                injected so :mod:`repro.core` never imports the
                persistence plane.
        """
        check_state_header(state, "multi")
        engine = cls()
        for name, query_state in state["queries"].items():
            engine.add(name, loader(query_state))
        engine._now = state["now"]
        engine._actions_processed = state["actions_processed"]
        return engine
