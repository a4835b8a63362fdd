"""Sharded multi-core ingest plane: influencer-partitioned engines.

One writer loop over one engine leaves every other core idle.  This
package splits the *write plane* into ``S`` shard engines — each a full, independently durable
IC/SIC instance that owns the influencer users a pluggable
:class:`~repro.sharding.partition.Partitioner` assigns to it — and keeps
the *read plane* global through a merge-on-read top-k
(:func:`~repro.sharding.merge.merge_shard_answers`).

The division of labour:

* :mod:`repro.sharding.partition` — who owns which influencer
  (``hash(user) % S`` by default, pluggable and serializable);
* :mod:`repro.sharding.merge` — combining per-shard candidate top-k lists
  into one global answer (exact lazy greedy over coverage sets for
  modular influence functions, a bounded best-shard approximation
  otherwise);
* :mod:`repro.sharding.engine` — the :class:`~repro.sharding.engine.ShardedEngine`
  facade exposing the familiar engine API (``process``/``query``/``now``/
  ``close``): it resolves each slide's diffusion chains once
  (:mod:`repro.sharding.resolver`, durable under ``resolver/``) and routes
  each shard only its owned influence records, with per-shard
  ``shard-<i>/`` WAL+snapshot directories for parallel, independent crash
  recovery;
* :mod:`repro.sharding.backends` — the shard hosts and the in-process
  and ``multiprocessing`` worker backends that run them;
* :mod:`repro.sharding.supervisor` — the
  :class:`~repro.sharding.supervisor.ShardSupervisor` running every
  fan-out under per-call timeouts, in-place restart with exponential
  backoff (detect → back off → heal → degrade → escalate), and the
  degraded-read accounting surfaced through ``/metrics`` and ``/healthz``.
"""

from repro.sharding.engine import (
    ShardedBoard,
    ShardedEngine,
    ShardingError,
)
from repro.sharding.supervisor import ShardSupervisor
from repro.sharding.merge import SeedCandidate, ShardAnswer, merge_shard_answers
from repro.sharding.partition import (
    ConstantPartitioner,
    HashPartitioner,
    Partitioner,
    ShardAssignment,
    assignment_from_state,
    partitioner_from_state,
)

__all__ = [
    "Partitioner",
    "HashPartitioner",
    "ConstantPartitioner",
    "ShardAssignment",
    "partitioner_from_state",
    "assignment_from_state",
    "SeedCandidate",
    "ShardAnswer",
    "merge_shard_answers",
    "ShardedEngine",
    "ShardedBoard",
    "ShardingError",
    "ShardSupervisor",
]
