"""Deterministic fault injection for chaos drills.

A :class:`~repro.faults.plan.FaultPlan` is a small, serializable script of
worker failures — *kill this shard when it is about to process slide s*,
*hang that call for t seconds*, *drop a reply*, *corrupt the WAL tail
before a restart*.  Plans are plain JSON, so every chaos test and every
``serve --fault-plan`` drill is seeded and exactly reproducible: the
same plan against the same stream produces the same incidents, the same
restarts, and the same merged answers.

The plan travels into shard workers through the backend host arguments
(:class:`~repro.faults.inject.WorkerFaultInjector` fires worker-side
faults) while the supervising facade applies storage faults
(:class:`~repro.faults.inject.FacadeFaultInjector` corrupts WAL tails
between kill and restart).  With no plan armed, none of the hooks cost
anything on the hot path.
"""

from repro.faults.inject import (
    FacadeFaultInjector,
    WorkerFaultInjector,
    WorkerKilled,
)
from repro.faults.plan import (
    FAULT_KINDS,
    Fault,
    FaultPlan,
)

__all__ = [
    "FAULT_KINDS",
    "FacadeFaultInjector",
    "Fault",
    "FaultPlan",
    "WorkerFaultInjector",
    "WorkerKilled",
]
