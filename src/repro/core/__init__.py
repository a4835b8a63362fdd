"""Core of the reproduction: SIM queries, checkpoints, IC and SIC.

Public surface:

* :class:`~repro.core.actions.Action` and stream helpers;
* the :class:`~repro.core.diffusion.DiffusionForest` substrate and the
  influence indexes of :mod:`repro.core.influence_index`;
* :class:`~repro.core.ic.InfluentialCheckpoints` (Algorithm 1);
* :class:`~repro.core.sic.SparseInfluentialCheckpoints` (Algorithm 2);
* :class:`~repro.core.greedy.WindowedGreedy` (the ``1 − 1/e`` baseline);
* the checkpoint oracles package :mod:`repro.core.oracles`.
"""

from repro.core.actions import ROOT, Action
from repro.core.base import SIMAlgorithm, SIMResult
from repro.core.checkpoint import Checkpoint, OracleSpec
from repro.core.diffusion import ActionRecord, DiffusionForest
from repro.core.greedy import WindowedGreedy, greedy_seed_selection
from repro.core.ic import InfluentialCheckpoints
from repro.core.influence_index import (
    AppendOnlyInfluenceIndex,
    SuffixView,
    VersionedInfluenceIndex,
)
from repro.core.multi import MultiQueryEngine
from repro.core.sic import SparseInfluentialCheckpoints
from repro.core.stream import ListStream, batched, renumber, validate_stream

__all__ = [
    "MultiQueryEngine",
    "ROOT",
    "Action",
    "ActionRecord",
    "AppendOnlyInfluenceIndex",
    "SuffixView",
    "VersionedInfluenceIndex",
    "Checkpoint",
    "DiffusionForest",
    "InfluentialCheckpoints",
    "ListStream",
    "OracleSpec",
    "SIMAlgorithm",
    "SIMResult",
    "SparseInfluentialCheckpoints",
    "WindowedGreedy",
    "batched",
    "greedy_seed_selection",
    "renumber",
    "validate_stream",
]
