"""Experiment harness: configs, runner, metrics, per-figure regenerators."""

from repro.experiments.config import DATASETS, ExperimentConfig, Scale, make_config
from repro.experiments.metrics import StreamEvaluator, ThroughputMeter
from repro.experiments.reporting import ExperimentTable, format_table
from repro.experiments.runner import (
    RunResult,
    build_algorithm,
    make_stream,
    run_algorithm,
)

__all__ = [
    "DATASETS",
    "ExperimentConfig",
    "ExperimentTable",
    "RunResult",
    "Scale",
    "StreamEvaluator",
    "ThroughputMeter",
    "build_algorithm",
    "format_table",
    "make_config",
    "make_stream",
    "run_algorithm",
]
