"""Experiment harness: configs, runner, metrics, per-figure regenerators."""

from repro.experiments.config import DATASETS, ExperimentConfig, Scale, make_config
from repro.experiments.metrics import StreamEvaluator, ThroughputMeter
from repro.experiments.recovery import CrashRecoveryReport, crash_recovery_run
from repro.experiments.reporting import ExperimentTable, format_table
from repro.experiments.runner import (
    RunResult,
    build_algorithm,
    make_stream,
    run_algorithm,
)

__all__ = [
    "DATASETS",
    "CrashRecoveryReport",
    "ExperimentConfig",
    "ExperimentTable",
    "RunResult",
    "Scale",
    "StreamEvaluator",
    "ThroughputMeter",
    "build_algorithm",
    "crash_recovery_run",
    "format_table",
    "make_config",
    "make_stream",
    "run_algorithm",
]
