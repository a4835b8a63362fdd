"""Command line of the benchmark (see ``bench/README.md``).

``run.py --workload NAME --seed N --seconds S --trace 0|1`` runs one
workload and prints every metric by name with its unit, then — as the
last line of standard output — one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.

``run.py calibrate --runs N`` repeats workloads under different seeds
and prints each metric's median, quartiles and spread; it is how the
bounds in ``BENCHMARK.json`` were chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

import numpy

from harness.engine import run_engine
from harness.service import run_service
from harness.specs import END_TO_END, PER_LAYER, WORKLOADS, EngineSpec
from harness.stats import spread_share
from harness.store import TrajectoryStore
from harness.sut import BENCH_DIR, OUT_DIR, split_cores
from harness.verify import kernel_compiled

__all__ = ["main", "run_workload", "report"]


def _stolen_seconds() -> float:
    """Seconds the hypervisor has kept this machine's CPUs from it so far."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload with the generator and the program on their cores."""
    spec = WORKLOADS[name]
    stolen_before = _stolen_seconds()
    generator_cores, program_cores = split_cores()
    inherited = os.sched_getaffinity(0)
    if generator_cores:
        os.sched_setaffinity(0, generator_cores)
    runner = run_engine if isinstance(spec, EngineSpec) else run_service
    try:
        outcome = runner(spec, seed, seconds, trace, program_cores)
    finally:
        os.sched_setaffinity(0, inherited)
    outcome["info"].update(
        {
            "cpus": os.cpu_count(),
            # Time the host took from the guest while the workload ran: a
            # run with seconds of it was measured on a disturbed machine.
            "host_steal_s": _stolen_seconds() - stolen_before,
            "generator_cores": sorted(generator_cores or ()),
            "program_cores": sorted(program_cores or ()),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "kernel.compiled": kernel_compiled(),
        }
    )
    return outcome


def report(outcome: dict, trace: bool) -> dict:
    """The result object the driver reads, from a workload's outcome."""
    catalogue = PER_LAYER if trace else END_TO_END
    measured = outcome["metrics"]
    return {
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": len(outcome["failures"]),
        "metrics": {
            entry[0]: {"value": measured[entry[0]], "unit": entry[1]}
            for entry in catalogue
        },
    }


def _run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    outcome = run_workload(name, seed, seconds, trace)
    result = report(outcome, trace)
    for failure in outcome["failures"][:20]:
        print(f"# failed: {failure}")
    print(f"# workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    for metric, entry in result["metrics"].items():
        print(f"{metric:<28}{entry['value']:>18.6f} {entry['unit']}")
    store = TrajectoryStore(OUT_DIR / "trajectory.sqlite")
    try:
        store.append(name, seed, seconds, trace, result, outcome["info"])
    finally:
        store.close()
    print("# info " + json.dumps(outcome["info"], sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


def _calibrate(names: List[str], runs: int, seed: int, seconds: float) -> int:
    """Repeat each workload ``runs`` times in fresh processes; print spreads."""
    status = 0
    for name in names:
        samples: Dict[str, List[float]] = {}
        units: Dict[str, str] = {}
        flagged = 0
        for index in range(runs):
            completed = subprocess.run(
                [
                    sys.executable, str(BENCH_DIR / "run.py"),
                    "--workload", name, "--seed", str(seed + index),
                    "--seconds", f"{seconds:g}", "--trace", "0",
                ],
                capture_output=True, text=True, timeout=600,
            )
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                print(f"{name} seed {seed + index}: run failed\n{completed.stderr}")
                status = 1
                continue
            for line in lines:
                if line.startswith("# info "):
                    info = json.loads(line[len("# info "):])
                    if info["flags"]:
                        flagged += 1
                        print(f"{name} seed {seed + index}: {info['flags']}")
            for metric, entry in json.loads(lines[-1])["metrics"].items():
                samples.setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
        print(f"\n== {name}: {runs} runs, {flagged} flagged")
        print(
            f"{'metric':<18}{'median':>14}{'q1':>14}{'q3':>14}"
            f"{'IQR/median':>12}  unit"
        )
        for metric, values in samples.items():
            if len(values) < 2:
                continue
            first, _, third = statistics.quantiles(values, n=4)
            print(
                f"{metric:<18}{statistics.median(values):>14.4f}{first:>14.4f}"
                f"{third:>14.4f}{spread_share(values):>12.4f}  {units[metric]}"
            )
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "command", nargs="?", choices=("run", "calibrate"), default="run"
    )
    parser.add_argument(
        "--workload", choices=(*WORKLOADS, "all"), default="all"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--runs", type=int, default=10, help="calibrate: runs per workload"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.command == "calibrate":
        return _calibrate(names, args.runs, args.seed, args.seconds)
    status = 0
    for name in names:
        status = max(status, _run_one(name, args.seed, args.seconds, bool(args.trace)))
    return status
