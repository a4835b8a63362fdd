#!/usr/bin/env python
"""Benchmark regression gate: fail CI when tracked throughput drops.

Compares a fresh ``bench_smoke.py`` run (typically CI's ``--quick`` run)
against the committed baseline ``BENCH_core_ops.json`` and exits non-zero
when any tracked throughput metric dropped by more than ``--tolerance``
(default 30%, generous enough for shared-runner noise while still
catching real hot-path regressions)::

    PYTHONPATH=src python scripts/bench_smoke.py --quick --output /tmp/b.json
    python scripts/bench_check.py --baseline BENCH_core_ops.json \\
        --current /tmp/b.json

Tracked metrics are every ``*_per_sec`` figure in the baseline (rates,
where higher is better; latencies and byte sizes are reported but never
gated — they scale with ``--quick``'s shorter stream) plus the floor
*ratios* in :data:`GATED_SUFFIXES` — ``shard_scaling.implied_speedup_at_s4``
(the routed-ingest pipeline bottleneck vs the unsharded engine) and
``ic_n1000_l1.speedup_vs_object_plane``.  Those live in sections whose
raw sub-second rates are too noisy to gate, but the ratio is the signal:
it cancels the machine speed and still catches a scaling or kernel
regression.  A tracked metric missing from the current run fails the gate
too: silently losing coverage is itself a regression.

``--load-gen REPORT`` additionally holds a ``scripts/load_gen.py``
``--output`` report against the baseline's ``service_ingest`` rate — the
sharded service smoke reuses it as an end-to-end throughput floor.
"""

from __future__ import annotations

import argparse
import json
import pathlib

__all__ = ["collect_rates", "compare", "main"]

#: Metric-name suffixes the gate tracks: throughput rates plus the floor
#: ratios whose sections are otherwise too noisy to gate rate-by-rate
#: (the ratio cancels machine speed, so it stays comparable).
GATED_SUFFIXES = (
    "_per_sec",
    "implied_speedup_at_s4",
    "speedup_vs_object_plane",
)


def collect_rates(
    document: dict, prefix: str = "", suffixes=GATED_SUFFIXES
) -> dict:
    """Flatten every tracked metric into ``{dotted.path: value}``."""
    rates = {}
    for key, value in document.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            rates.update(collect_rates(value, path, suffixes))
        elif isinstance(value, (int, float)) and any(
            key.endswith(suffix) for suffix in suffixes
        ):
            rates[path] = float(value)
    return rates


#: Noise-exempt sections: *rates* derived from sub-second timings whose
#: run-to-run swing exceeds any reasonable tolerance.  They stay in the
#: report but never fail CI — only their floor ratios (see
#: :data:`GATED_SUFFIXES`) are gated.
DEFAULT_IGNORED_PREFIXES = ("shard_scaling", "chaos_recovery")


def _is_gated(path: str, ignored, hard_ignored) -> bool:
    """Whether a tracked metric can fail the gate.

    ``hard_ignored`` prefixes exempt everything beneath them (used for
    hardware-dependent sections under a CPU-count mismatch); ``ignored``
    prefixes exempt only the noisy raw rates, not the floor ratios.
    """
    if any(path.startswith(prefix) for prefix in hard_ignored):
        return False
    if path.endswith("_per_sec") and any(
        path.startswith(prefix) for prefix in ignored
    ):
        return False
    return True


def compare(
    baseline: dict,
    current: dict,
    tolerance: float,
    ignored_prefixes=DEFAULT_IGNORED_PREFIXES,
    hard_ignored_prefixes=(),
) -> list:
    """Regressions of ``current`` vs ``baseline``: ``[(path, base, now), ...]``.

    A metric regresses when it is missing from the current run or when
    ``now < base * (1 - tolerance)``.  Metrics only present in the current
    run never fail the gate (new coverage is welcome before the baseline
    is refreshed).  Raw rates under ``ignored_prefixes`` are reported but
    never gated — their floor ratios still are — while everything under
    ``hard_ignored_prefixes`` is fully exempt.
    """
    baseline_rates = collect_rates(baseline)
    current_rates = collect_rates(current)
    ignored = tuple(ignored_prefixes)
    hard_ignored = tuple(hard_ignored_prefixes)
    if baseline.get("cpus") != current.get("cpus"):
        # The sharded socket rate is a hardware property (a 4-shard
        # process engine on 1 CPU runs *below* the single rate; on 4+
        # cores above it).  Across machines with different core counts
        # the comparison is meaningless, so it is only gated like-for-like.
        hard_ignored += ("service_ingest_sharded",)
    regressions = []
    for path, base in sorted(baseline_rates.items()):
        if not _is_gated(path, ignored, hard_ignored):
            continue
        now = current_rates.get(path)
        if now is None:
            regressions.append((path, base, None))
        elif now < base * (1.0 - tolerance):
            regressions.append((path, base, now))
    return regressions


def main(argv=None) -> int:
    """Run the gate; returns the process exit code (0 = no regression)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_core_ops.json",
        help="committed benchmark baseline (default: repo BENCH_core_ops.json)",
    )
    parser.add_argument(
        "--current",
        type=pathlib.Path,
        default=None,
        help="fresh bench_smoke.py report to hold against the baseline",
    )
    parser.add_argument(
        "--load-gen",
        type=pathlib.Path,
        default=None,
        help="a load_gen.py --output report; its actions_per_sec is held "
        "against the baseline's service_ingest rate",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional drop before the gate fails (default 0.30)",
    )
    args = parser.parse_args(argv)
    if args.current is None and args.load_gen is None:
        parser.error("nothing to check: pass --current and/or --load-gen")
    if not 0.0 <= args.tolerance < 1.0:
        parser.error(f"tolerance must be in [0, 1), got {args.tolerance}")

    baseline = json.loads(args.baseline.read_text())
    failed = False

    if args.current is not None:
        current = json.loads(args.current.read_text())
        hard_ignored = ()
        if baseline.get("cpus") != current.get("cpus"):
            hard_ignored = ("service_ingest_sharded",)
        regressions = compare(
            baseline,
            current,
            args.tolerance,
            hard_ignored_prefixes=hard_ignored,
        )
        tracked = collect_rates(baseline)
        current_rates = collect_rates(current)
        print(
            f"bench gate: {len(tracked)} tracked rates, tolerance "
            f"{args.tolerance:.0%} (baseline {args.baseline})"
        )
        for path, base in sorted(tracked.items()):
            now = current_rates.get(path)
            status = "MISSING" if now is None else f"{now:>12,.1f}"
            if not _is_gated(path, DEFAULT_IGNORED_PREFIXES, hard_ignored):
                marker = "  (not gated)"
            elif (path, base, now) in regressions:
                marker = "  !! REGRESSION"
            else:
                marker = ""
            print(f"  {path:<55} {base:>12,.1f} -> {status}{marker}")
        if regressions:
            failed = True
            print(f"FAIL: {len(regressions)} tracked rate(s) regressed >30%"
                  if args.tolerance == 0.30
                  else f"FAIL: {len(regressions)} tracked rate(s) regressed")

    if args.load_gen is not None:
        report = json.loads(args.load_gen.read_text())
        rate = float(report["actions_per_sec"])
        base = float(baseline["service_ingest"]["actions_per_sec"])
        floor = base * (1.0 - args.tolerance)
        verdict = "ok" if rate >= floor else "REGRESSION"
        print(
            f"load_gen service rate: {rate:,.1f} actions/s vs baseline "
            f"{base:,.1f} (floor {floor:,.1f}) -> {verdict}"
        )
        if rate < floor:
            failed = True

    if failed:
        print("bench gate failed")
        return 1
    print("bench gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
