"""``python -m repro.experiments.cli`` — regenerate the paper's figures.

Examples::

    python -m repro.experiments.cli table3
    python -m repro.experiments.cli fig7 --scale small --datasets syn-n
    python -m repro.experiments.cli fig9 --datasets twitter --csv out.csv
    python -m repro.experiments.cli all --scale tiny > RESULTS.md

The commands are the artefacts of
:data:`~repro.experiments.figures.REGISTRY` plus ``all``.  The output is
Markdown: a header naming the command line and seed, then per artefact the
paper's claim, the table (the paper's plot as series) and one PASS/FAIL
line per checked claim.  ``--datasets`` is intersected with each
artefact's own datasets; an artefact left with none is skipped with one
line on stderr.  ``all`` runs each shared sweep once.  ``--csv``
additionally writes machine-readable output.
"""

from __future__ import annotations

import argparse
import shlex
import sys
from typing import List, Optional

from repro.experiments import figures
from repro.experiments.config import DATASETS, Scale

__all__ = ["main", "build_parser"]

_COMMANDS = (*figures.REGISTRY, "all")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.cli",
        description=(
            "Regenerate the figures/tables of 'Real-Time Influence "
            "Maximization on Dynamic Social Streams' (VLDB 2017)."
        ),
    )
    parser.add_argument("command", choices=_COMMANDS, help="artefact to regenerate")
    parser.add_argument(
        "--scale",
        choices=[s.value for s in Scale],
        default=Scale.SMALL.value,
        help="experiment scale preset (default: small)",
    )
    parser.add_argument(
        "--datasets",
        nargs="+",
        choices=list(DATASETS),
        default=None,
        help="restrict to these datasets (default: the figure's own set)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="stream generation seed"
    )
    parser.add_argument(
        "--csv", type=str, default=None, help="also write the table(s) as CSV"
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also render each figure as an ASCII line chart",
    )
    return parser


def _render_charts(table) -> str:
    """ASCII charts for a figure table (one per dataset), or ''. """
    headers = table.headers
    if len(headers) != 4 or headers[2] != "algorithm":
        return ""
    x, y = headers[1], headers[3]
    blocks = []
    for dataset in sorted(set(table.column("dataset"))):
        try:
            chart = table.chart(x, y, "algorithm", filters={"dataset": dataset})
        except ValueError:
            continue
        blocks.append(f"[{dataset}] {y} vs {x}\n{chart}")
    return "\n\n".join(blocks)


def _indent(text: str) -> str:
    """``text`` as a Markdown code block (four-space indent)."""
    return "\n".join("    " + line if line else line for line in text.splitlines())


def _verdict(claim, failing) -> str:
    """One ``- PASS|FAIL`` line; a FAIL names the datasets it fails on."""
    timed = " [timed]" if claim.timed else ""
    if not failing:
        return f"- PASS{timed} {claim.sentence}"
    return f"- FAIL{timed} {claim.sentence} (fails on {', '.join(failing)})"


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    scale = Scale(args.scale)
    names = list(figures.REGISTRY) if args.command == "all" else [args.command]
    print(f"# Paper figures and tables: {args.command}, scale {scale.value}")
    print()
    print(
        f"Regenerated by `python -m repro.experiments.cli {shlex.join(argv)}` "
        f"(stream seed {args.seed}).  Throughput cells are wall-clock rates "
        "and differ from run to run; the PASS/FAIL lines are what a diff "
        "reads, and those marked [timed] read a throughput."
    )
    print()
    sweeps = {}
    tables = []
    for name in names:
        artefact = figures.REGISTRY[name]
        datasets = tuple(
            d for d in artefact.datasets if args.datasets is None or d in args.datasets
        )
        if not datasets:
            print(
                f"skipping {name}: defined on {', '.join(artefact.datasets)} only",
                file=sys.stderr,
            )
            continue
        key = (artefact.sweep, datasets)
        if key not in sweeps:
            sweeps[key] = artefact.sweep(datasets, scale=scale, seed=args.seed)
        table = sweeps[key][name]
        tables.append(table)
        print(f"## {name}")
        print()
        print(f"Paper: {artefact.paper}")
        print()
        print(_indent(table.render()))
        print()
        if args.chart:
            charts = _render_charts(table)
            if charts:
                print(_indent(charts))
                print()
        for claim, failing in artefact.check(table):
            print(_verdict(claim, failing))
        print()
    if args.csv:
        with open(args.csv, "w") as handle:
            for table in tables:
                handle.write(f"# {table.title}\n")
                handle.write(table.to_csv())
                handle.write("\n")
        print(f"wrote {args.csv}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
