#!/usr/bin/env python3
"""Benchmark entry point: ``python3 bench/run.py --workload NAME ...``.

See ``bench/README.md``.  Run from the root of a checkout; the program
under test is imported from ``src/`` and started as a child process.
"""

import os
import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent

if __name__ == "__main__":
    # Everything the run writes stays inside the checkout — including the
    # compiled kernel, which the program builds into the temp directory.
    tmp = BENCH_DIR / "out" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from harness.cli import main
    from harness.sut import adopt_orphans

    adopt_orphans()
    raise SystemExit(main())
