"""Make ``harness`` (and ``repro``) importable for the harness self-tests.

``bench/`` goes to the *end* of ``sys.path``: it holds a ``tests``
directory too, and the repo's own suite imports ``tests.conftest`` — that
name must keep resolving to the top-level ``tests/`` first.
"""

import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent

for path in (BENCH_DIR.parent / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.append(str(path))
