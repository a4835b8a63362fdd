"""The compiled kernel under AddressSanitizer + UBSan, warnings as errors.

``_ckernel.c`` writes through raw pointers into numpy-owned arrays — the
event's admissions, retirement's seed-list walk and compaction's in-place
moves — and owns one allocation, the pair store, whose rows and intern
maps it grows, trims and reallocates, and which snapshots export from and
restores load into.  A write one element past a row is silent in a normal
build.  This test runs the object-plane equivalence matrix, the
column-lifecycle history, the pair-store property (with its check that a
dropped kernel's finalizer freed the store, which leak detection being off
would otherwise hide), the store-view facade against the object plane's
suffix views, the kernel snapshot round trip and the state dir moved
between planes (export, load and ``suffix``) and the malformed-section
refusals in a child process
whose kernel is built with ``-Wall -Wextra -Werror -fsanitize=address,
undefined -fno-sanitize-recover`` — by patching the loader's flag list in
that child, so the product gains no switch — with the ASan runtime
preloaded (it must come first in the process, before python's own
allocator use) and leak detection off (the interpreter never frees
everything).  Any report aborts the child; the test shows its first lines
(pytest runs uncaptured there, or the report would die with the capture).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

SANITIZE = [
    "-Wall", "-Wextra", "-Werror",
    "-fsanitize=address,undefined", "-fno-sanitize-recover",
]

CHILD = """
import sys
import pytest
from repro.core.oracles import _ckernel
_ckernel._CFLAGS += {flags!r}
assert _ckernel.load() is not None, _ckernel.unavailable_reason
sys.exit(pytest.main(["-x", "-q", "-s", "-p", "no:cacheprovider", *{tests!r}]))
"""


def asan_runtime() -> str:
    """Path of the compiler's ``libasan.so``; skips, saying why, without one."""
    if os.environ.get("REPRO_NO_CKERNEL"):
        pytest.skip("REPRO_NO_CKERNEL is set: compiled kernel disabled")
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")
    found = subprocess.run(
        ["cc", "-print-file-name=libasan.so"], capture_output=True, text=True
    ).stdout.strip()
    # A compiler without the runtime echoes the bare name back.
    if not os.path.isfile(found):
        pytest.skip(f"cc has no AddressSanitizer runtime (libasan.so -> {found!r})")
    return os.path.realpath(found)


def test_kernel_is_clean_under_asan_and_ubsan(tmp_path):
    runtime = asan_runtime()
    tests = [
        "tests/core/test_columnar_equivalence.py::test_columnar_object_equivalence",
        "tests/core/test_column_lifecycle.py",
        "tests/core/test_pair_store.py",
        "tests/core/test_store_view.py",
        "tests/persistence/test_columnar_roundtrip.py::"
        "test_malformed_kernel_section_is_refused_by_field",
        "tests/persistence/test_columnar_roundtrip.py::"
        "test_columnar_state_roundtrip_continues_identically",
        "tests/persistence/test_columnar_roundtrip.py::"
        "test_state_dir_moves_between_planes",
    ]
    environment = {
        **os.environ,
        "LD_PRELOAD": runtime,
        "ASAN_OPTIONS": "detect_leaks=0",
        "PYTHONPATH": os.pathsep.join([str(REPO / "src"), str(REPO)]),
        # Its own cache root: the sanitized library must not outlive the test.
        "TMPDIR": str(tmp_path),
    }
    child = subprocess.run(
        [sys.executable, "-c", CHILD.format(flags=SANITIZE, tests=tests)],
        cwd=REPO, env=environment, capture_output=True, text=True, timeout=900,
    )
    said = "\n".join(
        child.stderr.splitlines()[:12] + child.stdout.splitlines()[-12:]
    )
    assert child.returncode == 0, said
    # The matrix and the history ran on the kernel rather than skipping.
    assert " passed" in child.stdout and "skipped" not in child.stdout, said
