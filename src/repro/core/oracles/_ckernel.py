"""Loader for the compiled columnar event kernel.

``_ckernel.c`` is compiled on first use with the system C compiler into a
shared object addressed by its content — the source bytes *and* the build
flags, so changing either builds a new library instead of loading a stale
one — and loaded via ctypes.  When that cannot
happen — ``REPRO_NO_CKERNEL`` set, no ``cc``, a failed build, an unsafe
cache directory, a library that does not load — :func:`load` returns
``None``, names why in :data:`unavailable_reason` (and, unless the
environment switch asked for it, in one ``RuntimeWarning``), engines run
the object plane and diffusion forests resolve through
``DiffusionForest.add``: same answers and snapshots, the per-checkpoint
and per-action cost.

The library is built into and loaded from ``<tmp>/repro-ckernel-<euid>/``,
created ``0o700``, and only while that directory and the ``.so`` are owned
by the effective user and writable by nobody else: a predictable name
directly under a world-writable directory could be planted by any local
user and would run inside the server and every forked shard worker.

The build deliberately avoids ``-ffast-math`` and forces
``-ffp-contract=off``: the kernel's contract is bit-identical float
results versus the CPython object plane, and FMA contraction or unsafe
math would silently break that.  No flag names a CPU, so the library
built on a box runs on any box of its architecture.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import struct
import subprocess
import tempfile
import warnings
from pathlib import Path
from typing import Optional

__all__ = [
    "EventCtx",
    "Export",
    "Resolve",
    "RESOLVE_INPUTS",
    "load",
    "unavailable_reason",
    "ENV_DISABLE",
]

#: Set this environment variable (to any non-empty value) to keep every
#: engine in the process on the object plane and every diffusion forest on
#: its per-action ``add``.
ENV_DISABLE = "REPRO_NO_CKERNEL"

_SOURCE = Path(__file__).with_name("_ckernel.c")
_CFLAGS = [
    "-O3",
    "-shared",
    "-fPIC",
    # Exactness: results must match CPython float arithmetic bit-for-bit.
    "-fno-fast-math",
    "-ffp-contract=off",
]

_lib: Optional[ctypes.CDLL] = None
_tried = False
#: Why :func:`load` returned ``None`` (``None`` until it has, and after a
#: successful load); surfaced per query by ``MultiQueryEngine.query_stats``.
unavailable_reason: Optional[str] = None


class EventCtx(ctypes.Structure):
    """Mirror of the ``EventCtx`` struct in ``_ckernel.c`` (all 8-byte
    fields, so the layouts agree without explicit packing)."""

    _fields_ = [
        (name, ctypes.c_int64)
        for name in "cap jcap kcap wcap k bar_mode urows ucap lcap".split()
    ] + [
        (name, ctypes.c_double) for name in ("uniform", "base", "log_base")
    ] + [
        (name, ctypes.c_void_p)
        for name in (
            "m best floor_ rthresh blow bhigh starts ival ibar iguess inseed "
            "iseed_ids best_ids best_ns dirtyf icov mem2d cache2d row_user "
            "lane_user tally rec_user rec_time rec_fan rec_infl store work "
            "counts"
        ).split()
    ]


class Export(ctypes.Structure):
    """Mirror of ``export_state``'s ``Export`` struct in ``_ckernel.c``."""

    _fields_ = [
        (name, ctypes.c_void_p)
        for name in "users counts v t crow ccol cval mrow mcol mval".split()
    ] + [
        (name, ctypes.c_int64)
        for name in "room nusers npairs ncache nmember".split()
    ]


class Resolve(ctypes.Structure):
    """Mirror of ``resolve_slide``'s ``Resolve`` struct in ``_ckernel.c``:
    a diffusion forest's columns, one slide's actions and its records."""

    _fields_ = [
        (name, ctypes.c_void_p) for name in "time depth bounds infl".split()
    ] + [
        (name, ctypes.c_int64) for name in "first nrows retention oldest".split()
    ] + [
        (name, ctypes.c_void_p) for name in "a_time a_user a_parent".split()
    ] + [("n", ctypes.c_int64)] + [
        (name, ctypes.c_void_p) for name in "dep fan ends links stored".split()
    ] + [
        (name, ctypes.c_int64)
        for name in "room npairs truncated late bad".split()
    ]


#: ``Resolve``'s input fields, ``time`` through ``room`` (all but the four
#: outputs), as one struct format: a caller fills a fresh ``Resolve()``
#: with one ``pack_into``, which costs half of passing them to the
#: constructor.
RESOLVE_INPUTS = struct.Struct(
    "".join("P" if kind is ctypes.c_void_p else "q" for _, kind in Resolve._fields_[:-4])
)


def _build(source: Path, out: Path) -> None:
    """Compile ``source`` to ``out`` (atomically: concurrent first users
    each rename their own finished file); ``OSError`` names a failure."""
    if shutil.which("cc") is None:
        raise OSError("no cc on PATH")
    tmp = out.with_name(f"{out.name}.{os.getpid()}.tmp")
    cmd = ["cc", *_CFLAGS, "-o", str(tmp), str(source), "-lm"]
    try:
        subprocess.run(
            cmd, check=True, capture_output=True, timeout=120
        )
        os.chmod(tmp, 0o700)  # whatever the umask: see _require_private
        os.replace(tmp, out)
    except (OSError, subprocess.SubprocessError) as error:
        tmp.unlink(missing_ok=True)
        stderr = getattr(error, "stderr", None) or b""
        said = stderr.decode(errors="replace").strip().splitlines()
        raise OSError(f"build failed: {said[0] if said else error}") from error


def _require_private(cache: Path, path: Path) -> None:
    """``OSError`` unless only the effective user could have written
    ``path`` (``lstat``: a symlink's own mode is world-writable)."""
    status = os.lstat(path)
    if status.st_uid != os.geteuid() or status.st_mode & 0o022:
        raise OSError(
            f"unsafe cache directory {cache}: {path.name} has owner uid "
            f"{status.st_uid} and mode {status.st_mode & 0o7777:o}"
        )


def _library_name() -> str:
    """The cached library's file name: a digest of source and flags."""
    try:
        content = _SOURCE.read_bytes()
    except OSError as error:
        raise OSError(f"source unreadable: {error}") from error
    content += b"\0" + " ".join(_CFLAGS).encode()
    return f"repro_ckernel_{hashlib.sha256(content).hexdigest()[:16]}.so"


def _first_use() -> ctypes.CDLL:
    """Build (unless cached) and load the library; ``OSError`` names why not."""
    name = _library_name()
    cache = Path(tempfile.gettempdir()) / f"repro-ckernel-{os.geteuid()}"
    try:
        cache.mkdir(mode=0o700, exist_ok=True)
    except OSError as error:
        raise OSError(f"unsafe cache directory {cache}: {error}") from error
    _require_private(cache, cache)
    so_path = cache / name
    if not so_path.exists():
        _build(_SOURCE, so_path)
    _require_private(cache, so_path)
    try:
        lib = ctypes.CDLL(str(so_path))
        context, i64 = ctypes.POINTER(EventCtx), ctypes.c_int64
        lib.process_slide.restype = ctypes.c_int
        lib.process_slide.argtypes = [context, i64, i64, i64, i64]
        lib.intern.restype = ctypes.c_int
        lib.intern.argtypes = [context, ctypes.c_void_p, i64, i64, ctypes.c_void_p]
        lib.suffix.restype = i64
        lib.suffix.argtypes = [
            ctypes.c_void_p, i64, i64, ctypes.POINTER(ctypes.c_void_p)
        ]
        lib.export_state.restype = None
        lib.export_state.argtypes = [
            context, i64, i64, ctypes.c_void_p, ctypes.POINTER(Export)
        ]
        lib.store_new.restype = ctypes.c_void_p
        lib.store_new.argtypes = []
        lib.store_free.restype = None
        lib.store_free.argtypes = [ctypes.c_void_p]
        lib.retire_column.restype = None
        lib.retire_column.argtypes = [context, i64]
        lib.compact.restype = None
        lib.compact.argtypes = [context, ctypes.c_void_p, i64, i64, i64]
        lib.resolve_slide.restype = ctypes.c_int
        lib.resolve_slide.argtypes = [ctypes.POINTER(Resolve)]
    except (OSError, AttributeError) as error:
        raise OSError(f"{so_path} did not load: {error}") from error
    return lib


def load() -> Optional[ctypes.CDLL]:
    """The compiled kernel library, building it on first call.

    Returns ``None`` when disabled or unavailable, with the cause in
    :data:`unavailable_reason`; the result (either way) is cached for the
    process.
    """
    global _lib, _tried, unavailable_reason
    if _tried:
        return _lib
    _tried = True
    if os.environ.get(ENV_DISABLE):
        unavailable_reason = f"disabled by {ENV_DISABLE}"
        return None
    try:
        _lib = _first_use()
    except OSError as error:
        unavailable_reason = str(error)
        warnings.warn(
            f"compiled columnar kernel unavailable ({error}); engines run "
            "the slower object plane and diffusion forests resolve one "
            "action at a time (DiffusionForest.add), with identical answers",
            RuntimeWarning,
            stacklevel=2,
        )
    return _lib
