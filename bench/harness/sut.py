"""The system under test as a child process tree.

Every workload runs the program in a process of its own (its own
interpreter lock, its own cores): the generator is pinned to the last
available core and the program's whole tree to the rest, so the load
generator never competes with what it measures.
"""

from __future__ import annotations

import ctypes
import os
import pathlib
import select
import signal
import subprocess
import sys
import time
from typing import List, Optional, Sequence, Set, Tuple

__all__ = [
    "REPO_ROOT",
    "OUT_DIR",
    "split_cores",
    "adopt_orphans",
    "child_env",
    "ChildProcess",
    "ServeProcess",
    "serve_command",
]

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent
REPO_ROOT = BENCH_DIR.parent
#: Everything a run leaves behind lives here (ignored by git).
OUT_DIR = BENCH_DIR / "out"


def split_cores() -> Tuple[Optional[Set[int]], Optional[Set[int]]]:
    """``(generator cores, program cores)``, or ``(None, None)`` on 1 CPU.

    With two or more usable CPUs the generator takes the last one and
    the program's process tree the rest.
    """
    usable = sorted(os.sched_getaffinity(0))
    if len(usable) < 2:
        return None, None
    return {usable[-1]}, set(usable[:-1])


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants.

    ``--shard-backend process`` forks one worker per shard; when their
    parent is SIGKILLed they are re-parented — by default to ``init``,
    which here reaps a dead worker a second or more after it died.  As
    the sub-reaper the harness can ``waitpid`` them itself, so a kill
    returns as soon as the whole tree has ended.  Best effort: without
    it :meth:`ChildProcess.kill` still waits until no member is alive.
    """
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def child_env() -> dict:
    """Environment of every child: ``src`` importable, temp files local.

    The compiled kernel is built into the interpreter's temp directory;
    pointing ``TMPDIR`` into ``bench/out`` keeps every byte the run
    writes inside the checkout.
    """
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def _group_members(pgid: int) -> List[int]:
    """Pids still running whose process group is ``pgid`` (from ``/proc``).

    A zombie has ended — it only waits for its parent to collect it —
    so it is not listed.
    """
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = pathlib.Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited between listdir and read
        # Fields after the parenthesised command name: state ppid pgrp ...
        fields = stat.rpartition(")")[2].split()
        if len(fields) > 2 and int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


class ChildProcess:
    """A child in its own process group, pinned, killable as a tree."""

    def __init__(
        self,
        command: Sequence[str],
        cores: Optional[Set[int]],
        stderr_path: pathlib.Path,
        stdin=None,
    ):
        stderr_path.parent.mkdir(parents=True, exist_ok=True)
        self.started = time.perf_counter()
        with open(stderr_path, "ab") as stderr:
            self.process = subprocess.Popen(
                list(command),
                cwd=str(REPO_ROOT),
                env=child_env(),
                stdin=stdin,
                stdout=subprocess.PIPE,
                stderr=stderr,
                start_new_session=True,
                bufsize=0,
            )
        self._pending = b""
        self._killed = False
        if cores:
            # Workers forked later inherit the mask.
            os.sched_setaffinity(self.process.pid, cores)

    @property
    def pid(self) -> int:
        return self.process.pid

    def read_line(self, timeout: float) -> bytes:
        """One line of the child's stdout, or ``b""`` on EOF.

        Raises:
            TimeoutError: when no full line arrives in ``timeout`` s.
        """
        deadline = time.monotonic() + timeout
        fd = self.process.stdout.fileno()
        while b"\n" not in self._pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("child produced no line in time")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:  # EOF: hand back whatever was left unterminated
                line, self._pending = self._pending, b""
                return line
            self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        return line + b"\n"

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the live process tree, in MiB."""
        total_kb = 0
        for pid in _group_members(self.pid):
            try:
                status = pathlib.Path("/proc", str(pid), "status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def kill(self) -> None:
        """SIGKILL the whole group and reap the leader (idempotent)."""
        if self._killed:
            return
        self._killed = True
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        # Workers the leader forked are now ours to collect (see
        # :func:`adopt_orphans`); where they are not, wait until the
        # kernel has torn them down, so none outlives the run.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                reaped, _ = os.waitpid(-self.pid, os.WNOHANG)
            except ChildProcessError:
                reaped = 0
                if not _group_members(self.pid):
                    break
            if not reaped:
                time.sleep(0.005)
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None:
                stream.close()


def serve_command(spec, state_dir: pathlib.Path, trace_log=None) -> List[str]:
    """The ``repro.cli serve`` command line for one service workload."""
    command = [
        sys.executable, "-m", "repro.cli", "serve",
        "--port", "0",
        "--algorithm", "sic",
        "--window", str(spec.window),
        "--slide", str(spec.slide),
        "-k", str(spec.k),
        "--beta", str(spec.beta),
        "--flush-interval", "60",
        "--queue-capacity", "8192",
        "--state-dir", str(state_dir),
        *spec.serve_flags,
    ]
    if trace_log is not None:
        command += ["--slow-slide-ms", "0", "--trace-log", str(trace_log)]
    return command


class ServeProcess(ChildProcess):
    """A ``repro.cli serve`` child; ``port`` is known once it listens."""

    def __init__(self, command, cores, stderr_path, boot_timeout=120.0):
        super().__init__(command, cores, stderr_path)
        try:
            line = self.read_line(boot_timeout).decode("utf-8", "replace")
            if "listening on " not in line:
                raise RuntimeError(
                    f"server did not announce its port (got {line!r}; "
                    f"see {stderr_path})"
                )
            address = line.split("listening on ", 1)[1].split()[0]
            self.port = int(address.rsplit(":", 1)[1])
        except BaseException:
            self.kill()
            raise
        #: exec -> socket bound (recovery included: the server replays
        #: its state before it binds).
        self.boot_seconds = time.perf_counter() - self.started
