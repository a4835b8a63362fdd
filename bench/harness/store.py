"""Trajectory store: every run appended to one local SQLite file.

Three tables: ``runs`` (one row per invocation, with the machine facts a
later reader needs to trust or discard it), ``samples`` (one row per
metric of a run) and ``latest`` — the newest value per
``(workload, metric)``, materialized on insert so "where does the
ledger stand" is one indexed read and "when did ``kernel.busy_s`` move"
is a query over ``samples`` instead of a ``git log -p``.

The file lives in ``bench/out/`` and is not committed.
"""

from __future__ import annotations

import json
import pathlib
import sqlite3
import time
from typing import Dict, List, Tuple

__all__ = ["TrajectoryStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id INTEGER PRIMARY KEY,
    started_at TEXT NOT NULL,
    workload TEXT NOT NULL,
    seed INTEGER NOT NULL,
    seconds REAL NOT NULL,
    traced INTEGER NOT NULL,
    correct INTEGER NOT NULL,
    attempted INTEGER NOT NULL,
    failed INTEGER NOT NULL,
    info TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS samples (
    run_id INTEGER NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    metric TEXT NOT NULL,
    value REAL NOT NULL,
    unit TEXT NOT NULL,
    PRIMARY KEY (run_id, metric)
);
CREATE INDEX IF NOT EXISTS samples_by_metric ON samples(metric, run_id);
CREATE TABLE IF NOT EXISTS latest (
    workload TEXT NOT NULL,
    metric TEXT NOT NULL,
    value REAL NOT NULL,
    unit TEXT NOT NULL,
    run_id INTEGER NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    started_at TEXT NOT NULL,
    PRIMARY KEY (workload, metric)
);
"""


class TrajectoryStore:
    """Append-only run history in one SQLite file."""

    def __init__(self, path: pathlib.Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        self._db = sqlite3.connect(str(path), timeout=30.0)
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA foreign_keys=ON")
        self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.executescript(_SCHEMA)

    def close(self) -> None:
        self._db.close()

    def append(
        self,
        workload: str,
        seed: int,
        seconds: float,
        traced: bool,
        result: dict,
        info: dict,
    ) -> int:
        """Record one run and refresh ``latest``; returns the run id."""
        started_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        with self._db:
            cursor = self._db.execute(
                "INSERT INTO runs (started_at, workload, seed, seconds, traced,"
                " correct, attempted, failed, info)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    started_at,
                    workload,
                    seed,
                    seconds,
                    int(traced),
                    int(result["correct"]),
                    result["attempted"],
                    result["failed"],
                    json.dumps(info, sort_keys=True),
                ),
            )
            run_id = cursor.lastrowid
            rows = [
                (run_id, name, float(entry["value"]), entry["unit"])
                for name, entry in result["metrics"].items()
            ]
            self._db.executemany(
                "INSERT INTO samples (run_id, metric, value, unit)"
                " VALUES (?, ?, ?, ?)",
                rows,
            )
            self._db.executemany(
                "INSERT INTO latest (workload, metric, value, unit, run_id,"
                " started_at) VALUES (?, ?, ?, ?, ?, ?)"
                " ON CONFLICT (workload, metric) DO UPDATE SET"
                " value = excluded.value, unit = excluded.unit,"
                " run_id = excluded.run_id, started_at = excluded.started_at",
                [
                    (workload, name, value, unit, run_id, started_at)
                    for _, name, value, unit in rows
                ],
            )
        return run_id

    def latest(self, workload: str) -> Dict[str, Tuple[float, str]]:
        """``{metric: (value, unit)}`` of the newest run per metric."""
        return {
            metric: (value, unit)
            for metric, value, unit in self._db.execute(
                "SELECT metric, value, unit FROM latest WHERE workload = ?",
                (workload,),
            )
        }

    def history(self, workload: str, metric: str) -> List[Tuple[str, int, float]]:
        """``(started_at, seed, value)`` of one metric, oldest run first."""
        return list(
            self._db.execute(
                "SELECT runs.started_at, runs.seed, samples.value"
                " FROM samples JOIN runs USING (run_id)"
                " WHERE runs.workload = ? AND samples.metric = ?"
                " ORDER BY runs.run_id",
                (workload, metric),
            )
        )
