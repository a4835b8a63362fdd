#!/usr/bin/env python
"""Load generator for the serving plane: hammer a ``repro-stream serve``.

Generates a synthetic action stream and pushes it over the ingest line
protocol, then reports sustained throughput and the server's final board::

    # terminal 1
    PYTHONPATH=src python -m repro.cli serve --window 1000 -k 5 --slide 50

    # terminal 2
    PYTHONPATH=src python scripts/load_gen.py --port 7077 -n 20000

The generator ends with a ``sync`` barrier, so the reported rate covers
everything through the last slide's processing — it measures the system
(socket + coalescing + engine), not just the client's send loop.

The report is one JSON document (``actions``/``seconds``/
``actions_per_sec``/``slides``/``query_value`` plus the final board);
``--seed`` makes runs reproducible and ``--output`` also writes the report
to a file (the sharded service smoke test reads it).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.datasets.surrogates import reddit_like, twitter_like  # noqa: E402
from repro.datasets.synthetic import syn_n, syn_o  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402

_GENERATORS = {
    "reddit": reddit_like,
    "twitter": twitter_like,
    "syn-o": syn_o,
    "syn-n": syn_n,
}


def main(argv=None):
    """Run the load generator; prints a JSON report to stdout."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7077)
    parser.add_argument("--dataset", choices=sorted(_GENERATORS), default="syn-n")
    parser.add_argument("-n", "--actions", type=int, default=10_000)
    parser.add_argument("-u", "--users", type=int, default=2_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--offset",
        type=int,
        default=0,
        help="shift action times by this much (continue an earlier run "
        "against a server that already ingested `offset` actions)",
    )
    parser.add_argument(
        "--chunk", type=int, default=256, help="lines per socket write"
    )
    parser.add_argument(
        "--batch",
        type=int,
        default=0,
        help="send one JSON array of N actions per line (the batched wire "
        "format) instead of one action per line; 0 = unbatched",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=None,
        help="also write the JSON report to this file",
    )
    args = parser.parse_args(argv)

    actions = list(
        _GENERATORS[args.dataset](
            n_users=args.users, n_actions=args.actions, seed=args.seed
        )
    )
    if args.offset:
        from repro.core.actions import ROOT, Action

        actions = [
            Action(
                time=a.time + args.offset,
                user=a.user,
                parent=a.parent if a.parent == ROOT else a.parent + args.offset,
            )
            for a in actions
        ]

    client = ServiceClient(args.host, args.port, timeout=120.0)
    health = client.wait_healthy()
    started = time.perf_counter()
    if args.batch > 0:
        summary = client.send_batch(actions, batch=args.batch, sync=True)
    else:
        summary = client.ingest(actions, sync=True, chunk=args.chunk)
    elapsed = time.perf_counter() - started

    board = {}
    for name in health["queries"]:
        answer = client.topk(name)
        board[name] = {
            "time": answer["time"],
            "value": answer["value"],
            "seeds": answer["seeds"],
        }
    first = board[min(board)] if board else {"value": 0.0}
    report = {
        "actions": len(actions),
        "batch": args.batch,
        "seed": args.seed,
        "seconds": round(elapsed, 3),
        "actions_per_sec": round(len(actions) / elapsed, 1),
        "slides": summary["slide"],
        "query_value": first["value"],
        "accepted": summary["accepted"],
        "dropped_stale": summary["dropped_stale"],
        "rejected": summary["rejected"],
        "board": board,
    }
    print(json.dumps(report, indent=2))
    if args.output is not None:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
    return report


if __name__ == "__main__":
    main()
