#!/usr/bin/env python
"""Convert a format-1 sharded state dir to the routed layout, in place.

Builds before routed ingest wrote ``sharding.json`` at manifest format 1:
every shard consumed the raw action stream and kept its own diffusion
forest.  :class:`repro.sharding.ShardedEngine` no longer opens such
roots; this one-shot converter rebuilds the facade resolver from the
shard state and rewrites the manifest::

    python scripts/migrate_to_routed.py state/    # idempotent

It stays for one release round and then goes with the last format-1 root.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core.resolve import ResolvedSlide, SlideResolver  # noqa: E402
from repro.persistence.engine import (  # noqa: E402
    StateStore,
    list_shard_state_dirs,
)
from repro.persistence.serialize import PersistenceError  # noqa: E402
from repro.sharding.engine import MANIFEST_FORMAT, ShardedEngine  # noqa: E402
from repro.sharding.resolver import (  # noqa: E402
    RESOLVER_DIR_NAME,
    RESOLVER_SNAPSHOT_FORMAT,
)


def migrate_to_routed(state_dir) -> dict:
    """Convert a format-1 (broadcast-era) sharded state dir in place.

    Broadcast shards each hold the *full* diffusion forest (every shard saw
    every action), so any shard's recovered state can seed the facade
    resolver — the migration picks the most advanced shard (newest snapshot
    plus longest WAL tail), rebuilds a ``SlideResolver`` from its
    forest/clock/accounting, replays that shard's WAL tail through it,
    writes the resolver's snapshot under ``<root>/resolver/``, and rewrites
    the manifest to format 2 with ``"ingest": "routed"``.

    The shard directories themselves are untouched: their broadcast-era
    action WALs replay fine on reopen (the durable engine dispatches on
    record kind), and every *subsequent* slide is logged as a routed-tuple
    batch.  The operation is idempotent — an already-routed root returns
    without writing anything.

    Args:
        state_dir: A sharded state root (the directory holding
            ``sharding.json``).

    Returns:
        A summary dict: ``state_dir``, ``ingest``, ``migrated`` (False when
        the root was already routed), and — after a conversion — the
        ``seed_shard`` used, its ``slide_seq``, the resolver ``now`` clock
        and ``actions_processed``, and ``replayed`` WAL slides.

    Raises:
        PersistenceError: when the root has no (or an unreadable)
            manifest, no recoverable shard state, or its shard WALs
            already hold routed records without a routed manifest (a
            corrupt or half-converted root).
    """
    root = pathlib.Path(state_dir)
    manifest = ShardedEngine._read_manifest(root)
    if manifest is None:
        raise PersistenceError(
            f"no sharding manifest under {root}; not a sharded state dir"
        )
    if manifest["format"] == MANIFEST_FORMAT:
        return {"state_dir": str(root), "ingest": "routed", "migrated": False}
    shard_dirs = list_shard_state_dirs(root)
    if not shard_dirs:
        raise PersistenceError(
            f"sharded state dir {root} has a manifest but no shard-*/ "
            "directories; nothing to migrate from"
        )

    # Survey every shard; the most advanced one (snapshot seq + WAL tail)
    # defines the resolver's coverage.  Ties break on the lowest shard id.
    best = None  # (slide_seq, -shard, shard_dir, snapshot_doc, snap_seq)
    for shard, shard_dir in enumerate(shard_dirs):
        store = StateStore(shard_dir, fsync=False)
        try:
            latest = store.snapshots.load_latest()
            snap_seq = latest[0] if latest is not None else 0
            doc = latest[1] if latest is not None else None
            last_seq = snap_seq
            for wal_seq, payload in store.wal.replay(after=snap_seq):
                if isinstance(payload, ResolvedSlide):
                    raise PersistenceError(
                        f"shard WAL under {shard_dir} holds routed records "
                        "but the manifest says broadcast; the root is "
                        "corrupt or half-converted"
                    )
                last_seq = wal_seq
        finally:
            store.close()
        if doc is None and last_seq == 0:
            continue
        key = (last_seq, -shard)
        if best is None or key > best[0]:
            best = (key, shard, shard_dir, doc, snap_seq)
    if best is None:
        raise PersistenceError(
            f"no shard under {root} has a snapshot or WAL records; "
            "nothing to migrate from"
        )
    _key, seed_shard, seed_dir, doc, snap_seq = best

    # Seed the resolver from the snapshot's algorithm state (forest, clock,
    # accounting).  Multi-query boards: the member with the widest retention
    # horizon carries the most history (matches _probe_retention).
    if doc is not None:
        state = doc["algorithm"]
        if state.get("algorithm") == "multi":
            def horizon(query_state: dict):
                retention = query_state["base"]["forest"].get("retention")
                return float("inf") if retention is None else retention

            state = max(doc["algorithm"]["queries"].values(), key=horizon)
        base = state["base"]
        resolver = SlideResolver.from_state(
            {
                "forest": base["forest"],
                "last_time": base["window"]["last_time"],
                "actions_processed": base["actions_processed"],
            }
        )
    else:
        resolver = SlideResolver()

    # Replay the seed shard's WAL tail (broadcast = the full stream).
    replayed = 0
    final_seq = snap_seq
    store = StateStore(seed_dir, fsync=False)
    try:
        for wal_seq, payload in store.wal.replay(after=snap_seq):
            resolver.resolve(payload)
            replayed += 1
            final_seq = wal_seq
    finally:
        store.close()

    resolver_store = StateStore(root / RESOLVER_DIR_NAME)
    try:
        resolver_store.snapshots.save(
            final_seq,
            {
                "format": RESOLVER_SNAPSHOT_FORMAT,
                "slide_seq": final_seq,
                "resolver": resolver.to_state(),
            },
        )
    finally:
        resolver_store.close()

    ShardedEngine._write_manifest(
        root,
        {
            "format": MANIFEST_FORMAT,
            "shards": manifest["shards"],
            "partitioner": manifest["partitioner"],
            "ingest": "routed",
        },
    )
    return {
        "state_dir": str(root),
        "ingest": "routed",
        "migrated": True,
        "seed_shard": seed_shard,
        "slide_seq": final_seq,
        "now": resolver.now,
        "actions_processed": resolver.actions_processed,
        "replayed": replayed,
    }


def main(argv=None) -> int:
    """Run the conversion; prints the JSON summary, returns an exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("state_dir", help="the directory holding sharding.json")
    args = parser.parse_args(argv)
    try:
        summary = migrate_to_routed(args.state_dir)
    except PersistenceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
