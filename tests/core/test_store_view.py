"""The kernel plane's index facade ≡ the object plane's suffix views.

On the columnar plane the compiled pair store is the only copy of the
influence pairs, and everything that reads them — a checkpoint's
``index`` (which ``materialize_oracle`` builds oracles over),
``query_candidates`` (the sharded merge's input), ``shared_index`` and the
memory experiment — goes through ``StoreView`` and the store's ``suffix``
entry.  After every slide, at every live start and for every user the
stream has touched (and one it never saw), the view must answer exactly
as the object plane's ``SuffixView`` over its ``VersionedInfluenceIndex``,
across a snapshot → restore of the kernel engine; ``query_candidates``
must agree standalone and per shard of a routed sharded engine.
"""

from __future__ import annotations

import pytest

from repro.core.ic import InfluentialCheckpoints
from repro.core.oracles.columnar import StoreView
from repro.core.sic import SparseInfluentialCheckpoints
from repro.core.stream import batched
from repro.experiments.memory import measure_footprint
from repro.sharding.engine import ShardedEngine
from tests.conftest import random_stream, require_ckernel, store_roundtrip

FRAMEWORKS = {"ic": InfluentialCheckpoints, "sic": SparseInfluentialCheckpoints}
NEVER_SEEN = 10**9


def make(framework, columnar, shard=None):
    return FRAMEWORKS[framework](
        window_size=30, k=3, beta=0.25, columnar=columnar, shard=shard
    )


def views_agree(kernel_engine, object_engine, users):
    starts = [c.start for c in kernel_engine.checkpoints]
    assert starts == [c.start for c in object_engine.checkpoints]
    covered = set(users[::2])
    for ours, theirs in zip(kernel_engine.checkpoints, object_engine.checkpoints):
        view, reference = ours.index, theirs.index
        assert isinstance(view, StoreView)
        assert len(view) == len(reference)
        assert sorted(view) == sorted(reference)
        for user in users:
            assert view.influence_set(user) == reference.influence_set(user)
            assert view.fresh_members(user, covered) == reference.fresh_members(
                user, covered
            )
            assert (user in view) == (user in reference)
        for seeds in (users, users[::3], [NEVER_SEEN]):
            assert view.coverage(seeds) == reference.coverage(seeds)


@pytest.mark.parametrize("framework", sorted(FRAMEWORKS))
@pytest.mark.parametrize("slide", [1, 4])
def test_store_view_answers_like_the_suffix_view(framework, slide):
    require_ckernel()
    kernel_engine, object_engine = make(framework, None), make(framework, False)
    assert kernel_engine.columnar and not object_engine.columnar
    batches = list(batched(random_stream(240, 12, seed=slide), slide))
    touched = set()
    for index, batch in enumerate(batches):
        if index == len(batches) // 2:
            state = store_roundtrip(kernel_engine.to_state())
            kernel_engine = type(kernel_engine).from_state(state)
        kernel_engine.process(batch)
        object_engine.process(batch)
        touched.update(action.user for action in batch)
        views_agree(kernel_engine, object_engine, sorted(touched) + [NEVER_SEEN])
        assert kernel_engine.query_candidates() == object_engine.query_candidates()
    shared = kernel_engine.shared_index
    assert shared.pair_count >= shared.user_count > 0
    # The memory experiment reports on the kernel plane, as on the object one.
    assert measure_footprint(kernel_engine) == measure_footprint(object_engine)


@pytest.mark.parametrize("framework", sorted(FRAMEWORKS))
def test_sharded_candidates_match_across_planes(framework):
    require_ckernel()
    engines = [
        ShardedEngine.open(
            lambda assignment=None, columnar=columnar: make(
                framework, columnar, shard=assignment
            ),
            2,
            backend="serial",
        )
        for columnar in (None, False)
    ]
    with engines[0] as kernel_sharded, engines[1] as object_sharded:
        for batch in batched(random_stream(160, 12, seed=9), 4):
            kernel_sharded.process(list(batch))
            object_sharded.process(list(batch))
            assert kernel_sharded.query() == object_sharded.query()
            for shard in range(2):
                ours, theirs = (
                    engine._backend._hosts[shard].engine.algorithm
                    for engine in (kernel_sharded, object_sharded)
                )
                assert ours.columnar and not theirs.columnar
                assert ours.query_candidates() == theirs.query_candidates()
