"""Equivalence proof: columnar oracle kernel ≡ per-checkpoint oracles.

The columnar plane replaces every checkpoint's private sieve/threshold
oracle object with one engine-owned :class:`ColumnarThresholdKernel` that
stores all checkpoints' instance state in flat numpy columns and serves a
slide with one compiled event per updated user.  These tests drive the
kernel and the object plane (``columnar=False``) over identical random
streams and assert they are indistinguishable, slide by slide:

* query answers (times, seeds, *exact* float values);
* the retained checkpoint populations (starts, values, seeds, absorbed
  action counts) — so SIC pruning coincides too;
* the full serialized oracle state of every live checkpoint, canonicalized
  (the kernel emits caches/members/seeds in column order, the objects in
  set-iteration order; sorting both sides makes the comparison exact).

Where the compiled kernel cannot load (no ``cc``, ``REPRO_NO_CKERNEL``)
the default engine *is* the object plane; the tests that need the kernel
skip with the loader's reason, and the fallback is proven in
``test_ckernel_loader.py``.

The streams run well past the window, so checkpoints expire mid-run (the
``expired`` witness asserts it) — expiry/teardown bookkeeping in the
column plane is therefore part of the proof, not an untested corner.
"""

from __future__ import annotations

import os
import shutil
import sys
import warnings

import pytest

from repro.core.ic import InfluentialCheckpoints
from repro.core.sic import SparseInfluentialCheckpoints
from repro.core.stream import batched
from repro.influence.functions import WeightedCardinalityInfluence
from tests.conftest import random_stream, require_ckernel

FRAMEWORKS = {"ic": InfluentialCheckpoints, "sic": SparseInfluentialCheckpoints}

#: Oracles the columnar kernel supports (the threshold-guessing pair).
ORACLES = ["sieve", "threshold"]


def canon(state):
    """Canonicalize an oracle ``state_dict`` for cross-plane comparison.

    The planes agree on content but not on emission order: the kernel
    walks columns/slots, the objects iterate dicts and sets.  Sorting the
    order-free collections makes equality exact (values are compared
    bit-for-bit — no rounding).
    """
    state = dict(state)
    state["singleton_cache"] = sorted(map(tuple, state["singleton_cache"]))
    state["member_counts"] = sorted(map(tuple, state["member_counts"]))
    state["best_seeds"] = sorted(state["best_seeds"])
    state["instances"] = [
        [j, {**f, "seeds": sorted(f["seeds"]), "covered": sorted(f["covered"])}]
        for j, f in state["instances"]
    ]
    return state


def run_plane(cls, oracle, slide, seed, columnar):
    """Drive one plane (``None`` = the kernel, ``False`` = object oracles)
    over the stream; return per-slide snapshots.

    Returns ``(snapshots, expired)`` where each snapshot is the query
    answer, the checkpoint populations, and every checkpoint's
    canonicalized oracle state; ``expired`` is the set of checkpoint
    starts that were retired before the stream ended.
    """
    actions = random_stream(120, 8, seed=seed)
    algorithm = cls(
        window_size=40, k=3, beta=0.25, oracle=oracle, columnar=columnar
    )
    assert algorithm.columnar == (columnar is None)
    snapshots = []
    starts_seen = set()
    for batch in batched(actions, slide):
        algorithm.process(batch)
        answer = algorithm.query()
        starts_seen.update(c.start for c in algorithm.checkpoints)
        snapshots.append(
            (
                (answer.time, answer.seeds, answer.value),
                [
                    (c.start, c.value, c.seeds, c.actions_processed)
                    for c in algorithm.checkpoints
                ],
                [
                    (c.start, canon(c.oracle.state_dict()))
                    for c in algorithm.checkpoints
                ],
            )
        )
    expired = starts_seen - {c.start for c in algorithm.checkpoints}
    return snapshots, expired


@pytest.mark.parametrize("framework", ["ic", "sic"])
@pytest.mark.parametrize("oracle", ORACLES)
@pytest.mark.parametrize("slide", [1, 5])
def test_columnar_object_equivalence(framework, oracle, slide):
    """The full matrix: IC+SIC × sieve/threshold × L∈{1, 5}, three random
    streams each."""
    require_ckernel()
    cls = FRAMEWORKS[framework]
    for seed in (0, 1, 2):
        reference, ref_expired = run_plane(cls, oracle, slide, seed, False)
        # Checkpoints genuinely expired mid-run, so teardown is exercised.
        assert ref_expired, (framework, oracle, slide, seed)
        snapshots, expired = run_plane(cls, oracle, slide, seed, None)
        key = (framework, oracle, slide, seed)
        assert snapshots == reference, key
        assert expired == ref_expired, key


def test_columnar_is_the_default_where_supported():
    require_ckernel()
    ic = InfluentialCheckpoints(window_size=10, k=2, beta=0.3)
    assert ic.columnar
    assert ic.columnar_kernel is not None


class TestPlaneFallback:
    """Plane selection silently falls back to the object plane on configs
    the kernel cannot serve."""

    def test_non_uniform_weights_fall_back(self):
        func = WeightedCardinalityInfluence({1: 2.0})
        ic = InfluentialCheckpoints(window_size=10, k=2, beta=0.3, func=func)
        assert not ic.columnar
        assert ic.columnar_kernel is None

    def test_non_threshold_oracle_falls_back(self):
        ic = InfluentialCheckpoints(
            window_size=10, k=2, beta=0.3, oracle="greedy"
        )
        assert not ic.columnar

    def test_oversized_guess_ladder_falls_back(self):
        """A tiny beta spreads the ladder over >64 instances, overflowing
        the kernel's per-column uint64 membership masks."""
        ic = InfluentialCheckpoints(window_size=10, k=2, beta=0.001)
        assert not ic.columnar

    def test_missing_numpy_falls_back(self, monkeypatch):
        # A None entry makes the kernel module's import raise ImportError,
        # as it does on a box without numpy.
        monkeypatch.setitem(sys.modules, "repro.core.oracles.columnar", None)
        ic = InfluentialCheckpoints(window_size=10, k=2, beta=0.3)
        assert not ic.columnar
        ic.process(random_stream(12, 4, seed=0))
        assert ic.query().value >= 0


def test_compiled_kernel_loads_where_a_compiler_exists():
    """With ``cc`` on the box and no kill switch, the default engine runs
    the compiled event path — so it cannot silently stop engaging."""
    from repro.core.oracles import _ckernel

    if os.environ.get(_ckernel.ENV_DISABLE):
        pytest.skip(f"{_ckernel.ENV_DISABLE} is set: compiled kernel disabled")
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH: object plane only")
    assert _ckernel.load() is not None
    ic = InfluentialCheckpoints(window_size=10, k=2, beta=0.3)
    ic.process(random_stream(12, 4, seed=0))
    assert ic.columnar_kernel.stats()["event_kernel"] == "c"


def test_ckernel_env_kill_switch(ckernel_first_use, monkeypatch):
    """``REPRO_NO_CKERNEL`` keeps default engines on the object plane —
    deliberately, so without the loader's warning — with equal answers."""

    def answers(**plane):
        ic = InfluentialCheckpoints(window_size=10, k=2, beta=0.3, **plane)
        out = []
        for batch in batched(random_stream(40, 4, seed=0), 2):
            ic.process(batch)
            out.append(ic.query())
        return ic, out

    ckernel = ckernel_first_use()
    monkeypatch.setenv(ckernel.ENV_DISABLE, "1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ckernel.load() is None
        switched, got = answers()
    assert ckernel.ENV_DISABLE in ckernel.unavailable_reason
    assert not switched.columnar
    assert got == answers(columnar=False)[1]
