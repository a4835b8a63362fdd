"""Shared fixtures: the paper's running example and random stream builders."""

from __future__ import annotations

import random
import tempfile
from typing import List

import numpy as np
import pytest

from repro.core.actions import Action


def make_paper_stream() -> List[Action]:
    """Figure 1(a): the ten actions of the paper's running example.

    Users are numbered as in the paper (u1..u6 -> 1..6).
    """
    return [
        Action.root(1, 1),  # a1 = <u1, nil>
        Action.response(2, 2, 1),  # a2 = <u2, a1>
        Action.root(3, 3),  # a3 = <u3, nil>
        Action.response(4, 3, 1),  # a4 = <u3, a1>
        Action.response(5, 4, 3),  # a5 = <u4, a3>
        Action.response(6, 1, 3),  # a6 = <u1, a3>
        Action.response(7, 5, 3),  # a7 = <u5, a3>
        Action.response(8, 4, 7),  # a8 = <u4, a7>
        Action.root(9, 2),  # a9 = <u2, nil>
        Action.response(10, 6, 9),  # a10 = <u6, a9>
    ]


@pytest.fixture
def paper_stream() -> List[Action]:
    """The running example stream (Example 1)."""
    return make_paper_stream()


def random_stream(
    n_actions: int,
    n_users: int,
    seed: int = 0,
    root_probability: float = 0.4,
    recent_bias: int = 0,
) -> List[Action]:
    """A random valid action stream for property tests.

    Args:
        n_actions: Stream length.
        n_users: User universe size.
        seed: RNG seed.
        root_probability: Chance each action is a root.
        recent_bias: When positive, parents are drawn from the last this
            many actions (otherwise uniformly from the whole past).
    """
    rng = random.Random(seed)
    actions: List[Action] = []
    for t in range(1, n_actions + 1):
        user = rng.randrange(n_users)
        if t == 1 or rng.random() < root_probability:
            actions.append(Action.root(t, user))
        else:
            low = max(1, t - recent_bias) if recent_bias else 1
            parent = rng.randint(low, t - 1)
            actions.append(Action.response(t, user, parent))
    return actions


def window_index(actions, window_size: int):
    """The exact influence sets of the window ``time ≥ t − N + 1`` after
    ``actions`` (the last ``window_size`` actions of a dense stream), slid
    one action at a time; a read-only suffix view."""
    from repro.core.diffusion import DiffusionForest
    from repro.core.influence_index import InfluenceWindow

    forest = DiffusionForest()
    window = InfluenceWindow(window_size)
    for action in actions:
        window.slide([forest.add(action)])
    return window.view()


def window_pairs(index):
    """Every ``(u, v)`` influence pair an index holds, sorted."""
    return sorted((u, v) for u in index for v in index.influence_set(u))


def window_times(consumer):
    """Times of the records a window consumer (windowed greedy, IMM, UBI,
    ``StreamEvaluator``) holds, oldest first."""
    return consumer._window.to_state()["records"]["time"].tolist()


@pytest.fixture
def small_random_stream() -> List[Action]:
    """A 60-action stream over 8 users (dense interactions)."""
    return random_stream(60, 8, seed=13)


def store_roundtrip(state: dict) -> dict:
    """The snapshot medium: one save/load cycle of a ``to_state`` document
    through a :class:`SnapshotStore` (arrays come back as the container's
    narrowed, read-only ``np.frombuffer`` views)."""
    from repro.persistence.serialize import SNAPSHOT_FORMAT_VERSION
    from repro.persistence.snapshots import SnapshotStore

    with tempfile.TemporaryDirectory() as scratch:
        store = SnapshotStore(scratch)
        store.save(
            1,
            {"format": SNAPSHOT_FORMAT_VERSION, "slide_seq": 1, "algorithm": state},
        )
        return store.load(1)["algorithm"]


def states_equal(left, right) -> bool:
    """Deep equality of two state documents whose leaves may be arrays
    (compared by value, whatever integer width the container chose)."""
    if isinstance(left, dict) and isinstance(right, dict):
        return left.keys() == right.keys() and all(
            states_equal(left[key], right[key]) for key in left
        )
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return np.array_equal(left, right)
    return left == right


def require_ckernel() -> None:
    """Skip the calling test, naming the loader's reason, on a box where
    the compiled kernel is unavailable (default engines then *are* the
    object plane, so a kernel-vs-object comparison proves nothing)."""
    from repro.core.oracles import _ckernel

    if _ckernel.load() is None:
        pytest.skip(f"no compiled kernel: {_ckernel.unavailable_reason}")


@pytest.fixture
def ckernel_first_use(monkeypatch):
    """``reset()`` clears the ``_ckernel`` module's per-process cache, so
    the next ``load()`` is a first use, and returns the module; whatever
    the process had loaded returns after the test."""
    from repro.core.oracles import _ckernel

    def reset():
        monkeypatch.setattr(_ckernel, "_tried", False)
        monkeypatch.setattr(_ckernel, "_lib", None)
        monkeypatch.setattr(_ckernel, "unavailable_reason", None)
        return _ckernel

    return reset


def parse_prometheus(text: str) -> dict:
    """Tiny prometheus text-exposition parser (no deps; tests only).

    Returns ``{metric_name: {label_string: float_value}}`` where
    ``label_string`` is the raw ``{...}`` part (``""`` when unlabeled),
    and raises ValueError on lines that are not valid exposition.
    """
    samples: dict = {}
    types: dict = {}
    for line in text.splitlines():
        if not line or line.startswith("# HELP"):
            continue
        if line.startswith("# TYPE"):
            _, _, name, kind = line.split(None, 3)
            if kind not in ("counter", "gauge", "histogram", "summary"):
                raise ValueError(f"bad TYPE line: {line!r}")
            types[name] = kind
            continue
        if line.startswith("#"):
            raise ValueError(f"unknown comment line: {line!r}")
        body, _, value = line.rpartition(" ")
        if not body:
            raise ValueError(f"sample line without value: {line!r}")
        name, brace, labels = body.partition("{")
        if brace and not labels.endswith("}"):
            raise ValueError(f"unterminated labels: {line!r}")
        float(value)  # must parse; +Inf etc. never appear as values here
        samples.setdefault(name, {})[brace + labels] = float(value)
    if not types:
        raise ValueError("no TYPE headers found")
    return samples
