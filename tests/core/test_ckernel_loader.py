"""First use of the compiled kernel: every way it can fail ends on the
object plane, by name, with the answers a compiled run gives.

Each case arranges one first-use condition against a private cache root
(``tempfile.tempdir`` pointed into ``tmp_path``) and a cleared loader
cache, then checks ``load()``'s result, the reason it records, the single
``RuntimeWarning`` (none for the deliberate environment switch), that
default IC/SIC engines construct on the plane that follows, and that their
per-slide ``(time, value, seeds)`` equal a compiled run's.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import sys
import tempfile
import warnings

import pytest

from repro.core.multi import MultiQueryEngine
from repro.core.stream import batched
from tests.conftest import random_stream, require_ckernel
from tests.core.test_columnar_equivalence import FRAMEWORKS


def default_engines():
    return {
        name: cls(window_size=40, k=3, beta=0.25)
        for name, cls in FRAMEWORKS.items()
    }


def per_slide(algorithm):
    out = []
    for batch in batched(random_stream(120, 8, seed=7), 5):
        algorithm.process(batch)
        answer = algorithm.query()
        out.append((answer.time, answer.value, answer.seeds))
    return out


@pytest.fixture(scope="module")
def compiled_answers():
    """What default engines answer, slide by slide, on the compiled kernel."""
    require_ckernel()
    engines = default_engines()
    assert all(engine.columnar for engine in engines.values())
    return {name: per_slide(engine) for name, engine in engines.items()}


def cache_dir(root):
    return root / f"repro-ckernel-{os.geteuid()}"


def library_name(ckernel):
    return ckernel._library_name()


# Each arranger prepares one condition and returns the reason load() must
# name (a regex), or None when the load must succeed.


def env_switch(ckernel, root, monkeypatch):
    monkeypatch.setenv(ckernel.ENV_DISABLE, "1")
    return f"disabled by {ckernel.ENV_DISABLE}"


def no_compiler(ckernel, root, monkeypatch):
    monkeypatch.setenv("PATH", "")
    return "no cc on PATH"


def cache_root_is_a_file(ckernel, root, monkeypatch):
    # The suite may run as root, for whom a mode-only "unwritable"
    # directory would still be writable; a regular file never holds one.
    blocker = root / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setattr(tempfile, "tempdir", str(blocker))
    return "unsafe cache directory .*not-a-directory"


def world_writable_cache_dir(ckernel, root, monkeypatch):
    cache_dir(root).mkdir()
    cache_dir(root).chmod(0o777)  # mkdir's mode is subject to the umask
    return "unsafe cache directory .* mode 777"


def garbage_library(ckernel, root, monkeypatch):
    cache_dir(root).mkdir(mode=0o700)
    planted = cache_dir(root) / library_name(ckernel)
    planted.write_bytes(b"not an ELF object")
    planted.chmod(0o700)
    return "did not load"


def two_forked_children_race_the_first_build(ckernel, root, monkeypatch):
    # The pre-hardening location, planted: reading it would fail the load.
    (root / library_name(ckernel)).write_bytes(b"not an ELF object")
    context = multiprocessing.get_context("fork")
    children = [
        context.Process(target=_child_first_use) for _ in range(2)
    ]
    for child in children:
        child.start()
    for child in children:
        child.join(timeout=120)
    assert [child.exitcode for child in children] == [0, 0]
    # Each child renamed its own finished build over the one name.
    assert os.listdir(cache_dir(root)) == [library_name(ckernel)]
    return None


def changed_flag_builds_a_second_library(ckernel, root, monkeypatch):
    first = ckernel.load()
    built = library_name(ckernel)
    assert first is not None and os.listdir(cache_dir(root)) == [built]
    # Same source, one more flag: the cached library must not be reused.
    monkeypatch.setattr(ckernel, "_CFLAGS", [*ckernel._CFLAGS, "-DREBUILT"])
    assert library_name(ckernel) != built
    for name, cleared in (("_tried", False), ("_lib", None)):
        monkeypatch.setattr(ckernel, name, cleared)
    second = ckernel.load()
    assert second is not None
    assert os.path.basename(second._name) == library_name(ckernel)
    assert sorted(os.listdir(cache_dir(root))) == sorted(
        [built, library_name(ckernel)]
    )
    # The parametrized body now loads the rebuilt library from the cache.
    for name, cleared in (("_tried", False), ("_lib", None)):
        monkeypatch.setattr(ckernel, name, cleared)
    return None


def _child_first_use():
    from repro.core.oracles import _ckernel

    ok = _ckernel.load() is not None and all(
        engine.columnar for engine in default_engines().values()
    )
    sys.exit(0 if ok else 1)


@pytest.mark.parametrize(
    "arrange",
    [
        env_switch,
        no_compiler,
        cache_root_is_a_file,
        world_writable_cache_dir,
        garbage_library,
        two_forked_children_race_the_first_build,
        changed_flag_builds_a_second_library,
    ],
    ids=lambda arrange: arrange.__name__,
)
def test_first_use(
    arrange, compiled_answers, ckernel_first_use, tmp_path, monkeypatch
):
    monkeypatch.delenv("REPRO_NO_CKERNEL", raising=False)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    ckernel = ckernel_first_use()
    reason = arrange(ckernel, tmp_path, monkeypatch)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lib = ckernel.load()
        engines = default_engines()
        assert ckernel.load() is lib  # cached: no second attempt or warning
    warned = [str(w.message) for w in caught if w.category is RuntimeWarning]

    if reason is None:
        assert lib is not None and ckernel.unavailable_reason is None
        assert not warned
        for engine in engines.values():
            assert engine.columnar_kernel.stats()["event_kernel"] == "c"
    else:
        assert lib is None
        assert re.search(reason, ckernel.unavailable_reason), (
            ckernel.unavailable_reason
        )
        if arrange is env_switch:
            assert not warned
        else:
            assert len(warned) == 1
            assert ckernel.unavailable_reason in warned[0]
        board = MultiQueryEngine()
        for name, engine in engines.items():
            board.add(name, engine)
            assert engine.columnar is False
            stats = board.query_stats()[name]
            assert stats["columnar"] is False
            assert stats["ckernel_unavailable"] == ckernel.unavailable_reason
    for name, engine in engines.items():
        assert per_slide(engine) == compiled_answers[name], name
