"""Unit tests for the continuous wall-clock sampling profiler.

Covers the satellite edge cases: start/stop idempotence, a zero-sample
window, a thread that dies mid-profile, and bounded stack memory.  The
overhead is not asserted (no tier-1 test depends on timing);
here we only check that sampling is cheap enough to run in tests at all.
"""

import threading
import time

import pytest

from repro.telemetry.profiler import (
    DEFAULT_THREAD_TAGS,
    SamplingProfiler,
    collapse_counts,
)


def wait_for(predicate, timeout=5.0):
    deadline = time.time() + timeout
    while not predicate() and time.time() < deadline:
        time.sleep(0.01)
    assert predicate()


class TestCollapsedFormat:
    def test_sorted_most_samples_first(self):
        text = collapse_counts({"a;f;g": 2, "b;h": 9, "a;f": 2})
        assert text.splitlines() == ["b;h 9", "a;f 2", "a;f;g 2"]
        assert text.endswith("\n")

    def test_empty_counts_render_empty(self):
        assert collapse_counts({}) == ""


class TestSampling:
    def test_sample_once_observes_named_threads(self):
        stop = threading.Event()
        thread = threading.Thread(
            target=stop.wait, name="repro-ingest_0", daemon=True
        )
        thread.start()
        try:
            profiler = SamplingProfiler(hz=100.0)
            folded = profiler.sample_once()
            assert folded >= 1
            ingest_stacks = [
                stack
                for stack in profiler.counts()
                if stack.startswith("ingest;")
            ]
            assert ingest_stacks, profiler.counts()
        finally:
            stop.set()
            thread.join()

    def test_unmatched_threads_tag_as_other(self):
        stop = threading.Event()
        thread = threading.Thread(
            target=stop.wait, name="mystery-worker", daemon=True
        )
        thread.start()
        try:
            profiler = SamplingProfiler()
            profiler.sample_once()
            assert any(
                stack.startswith("other;") for stack in profiler.counts()
            )
        finally:
            stop.set()
            thread.join()

    def test_profiler_never_samples_itself(self):
        profiler = SamplingProfiler(hz=200.0)
        profiler.start()
        wait_for(lambda: profiler.samples >= 10)
        profiler.stop()
        assert not any(
            "repro-profiler" in stack for stack in profiler.counts()
        )

    def test_bounded_stacks_overflow_into_other_bucket(self):
        profiler = SamplingProfiler(max_stacks=1)
        stop = threading.Event()
        threads = [
            threading.Thread(target=stop.wait, name=f"t{i}", daemon=True)
            for i in range(3)
        ]
        for thread in threads:
            thread.start()
        try:
            profiler.sample_once()
            profiler.sample_once()
            counts = profiler.counts()
            assert len([k for k in counts if "<other>" not in k]) <= 1
            assert profiler.overflow_samples > 0
            assert any(k.endswith(";<other>") for k in counts)
        finally:
            stop.set()
            for thread in threads:
                thread.join()

    def test_max_depth_truncates(self):
        def recurse(n):
            if n == 0:
                barrier.wait()
                stop.wait()
                return
            recurse(n - 1)

        barrier = threading.Barrier(2)
        stop = threading.Event()
        thread = threading.Thread(
            target=recurse, args=(40,), name="deep", daemon=True
        )
        thread.start()
        try:
            barrier.wait(timeout=5.0)
            profiler = SamplingProfiler(max_depth=5)
            profiler.sample_once()
            deep = [s for s in profiler.counts() if s.startswith("other;")]
            assert any("<truncated>" in stack for stack in deep)
            assert all(stack.count(";") <= 7 for stack in deep)
        finally:
            stop.set()
            thread.join()


class TestLifecycleEdgeCases:
    def test_start_stop_idempotent(self):
        profiler = SamplingProfiler(hz=200.0)
        profiler.start()
        profiler.start()  # second start is a no-op
        assert profiler.running
        profiler.stop()
        profiler.stop()  # second stop is a no-op
        assert not profiler.running
        # restartable after stop
        profiler.start()
        wait_for(lambda: profiler.samples > 0)
        profiler.stop()

    def test_zero_sample_window_renders_empty(self):
        """A window in which no samples landed must render cleanly."""
        profiler = SamplingProfiler(hz=100.0)
        # Never started, no inline samples: lifetime output is empty text.
        assert profiler.collapsed() == ""
        assert profiler.stats()["samples"] == 0
        with pytest.raises(ValueError):
            profiler.window(0.0)

    def test_window_on_stopped_profiler_samples_inline(self):
        profiler = SamplingProfiler(hz=100.0)
        text = profiler.window(0.05)
        assert text  # this thread alone guarantees >= 1 stack
        assert profiler.samples > 0

    def test_thread_death_mid_profile_is_survived(self):
        """Threads dying between (and during) sweeps must not break
        sampling or leave phantom entries."""
        profiler = SamplingProfiler(hz=500.0)
        profiler.start()
        for i in range(20):
            thread = threading.Thread(
                target=time.sleep, args=(0.001,), name=f"ephemeral-{i}"
            )
            thread.start()
            thread.join()
        wait_for(lambda: profiler.samples >= 5)
        profiler.stop()
        # The profiler survived and still tagged this (live) main thread.
        assert any(s.startswith("main;") for s in profiler.counts())

    def test_window_diff_excludes_prior_samples(self):
        profiler = SamplingProfiler(hz=200.0)
        profiler.start()
        wait_for(lambda: profiler.samples >= 5)
        before_total = sum(profiler.counts().values())
        text = profiler.window(0.05)
        profiler.stop()
        windowed = sum(int(line.rsplit(" ", 1)[1]) for line in text.splitlines())
        assert windowed < before_total + sum(profiler.counts().values())
        assert windowed >= 1

    def test_stats_shape(self):
        profiler = SamplingProfiler(hz=50.0, max_stacks=7)
        profiler.sample_once()
        stats = profiler.stats()
        assert stats["samples"] == 1
        assert stats["max_stacks"] == 7
        assert stats["running"] is False
        assert stats["distinct_stacks"] >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)
        with pytest.raises(ValueError):
            SamplingProfiler(max_stacks=0)
        with pytest.raises(ValueError):
            SamplingProfiler(max_depth=0)

    def test_default_tags_cover_service_threads(self):
        prefixes = [prefix for prefix, _ in DEFAULT_THREAD_TAGS]
        assert "repro-ingest" in prefixes
