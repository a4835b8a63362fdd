"""Unit tests for the single-writer coalescing ingest loop."""

import asyncio

import pytest

from repro.core.greedy import WindowedGreedy
from repro.core.multi import MultiQueryEngine
from repro.core.sic import SparseInfluentialCheckpoints
from repro.persistence.engine import RecoverableEngine
from repro.service.cache import AnswerCache
from repro.service.ingest import IngestLoop
from tests.conftest import random_stream


def make_engine(multi: bool = True) -> RecoverableEngine:
    if multi:
        factory = lambda: (
            MultiQueryEngine()
            .add("greedy", WindowedGreedy(window_size=20, k=2))
            .add("sic", SparseInfluentialCheckpoints(window_size=20, k=2, beta=0.3))
        )
    else:
        factory = lambda: WindowedGreedy(window_size=20, k=2)
    return RecoverableEngine.open(None, factory)


def run(coro):
    return asyncio.run(coro)


class TestCoalescing:
    def test_count_flush(self):
        async def body():
            engine = make_engine()
            cache = AnswerCache()
            loop = IngestLoop(engine, cache, slide=4, flush_interval=60.0)
            loop.start()
            for action in random_stream(8, 5, seed=1):
                await loop.submit(action)
            await loop.sync()
            await loop.stop()
            return loop, cache, engine

        loop, cache, engine = run(body())
        assert loop.stats.slides == 2
        assert loop.stats.count_flushes == 2
        assert loop.stats.accepted == 8
        assert engine.slides_processed == 2
        assert cache.published == 2
        assert cache.board.time == 8
        assert set(cache.board.answers) == {"greedy", "sic"}

    def test_interval_flush_of_partial_slide(self):
        async def body():
            engine = make_engine()
            cache = AnswerCache()
            loop = IngestLoop(engine, cache, slide=100, flush_interval=0.05)
            loop.start()
            for action in random_stream(3, 5, seed=2):
                await loop.submit(action)
            for _ in range(100):
                await asyncio.sleep(0.02)
                if cache.published:
                    break
            await loop.stop()
            return loop, cache

        loop, cache = run(body())
        assert cache.published == 1
        assert loop.stats.interval_flushes == 1
        assert cache.board.time == 3

    def test_sync_forces_partial_flush_and_waits(self):
        async def body():
            engine = make_engine()
            cache = AnswerCache()
            loop = IngestLoop(engine, cache, slide=100, flush_interval=60.0)
            loop.start()
            for action in random_stream(5, 5, seed=3):
                await loop.submit(action)
            assert cache.published == 0
            await loop.sync()
            published_after_sync = cache.published
            await loop.stop()
            return loop, published_after_sync

        loop, published_after_sync = run(body())
        assert published_after_sync == 1
        assert loop.stats.forced_flushes == 1

    def test_stop_flushes_pending(self):
        async def body():
            engine = make_engine()
            cache = AnswerCache()
            loop = IngestLoop(engine, cache, slide=100, flush_interval=60.0)
            loop.start()
            for action in random_stream(7, 5, seed=4):
                await loop.submit(action)
            await loop.stop()
            return engine, cache

        engine, cache = run(body())
        assert engine.now == 7
        assert cache.published == 1


class TestWriterDrain:
    """How the writer takes queued items, pinned without sleeping."""

    def test_expired_deadline_flushes_while_queue_is_nonempty(self):
        async def body():
            engine = make_engine()
            cache = AnswerCache()
            loop = IngestLoop(engine, cache, slide=100, flush_interval=1e-9)
            for action in random_stream(3, 5, seed=10):
                await loop.submit(action)
            loop.start()
            await loop.stop()
            return loop, cache

        loop, cache = run(body())
        # Each action's deadline has passed before the next item is taken,
        # though the queue still holds it (and then the stop sentinel).
        assert loop.stats.interval_flushes == 3
        assert loop.stats.slides == 3
        assert loop.stats.forced_flushes == 0
        assert cache.board.time == 3

    def test_queued_actions_take_no_timer(self, monkeypatch):
        """``asyncio.wait_for`` costs a task and a timer; the writer only
        calls it when the queue is empty."""
        real_wait_for = asyncio.wait_for
        depths = []

        async def body():
            engine = make_engine()
            loop = IngestLoop(engine, AnswerCache(), slide=4, flush_interval=60.0)
            for action in random_stream(12, 5, seed=11):
                await loop.submit(action)

            def counting_wait_for(awaitable, timeout):
                depths.append(loop.queue_depth)
                return real_wait_for(awaitable, timeout)

            monkeypatch.setattr(asyncio, "wait_for", counting_wait_for)
            loop.start()
            await loop.sync()
            await loop.stop()
            return loop

        loop = run(body())
        assert loop.stats.count_flushes == 3
        assert [depth for depth in depths if depth] == []

    def test_idle_writer_takes_no_timer(self, monkeypatch):
        """With no partial slide pending, the writer waits on a plain
        ``get()``: an idle server arms no timer at all."""
        real_wait_for = asyncio.wait_for
        timeouts = []

        def counting_wait_for(awaitable, timeout):
            timeouts.append(timeout)
            return real_wait_for(awaitable, timeout)

        async def body():
            loop = IngestLoop(make_engine(), AnswerCache(), slide=4, flush_interval=60.0)
            monkeypatch.setattr(asyncio, "wait_for", counting_wait_for)
            loop.start()
            for _ in range(10):
                await asyncio.sleep(0)
            await loop.sync()
            await loop.stop()
            return loop

        loop = run(body())
        assert loop.stats.slides == 0
        assert timeouts == []

    def test_partial_slide_on_an_empty_queue_waits_once_for_its_deadline(self, monkeypatch):
        """A pending partial slide and an empty queue: one ``wait_for``,
        bounded by the slide's remaining ``flush_interval``."""
        real_wait_for = asyncio.wait_for
        timeouts = []

        def counting_wait_for(awaitable, timeout):
            timeouts.append(timeout)
            return real_wait_for(awaitable, timeout)

        async def body():
            cache = AnswerCache()
            loop = IngestLoop(make_engine(), cache, slide=100, flush_interval=60.0)
            monkeypatch.setattr(asyncio, "wait_for", counting_wait_for)
            loop.start()
            await asyncio.sleep(0)  # the writer blocks on the empty queue
            await loop.submit(random_stream(1, 5, seed=12)[0])
            for _ in range(100):  # yield until the writer waits with it pending
                if timeouts:
                    break
                await asyncio.sleep(0)
            published_while_waiting = cache.published
            await loop.sync()  # wakes the wait with a forced flush
            await loop.stop()
            return loop, published_while_waiting

        loop, published_while_waiting = run(body())
        assert published_while_waiting == 0
        assert len(timeouts) == 1
        assert 0.0 < timeouts[0] <= 60.0
        assert loop.stats.forced_flushes == 1
        assert loop.stats.interval_flushes == 0


class TestStaleDrop:
    def test_replayed_actions_are_dropped_idempotently(self):
        actions = random_stream(20, 6, seed=5)

        async def body():
            engine = make_engine()
            cache = AnswerCache()
            loop = IngestLoop(engine, cache, slide=5, flush_interval=60.0)
            loop.start()
            for action in actions[:10]:
                await loop.submit(action)
            await loop.sync()
            # At-least-once redelivery: the full stream again.
            for action in actions:
                await loop.submit(action)
            await loop.sync()
            await loop.stop()
            return loop, engine

        loop, engine = run(body())
        assert loop.stats.dropped_stale == 10
        assert loop.stats.accepted == 20
        assert engine.now == 20
        # Equivalent single-shot run.
        reference = make_engine()
        for start in range(0, 20, 5):
            reference.process(actions[start : start + 5])
        assert engine.algorithm.query_all() == reference.algorithm.query_all()

    def test_floor_covers_pending_unflushed_actions(self):
        actions = random_stream(3, 5, seed=6)

        async def body():
            engine = make_engine()
            cache = AnswerCache()
            loop = IngestLoop(engine, cache, slide=100, flush_interval=60.0)
            loop.start()
            for action in actions:
                await loop.submit(action)
            for action in actions:  # duplicates while still pending
                await loop.submit(action)
            await loop.sync()
            await loop.stop()
            return loop

        loop = run(body())
        assert loop.stats.accepted == 3
        assert loop.stats.dropped_stale == 3


class TestBackpressure:
    def test_submit_blocks_when_queue_full(self):
        async def body():
            engine = make_engine()
            cache = AnswerCache()
            loop = IngestLoop(
                engine, cache, slide=4, flush_interval=60.0, queue_capacity=2
            )
            actions = random_stream(3, 5, seed=7)
            # Writer not started: the queue can only drain via capacity.
            await loop.submit(actions[0])
            await loop.submit(actions[1])
            with pytest.raises(TimeoutError):
                await asyncio.wait_for(loop.submit(actions[2]), timeout=0.05)
            assert loop.queue_depth == 2
            # Once the writer runs, the blocked producer proceeds.
            loop.start()
            await loop.submit(actions[2])
            await loop.sync()
            await loop.stop()
            return loop

        loop = run(body())
        assert loop.stats.accepted == 3

    def test_a_run_waits_until_it_fits_and_a_longer_one_splits(self):
        """The bound counts actions: a run that does not fit waits whole,
        and one longer than the capacity goes in capacity-sized pieces."""
        pieces = []

        async def body():
            loop = IngestLoop(
                make_engine(), AnswerCache(), slide=100, flush_interval=60.0,
                queue_capacity=4,
            )
            put_nowait = loop._queue.put_nowait

            def recording_put_nowait(item):
                put_nowait(item)
                if type(item) is tuple:  # a run, not a control
                    pieces.append((len(item[1]), loop.queue_depth))

            loop._queue.put_nowait = recording_put_nowait
            actions = random_stream(13, 5, seed=7)
            await loop.submit_run(actions[:3])
            with pytest.raises(TimeoutError):
                await asyncio.wait_for(loop.submit_run(actions[3:5]), timeout=0.05)
            assert loop.queue_depth == 3
            loop.start()
            await loop.submit_run(actions[3:])
            await loop.sync()
            await loop.stop()
            return loop

        loop = run(body())
        assert [size for size, _ in pieces] == [3, 4, 4, 2]
        assert max(depth for _, depth in pieces) <= 4
        assert loop.stats.accepted == 13


class TestWriterFailure:
    def test_sync_in_flight_when_flush_fails_wakes_with_error(self):
        """A sync whose own flush fails must re-raise, not hang."""

        async def body():
            engine = make_engine()
            cache = AnswerCache()

            def boom(batch):
                raise RuntimeError("disk on fire")

            engine.process = boom
            # slide large: the failure happens inside the sync's forced
            # flush, after the _Sync item was already dequeued.
            loop = IngestLoop(engine, cache, slide=100, flush_interval=60.0)
            loop.start()
            await loop.submit(random_stream(1, 5, seed=8)[0])
            with pytest.raises(RuntimeError, match="disk on fire"):
                await asyncio.wait_for(loop.sync(), timeout=5)
            with pytest.raises(RuntimeError, match="ingest loop failed"):
                await loop.request_flush()
            await loop.stop()

        run(body())

    def test_engine_error_fails_fast_not_hangs(self):
        async def body():
            engine = make_engine()
            cache = AnswerCache()

            def boom(batch):
                raise RuntimeError("disk on fire")

            engine.process = boom
            loop = IngestLoop(engine, cache, slide=1, flush_interval=60.0)
            loop.start()
            await loop.submit(random_stream(1, 5, seed=8)[0])
            with pytest.raises(RuntimeError, match="disk on fire"):
                await loop.sync()
            assert loop.error is not None
            with pytest.raises(RuntimeError, match="ingest loop failed"):
                await loop.submit(random_stream(2, 5, seed=8)[1])
            await loop.stop()  # joins cleanly even after a writer failure
            return loop

        run(body())

    def test_blocked_runs_fail_when_the_writer_dies(self):
        """A writer that dies while runs wait for room answers every
        waiting producer with its error — including the later pieces of a
        run split because it is longer than the capacity."""

        async def body():
            engine = make_engine()

            def boom(batch):
                raise RuntimeError("disk on fire")

            engine.process = boom
            loop = IngestLoop(
                engine, AnswerCache(), slide=2, flush_interval=60.0,
                queue_capacity=4,
            )
            actions = random_stream(16, 5, seed=10)
            producers = [
                asyncio.ensure_future(loop.submit_run(actions[:13])),
                asyncio.ensure_future(loop.submit_run(actions[13:])),
            ]
            await asyncio.sleep(0)
            assert loop.queue_depth == 4  # the first piece; the rest wait
            loop.start()
            outcomes = await asyncio.wait_for(
                asyncio.gather(*producers, return_exceptions=True), timeout=5
            )
            for outcome in outcomes:
                assert isinstance(outcome, RuntimeError)
                assert "ingest loop failed: disk on fire" in str(outcome)
            await loop.stop()

        run(body())


class TestValidation:
    def test_bad_knobs(self):
        engine = make_engine()
        cache = AnswerCache()
        with pytest.raises(ValueError, match="slide"):
            IngestLoop(engine, cache, slide=0)
        with pytest.raises(ValueError, match="flush_interval"):
            IngestLoop(engine, cache, flush_interval=0)
        for capacity in (0, -1):  # asyncio.Queue(<= 0) would be unbounded
            with pytest.raises(ValueError, match="queue_capacity"):
                IngestLoop(engine, cache, queue_capacity=capacity)

    def test_single_algorithm_publishes_as_main(self):
        async def body():
            engine = make_engine(multi=False)
            cache = AnswerCache()
            loop = IngestLoop(engine, cache, slide=2, flush_interval=60.0)
            loop.start()
            for action in random_stream(4, 5, seed=9):
                await loop.submit(action)
            await loop.sync()
            await loop.stop()
            return cache

        cache = run(body())
        assert set(cache.board.answers) == {"main"}
        assert cache.published == 2
