"""The expected answer: the same engine configuration, built in-process.

The program under test runs in a child process behind a socket (or a
pipe); here the same configuration is built directly from the library,
fed the same slides, and asked the same question.  The two answers must
be equal — ``(time, value, seeds)`` — or the run fails.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
from typing import Callable, Sequence

from repro.core.greedy import WindowedGreedy
from repro.core.ic import InfluentialCheckpoints
from repro.core.multi import MultiQueryEngine
from repro.core.oracles import _ckernel
from repro.core.sic import SparseInfluentialCheckpoints
from repro.sharding.engine import ShardedEngine

__all__ = [
    "board_factory",
    "expected_service",
    "expected_engine",
    "ExpectedAnswer",
    "kernel_compiled",
    "answer_of",
    "same_answer",
]


def answer_of(result) -> dict:
    """A ``SIMResult`` in the shape the server's ``topk`` returns."""
    return {
        "time": result.time,
        "value": result.value,
        "seeds": sorted(result.seeds),
    }


def same_answer(observed: dict, expected: dict) -> bool:
    """Equality on exactly ``(time, value, seeds)``."""
    return all(
        observed.get(key) == expected[key] for key in ("time", "value", "seeds")
    )


def board_factory(spec):
    """``factory(assignment)`` for the board ``repro.cli serve`` builds.

    One query named ``main``: SIC with the serve defaults the command
    line does not override (sieve oracle, shared index).
    """

    def factory(assignment=None):
        board = MultiQueryEngine()
        board.add(
            "main",
            SparseInfluentialCheckpoints(
                window_size=spec.window,
                k=spec.k,
                beta=spec.beta,
                oracle="sieve",
                shared_index=True,
                shard=assignment,
            ),
        )
        return board

    return factory


def _replay(process, query, actions: Sequence, slide: int, window: int, k: int):
    """Feed ``actions`` slide by slide; returns ``(answer, quality)``.

    Quality is the paper's axis: the answer's influence value over
    ``WindowedGreedy``'s on the same window, averaged — as the paper's
    figures average it — over the windows of the stream: every fifth of
    a window once the first window is full, and at the final action.
    One window's ratio swings with the seed (0.75 to 1.0 here); the
    average over the stream does not.
    """
    greedy = WindowedGreedy(window_size=window, k=k)
    every = max(window // 5 // slide, 1) * slide
    ratios = []
    for start in range(0, len(actions), every):
        chunk = actions[start : start + every]
        for at in range(0, len(chunk), slide):
            process(chunk[at : at + slide])
        greedy.process(chunk)
        if start + len(chunk) >= window:
            ratios.append(query().value / greedy.query().value)
    return answer_of(query()), statistics.fmean(ratios)


def expected_service(spec, actions: Sequence):
    """``(final answer, value_vs_greedy)`` of a service workload's engine.

    The sharded workload is checked against the serial backend of the
    same sharded engine: routing and merge-on-read are part of what the
    service promises, worker processes are not.
    """
    factory = board_factory(spec)
    if spec.shards > 1:
        engine = ShardedEngine.open(factory, spec.shards, backend="serial")
        try:
            return _replay(
                engine.process, engine.query, actions,
                spec.slide, spec.window, spec.k,
            )
        finally:
            engine.close(snapshot=False)
    board = factory()
    return _replay(
        board.process, lambda: board.query("main"), actions,
        spec.slide, spec.window, spec.k,
    )


def expected_engine(spec, actions: Sequence):
    """``(final answer, value_vs_greedy)`` of ``engine_ic_l1``'s engine."""
    engine = InfluentialCheckpoints(
        window_size=spec.window, k=spec.k, beta=spec.beta
    )
    return _replay(engine.process, engine.query, actions, 1, spec.window, spec.k)


def _compute(sender, function: Callable, args: tuple) -> None:
    os.nice(19)  # the generator, on the same core, always goes first
    try:
        sender.send((function(*args), None))
    except Exception as error:  # noqa: BLE001 - handed to the parent
        sender.send((None, repr(error)))
    finally:
        sender.close()


class ExpectedAnswer:
    """An expected answer being computed in a forked helper process.

    Replaying a workload's stream through the reference engine takes
    about half as long as the program takes to ingest it.  The helper
    does that on the generator's core, at the lowest priority, while the
    harness boots, warms and crashes servers; the result is collected
    before anything is timed, so it costs a run no wall time and the
    timed phases no interference.  It is forked (the stream is inherited,
    not pickled) before the generator starts any thread.
    """

    def __init__(self, function: Callable, *args):
        context = multiprocessing.get_context("fork")
        self._receiver, sender = context.Pipe(duplex=False)
        self._process = context.Process(
            target=_compute, args=(sender, function, args), daemon=True
        )
        self._process.start()
        sender.close()
        self._reply = None

    def result(self):
        """Block until the helper answers; returns what ``function`` did.

        Raises:
            RuntimeError: when the helper raised or died.
        """
        if self._reply is None:
            try:
                self._reply = self._receiver.recv()
            except EOFError:
                self._reply = (None, "the helper process died")
            finally:
                self.close()
        value, error = self._reply
        if error is not None:
            raise RuntimeError(f"expected answer: {error}")
        return value

    def close(self) -> None:
        """Stop the helper if it still runs, and wait for it (idempotent)."""
        if self._process.is_alive():
            self._process.kill()
        self._process.join()
        self._receiver.close()


def kernel_compiled() -> int:
    """1 when the columnar kernel's compiled event path loads, else 0.

    The harness and the program build the kernel from the same source
    into the same directory, so what loads here is what loaded there.
    """
    return int(_ckernel.load() is not None)
