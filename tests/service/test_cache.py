"""Unit tests for the published-answer cache and the service config."""

import pytest

from repro.core.base import SIMResult
from repro.service.cache import AnswerBoard, AnswerCache, PublishedAnswer
from repro.service.config import ServiceConfig


def board(slide: int, value: float = 1.0, names=("q",)) -> AnswerBoard:
    return AnswerBoard.from_results(
        {
            name: SIMResult(time=slide * 10, seeds=frozenset({3, 1}), value=value)
            for name in names
        },
        slide=slide,
        time=slide * 10,
        published_at=100.0 + slide,
    )


class TestPublishedAnswer:
    def test_from_result_sorts_seeds(self):
        answer = PublishedAnswer.from_result(
            "q", SIMResult(time=5, seeds=frozenset({9, 2, 4}), value=3.0),
            slide=2, published_at=1.0,
        )
        assert answer.seeds == (2, 4, 9)
        assert answer.to_json() == {
            "query": "q",
            "time": 5,
            "seeds": [2, 4, 9],
            "value": 3.0,
            "slide": 2,
            "published_at": 1.0,
        }

    def test_frozen(self):
        answer = PublishedAnswer.from_result(
            "q", SIMResult(time=5, seeds=frozenset(), value=0.0),
            slide=1, published_at=1.0,
        )
        with pytest.raises(AttributeError):
            answer.value = 9.0


class TestAnswerCache:
    def test_empty_cache(self):
        cache = AnswerCache()
        assert cache.board is None
        assert cache.published == 0
        with pytest.raises(LookupError, match="no answers published"):
            cache.answer("q")
        assert cache.history_for("q") == []

    def test_publish_swaps_current_board(self):
        cache = AnswerCache()
        cache.publish(board(1, value=1.0))
        cache.publish(board(2, value=2.0))
        assert cache.published == 2
        assert cache.board.slide == 2
        assert cache.answer("q").value == 2.0

    def test_unknown_query_names_offender(self):
        cache = AnswerCache()
        cache.publish(board(1))
        with pytest.raises(LookupError, match="'nope'"):
            cache.answer("nope")

    def test_history_is_bounded_and_ordered(self):
        cache = AnswerCache(history=3)
        for slide in range(1, 6):
            cache.publish(board(slide))
        answers = cache.history_for("q")
        assert [a.slide for a in answers] == [3, 4, 5]

    def test_history_limit(self):
        cache = AnswerCache(history=10)
        for slide in range(1, 6):
            cache.publish(board(slide))
        assert [a.slide for a in cache.history_for("q", limit=2)] == [4, 5]
        assert [a.slide for a in cache.history_for("q", limit=99)] == [
            1, 2, 3, 4, 5,
        ]

    def test_history_skips_boards_missing_the_query(self):
        cache = AnswerCache()
        cache.publish(board(1, names=("a",)))
        cache.publish(board(2, names=("a", "b")))
        assert [a.slide for a in cache.history_for("b")] == [2]

    def test_history_validation(self):
        with pytest.raises(ValueError, match="history"):
            AnswerCache(history=0)


class TestServiceConfig:
    def test_defaults_valid(self):
        config = ServiceConfig()
        assert config.slide == 32
        assert config.port == 7077

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"slide": 0},
            {"flush_interval": 0.0},
            {"queue_capacity": 0},
            {"ack_every": 0},
            {"history": 0},
            {"port": -1},
            {"port": 70000},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)
