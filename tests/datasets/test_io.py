"""Unit tests for stream persistence (JSONL/CSV) and raw-log ingestion."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.io import (
    ingest_events,
    read_csv,
    read_jsonl,
    write_csv,
    write_jsonl,
)
from tests.conftest import random_stream


class TestJsonlRoundtrip:
    def test_roundtrip(self, tmp_path, paper_stream):
        path = tmp_path / "stream.jsonl"
        assert write_jsonl(paper_stream, path) == 10
        assert list(read_jsonl(path)) == paper_stream

    def test_random_roundtrip(self, tmp_path):
        actions = random_stream(200, 12, seed=3)
        path = tmp_path / "s.jsonl"
        write_jsonl(actions, path)
        assert list(read_jsonl(path)) == actions

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"t":1,"u":2}\n\n{"t":2,"u":3,"p":1}\n')
        actions = list(read_jsonl(path))
        assert len(actions) == 2
        assert actions[1].parent == 1

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t":1,"u":2}\nnot-json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            list(read_jsonl(path))

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t":1}\n')
        with pytest.raises(ValueError, match="malformed"):
            list(read_jsonl(path))

    def test_invalid_stream_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t":2,"u":1}\n{"t":1,"u":1}\n')
        with pytest.raises(ValueError, match="strictly increasing"):
            list(read_jsonl(path))

    @pytest.mark.parametrize("line,phrase", [
        ('{"t":"2","u":2}', "must be integers"),
        ('{"t":2.5,"u":2,"p":1}', "must be integers"),
        ('{"t":true,"u":2}', "must be integers"),
        ('{"t":2,"u":%d}' % 2**70, "below 2\\*\\*63"),
        ('{"t":2,"u":1,"p":9}', "earlier action id"),
        ('{"t":3,"u":1,"p":2}', "unseen action 2"),
        ("[" * 100_000, "recursion"),
        ("[1, 2]", "malformed"),
    ], ids=[
        "string-time", "float-time", "bool-time", "huge-user",
        "future-parent", "unseen-parent", "nested", "not-an-object",
    ])
    def test_bad_line_is_refused_naming_it(self, tmp_path, line, phrase):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t":1,"u":2}\n' + line + "\n")
        with pytest.raises(ValueError, match=phrase) as refusal:
            list(read_jsonl(path))
        assert str(refusal.value).startswith(f"{path}:2: invalid action: ")


class TestCsvRoundtrip:
    def test_roundtrip(self, tmp_path, paper_stream):
        path = tmp_path / "stream.csv"
        assert write_csv(paper_stream, path) == 10
        assert list(read_csv(path)) == paper_stream

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,\n")
        with pytest.raises(ValueError, match="header"):
            list(read_csv(path))

    def test_column_count_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,user,parent\n1,2\n")
        with pytest.raises(ValueError, match="3 columns"):
            list(read_csv(path))

    def test_non_integer_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,user,parent\nx,2,\n")
        with pytest.raises(ValueError, match="non-integer"):
            list(read_csv(path))

    @pytest.mark.parametrize("row,phrase", [
        ("2,3,x", "non-integer field 'x'"),
        ("2,x,1", "non-integer field 'x'"),
        ("2,%d,1" % 2**70, "below 2\\*\\*63"),
        ("2,3,2", "earlier action id"),
        ("1,3,", "strictly increasing"),
        (",3,", "must be integers"),
    ])
    def test_bad_row_is_refused_naming_it(self, tmp_path, row, phrase):
        path = tmp_path / "bad.csv"
        path.write_text("time,user,parent\n1,2,\n" + row + "\n")
        with pytest.raises(ValueError, match=phrase) as refusal:
            list(read_csv(path))
        assert str(refusal.value).startswith(f"{path}:3: invalid action: ")

    def test_empty_parent_is_root(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("time,user,parent\n1,7,\n2,8,1\n")
        actions = list(read_csv(path))
        assert actions[0].is_root
        assert actions[1].parent == 1


class TestRoundtripProperty:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100_000), n=st.integers(1, 120))
    def test_jsonl_and_csv_preserve_any_stream(self, tmp_path_factory, seed, n):
        tmp = tmp_path_factory.mktemp("io")
        actions = random_stream(n, 9, seed=seed)
        jsonl = tmp / "s.jsonl"
        csv_file = tmp / "s.csv"
        write_jsonl(actions, jsonl)
        write_csv(actions, csv_file)
        assert list(read_jsonl(jsonl)) == actions
        assert list(read_csv(csv_file)) == actions


#: A field as a generated line might spell it: mostly plausible integers,
#: plus every JSON type and the int64 edges.
FIELDS = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([0, 2**63 - 1, 2**63, 2**70, -(2**63)]),
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2),
)
#: One line of text, no line break inside.
TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"))


@st.composite
def jsonl_lines(draw):
    keys = draw(st.lists(st.sampled_from("tup"), unique=True))
    record = {key: draw(FIELDS) for key in keys}
    return draw(st.one_of(st.just(json.dumps(record)), TEXT))


@st.composite
def csv_lines(draw):
    cells = draw(st.lists(st.one_of(FIELDS.map(str), st.just("")), min_size=1, max_size=4))
    return draw(st.one_of(st.just(",".join(cells)), TEXT))


class TestAnyLine:
    """Whatever one line of a file holds, a reader yields an ``Action`` or
    raises a ``ValueError`` naming ``path:line`` — never anything else."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(line=jsonl_lines())
    def test_jsonl_line_is_an_action_or_a_located_refusal(self, tmp_path_factory, line):
        path = tmp_path_factory.mktemp("io") / "one.jsonl"
        path.write_text('{"t":1,"u":0}\n' + line + "\n", encoding="utf-8")
        try:
            list(read_jsonl(path))
        except ValueError as refusal:
            assert re.match(re.escape(f"{path}:") + r"\d+: invalid action: ", str(refusal))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(line=csv_lines())
    def test_csv_line_is_an_action_or_a_located_refusal(self, tmp_path_factory, line):
        path = tmp_path_factory.mktemp("io") / "one.csv"
        path.write_text("time,user,parent\n1,0,\n" + line + "\n", encoding="utf-8")
        try:
            list(read_csv(path))
        except ValueError as refusal:
            assert re.match(re.escape(f"{path}:") + r"\d+: invalid action: ", str(refusal))


class TestIngestEvents:
    def test_arbitrary_user_ids(self):
        actions, users = ingest_events(
            [("alice", None), ("bob", 0), ("alice", 1)]
        )
        assert users == {"alice": 0, "bob": 1}
        assert [a.user for a in actions] == [0, 1, 0]
        assert actions[1].parent == 1
        assert actions[2].parent == 2

    def test_unknown_parent_demoted_to_root(self):
        actions, _ = ingest_events([("a", None), ("b", 7), ("c", -1)])
        assert all(a.is_root for a in actions)

    def test_self_or_future_parent_demoted(self):
        actions, _ = ingest_events([("a", 0), ("b", 1)])
        assert actions[0].is_root  # parent 0 == own position
        assert actions[1].is_root  # parent 1 == own position

    def test_result_is_valid_stream(self):
        from repro.core.stream import validate_stream

        events = [("u%d" % (i % 5), i - 1 if i % 3 else None) for i in range(50)]
        actions, _ = ingest_events(events)
        assert list(validate_stream(actions)) == actions

    def test_empty(self):
        actions, users = ingest_events([])
        assert actions == [] and users == {}
