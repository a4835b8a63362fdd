"""Tests for the repro-stream CLI."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "-o", "x.jsonl"])
        assert args.dataset == "syn-n"
        assert args.actions == 10_000

    def test_track_defaults(self):
        args = build_parser().parse_args(["track", "x.jsonl"])
        assert args.algorithm == "sic"
        assert args.window == 5_000
        assert args.oracle == "sieve"
        assert args.checkpoint_interval == 1
        assert args.format == "text"
        assert args.state_dir is None
        assert args.snapshot_every == 16

    def test_track_engine_knobs(self):
        args = build_parser().parse_args([
            "track", "x.jsonl", "--oracle", "mkc",
            "--checkpoint-interval", "4",
            "--format", "json", "--state-dir", "st", "--snapshot-every", "8",
        ])
        assert args.oracle == "mkc"
        assert args.checkpoint_interval == 4
        assert args.format == "json"
        assert args.state_dir == "st"
        assert args.snapshot_every == 8

    @pytest.mark.parametrize("command", [["track", "x.jsonl"], ["serve"]])
    def test_retired_plane_switch_is_rejected(self, command, capsys):
        """``--no-shared-index`` went with the per-checkpoint engine mode
        (now ``repro.reference``); argparse refuses it on both commands."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(command + ["--no-shared-index"])
        assert exit_info.value.code == 2
        assert "--no-shared-index" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["track", "x.jsonl"], ["serve"]])
    def test_shard_backend_is_process_or_serial(self, command, capsys):
        """The thread backend is gone: both commands default to one forked
        worker per shard, accept ``serial``, and refuse ``thread``."""
        parse = build_parser().parse_args
        assert parse(command).shard_backend == "process"
        assert parse(command + ["--shard-backend", "serial"]).shard_backend == "serial"
        with pytest.raises(SystemExit) as exit_info:
            parse(command + ["--shard-backend", "thread"])
        assert exit_info.value.code == 2
        assert "'serial', 'process'" in capsys.readouterr().err

    def test_snapshot_subcommands(self):
        for sub in ("info", "save", "restore"):
            args = build_parser().parse_args(["snapshot", sub, "st"])
            assert args.snapshot_command == sub
            assert args.state_dir == "st"


class TestGenerate:
    def test_generate_jsonl(self, tmp_path, capsys):
        target = tmp_path / "s.jsonl"
        code = main([
            "generate", "--dataset", "twitter", "-n", "500", "-u", "100",
            "-o", str(target),
        ])
        assert code == 0
        assert "wrote 500 twitter actions" in capsys.readouterr().out
        assert target.exists()

    def test_generate_csv(self, tmp_path):
        target = tmp_path / "s.csv"
        assert main(["generate", "-n", "200", "-u", "50", "-o", str(target)]) == 0
        assert target.read_text().startswith("time,user,parent")

    def test_bad_extension(self, tmp_path, capsys):
        code = main(["generate", "-n", "10", "-o", str(tmp_path / "s.txt")])
        assert code == 1
        assert "unsupported extension" in capsys.readouterr().err


class TestStatsConvertTrack:
    @pytest.fixture
    def stream_file(self, tmp_path):
        target = tmp_path / "s.jsonl"
        main(["generate", "--dataset", "syn-n", "-n", "600", "-u", "80",
              "--seed", "3", "-o", str(target)])
        return target

    def test_stats(self, stream_file, capsys):
        assert main(["stats", str(stream_file)]) == 0
        out = capsys.readouterr().out
        assert "actions" in out and "600" in out
        assert "mean cascade depth" in out

    def test_convert_roundtrip(self, stream_file, tmp_path, capsys):
        csv_file = tmp_path / "s.csv"
        assert main(["convert", str(stream_file), str(csv_file)]) == 0
        back = tmp_path / "back.jsonl"
        assert main(["convert", str(csv_file), str(back)]) == 0
        assert back.read_text() == stream_file.read_text()

    def test_track(self, stream_file, capsys):
        code = main([
            "track", str(stream_file), "--window", "200", "--slide", "100",
            "-k", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "seeds" in out
        assert out.count("\n") >= 6  # header + one line per slide

    @pytest.mark.parametrize("algorithm", ["sic", "ic", "greedy"])
    def test_track_all_algorithms(self, stream_file, algorithm, capsys):
        code = main([
            "track", str(stream_file), "--algorithm", algorithm,
            "--window", "200", "--slide", "200", "-k", "2",
        ])
        assert code == 0

    @pytest.mark.parametrize("oracle", ["threshold", "blog_watch", "mkc"])
    def test_track_oracle_flag(self, stream_file, oracle, capsys):
        code = main([
            "track", str(stream_file), "--algorithm", "ic",
            "--oracle", oracle, "--window", "200", "--slide", "200", "-k", "2",
        ])
        assert code == 0

    def test_track_checkpoint_interval(self, stream_file, capsys):
        code = main([
            "track", str(stream_file), "--algorithm", "ic",
            "--checkpoint-interval", "2", "--window", "200", "--slide", "100",
            "-k", "2",
        ])
        assert code == 0

    def test_track_json_format(self, stream_file, capsys):
        capsys.readouterr()  # drain the fixture's generate output
        code = main([
            "track", str(stream_file), "--format", "json",
            "--window", "200", "--slide", "100", "-k", "3",
        ])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 6  # one object per slide, no header
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"time", "value", "seeds"}
            assert record["seeds"] == sorted(record["seeds"])
        assert json.loads(lines[-1])["time"] == 600

    def test_missing_file(self, capsys):
        assert main(["stats", "/nonexistent/x.jsonl"]) == 1
        assert "error" in capsys.readouterr().err


class TestTrackStateDir:
    """Crash-recoverable tracking: resume, snapshot tooling, SIGKILL."""

    @pytest.fixture
    def stream_file(self, tmp_path):
        target = tmp_path / "s.jsonl"
        main(["generate", "--dataset", "syn-n", "-n", "800", "-u", "80",
              "--seed", "5", "-o", str(target)])
        return target

    def _track(self, stream_file, tmp_path, capsys, *extra):
        capsys.readouterr()  # drain fixture/previous-step output
        code = main([
            "track", str(stream_file), "--window", "200", "--slide", "100",
            "-k", "3", "--format", "json", *extra,
        ])
        assert code == 0
        out = capsys.readouterr()
        return [l for l in out.out.splitlines() if l], out.err

    def test_resume_continues_where_the_first_run_stopped(
        self, stream_file, tmp_path, capsys
    ):
        expected, _ = self._track(stream_file, tmp_path, capsys)
        # First run: only the stream prefix is available.
        prefix = tmp_path / "prefix.jsonl"
        prefix.write_text(
            "".join(stream_file.read_text().splitlines(keepends=True)[:500])
        )
        state = tmp_path / "state"
        first, _ = self._track(
            prefix, tmp_path, capsys, "--state-dir", str(state),
            "--snapshot-every", "2",
        )
        # Second run: the full file arrives; processed slides are skipped.
        second, err = self._track(
            stream_file, tmp_path, capsys, "--state-dir", str(state),
            "--snapshot-every", "2",
        )
        assert "resumed at time 500" in err
        assert first + second == expected

    def test_restart_after_completion_emits_nothing_new(
        self, stream_file, tmp_path, capsys
    ):
        state = tmp_path / "state"
        full, _ = self._track(
            stream_file, tmp_path, capsys, "--state-dir", str(state)
        )
        again, err = self._track(
            stream_file, tmp_path, capsys, "--state-dir", str(state)
        )
        assert again == []
        assert "resumed at time 800" in err

    def test_snapshot_info_save_restore(self, stream_file, tmp_path, capsys):
        state = tmp_path / "state"
        expected, _ = self._track(
            stream_file, tmp_path, capsys, "--state-dir", str(state),
            "--snapshot-every", "3",
        )
        assert main(["snapshot", "info", str(state)]) == 0
        out = capsys.readouterr().out
        assert "snapshot" in out and "wal" in out and "sic" in out

        assert main(["snapshot", "save", str(state)]) == 0
        assert "snapshot written at slide 8" in capsys.readouterr().out

        assert main(["snapshot", "restore", str(state)]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        final = json.loads(expected[-1])
        assert record["slide"] == 8
        assert record["time"] == final["time"]
        assert record["value"] == final["value"]
        assert record["seeds"] == final["seeds"]

    def test_snapshot_info_lists_format_and_sections(
        self, stream_file, tmp_path, capsys
    ):
        """Per snapshot: the format, the total bytes and one line per
        section (name dtype count bytes) — "what grew" without a debugger."""
        state = tmp_path / "state"
        self._track(
            stream_file, tmp_path, capsys, "--state-dir", str(state),
            "--snapshot-every", "3",
        )
        assert main(["snapshot", "info", str(state)]) == 0
        lines = capsys.readouterr().out.splitlines()
        snapshots = [l.split() for l in lines if l.startswith("snapshot ")]
        assert [row[2] for row in snapshots] == ["3", "6", "8"]
        assert all(row[-2:] == ["container", "v1"] for row in snapshots)
        sections = [l.split() for l in lines if l.startswith("  section")]
        times = [row for row in sections if row[1] == "algorithm.base.forest.records.time"]
        # One forest row per action so far, its time in two bytes (<i2).
        assert [row[2:] for row in times] == [
            ["<i2", "300", "600", "bytes"],
            ["<i2", "600", "1,200", "bytes"],
            ["<i2", "800", "1,600", "bytes"],
        ]
        # The window is a clock: no snapshot carries its actions or records.
        assert not [row for row in sections if row[1].startswith("algorithm.base.window")]
        sizes = [int(row[3].replace(",", "")) for row in snapshots]
        section_bytes = sum(int(row[4].replace(",", "")) for row in sections)
        assert 0 < section_bytes < sum(sizes)

    def test_snapshot_on_empty_state_dir_fails_cleanly(self, tmp_path, capsys):
        void = tmp_path / "void"
        assert main(["snapshot", "restore", str(void)]) == 1
        assert "error" in capsys.readouterr().err
        # Inspection must not create a state tree at the typoed path.
        assert main(["snapshot", "info", str(void)]) == 1
        assert "no state directory" in capsys.readouterr().err
        assert not void.exists()

    def test_resume_with_mismatched_flags_is_rejected(
        self, stream_file, tmp_path, capsys
    ):
        state = tmp_path / "state"
        self._track(stream_file, tmp_path, capsys, "--state-dir", str(state))
        code = main([
            "track", str(stream_file), "--window", "200", "--slide", "100",
            "-k", "7", "--format", "json", "--state-dir", str(state),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "different engine settings" in err
        # Matching flags still resume fine afterwards.
        again, _ = self._track(
            stream_file, tmp_path, capsys, "--state-dir", str(state)
        )
        assert again == []

    def test_damaged_snapshot_document_fails_with_one_error_line(
        self, stream_file, tmp_path, capsys
    ):
        """A whole container, right format, engine document missing a
        field: a one-line ``error:`` naming it, not a traceback."""
        from repro.persistence.snapshots import SnapshotStore

        state = tmp_path / "state"
        self._track(stream_file, tmp_path, capsys, "--state-dir", str(state))
        store = SnapshotStore(state / "snapshots")
        seq, document = store.load_latest()
        del document["algorithm"]["roster"]
        store.save(seq, document)
        code = main([
            "track", str(stream_file), "--window", "200", "--slide", "100",
            "-k", "3", "--format", "json", "--state-dir", str(state),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.strip() == "error: state document has no field 'roster'"

    def test_sigkill_resume_matches_uninterrupted_run(self, tmp_path, capsys):
        """The headline scenario: kill -9 mid-stream, rerun, same answers.

        Uses a longer stream (120 slides) so killing right after the first
        reported slides is guaranteed to land mid-run.
        """
        stream = tmp_path / "long.jsonl"
        main(["generate", "--dataset", "syn-n", "-n", "6000", "-u", "300",
              "--seed", "11", "-o", str(stream)])
        track_args = [
            "track", str(stream), "--window", "1000", "--slide", "50",
            "-k", "3", "--format", "json",
        ]
        capsys.readouterr()
        assert main(track_args) == 0
        expected = [l for l in capsys.readouterr().out.splitlines() if l]

        state = tmp_path / "state"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        env["PYTHONUNBUFFERED"] = "1"
        command = [
            sys.executable, "-m", "repro.cli", *track_args,
            "--state-dir", str(state), "--snapshot-every", "8",
        ]
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=env, text=True,
        )
        killed_lines = []
        try:
            # Kill as soon as at least two of the 120 slides were reported.
            deadline = time.time() + 120
            while len(killed_lines) < 2 and time.time() < deadline:
                line = process.stdout.readline()
                if not line:
                    break
                killed_lines.append(line.strip())
            process.kill()  # SIGKILL on POSIX
        finally:
            process.wait()
            process.stdout.close()
        assert process.returncode == -signal.SIGKILL
        assert killed_lines, "first run produced no output before the kill"

        capsys.readouterr()
        assert main([*track_args, "--state-dir", str(state),
                     "--snapshot-every", "8"]) == 0
        out = capsys.readouterr()
        resumed = [l for l in out.out.splitlines() if l]
        assert "resumed" in out.err and "replayed" in out.err
        assert resumed, "resumed run skipped everything"
        assert len(resumed) < len(expected)  # it really resumed mid-stream
        # The resumed output is exactly the tail of the uninterrupted run.
        assert resumed == expected[len(expected) - len(resumed):]
        assert resumed[-1] == expected[-1]


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 7077
        assert args.algorithm == "sic"
        assert args.window == 5_000
        assert args.slide == 32
        assert args.flush_interval == 0.5
        assert args.queue_capacity == 4096
        assert args.ack_every == 1000
        assert args.history == 128
        assert args.query is None
        assert args.state_dir is None
        assert args.snapshot_every == 16

    def test_serve_query_specs_accumulate(self):
        args = build_parser().parse_args([
            "serve", "--query", "a=sic", "--query", "b=ic,k=5",
        ])
        assert args.query == ["a=sic", "b=ic,k=5"]

    def test_snapshot_prune_parser(self):
        args = build_parser().parse_args(["snapshot", "prune", "st"])
        assert args.snapshot_command == "prune"
        assert args.keep == 1
        args = build_parser().parse_args(
            ["snapshot", "prune", "st", "--keep", "3"]
        )
        assert args.keep == 3


class TestQuerySpecs:
    def _defaults(self, **overrides):
        return build_parser().parse_args(["serve", *overrides.get("argv", [])])

    def test_spec_inherits_top_level_flags(self):
        from repro.cli import _parse_query_spec

        defaults = self._defaults(argv=["--window", "900", "-k", "7"])
        name, options = _parse_query_spec("board=sic", defaults)
        assert name == "board"
        assert options["algorithm"] == "sic"
        assert options["window"] == 900
        assert options["k"] == 7
        assert options["beta"] == 0.2

    def test_spec_overrides(self):
        from repro.cli import _parse_query_spec

        name, options = _parse_query_spec(
            "fast=ic,k=3,beta=0.4,oracle=mkc,checkpoint-interval=2,window=50",
            self._defaults(),
        )
        assert name == "fast"
        assert options == {
            "algorithm": "ic", "window": 50, "k": 3, "beta": 0.4,
            "oracle": "mkc", "checkpoint_interval": 2,
        }

    @pytest.mark.parametrize("spec,message", [
        ("noequals", "expected NAME=ALGO"),
        ("a=", "names no algorithm"),
        ("a=nope", "unknown algorithm"),
        ("a=sic,bogus=1", "bad option"),
        ("a=sic,oracle=nope", "unknown oracle"),
        ("a=greedy,beta=0.5", "does not apply"),
        ("a=greedy,oracle=mkc", "does not apply"),
        ("a=sic,checkpoint-interval=2", "does not apply"),
    ])
    def test_bad_specs_are_named(self, spec, message):
        from repro.cli import _parse_query_spec

        with pytest.raises(ValueError, match=message):
            _parse_query_spec(spec, self._defaults())

    def test_factory_builds_named_board(self):
        from repro.cli import _make_serve_factory

        args = build_parser().parse_args([
            "serve", "--window", "100",
            "--query", "precise=sic,beta=0.1",
            "--query", "cheap=greedy,k=2",
        ])
        engine = _make_serve_factory(args)()
        assert engine.names() == ["cheap", "precise"]

    def test_factory_rejects_duplicate_names(self):
        from repro.cli import _make_serve_factory

        args = build_parser().parse_args([
            "serve", "--query", "a=sic", "--query", "a=ic",
        ])
        with pytest.raises(ValueError, match="duplicate"):
            _make_serve_factory(args)


class TestSnapshotPrune:
    @pytest.fixture
    def populated_state(self, tmp_path, capsys):
        stream = tmp_path / "s.jsonl"
        main(["generate", "--dataset", "syn-n", "-n", "800", "-u", "80",
              "--seed", "5", "-o", str(stream)])
        state = tmp_path / "state"
        code = main([
            "track", str(stream), "--window", "200", "--slide", "50",
            "-k", "3", "--format", "json", "--state-dir", str(state),
            "--snapshot-every", "2",
        ])
        assert code == 0
        capsys.readouterr()
        return state

    def test_prune_keeps_newest_and_drops_covered_wal(
        self, populated_state, capsys
    ):
        from repro.persistence.engine import StateStore

        store = StateStore(populated_state)
        before = store.snapshots.sequences()
        store.close()
        assert len(before) > 1

        assert main(["snapshot", "prune", str(populated_state)]) == 0
        out = capsys.readouterr().out
        assert f"dropped {len(before) - 1} snapshots" in out
        assert "kept 1 snapshots" in out

        store = StateStore(populated_state)
        after = store.snapshots.sequences()
        store.close()
        assert after == [before[-1]]
        # The pruned dir still restores to the same position.
        capsys.readouterr()
        assert main(["snapshot", "restore", str(populated_state)]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["slide"] == 16

    def test_prune_is_idempotent(self, populated_state, capsys):
        assert main(["snapshot", "prune", str(populated_state)]) == 0
        capsys.readouterr()
        assert main(["snapshot", "prune", str(populated_state)]) == 0
        assert "dropped 0 snapshots" in capsys.readouterr().out

    def test_prune_refuses_typoed_path(self, tmp_path, capsys):
        void = tmp_path / "void"
        assert main(["snapshot", "prune", str(void)]) == 1
        assert "no state directory" in capsys.readouterr().err
        assert not void.exists()

    def test_prune_rejects_bad_keep(self, populated_state, capsys):
        assert main(
            ["snapshot", "prune", str(populated_state), "--keep", "0"]
        ) == 1
        assert "keep" in capsys.readouterr().err
