"""Tests for the experiments CLI (``python -m repro.experiments.cli``)."""

import dataclasses

import pytest

from repro.experiments import figures
from repro.experiments.cli import build_parser, main
from repro.experiments.reporting import ExperimentTable


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_defaults(self):
        args = build_parser().parse_args(["table3"])
        assert args.scale == "small"
        assert args.datasets is None
        assert args.seed == 7

    def test_dataset_choices(self):
        args = build_parser().parse_args(
            ["fig7", "--datasets", "syn-n", "reddit"]
        )
        assert args.datasets == ["syn-n", "reddit"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig7", "--datasets", "myspace"])


class TestMain:
    def test_table3_runs(self, capsys):
        code = main(["table3", "--scale", "tiny", "--datasets", "syn-n"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "syn-n" in out
        assert "`python -m repro.experiments.cli table3 --scale tiny --datasets syn-n`" in out
        assert "- PASS Each dataset's mean cascade depth" in out

    def test_csv_output(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        code = main([
            "table3", "--scale", "tiny", "--datasets", "syn-n",
            "--csv", str(target),
        ])
        assert code == 0
        content = target.read_text()
        assert content.startswith("# Table 3")
        assert "dataset" in content

    def test_fig6_runs(self, capsys):
        code = main(["fig6", "--scale", "tiny", "--datasets", "syn-n"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "SIC" in out


@pytest.fixture
def sweeps(monkeypatch):
    """Swap every sweep for a recorder of ``(sweep, datasets)`` calls that
    returns empty tables; artefacts that shared a sweep share its recorder."""
    calls = []
    fakes = {}
    for name, artefact in figures.REGISTRY.items():
        sweep = artefact.sweep
        if sweep not in fakes:
            names = [n for n, a in figures.REGISTRY.items() if a.sweep is sweep]

            def fake(datasets, scale, seed, _sweep=sweep, _names=names):
                calls.append((_sweep.__name__, datasets))
                return {n: ExperimentTable(n, ["dataset"]) for n in _names}

            fakes[sweep] = fake
        monkeypatch.setitem(
            figures.REGISTRY, name, dataclasses.replace(artefact, sweep=fakes[sweep])
        )
    return calls


class TestDatasetSelection:
    def test_table2_honours_datasets(self, sweeps, capsys):
        assert main(["table2", "--datasets", "reddit"]) == 0
        captured = capsys.readouterr()
        assert sweeps == []
        assert captured.err == "skipping table2: defined on syn-n only\n"
        assert "## table2" not in captured.out

    def test_fig12_skips_datasets_it_is_not_defined_on(self, sweeps, capsys):
        assert main(["fig12", "--datasets", "reddit", "syn-n"]) == 0
        assert sweeps == [("fig12", ("syn-n",))]
        assert main(["fig12", "--datasets", "reddit"]) == 0
        assert sweeps == [("fig12", ("syn-n",))]
        assert "skipping fig12: defined on syn-o, syn-n only" in capsys.readouterr().err

    def test_all_runs_each_sweep_once_on_the_chosen_datasets(self, sweeps, capsys):
        assert main(["all", "--datasets", "reddit"]) == 0
        assert sweeps == [
            ("fig5_6_7", ("reddit",)),
            ("fig8_9", ("reddit",)),
            ("fig10", ("reddit",)),
            ("fig11", ("reddit",)),
            ("table3", ("reddit",)),
        ]
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "skipping fig12: defined on syn-o, syn-n only",
            "skipping table2: defined on syn-n only",
        ]
