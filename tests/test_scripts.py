"""Smoke tests for the repository scripts."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).parent.parent / "scripts"
BENCHMARKS = SCRIPTS.parent / "benchmarks"


def load_script(name, directory=SCRIPTS):
    """Import ``<directory>/<name>.py`` (default ``scripts/``) as a module."""
    spec = importlib.util.spec_from_file_location(name, directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRunExperiments:
    def test_only_table3(self, tmp_path):
        completed = subprocess.run(
            [
                sys.executable,
                str(SCRIPTS / "run_experiments.py"),
                "--only", "table3",
                "--beta-scale", "tiny",
                "--sweep-scale", "tiny",
                "--out", str(tmp_path),
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr[-1500:]
        assert (tmp_path / "table3.csv").exists()
        assert (tmp_path / "table3.txt").exists()
        assert "wrote table3" in completed.stdout
        # Nothing else was produced.
        produced = {p.name for p in tmp_path.iterdir()}
        assert produced == {"table3.csv", "table3.txt"}

    def test_csv_has_all_datasets(self, tmp_path):
        subprocess.run(
            [
                sys.executable,
                str(SCRIPTS / "run_experiments.py"),
                "--only", "table3",
                "--beta-scale", "tiny",
                "--out", str(tmp_path),
            ],
            capture_output=True,
            timeout=300,
            check=True,
        )
        content = (tmp_path / "table3.csv").read_text()
        for dataset in ("reddit", "twitter", "syn-o", "syn-n"):
            assert dataset in content


class TestLoadGen:
    def test_drives_a_live_server(self):
        """The load generator pushes a stream and reports the board."""
        from repro.core.sic import SparseInfluentialCheckpoints
        from repro.persistence.engine import RecoverableEngine
        from repro.service.config import ServiceConfig
        from repro.service.runner import ServiceRunner

        load_gen = load_script("load_gen")

        engine = RecoverableEngine.open(
            None,
            lambda: SparseInfluentialCheckpoints(window_size=200, k=3, beta=0.3),
        )
        config = ServiceConfig(port=0, slide=25, flush_interval=60.0)
        with ServiceRunner(engine, config) as runner:
            report = load_gen.main([
                "--port", str(runner.port), "-n", "500", "-u", "50",
            ])
        assert report["actions"] == 500
        assert report["accepted"] == 500
        assert report["rejected"] == 0
        assert report["actions_per_sec"] > 0
        assert report["board"]["main"]["time"] == 500


@pytest.mark.parametrize(
    "name", sorted(p.stem for p in BENCHMARKS.glob("bench_*.py"))
)
def test_benchmark_module_imports(name, monkeypatch):
    """``pytest`` never collects ``benchmarks/bench_*.py``, so a removed
    ``repro.*`` name would break the figure regenerators silently; importing
    each one (the ``benchmark`` fixture is only needed at run time) catches it."""
    monkeypatch.setitem(
        sys.modules, "conftest", load_script("conftest", BENCHMARKS)
    )
    load_script(name, BENCHMARKS)
