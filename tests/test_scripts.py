"""Smoke tests for the repository scripts."""

import importlib.util
import pathlib

SCRIPTS = pathlib.Path(__file__).parent.parent / "scripts"


def load_script(name):
    """Import ``scripts/<name>.py`` as a module."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
