"""Benchmark harness for the SIM serving stack (see ``bench/README.md``).

Entry point: ``python3 bench/run.py``.  Nothing here is imported by
``src/``; the harness drives the system under test from outside, in a
child process, through its public entry points only.
"""
