"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one experiment (E1–E9, F1) of
:mod:`repro.analysis.experiments` and prints the resulting table, so running

    pytest benchmarks/ --benchmark-only

reproduces the full empirical evaluation (at the "quick" scale; pass
``--scale=full`` for the larger sweeps).
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption("--scale", action="store", default="quick",
                     choices=("quick", "full"),
                     help="experiment scale: quick (default) or full")


@pytest.fixture(scope="session")
def scale(request) -> str:
    """The experiment scale selected on the command line."""
    return request.config.getoption("--scale")


def run_and_print(experiment_id: str, scale: str):
    """Run one experiment, print its table, persist it, and return it.

    The rendered table is also written to
    ``benchmarks/results/<ID>_<scale>.txt`` so that two runs can be diffed.
    The shared experiment runner is given a persistent result store under
    ``benchmarks/results/`` (gitignored), so re-running the harness reuses
    every algorithm result computed by earlier invocations — across
    processes, not just within one.
    """
    import pathlib

    from repro.analysis import run_experiment

    results_dir = pathlib.Path(__file__).parent / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    table = run_experiment(experiment_id, scale,
                           store_path=results_dir / "result_store.sqlite")
    print()
    print(table.render())
    (results_dir / f"{experiment_id.upper()}_{scale}.txt").write_text(table.render() + "\n")
    return table
