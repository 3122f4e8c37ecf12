"""Experiment reproductions: one module per paper table/figure.

Every module exposes ``run(fast: bool = True) -> ExperimentResult``;
``fast`` shrinks simulation sizes for test suites while the benchmark
harness runs the full configurations.
:func:`repro.experiments.runner.run_experiments` executes any subset;
``python -m repro experiments`` prints the paper-style tables.
"""

from repro.experiments.base import ExperimentResult, available_experiments, get_experiment

__all__ = ["ExperimentResult", "available_experiments", "get_experiment"]
