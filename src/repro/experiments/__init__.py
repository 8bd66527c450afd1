"""Experiment drivers: one module per table/figure in the paper's
evaluation, plus the ablations listed in DESIGN.md.

Every driver exposes an :data:`EXPERIMENT` object; the registry maps
experiment ids (``table1`` ... ``fig5``, ``ablation-*``) to drivers, and
:func:`repro.experiments.runner.run_experiment` executes one and renders
its tables in the paper's row format.

Experiments accept a ``scale`` in (0, 1]: the fraction of the full trace
length to simulate.  ``scale=1.0`` reproduces the paper-sized runs;
tests use smaller scales to stay fast.
"""

from repro.experiments.base import Experiment, ExperimentResult, Table
from repro.experiments.registry import all_experiments, get_experiment
from repro.experiments.runner import run_experiment

__all__ = [
    "Experiment",
    "ExperimentResult",
    "Table",
    "all_experiments",
    "get_experiment",
    "run_experiment",
]
