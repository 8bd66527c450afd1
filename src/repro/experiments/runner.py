"""Experiment runner: execute one driver and return its report.

The command-line front ends live in ``python -m repro``: ``repro
experiments`` lists the registry, ``repro experiment <id>`` runs one
driver, and ``repro run`` runs many through the parallel, cache-aware
engine (:mod:`repro.engine`).
"""

from __future__ import annotations

import argparse
from typing import Any

from repro.experiments.base import ExperimentResult
from repro.experiments.registry import get_experiment
from repro.kernel import using_kernel, validate_kernel


def parse_scale(text: str) -> float:
    """Argparse type for ``--scale``: a float in (0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"scale must be a number, got {text!r}")
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"scale must be in (0, 1], got {value:g} — 1.0 is a full "
            f"paper-sized run, smaller values shrink the traces "
            f"proportionally"
        )
    return value


def run_experiment(
    experiment_id: str,
    scale: float = 1.0,
    seed: int | None = None,
    kernel: str | None = None,
    **kwargs: Any,
) -> ExperimentResult:
    """Run one experiment by id.

    ``seed`` is threaded explicitly into the driver (every registered
    driver accepts ``seed=`` and passes it to ``trace_for``), so the same
    driver can be replayed on a different trace realisation without code
    changes — and without mutating process-global state, which is what
    makes runs safe to fan out across worker processes.

    ``kernel`` selects the simulation engine for every ``simulate`` call
    the driver makes (installed for the duration via
    :func:`repro.kernel.using_kernel`, so drivers need no kernel
    parameter of their own); None leaves the process default in place.
    """
    if kernel is not None:
        validate_kernel(kernel)
        with using_kernel(kernel):
            return run_experiment(experiment_id, scale=scale, seed=seed, **kwargs)
    experiment = get_experiment(experiment_id)
    if seed is None:
        return experiment(scale=scale, **kwargs)
    return experiment(scale=scale, seed=seed, **kwargs)
