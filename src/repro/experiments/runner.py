"""Experiment runner: execute drivers and render their reports.

Also usable from the command line::

    python -m repro.experiments.runner table4 --scale 0.2
    python -m repro.experiments.runner --all --scale 0.05 --jobs 4

``--all`` runs route through the execution engine (:mod:`repro.engine`);
``--jobs 1`` (the default here) executes in-process and byte-identically
to the historical serial runner, while ``--jobs N`` fans experiments out
over worker processes.  The richer front end — result caching, seed
sweeps, run manifests — lives in ``python -m repro run``.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import warnings
from typing import Any

from repro.experiments import traces_cache
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.registry import all_experiments, get_experiment
from repro.kernel import KERNELS, using_kernel, validate_kernel


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


def _accepts_seed(experiment: Experiment) -> bool:
    try:
        parameters = inspect.signature(experiment.run).parameters.values()
    except (TypeError, ValueError):  # builtins/partials without signatures
        return False
    return any(
        parameter.name == "seed" or parameter.kind is parameter.VAR_KEYWORD
        for parameter in parameters
    )


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

    For third-party drivers that predate the explicit parameter, the old
    behaviour (temporarily retargeting the module-default seed) is kept
    behind a :class:`DeprecationWarning`.
    """
    if kernel is not None:
        validate_kernel(kernel)
        with using_kernel(kernel):
            return run_experiment(experiment_id, scale=scale, seed=seed, **kwargs)
    experiment = get_experiment(experiment_id)
    if seed is None:
        return experiment(scale=scale, **kwargs)
    if _accepts_seed(experiment):
        return experiment(scale=scale, seed=seed, **kwargs)
    warnings.warn(
        f"driver {experiment_id!r} does not accept seed=; falling back to "
        f"the deprecated process-global default-seed mutation. Add a "
        f"seed parameter to the driver and pass it to trace_for().",
        DeprecationWarning,
        stacklevel=2,
    )
    previous = traces_cache.default_seed()
    traces_cache._set_default_seed(seed)
    try:
        return experiment(scale=scale, **kwargs)
    finally:
        traces_cache._set_default_seed(previous)


def run_all(
    scale: float = 1.0,
    seed: int | None = None,
    jobs: int = 1,
    cache: Any = None,
    kernel: str | None = None,
) -> dict[str, ExperimentResult]:
    """Run every registered experiment; returns results keyed by id.

    Routed through the execution engine: ``jobs=1`` runs in-process (and
    byte-identical to the historical serial loop); ``jobs>1`` fans the
    drivers out over worker processes.  ``cache`` may be a
    :class:`repro.engine.ResultCache` to memoise results on disk.  The
    first failing experiment raises, as the serial loop always did.
    """
    from repro.engine import decompose, execute, raise_on_errors

    units = decompose(
        sorted(all_experiments()), scale=scale, seeds=(seed,), kernel=kernel
    )
    outcomes = execute(units, jobs=jobs, cache=cache)
    raise_on_errors(outcomes)
    return {
        outcome.unit.experiment_id: outcome.result
        for outcome in outcomes
        if outcome.result is not None
    }


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("experiment", nargs="?", help="experiment id")
    parser.add_argument("--all", action="store_true", help="run everything")
    parser.add_argument("--scale", type=parse_scale, default=0.2,
                        help="trace-length scale in (0, 1]")
    parser.add_argument("--seed", type=int, default=None,
                        help="trace-generation seed (default: module default)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for --all (default 1: serial)")
    parser.add_argument("--kernel", choices=KERNELS, default=None,
                        help="simulation kernel (default: batched; vector "
                        "answers within the documented float tolerance)")
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument("--output", help="also write the report to this file "
                        "(appended experiment by experiment)")
    args = parser.parse_args(argv)

    # Stream each report to --output as it completes, so a crashed --all
    # run keeps everything finished so far.
    output = None
    if args.output:
        os.makedirs(os.path.dirname(os.path.abspath(args.output)), exist_ok=True)
        output = open(args.output, "w")

    def emit(text: str) -> None:
        print(text)
        if output is not None:
            output.write(text + "\n")
            output.flush()

    try:
        if args.list:
            for experiment_id, experiment in sorted(all_experiments().items()):
                print(f"{experiment_id:22s} {experiment.paper_ref:28s} "
                      f"{experiment.title}")
            return 0
        if args.all:
            from repro.engine import decompose, execute, raise_on_errors

            units = decompose(
                sorted(all_experiments()), scale=args.scale,
                seeds=(args.seed,), kernel=args.kernel,
            )
            index_of = {unit: index for index, unit in enumerate(units)}
            buffered: dict[int, Any] = {}
            cursor = 0

            def on_progress(done: int, total: int, outcome: Any) -> None:
                # Emit reports in registry order as soon as every earlier
                # unit has finished, so the stream stays deterministic
                # under --jobs N while a crash keeps the completed prefix.
                nonlocal cursor
                buffered[index_of[outcome.unit]] = outcome
                while cursor in buffered:
                    ready = buffered.pop(cursor)
                    cursor += 1
                    if ready.result is not None:
                        emit(ready.result.render())
                        emit("")

            outcomes = execute(units, jobs=args.jobs, progress=on_progress)
            raise_on_errors(outcomes)
        elif not args.experiment:
            parser.error("give an experiment id, --all, or --list")
        else:
            emit(
                run_experiment(
                    args.experiment, scale=args.scale, seed=args.seed,
                    kernel=args.kernel,
                ).render()
            )
    finally:
        if output is not None:
            output.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
