"""Fitted-workload replay — fit a workload, extend it, and hold the
extension to its source's Table 3 row and simulated behaviour.

This is the conformance gate for the fitting pipeline (DESIGN.md
section 4j): the fitted model is only trustworthy if a fresh, *longer*
realisation still looks like the source, both statistically (every
Table 3 field within :data:`~repro.contract.FITTED_TOLERANCES`) and
to the simulator (energy per operation and mean response times on the
same device within a small factor).

By default the experiment fits one of the bundled workloads in memory;
pass ``model="<model.json>"`` (a saved ``repro fit`` artifact) to
replay a fitted import instead.
"""

from __future__ import annotations

from repro.contract import FITTED_TOLERANCES, check_conformance
from repro.core.config import SimulationConfig
from repro.core.results import SimulationResult
from repro.core.simulator import simulate
from repro.experiments.base import Experiment, ExperimentResult, Table
from repro.experiments.traces_cache import dram_for, trace_for
from repro.traces.fitting import FittedWorkload, fit_trace
from repro.traces.stats import compute_statistics
from repro.traces.trace import Trace

#: How much longer the verification extension is than the source.
EXTENSION_FACTOR = 2.0
#: Device used for the simulated-behaviour comparison.
REPLAY_DEVICE = "intel-measured"


def _simulate(trace: Trace, dram_bytes: int) -> SimulationResult:
    config = SimulationConfig(
        device=REPLAY_DEVICE,
        dram_bytes=dram_bytes,
        spin_down_timeout_s=5.0,
        flash_utilization=0.8,
    )
    return simulate(trace, config)


def run(
    scale: float = 1.0,
    workload: str = "synth",
    model: str | None = None,
    seed: int | None = None,
) -> ExperimentResult:
    """Fit (or load) a workload model, extend it 2x, and report
    statistical conformance plus simulated-behaviour drift."""
    replay_seed = 1 if seed is None else seed
    if model is not None:
        # Accept the same ``fitted:<model.json>`` spelling the CLI's
        # --workload flag uses, so one string works everywhere (and the
        # engine fingerprint content-addresses it either way).
        fitted = FittedWorkload.load(model.removeprefix("fitted:"))
        source = fitted.generate(seed=replay_seed)
        source_label = f"model {model}"
    else:
        source = trace_for(workload, scale, seed=seed)
        fitted = fit_trace(source)
        source_label = f"workload {workload!r}"
    reference = fitted.reference
    # Floor the extension length: statistical conformance of a bursty
    # arrival process is meaningless over a few hundred gaps (the mean
    # is dominated by rare long pauses), so tiny --scale runs still
    # verify against a usefully long realisation.
    n_ops = max(4000, int(round(reference.n_records * EXTENSION_FACTOR)))
    # The extension deliberately uses a different seed than the source:
    # conformance must hold for a *new* realisation, not a replay.
    extension = fitted.generate(seed=replay_seed + 1, n_ops=n_ops)
    conformance = check_conformance(
        reference,
        compute_statistics(extension),
        tolerances=FITTED_TOLERANCES,
    )

    conformance_rows = tuple(
        (
            check.field,
            round(check.reference, 4),
            round(check.candidate, 4),
            round(check.deviation, 4),
            check.tolerance,
            "ok" if check.ok else "FAIL",
        )
        for check in conformance.checks
    )

    dram = dram_for(workload)
    source_sim = _simulate(source, dram)
    extension_sim = _simulate(extension, dram)
    source_ops = max(1, len(source))
    extension_ops = max(1, len(extension))
    sim_rows = tuple(
        (label, round(value_source, 4), round(value_extension, 4))
        for label, value_source, value_extension in (
            ("energy mJ/op",
             1000.0 * source_sim.energy_j / source_ops,
             1000.0 * extension_sim.energy_j / extension_ops),
            ("read mean ms",
             source_sim.read_response.mean_ms,
             extension_sim.read_response.mean_ms),
            ("write mean ms",
             source_sim.write_response.mean_ms,
             extension_sim.write_response.mean_ms),
        )
    )

    return ExperimentResult(
        experiment_id="fitted_replay",
        title="Fitted-workload replay conformance",
        tables=(
            Table(
                title=(
                    f"Conformance: {EXTENSION_FACTOR:g}x extension of "
                    f"{source_label} vs its Table 3 row — "
                    f"{'OK' if conformance.ok else 'FAIL'}"
                ),
                headers=("field", "reference", "extension", "deviation",
                         "tolerance", "verdict"),
                rows=conformance_rows,
            ),
            Table(
                title=f"Simulated behaviour on {REPLAY_DEVICE} "
                      f"(source vs extension, per-operation)",
                headers=("metric", "source", "extension"),
                rows=sim_rows,
            ),
        ),
        notes=(
            "The extension is a fresh realisation (different seed), "
            f"{EXTENSION_FACTOR:g}x the source's length; statistical "
            "conformance uses the fitted tolerance table, and the "
            "simulation comparison shows per-operation energy and mean "
            "response times carrying over to the simulator's view.",
        ),
        scale=scale,
    )


EXPERIMENT = Experiment(
    experiment_id="fitted_replay",
    title="Fitted-workload replay conformance",
    paper_ref="Table 3 (methodology: section 4.1)",
    run=run,
    traces=("synth",),
)
