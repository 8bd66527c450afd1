"""Section 5.2 endurance — how storage utilization burns out the flash.

"For the mac trace, the maximum number of erasures for any one segment
over the course of the simulation increases from 7 to 34, while the mean
erasure count goes up from 0.9 to 1.9 (110%).  For the hp trace the
erasure count tripled.  Thus higher storage utilizations can result in
'burning out' the flash two to three times faster under this workload."
"""

from __future__ import annotations

from repro.analysis.endurance import endurance_report
from repro.core.config import SimulationConfig
from repro.core.simulator import simulate
from repro.experiments.base import Experiment, ExperimentResult, Table
from repro.experiments.exp_fig2 import fixed_capacity_bytes
from repro.experiments.traces_cache import dram_for, trace_for

LOW_UTILIZATION = 0.40
HIGH_UTILIZATION = 0.95


def run(scale: float = 1.0, traces: tuple[str, ...] = ("mac", "hp"),
        seed: int | None = None) -> ExperimentResult:
    """Compare wear at 40% vs 95% utilization."""
    segment_bytes = 128 * 1024
    rows = []
    for trace_name in traces:
        trace = trace_for(trace_name, scale, seed=seed)
        capacity = fixed_capacity_bytes(trace, segment_bytes, LOW_UTILIZATION)
        results = {}
        for utilization in (LOW_UTILIZATION, HIGH_UTILIZATION):
            config = SimulationConfig(
                device="intel-datasheet",
                dram_bytes=dram_for(trace_name),
                flash_utilization=utilization,
                flash_capacity_bytes=capacity,
                segment_bytes=segment_bytes,
            )
            results[utilization] = simulate(trace, config)
        low, high = results[LOW_UTILIZATION], results[HIGH_UTILIZATION]
        report = endurance_report(high, baseline=low)
        low_report = endurance_report(low)
        rows.append(
            (
                trace_name,
                low.wear.max_erasures,
                high.wear.max_erasures,
                round(low.wear.mean_erasures, 2),
                round(high.wear.mean_erasures, 2),
                round(report.wear_ratio_vs_baseline, 2),
                round(low_report.lifetime_hours, 0),
                round(report.lifetime_hours, 0),
            )
        )

    table = Table(
        title="Section 5.2: flash endurance at 40% vs 95% utilization",
        headers=(
            "trace",
            "max erase @40%", "max erase @95%",
            "mean erase @40%", "mean erase @95%",
            "burn-out ratio",
            "life h @40%", "life h @95%",
        ),
        rows=tuple(rows),
    )
    return ExperimentResult(
        experiment_id="endurance",
        title="Flash endurance vs utilization",
        tables=(table,),
        notes=(
            "The paper: mac max erasures 7 -> 34, mean 0.9 -> 1.9; hp "
            "erase count tripled — i.e., burn-out 2-3x faster at high "
            "utilization.",
        ),
        scale=scale,
    )


EXPERIMENT = Experiment(
    experiment_id="endurance",
    title="Flash endurance vs utilization",
    paper_ref="Section 5.2",
    run=run,
    traces=("mac", "hp"),
)
