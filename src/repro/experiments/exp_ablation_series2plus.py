"""Ablation A5 — Intel Series 2+ (the paper's "newer hardware" note).

"The newer 16-Mbit Intel Series 2+ Flash Memory Cards erase blocks in
300ms [9], but these were not available to us during this study", and they
"guarantee one million erasures per block".  This ablation swaps the
Series 2+ parameters in and measures what the faster erase and bigger
cycle budget buy on the stall-heavy hp trace.
"""

from __future__ import annotations

from repro.analysis.endurance import endurance_report
from repro.core.config import SimulationConfig
from repro.core.simulator import simulate
from repro.experiments.base import Experiment, ExperimentResult, Table
from repro.experiments.traces_cache import dram_for, trace_for

DEVICES = ("intel-datasheet", "intel-series2plus")


def run(scale: float = 1.0, traces: tuple[str, ...] = ("hp", "mac"),
        utilization: float = 0.90, seed: int | None = None) -> ExperimentResult:
    """Series 2 vs Series 2+ at high utilization."""
    rows = []
    for trace_name in traces:
        trace = trace_for(trace_name, scale, seed=seed)
        for device in DEVICES:
            config = SimulationConfig(
                device=device,
                dram_bytes=dram_for(trace_name),
                flash_utilization=utilization,
            )
            result = simulate(trace, config)
            stats = result.device_stats
            life = endurance_report(result).lifetime_hours
            rows.append(
                (
                    trace_name,
                    device,
                    round(result.energy_j, 1),
                    round(result.write_response.mean_ms, 3),
                    round(result.write_response.max_ms, 1),
                    round(stats["write_stall_s"], 1),
                    int(stats["stalled_writes"]),
                    round(life, 0) if life != float("inf") else "inf",
                )
            )

    table = Table(
        title=f"A5: Series 2 vs Series 2+ at {utilization:.0%} utilization",
        headers=(
            "trace", "device", "energy J",
            "wr mean ms", "wr max ms",
            "stall s", "stalled writes", "lifetime h",
        ),
        rows=tuple(rows),
    )
    return ExperimentResult(
        experiment_id="ablation-series2plus",
        title="Intel Series 2+ ablation",
        tables=(table,),
        notes=(
            "The 300 ms erase should slash worst-case write responses and "
            "stall time; the million-cycle budget multiplies projected "
            "lifetime by ~10x beyond any wear-rate change.",
        ),
        scale=scale,
    )


EXPERIMENT = Experiment(
    experiment_id="ablation-series2plus",
    title="Intel Series 2+ ablation",
    paper_ref="DESIGN.md A5 (paper sections 2, 7)",
    run=run,
    traces=("hp", "mac"),
)
