"""Ablation A2 — flash-card erasure-unit (segment) size.

The paper's conclusion: "the erasure unit of flash memory, which is fixed
by the hardware manufacturer, can significantly influence file system
performance.  Large erasure units require a low space utilization."  This
sweep varies the segment size at fixed utilization; the fixed 1.6 s erase
time amortizes better over large segments, while copy overhead grows with
them — the tension the paper describes.
"""

from __future__ import annotations

from repro.core.config import SimulationConfig
from repro.core.simulator import simulate
from repro.experiments.base import Experiment, ExperimentResult, Table
from repro.experiments.traces_cache import dram_for, trace_for
from repro.units import KB

SEGMENT_SIZES = (16 * KB, 32 * KB, 64 * KB, 128 * KB, 256 * KB)


def run(scale: float = 1.0, trace_name: str = "mac",
        utilization: float = 0.90, seed: int | None = None) -> ExperimentResult:
    """Sweep the erasure-unit size on the Intel card."""
    trace = trace_for(trace_name, scale, seed=seed)
    rows = []
    for segment in SEGMENT_SIZES:
        config = SimulationConfig(
            device="intel-datasheet",
            dram_bytes=dram_for(trace_name),
            flash_utilization=utilization,
            segment_bytes=segment,
        )
        result = simulate(trace, config)
        stats = result.device_stats
        rows.append(
            (
                segment // KB,
                round(result.energy_j, 1),
                round(result.write_response.mean_ms, 3),
                round(result.write_response.max_ms, 1),
                int(stats["segments_cleaned"]),
                int(stats["blocks_copied"]),
                round(stats["write_stall_s"], 1),
            )
        )

    table = Table(
        title=f"A2: segment-size sweep ({trace_name}, {utilization:.0%} utilized)",
        headers=(
            "segment KB", "energy J", "wr mean ms", "wr max ms",
            "cleanings", "copies", "stall s",
        ),
        rows=tuple(rows),
    )
    return ExperimentResult(
        experiment_id="ablation-segment",
        title="Erasure-unit size ablation",
        tables=(table,),
        notes=(
            "Small segments copy less per cleaning but pay the fixed "
            "1.6 s erase far more often; large segments amortize erasure "
            "but drag more live data.",
        ),
        scale=scale,
    )


EXPERIMENT = Experiment(
    experiment_id="ablation-segment",
    title="Erasure-unit size ablation",
    paper_ref="DESIGN.md A2 (paper section 7)",
    run=run,
    traces=("mac",),
)
