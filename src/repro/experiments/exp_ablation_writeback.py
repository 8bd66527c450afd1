"""Ablation A4 — write-back vs write-through DRAM buffer cache.

The paper's aside (section 4.2): "A write-back cache might avoid some
erasures at the cost of occasional data loss.", and its footnote about DOS
making write-through "a user-configurable option" after users lost data.
This ablation quantifies the avoided device writes/erasures.
"""

from __future__ import annotations

from repro.core.config import SimulationConfig
from repro.core.simulator import simulate
from repro.experiments.base import Experiment, ExperimentResult, Table
from repro.experiments.traces_cache import dram_for, trace_for

DEVICES = ("cu140-datasheet", "intel-datasheet")


def run(scale: float = 1.0, traces: tuple[str, ...] = ("mac", "dos"),
        seed: int | None = None) -> ExperimentResult:
    """Compare write-through and write-back caches per device and trace."""
    rows = []
    for trace_name in traces:
        trace = trace_for(trace_name, scale, seed=seed)
        for device in DEVICES:
            results = {}
            for write_back in (False, True):
                config = SimulationConfig(
                    device=device,
                    dram_bytes=dram_for(trace_name),
                    write_back=write_back,
                )
                results[write_back] = simulate(trace, config)
            through, back = results[False], results[True]
            through_writes = through.device_stats["bytes_written"]
            back_writes = back.device_stats["bytes_written"]
            erase_note = "-"
            if through.wear is not None and back.wear is not None:
                erase_note = (
                    f"{through.wear.total_erasures} -> {back.wear.total_erasures}"
                )
            rows.append(
                (
                    trace_name,
                    device,
                    round(through.energy_j, 1),
                    round(back.energy_j, 1),
                    round(through.write_response.mean_ms, 3),
                    round(back.write_response.mean_ms, 3),
                    f"{(1 - back_writes / through_writes) * 100:.0f}%"
                    if through_writes else "-",
                    erase_note,
                )
            )

    table = Table(
        title="A4: write-through vs write-back DRAM cache",
        headers=(
            "trace", "device",
            "E through J", "E back J",
            "wr through ms", "wr back ms",
            "device-write bytes saved", "erasures",
        ),
        rows=tuple(rows),
    )
    return ExperimentResult(
        experiment_id="ablation-writeback",
        title="Write-back cache ablation",
        tables=(table,),
        notes=(
            "Write-back absorbs overwrites in DRAM, cutting device writes "
            "and flash erasures — the paper's data-loss-versus-wear "
            "trade-off made quantitative.",
        ),
        scale=scale,
    )


EXPERIMENT = Experiment(
    experiment_id="ablation-writeback",
    title="Write-back cache ablation",
    paper_ref="DESIGN.md A4 (paper section 4.2)",
    run=run,
    traces=("mac", "dos"),
)
