"""Figure 5 — normalized energy and write response time as a function of
battery-backed SRAM write-buffer size, for each trace on the CU140.

"For the first two traces, using a 32-Kbyte SRAM buffer improves average
write response by a factor of 20 or more ... for the hp trace a 32-Kbyte
buffer only halves the average write response time, but a 512-Kbyte buffer
reduces it by another 20%.  A small SRAM buffer reduces energy by ... 21%
for the mac trace, 15% for dos, and just 4% for hp."
"""

from __future__ import annotations

from repro.core.config import SimulationConfig
from repro.core.simulator import simulate
from repro.experiments.base import Experiment, ExperimentResult, Table
from repro.experiments.traces_cache import dram_for, trace_for
from repro.units import KB

#: The paper's x axis.
SRAM_POINTS = (0, 32 * KB, 512 * KB, 1024 * KB)


def run(scale: float = 1.0, traces: tuple[str, ...] = ("mac", "dos", "hp"),
        seed: int | None = None) -> ExperimentResult:
    """Regenerate both Figure 5 panels (values normalized to no-SRAM)."""
    rows = []
    for trace_name in traces:
        trace = trace_for(trace_name, scale, seed=seed)
        baseline_energy = None
        baseline_write = None
        for sram in SRAM_POINTS:
            config = SimulationConfig(
                device="cu140-datasheet",
                dram_bytes=dram_for(trace_name),
                sram_bytes=sram,
                spin_down_timeout_s=5.0,
            )
            result = simulate(trace, config)
            if baseline_energy is None:
                baseline_energy = result.energy_j or 1e-12
                baseline_write = result.write_response.mean_s or 1e-12
            rows.append(
                (
                    trace_name,
                    sram // KB,
                    round(result.energy_j, 1),
                    round(result.write_response.mean_ms, 3),
                    round(result.energy_j / baseline_energy, 3),
                    round(result.write_response.mean_s / baseline_write, 4),
                )
            )

    table = Table(
        title="Figure 5: energy & write response vs SRAM size (CU140, "
        "normalized to no SRAM)",
        headers=(
            "trace", "SRAM KB", "energy J", "wr mean ms",
            "E/E(0)", "wr/wr(0)",
        ),
        rows=tuple(rows),
    )
    from repro.experiments.plotting import chart_from_rows

    charts = (
        chart_from_rows(
            rows, label_column=0, x_column=1, y_column=5,
            title="Figure 5(b): normalized write response vs SRAM size",
            x_label="SRAM size (KB)", y_label="wr / wr(no SRAM)",
        ),
    )
    return ExperimentResult(
        experiment_id="fig5",
        title="SRAM write-buffer sweep",
        tables=(table,),
        charts=charts,
        notes=(
            "Paper: 32 KB cuts write response >=20x for mac/dos, ~2x for "
            "hp; energy drops 21%/15%/4%; only hp benefits from more than "
            "32 KB.",
        ),
        scale=scale,
    )


EXPERIMENT = Experiment(
    experiment_id="fig5",
    title="SRAM write-buffer sweep",
    paper_ref="Figure 5",
    run=run,
    traces=("mac", "dos", "hp"),
)
