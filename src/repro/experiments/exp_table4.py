"""Tables 4(a)-(c) — energy consumption and response times for seven
device parameter sets across the mac, dos, and hp traces.

Configuration follows the paper: 2 MB DRAM for mac and dos, none for hp;
disks spin down after 5 s of inactivity (with the default 32 KB SRAM write
buffer, the paper's "benefit of the doubt"); flash cards run 80% utilized.
"""

from __future__ import annotations

from repro.core.config import SimulationConfig
from repro.core.results import SimulationResult
from repro.core.simulator import simulate
from repro.experiments.base import Experiment, ExperimentResult, Table
from repro.experiments.traces_cache import dram_for, trace_for

#: The seven Table 4 rows, in the paper's order.
DEVICE_ROWS = (
    "cu140-measured",
    "cu140-datasheet",
    "kh-datasheet",
    "sdp10-measured",
    "sdp5-datasheet",
    "intel-measured",
    "intel-datasheet",
)

#: Paper values: {trace: {device: (energy J, rd mean, rd max, rd sigma,
#: wr mean, wr max, wr sigma)}} — milliseconds.
PAPER_TABLE4 = {
    "mac": {
        "cu140-measured": (8854, 2.75, 3535.3, 50.5, 0.93, 3505.5, 38.1),
        "cu140-datasheet": (8751, 2.04, 3516.2, 48.7, 0.77, 3493.6, 37.8),
        "kh-datasheet": (9945, 8.70, 1675.0, 94.6, 1.03, 1536.2, 30.2),
        "sdp10-measured": (1516, 0.50, 1001.7, 7.6, 26.74, 586.3, 45.6),
        "sdp5-datasheet": (1190, 0.35, 619.9, 4.7, 16.07, 350.4, 27.3),
        "intel-measured": (1746, 0.35, 665.6, 5.0, 32.30, 1787.9, 78.8),
        "intel-datasheet": (888, 0.12, 105.2, 0.9, 5.65, 147.3, 9.9),
    },
    "dos": {
        "cu140-measured": (1495, 9.82, 2746.1, 58.7, 0.42, 5.6, 0.4),
        "cu140-datasheet": (1466, 6.80, 2717.6, 57.4, 0.42, 5.6, 0.4),
        "kh-datasheet": (1786, 17.35, 1560.9, 131.2, 4.56, 1476.5, 77.3),
        "sdp10-measured": (733, 2.94, 120.2, 5.6, 36.60, 317.6, 19.7),
        "sdp5-datasheet": (606, 1.98, 77.5, 3.6, 21.88, 190.6, 11.8),
        "intel-measured": (731, 1.96, 80.8, 3.8, 38.41, 939.0, 21.5),
        "intel-datasheet": (451, 0.51, 17.0, 0.8, 7.85, 459.7, 5.2),
    },
    "hp": {
        "cu140-measured": (21370, 57.26, 3537.4, 145.3, 30.46, 3505.9, 152.7),
        "cu140-datasheet": (20659, 38.65, 3505.2, 142.5, 22.60, 3475.1, 151.6),
        "kh-datasheet": (28887, 81.96, 1620.9, 277.0, 107.06, 1552.9, 362.2),
        "sdp10-measured": (4972, 10.50, 40.4, 6.9, 138.96, 5734.4, 101.0),
        "sdp5-datasheet": (4448, 6.40, 24.9, 4.2, 82.80, 3412.5, 60.1),
        "intel-measured": (3865, 6.58, 24.8, 4.4, 155.52, 7143.9, 182.7),
        "intel-datasheet": (2167, 0.42, 1.6, 0.3, 36.72, 1922.9, 118.5),
    },
}


def simulate_row(trace_name: str, device: str, scale: float,
                 seed: int | None = None) -> SimulationResult:
    """One Table 4 cell: one device on one trace at the paper's settings."""
    trace = trace_for(trace_name, scale, seed=seed)
    config = SimulationConfig(
        device=device,
        dram_bytes=dram_for(trace_name),
        spin_down_timeout_s=5.0,
        flash_utilization=0.8,
    )
    return simulate(trace, config)


def run(scale: float = 1.0, traces: tuple[str, ...] = ("mac", "dos", "hp"),
        seed: int | None = None) -> ExperimentResult:
    """Regenerate Tables 4(a)-(c)."""
    tables = []
    for trace_name in traces:
        rows = []
        for device in DEVICE_ROWS:
            result = simulate_row(trace_name, device, scale, seed=seed)
            # Non-paper traces (synth, fitted models) have no Table 4
            # reference column; the simulated columns still apply.
            paper = PAPER_TABLE4.get(trace_name, {}).get(device)
            rows.append(
                (
                    device,
                    round(result.energy_j, 0),
                    round(result.read_response.mean_ms, 2),
                    round(result.read_response.max_ms, 1),
                    round(result.write_response.mean_ms, 2),
                    round(result.write_response.max_ms, 1),
                    paper[0] if paper else "—",
                    paper[1] if paper else "—",
                    paper[4] if paper else "—",
                )
            )
        tables.append(
            Table(
                title=f"Table 4 ({trace_name}): energy and response times",
                headers=(
                    "device", "energy J",
                    "rd mean ms", "rd max ms",
                    "wr mean ms", "wr max ms",
                    "paper E", "paper rd", "paper wr",
                ),
                rows=tuple(rows),
            )
        )
    return ExperimentResult(
        experiment_id="table4",
        title="Device comparison across traces",
        tables=tuple(tables),
        notes=(
            "Absolute Joules scale with the synthetic traces' volumes; the "
            "paper-matching claims are the orderings and ratios (flash an "
            "order of magnitude below disk; card cheapest on energy; card "
            "fastest reads; disk+SRAM fastest writes).",
        ),
        scale=scale,
    )


EXPERIMENT = Experiment(
    experiment_id="table4",
    title="Device comparison across traces",
    paper_ref="Tables 4(a)-(c)",
    run=run,
    traces=("mac", "dos", "hp"),
)
