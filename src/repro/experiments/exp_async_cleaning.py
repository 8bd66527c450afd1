"""Section 5.3 — asynchronous cleaning on the SunDisk SDP5A flash disk.

"The next generation of SunDisk flash products, the sdp5a, will have the
ability to erase blocks prior to writing them ... Asynchronous cleaning
has minimal impact on energy consumption, but it decreases the average
write time for each of the traces by 56-61%."  (A factor-of-2.5 write
response improvement, per the abstract.)
"""

from __future__ import annotations

from repro.core.config import SimulationConfig
from repro.core.simulator import simulate
from repro.experiments.base import Experiment, ExperimentResult, Table
from repro.experiments.traces_cache import dram_for, trace_for


def run(scale: float = 1.0, traces: tuple[str, ...] = ("mac", "dos", "hp"),
        seed: int | None = None) -> ExperimentResult:
    """Compare the SDP5 (coupled erase+write) with the SDP5A (asynchronous
    pre-erasure) on each trace."""
    rows = []
    for trace_name in traces:
        trace = trace_for(trace_name, scale, seed=seed)
        results = {}
        for device in ("sdp5-datasheet", "sdp5a-datasheet"):
            config = SimulationConfig(
                device=device,
                dram_bytes=dram_for(trace_name),
            )
            results[device] = simulate(trace, config)
        sync = results["sdp5-datasheet"]
        async_result = results["sdp5a-datasheet"]
        write_reduction = 1.0 - (
            async_result.write_response.mean_s / sync.write_response.mean_s
        )
        energy_change = async_result.energy_j / sync.energy_j - 1.0
        stats = async_result.device_stats
        rows.append(
            (
                trace_name,
                round(sync.write_response.mean_ms, 2),
                round(async_result.write_response.mean_ms, 2),
                f"{write_reduction * 100:.0f}%",
                round(sync.energy_j, 1),
                round(async_result.energy_j, 1),
                f"{energy_change * 100:+.1f}%",
                int(stats["pre_erased_sector_writes"]),
                int(stats["coupled_sector_writes"]),
            )
        )

    table = Table(
        title="Section 5.3: SDP5 coupled vs SDP5A asynchronous erasure",
        headers=(
            "trace",
            "sync wr ms", "async wr ms", "wr reduction",
            "sync E J", "async E J", "E change",
            "pre-erased sectors", "coupled sectors",
        ),
        rows=tuple(rows),
    )
    return ExperimentResult(
        experiment_id="async-cleaning",
        title="Asynchronous erasure on the flash disk",
        tables=(table,),
        notes=(
            "The paper reports a 56-61% write-time reduction with minimal "
            "energy impact.",
        ),
        scale=scale,
    )


EXPERIMENT = Experiment(
    experiment_id="async-cleaning",
    title="Asynchronous erasure on the flash disk",
    paper_ref="Section 5.3",
    run=run,
    traces=("mac", "dos", "hp"),
)
