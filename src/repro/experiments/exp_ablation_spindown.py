"""Ablation A3 — disk spin-down threshold.

The paper fixes the threshold at 5 s, "a good compromise between energy
consumption and response time" (citing Douglis et al. and Li et al.).
This sweep shows the compromise: short thresholds save idle energy but pay
spin-up delays and energy; long thresholds burn idle watts.
"""

from __future__ import annotations

from repro.core.config import SimulationConfig
from repro.core.simulator import simulate
from repro.experiments.base import Experiment, ExperimentResult, Table
from repro.experiments.traces_cache import dram_for, trace_for

THRESHOLDS = (0.5, 1.0, 2.0, 5.0, 10.0, 30.0, None)


def run(scale: float = 1.0, trace_name: str = "mac",
        seed: int | None = None) -> ExperimentResult:
    """Sweep the fixed spin-down threshold on the CU140."""
    trace = trace_for(trace_name, scale, seed=seed)
    rows = []
    for threshold in THRESHOLDS:
        config = SimulationConfig(
            device="cu140-datasheet",
            dram_bytes=dram_for(trace_name),
            spin_down_timeout_s=threshold,
        )
        result = simulate(trace, config)
        stats = result.device_stats
        rows.append(
            (
                "never" if threshold is None else threshold,
                round(result.energy_j, 1),
                round(result.read_response.mean_ms, 3),
                round(result.read_response.max_ms, 1),
                round(result.write_response.mean_ms, 3),
                int(stats["spin_ups"]),
            )
        )

    table = Table(
        title=f"A3: spin-down threshold sweep (CU140, {trace_name})",
        headers=(
            "threshold s", "energy J", "rd mean ms", "rd max ms",
            "wr mean ms", "spin-ups",
        ),
        rows=tuple(rows),
    )
    return ExperimentResult(
        experiment_id="ablation-spindown",
        title="Spin-down threshold ablation",
        tables=(table,),
        notes=(
            "The 5 s default should sit near the energy knee without the "
            "response-time penalties of sub-second thresholds.",
        ),
        scale=scale,
    )


EXPERIMENT = Experiment(
    experiment_id="ablation-spindown",
    title="Spin-down threshold ablation",
    paper_ref="DESIGN.md A3 (paper section 4.2)",
    run=run,
    traces=("mac",),
)
