"""Ablation A7 — wear leveling.

The paper (section 2): "it is possible to spread the load over the flash
memory to avoid 'burning out' particular areas".  This ablation compares
plain greedy cleaning with the two leveling mechanisms in
:mod:`repro.flash.leveling`: the passive wear-aware tie-break and the
active cold-swap leveler.  The interesting trade: leveling evens out erase
counts (longer device life) at the cost of extra copies (cold data gets
moved on purpose).
"""

from __future__ import annotations

from repro.core.config import SimulationConfig
from repro.core.simulator import simulate
from repro.experiments.base import Experiment, ExperimentResult, Table
from repro.experiments.traces_cache import dram_for, trace_for

POLICIES = ("greedy", "wear-aware", "cold-swap")


def run(scale: float = 1.0, trace_name: str = "mac",
        utilization: float = 0.90, seed: int | None = None) -> ExperimentResult:
    """Compare leveling policies on the Intel card."""
    trace = trace_for(trace_name, scale, seed=seed)
    rows = []
    for policy in POLICIES:
        config = SimulationConfig(
            device="intel-datasheet",
            dram_bytes=dram_for(trace_name),
            flash_utilization=utilization,
            cleaning_policy=policy,
        )
        result = simulate(trace, config)
        stats = result.device_stats
        wear = result.wear
        spread = wear.max_erasures - (wear.total_erasures // max(1, wear.segments))
        lifetime = wear.lifetime_hours()
        rows.append(
            (
                policy,
                round(result.energy_j, 1),
                round(result.write_response.mean_ms, 3),
                int(stats["blocks_copied"]),
                wear.max_erasures,
                round(wear.mean_erasures, 2),
                spread,
                round(lifetime, 0) if lifetime != float("inf") else "inf",
            )
        )

    table = Table(
        title=f"A7: wear leveling ({trace_name}, {utilization:.0%} utilized)",
        headers=(
            "policy", "energy J", "wr mean ms", "copies",
            "max erase", "mean erase", "max-mean spread", "lifetime h",
        ),
        rows=tuple(rows),
    )
    return ExperimentResult(
        experiment_id="ablation-leveling",
        title="Wear-leveling ablation",
        tables=(table,),
        notes=(
            "Leveling narrows the max-mean erase spread (longer projected "
            "lifetime) in exchange for extra cleaning copies.",
        ),
        scale=scale,
    )


EXPERIMENT = Experiment(
    experiment_id="ablation-leveling",
    title="Wear-leveling ablation",
    paper_ref="DESIGN.md A7 (paper section 2)",
    run=run,
    traces=("mac",),
)
