"""Ablation A1 — flash-card cleaning policy.

The paper uses the MFFS greedy (lowest-utilization) victim policy and
mentions the design space: "More complicated metrics are possible; for
example, eNVy considers both utilization and locality."  This ablation
compares greedy, Sprite-LFS cost-benefit, and an eNVy-style hybrid at a
high storage utilization, where victim choice matters most.
"""

from __future__ import annotations

from repro.core.config import SimulationConfig
from repro.core.simulator import simulate
from repro.experiments.base import Experiment, ExperimentResult, Table
from repro.experiments.traces_cache import dram_for, trace_for

POLICIES = ("greedy", "cost-benefit", "envy")


def run(scale: float = 1.0, traces: tuple[str, ...] = ("mac", "hp"),
        utilization: float = 0.90, seed: int | None = None) -> ExperimentResult:
    """Compare cleaning policies on the Intel card at high utilization."""
    rows = []
    for trace_name in traces:
        trace = trace_for(trace_name, scale, seed=seed)
        for policy in POLICIES:
            config = SimulationConfig(
                device="intel-datasheet",
                dram_bytes=dram_for(trace_name),
                flash_utilization=utilization,
                cleaning_policy=policy,
            )
            result = simulate(trace, config)
            stats = result.device_stats
            rows.append(
                (
                    trace_name,
                    policy,
                    round(result.energy_j, 1),
                    round(result.write_response.mean_ms, 3),
                    round(result.write_response.max_ms, 1),
                    int(stats["segments_cleaned"]),
                    int(stats["blocks_copied"]),
                    result.wear.max_erasures if result.wear else 0,
                )
            )

    table = Table(
        title=f"A1: cleaning policies at {utilization:.0%} utilization",
        headers=(
            "trace", "policy", "energy J", "wr mean ms", "wr max ms",
            "cleanings", "copies", "max erase",
        ),
        rows=tuple(rows),
    )
    return ExperimentResult(
        experiment_id="ablation-cleaner",
        title="Cleaning-policy ablation",
        tables=(table,),
        notes=(
            "Age-aware policies (cost-benefit, envy) should copy fewer "
            "blocks than pure greedy when hot and cold data mix.",
        ),
        scale=scale,
    )


EXPERIMENT = Experiment(
    experiment_id="ablation-cleaner",
    title="Cleaning-policy ablation",
    paper_ref="DESIGN.md A1 (paper section 2)",
    run=run,
    traces=("mac", "hp"),
)
