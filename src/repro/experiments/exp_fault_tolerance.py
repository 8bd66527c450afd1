"""Fault-tolerance extension — reliability under injected storage faults.

The paper's reliability discussion is qualitative: battery-backed SRAM
makes buffered writes crash-safe (section 5.5), flash wears toward a
100,000-cycle endurance limit (section 5.2), and a write-back cache risks
"occasional data loss" (section 4.2).  This experiment makes those claims
quantitative by replaying the same workload through each storage
alternative under a deterministic fault plan: transient read/write errors
that cost bounded retries, bad-block growth that consumes spare segments,
and scheduled power losses with a modelled recovery scan.

Two tables come out:

* the **reliability table** — retries, torn writes, lost dirty blocks,
  SRAM replays, and recovery time per device alternative, next to the
  energy and response-time overhead the faults add over a clean run;
* the **bad-block growth table** — how rising erase-failure rates walk a
  flash card through its spares and into capacity loss.
"""

from __future__ import annotations

from repro.core.config import SimulationConfig
from repro.core.simulator import simulate
from repro.errors import FlashOutOfSpaceError
from repro.experiments.base import Experiment, ExperimentResult, Table
from repro.experiments.traces_cache import dram_for, trace_for
from repro.faults.plan import FaultPlan

#: transient error probability per device operation (read and write alike)
TRANSIENT_RATE = 0.01
#: base erase-failure probability (scaled up by per-segment wear); kept low
#: enough that the spares absorb the failures over the measured trace
BAD_BLOCK_RATE = 0.002
#: the storage alternatives compared, as (label, spec, config overrides)
ALTERNATIVES = (
    ("disk+sram", "cu140-datasheet", {}),
    ("flash card", "intel-datasheet", {}),
    ("flash disk", "sdp10-datasheet", {}),
)


def fault_plan_for(trace, seed: int = 0) -> FaultPlan:
    """The experiment's standard plan: transient errors throughout, plus
    three power losses spread over the measured part of the trace."""
    duration = max(trace.duration, 1.0)
    return FaultPlan(
        seed=seed,
        transient_read_rate=TRANSIENT_RATE,
        transient_write_rate=TRANSIENT_RATE,
        bad_block_rate=BAD_BLOCK_RATE,
        power_loss_times=(0.35 * duration, 0.60 * duration, 0.85 * duration),
    )


def run(
    scale: float = 1.0,
    trace_name: str = "synth",
    seed: int | None = None,
) -> ExperimentResult:
    """Compare the storage alternatives under one deterministic fault plan.

    ``seed`` retargets both the trace realisation and the fault schedule
    (``None`` keeps the published defaults: trace seed 1, plan seed 0).
    """
    trace = trace_for(trace_name, scale, seed=seed)
    plan_seed = 0 if seed is None else seed
    plan = fault_plan_for(trace, seed=plan_seed)
    dram_bytes = dram_for(trace_name)

    rows = []
    for label, device, overrides in ALTERNATIVES:
        config = SimulationConfig(device=device, dram_bytes=dram_bytes, **overrides)
        clean = simulate(trace, config)
        try:
            faulted = simulate(trace, config.with_options(fault_plan=plan))
        except FlashOutOfSpaceError:
            rows.append((label,) + ("-",) * 9 + ("card failed",))
            continue
        rel = faulted.reliability
        energy_overhead = (
            faulted.energy_j / clean.energy_j - 1.0 if clean.energy_j else 0.0
        )
        rows.append(
            (
                label,
                rel.read_retries + rel.write_retries,
                rel.power_losses,
                rel.torn_writes,
                rel.lost_dirty_blocks,
                rel.replayed_blocks,
                rel.erase_failures,
                rel.retired_segments + rel.retired_sectors,
                round(rel.recovery_time_s * 1e3, 2),
                round(100.0 * energy_overhead, 2),
                round(faulted.mean_overall_ms - clean.mean_overall_ms, 3),
            )
        )

    reliability_table = Table(
        title=(
            "Reliability under faults: transient rate "
            f"{TRANSIENT_RATE:g}, bad-block rate {BAD_BLOCK_RATE:g}, "
            "3 power losses"
        ),
        headers=(
            "alternative",
            "retries",
            "power losses",
            "torn writes",
            "lost dirty",
            "replayed",
            "erase fails",
            "retired",
            "recovery ms",
            "energy +%",
            "resp +ms",
        ),
        rows=tuple(rows),
    )

    growth_rows = []
    for rate in (0.0, 0.001, 0.005, 0.05):
        plan_rate = FaultPlan(seed=plan_seed, bad_block_rate=rate, spare_segments=2)
        config = SimulationConfig(
            device="intel-datasheet", dram_bytes=dram_bytes, fault_plan=plan_rate
        )
        try:
            result = simulate(trace, config)
        except FlashOutOfSpaceError:
            # Enough segments went bad that the card can no longer hold the
            # dataset: the end state of unchecked bad-block growth.
            growth_rows.append((rate, "-", "-", "-", "card failed"))
            continue
        rel = result.reliability
        if rel is None:  # the zero-rate plan is a strict no-op
            growth_rows.append((rate, 0, 0, 0, 2))
            continue
        growth_rows.append(
            (
                rate,
                rel.erase_failures,
                rel.remapped_segments,
                rel.retired_segments,
                rel.spares_remaining,
            )
        )

    growth_table = Table(
        title="Bad-block growth on the flash card (2 spare segments)",
        headers=(
            "erase-failure rate",
            "erase fails",
            "remapped",
            "retired",
            "spares left",
        ),
        rows=tuple(growth_rows),
    )

    return ExperimentResult(
        experiment_id="fault-tolerance",
        title="Fault injection and crash recovery",
        tables=(reliability_table, growth_table),
        notes=(
            "Same seed => identical counters: the fault schedule is "
            "deterministic, so reliability comparisons across alternatives "
            "see the same adversity.",
            "Battery-backed SRAM replays its dirty blocks after each power "
            "loss (paper section 5.5); DRAM contents are simply lost.",
            "Bad blocks first consume spare segments (capacity preserved), "
            "then retire segments outright (capacity shrinks); a full card "
            "with no spares raises FlashOutOfSpaceError.",
        ),
        scale=scale,
    )


EXPERIMENT = Experiment(
    experiment_id="fault-tolerance",
    title="Fault injection and crash recovery",
    paper_ref="Sections 4.2, 5.2, 5.5",
    run=run,
    traces=("synth",),
)
