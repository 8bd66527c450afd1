"""Section 7 headline numbers — the conclusions' quantitative claims.

* "the flash disk file system can save 59-86% of the energy of the disk
  file system.  It is 3-6 times faster for reads, but its mean write
  response is a minimum of four times worse."
* "the flash memory file system can save 90% of the energy of the disk
  file system, extending battery life by 20-100%."
* the abstract's "22% extension of battery life" (storage at ~20% of
  system energy).
"""

from __future__ import annotations

from repro.analysis.battery import battery_extension
from repro.experiments.base import Experiment, ExperimentResult, Table
from repro.experiments.exp_table4 import simulate_row


def run(scale: float = 1.0, traces: tuple[str, ...] = ("mac", "dos", "hp"),
        seed: int | None = None) -> ExperimentResult:
    """Derive the section 7 claims from fresh Table 4 runs."""
    comparison_rows = []
    battery_rows = []
    for trace_name in traces:
        disk = simulate_row(trace_name, "cu140-datasheet", scale, seed=seed)
        flash_disk = simulate_row(trace_name, "sdp5-datasheet", scale, seed=seed)
        card = simulate_row(trace_name, "intel-datasheet", scale, seed=seed)

        def saving(alternative) -> float:
            return 1.0 - alternative.energy_j / disk.energy_j

        def read_speedup(alternative) -> float:
            if alternative.read_response.mean_s <= 0:
                return float("inf")
            return disk.read_response.mean_s / alternative.read_response.mean_s

        def write_slowdown(alternative) -> float:
            if disk.write_response.mean_s <= 0:
                return float("inf")
            return alternative.write_response.mean_s / disk.write_response.mean_s

        comparison_rows.append(
            (
                trace_name, "sdp5 vs cu140",
                f"{saving(flash_disk) * 100:.0f}%",
                round(read_speedup(flash_disk), 1),
                round(write_slowdown(flash_disk), 1),
            )
        )
        comparison_rows.append(
            (
                trace_name, "intel vs cu140",
                f"{saving(card) * 100:.0f}%",
                round(read_speedup(card), 1),
                round(write_slowdown(card), 1),
            )
        )
        for share, label in ((0.20, "20% share"), (0.54, "54% share")):
            battery_rows.append(
                (
                    trace_name,
                    label,
                    f"{battery_extension(disk, card, share) * 100:.0f}%",
                    f"{battery_extension(disk, flash_disk, share) * 100:.0f}%",
                )
            )

    return ExperimentResult(
        experiment_id="headline",
        title="Section 7 headline claims",
        tables=(
            Table(
                title="Flash vs disk: energy saving, read speedup, write slowdown",
                headers=("trace", "pair", "energy saved", "read x faster",
                         "write x slower"),
                rows=tuple(comparison_rows),
            ),
            Table(
                title="Battery-life extension (storage share of system energy)",
                headers=("trace", "storage share", "card extension",
                         "flash-disk extension"),
                rows=tuple(battery_rows),
            ),
        ),
        notes=(
            "Paper claims: flash disk saves 59-86% energy, 3-6x faster "
            "reads, >=4x slower writes; card saves ~90% and extends "
            "battery life 20-100% (22% at a 20% storage share).",
        ),
        scale=scale,
    )


EXPERIMENT = Experiment(
    experiment_id="headline",
    title="Section 7 headline claims",
    paper_ref="Section 7 / Abstract",
    run=run,
    traces=("mac", "dos", "hp"),
)
