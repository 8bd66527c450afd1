"""The ``fleet`` experiment driver: one shard of a device population.

Registered like any paper experiment so fleet shards ride the full
engine stack — result cache, manifests, retries, chaos — unchanged.  The
unit kwargs ``(devices, ops, shard, shards)`` select a contiguous slice
of the fleet; device identity comes from per-device hash seeds (see
:mod:`repro.fleet.population`), so the same fleet cut into any number of
shards simulates exactly the same devices.

The first table carries one row per device — the machine-facing payload
:func:`repro.fleet.runner.rows_from_result` reads back for population
aggregation; the second is this shard's own distribution summary for
human eyes.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.experiments.base import Experiment, ExperimentResult, Table
from repro.fleet.population import (
    METRIC_FIELDS,
    FleetSpec,
    sample_devices,
    simulate_device,
)

#: Registry defaults: a fleet small enough for golden-corpus runs.
DEFAULT_DEVICES = 12
DEFAULT_OPS = 400

#: Title prefix of the per-device table (the runner greps for this).
DEVICES_TABLE_TITLE = "Fleet devices"

#: Columns of the per-device table, in row order.
DEVICE_COLUMNS = ("device", "workload", "spec", "ops") + METRIC_FIELDS


def shard_indices(devices: int, shard: int, shards: int) -> range:
    """Device indices of one contiguous shard (balanced to within 1)."""
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    if not 0 <= shard < shards:
        raise ConfigurationError(f"shard must be in [0, {shards}), got {shard}")
    return range(devices * shard // shards, devices * (shard + 1) // shards)


def run(
    scale: float = 1.0,
    seed: int | None = None,
    devices: int = DEFAULT_DEVICES,
    shard: int = 0,
    shards: int = 1,
    ops: int = DEFAULT_OPS,
    fast: bool = False,
) -> ExperimentResult:
    """Simulate shard ``shard``/``shards`` of an ``devices``-strong fleet.

    ``fast=True`` runs the shard through :mod:`repro.fleet.synth` —
    byte-identical device parameters, synthesized traces, vectorized
    device math — and attaches the columnar payload for array-merge
    aggregation.  Population summaries then agree with the reference
    path within the fleet gate of :mod:`repro.contract`.
    """
    from repro.fleet.aggregate import aggregate_rows, pack_columns

    spec = FleetSpec(
        devices=devices,
        seed=0 if seed is None else seed,
        scale=scale,
        ops_per_device=ops,
    )
    indices = shard_indices(devices, shard, shards)
    columns = None
    if fast:
        from repro.fleet.synth import simulate_shard_fast

        rows, _ = simulate_shard_fast(spec, indices)
        if rows:
            columns = pack_columns(rows)
    else:
        samples = sample_devices(spec, indices)
        rows = [simulate_device(sample) for sample in samples]

    device_rows = tuple(
        tuple(
            "-" if row[column] is None else row[column]
            for column in DEVICE_COLUMNS
        )
        for row in rows
    )
    devices_table = Table(
        title=(
            f"{DEVICES_TABLE_TITLE} (shard {shard + 1}/{shards}: "
            f"devices {indices.start}..{indices.stop - 1})"
            if len(indices)
            else f"{DEVICES_TABLE_TITLE} (shard {shard + 1}/{shards}: empty)"
        ),
        headers=DEVICE_COLUMNS,
        rows=device_rows,
    )

    summary_rows = []
    if rows:
        shard_stats = aggregate_rows(rows)["metrics"]
        for metric in METRIC_FIELDS:
            stats = shard_stats[metric]
            if stats["count"] == 0:
                continue
            summary_rows.append(
                (metric, stats["count"], stats["mean"], stats["p50"],
                 stats["p90"], stats["max"])
            )
    summary_table = Table(
        title="Shard distribution",
        headers=("metric", "devices", "mean", "p50", "p90", "max"),
        rows=tuple(summary_rows),
    )

    notes = [
        "Each device's workload, storage device, cache sizes, and trace "
        "are drawn from sha256(fleet seed, device index), so shard "
        "boundaries and worker count never change any device's result.",
        "Population-level aggregation across shards is exact (sorted "
        "merge by device index); see repro.fleet.aggregate.",
    ]
    if fast:
        notes.append(
            "Fast path: parameters sampled exactly, traces synthesized and "
            "devices batched per repro.fleet.synth; population summaries "
            "agree with the reference path within the fleet gate of "
            "repro.contract."
        )
    return ExperimentResult(
        experiment_id="fleet",
        title="Fleet-scale device population (one shard)",
        tables=(devices_table, summary_table),
        notes=tuple(notes),
        scale=scale,
        columns=columns,
    )


EXPERIMENT = Experiment(
    experiment_id="fleet",
    title="Fleet-scale device population shard",
    paper_ref="extension (fleet populations)",
    run=run,
)
